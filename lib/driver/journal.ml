(* The write-ahead job journal behind crash-safe `hirc serve`.

   The server's durability contract is small and explicit: every
   *admitted* compile job is recorded before it runs, and marked done
   when its (exactly-one) completion is delivered.  A server that dies
   — kill -9, OOM, power loss — can then replay the journal on
   restart, re-enqueue every admitted-but-incomplete job, and finish
   them with byte-identical Verilog (the content-addressed cache makes
   the replayed work cheap; [Ir.with_isolated_ids] makes it
   deterministic).

   Record format: one record per line,

       <crc32-hex-8> SP <json> NL

   where the CRC-32 is computed over the JSON bytes.  Two record
   shapes:

       {"t":"admit", <the compile request's fields, client resolved>}
       {"t":"done","client":C,"id":I,"status":S}

   An admit record is the request in [Protocol]'s codec; its digest
   (the idempotency key) is recomputed on replay, so an admit written
   with a "digest" field, as earlier builds wrote, replays the same.
   Appends are write + fsync on an O_APPEND descriptor — a record is
   durable before the caller proceeds.  Torn-write tolerance on
   replay: a final line with no terminating newline is a truncated
   tail (the crash interrupted an append) and is dropped without
   complaint; a *complete* line that fails its CRC or does not parse
   is quarantined (counted and skipped) — corruption is never fatal
   and never silently trusted.

   Compaction rewrites the log to just the still-pending admit
   records through [Io.publish], the durable publish the cache uses,
   so a long-lived journal does not grow without bound.  All failure
   paths are exercised by the "journal.append" / "journal.mark" /
   "journal.replay" fault points. *)

(* ------------------------------------------------------------------ *)
(* CRC-32 (IEEE 802.3), table-driven                                   *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

(* On native ints, which hold the 32-bit value unboxed: no step sets a
   bit above bit 31. *)
let crc32 s =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  for i = 0 to String.length s - 1 do
    c := (!c lsr 8) lxor table.((!c lxor Char.code (String.unsafe_get s i)) land 0xFF)
  done;
  !c lxor 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* Record codec                                                        *)

let admit_json req =
  Json.Obj (("t", Json.Str "admit") :: Protocol.compile_req_to_fields req)

let record_line j =
  let payload = Json.to_string j in
  Printf.sprintf "%08x %s\n" (crc32 payload) payload

(* A complete line back to its JSON, CRC-checked. *)
let parse_record line =
  let n = String.length line in
  if n < 10 || line.[8] <> ' ' then Error "malformed record"
  else
    let crc_hex = String.sub line 0 8 in
    let payload = String.sub line 9 (n - 9) in
    match int_of_string_opt ("0x" ^ crc_hex) with
    | None -> Error "malformed CRC"
    | Some crc ->
      if crc <> crc32 payload then Error "CRC mismatch"
      else (
        match Json.parse payload with
        | Ok j -> Ok j
        | Error e -> Error ("bad JSON: " ^ e))

(* ------------------------------------------------------------------ *)
(* Filesystem plumbing                                                 *)

let log_path dir = Filename.concat dir "journal.log"

(* ------------------------------------------------------------------ *)
(* Appending                                                           *)

type t = { j_dir : string; j_fd : Unix.file_descr }

let open_journal ~dir =
  Io.mkdir_p dir;
  let fd =
    Unix.openfile (log_path dir) [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
  in
  { j_dir = dir; j_fd = fd }

let close t = try Unix.close t.j_fd with Unix.Unix_error _ -> ()

(* Journal IO failure is *degraded durability*, not a failed job: the
   caller counts it and keeps serving (clients recover the hole via
   idempotent resubmission). *)
let append t ~fault_point j =
  try
    Faults.point fault_point;
    Io.write_all t.j_fd (record_line j);
    Unix.fsync t.j_fd;
    Ok ()
  with
  | Faults.Injected p -> Error ("injected fault at " ^ p)
  | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | Sys_error msg -> Error msg

(* [req] carries the resolved client. *)
let append_admit t req = append t ~fault_point:"journal.append" (admit_json req)

let append_done t ~client ~id ~status =
  append t ~fault_point:"journal.mark"
    (Json.Obj
       [
         ("t", Json.Str "done");
         ("client", Json.Str client);
         ("id", Json.Str id);
         ("status", Json.Str status);
       ])

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)

type replay_result = {
  rr_pending : Protocol.compile_req list;
      (* admitted, never marked done; file order; each names its client *)
  rr_records : int;  (* records seen (complete lines) *)
  rr_completed : int;  (* done marks *)
  rr_quarantined : int;  (* CRC/parse failures and faulted records *)
  rr_torn_tail : bool;  (* unterminated final line was dropped *)
}

let empty_replay =
  { rr_pending = []; rr_records = 0; rr_completed = 0; rr_quarantined = 0; rr_torn_tail = false }

(* Split into complete lines; an unterminated tail is reported, not
   parsed — it is the expected signature of a crash mid-append. *)
let complete_lines text =
  let n = String.length text in
  let lines = ref [] in
  let start = ref 0 in
  for i = 0 to n - 1 do
    if text.[i] = '\n' then begin
      lines := String.sub text !start (i - !start) :: !lines;
      start := i + 1
    end
  done;
  (List.rev !lines, !start < n)

let replay ~dir =
  let path = log_path dir in
  if not (Sys.file_exists path) then empty_replay
  else begin
    let lines, torn = complete_lines (Io.read_file path) in
    let pending : (string * string, Protocol.compile_req) Hashtbl.t = Hashtbl.create 64 in
    let order = ref [] in  (* newest first *)
    let records = ref 0 and completed = ref 0 and quarantined = ref 0 in
    List.iter
      (fun line ->
        if String.trim line <> "" then begin
          incr records;
          match Faults.point "journal.replay" with
          | exception Faults.Injected _ -> incr quarantined
          | () -> (
            match parse_record line with
            | Error _ -> incr quarantined
            | Ok j -> (
              match Json.field_str j "t" with
              | Some "admit" -> (
                match Protocol.compile_req_of_json j with
                | Ok ({ Protocol.cr_client = Some client; _ } as req) ->
                  let key = (client, req.Protocol.cr_id) in
                  if not (Hashtbl.mem pending key) then order := key :: !order;
                  Hashtbl.replace pending key req
                | Ok _ | Error _ -> incr quarantined)
              | Some "done" -> (
                incr completed;
                match (Json.field_str j "client", Json.field_str j "id") with
                | Some client, Some id -> Hashtbl.remove pending (client, id)
                | _ -> ())
              | _ -> incr quarantined))
        end)
      lines;
    (* File order, deduplicated, still-pending only. *)
    let seen = Hashtbl.create 16 in
    let pending_list =
      List.rev !order
      |> List.filter_map (fun key ->
             if Hashtbl.mem seen key then None
             else begin
               Hashtbl.replace seen key ();
               Hashtbl.find_opt pending key
             end)
    in
    {
      rr_pending = pending_list;
      rr_records = !records;
      rr_completed = !completed;
      rr_quarantined = !quarantined;
      rr_torn_tail = torn;
    }
  end

let verify = replay

(* Rewrite the log down to its pending admits.  Crash-safe: the new
   log is complete and fsynced before the rename publishes it.
   Callers that just replayed pass [?result] so the rewritten log and
   the re-enqueued set agree exactly (a second replay under fault
   injection could disagree with the first). *)
let compact ?result ~dir () =
  try
    let r = match result with Some r -> r | None -> replay ~dir in
    Io.mkdir_p dir;
    Io.publish (log_path dir) (fun oc ->
        List.iter (fun req -> output_string oc (record_line (admit_json req))) r.rr_pending);
    Ok (List.length r.rr_pending)
  with
  | Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | Sys_error msg -> Error msg
