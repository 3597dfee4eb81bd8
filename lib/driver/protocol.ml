(* The line-JSON wire protocol for `hirc serve`.

   One request per line, one JSON object per line back; responses to a
   connection are interleaved in completion order and correlated by the
   client-chosen job [id].  The codec is [Json], re-exported here as
   [Protocol.Json].

   Request frames (field order free, unknown fields ignored):
     {"op":"compile","id":ID, "client":NAME?, "kernel":NAME |
      "name":N,"source":TEXT, "top":F?, "passes":SPEC?, "priority":INT?,
      "deadline":SECS?, "verilog":BOOL?}
     {"op":"cancel","id":ID}
     {"op":"poll","client":NAME?,"id":ID?}
     {"op":"health"}      {"op":"metrics"}      {"op":"shutdown"}

   The optional "client" field is a stable identity that survives
   reconnects: a named client's jobs keep running when its connection
   drops, and "poll" fetches their retained results afterwards.
   Without it a job belongs to the connection (and dies with it).

   Response frames:
     {"event":"result","id":ID,"status":"ok|degraded|failed|cancelled|rejected",…}
     {"event":"cancel","id":ID,"state":"cancelled|cancelling|finished|unknown"}
     {"event":"poll","id":ID,"state":"pending|unknown"}   (done resends the result)
     {"event":"poll","jobs":[{"id":…,"state":…},…]}       (poll without id)
     {"event":"health",…}  {"event":"metrics",…}  {"event":"shutdown"}
     {"event":"error","message":…}        (unparseable/invalid frame)

   `GET /health` and `GET /metrics` over the same socket get a one-shot
   HTTP response (see [Server]), so a plain curl probe works too. *)

module Json = Json

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)

type compile_req = {
  cr_id : string;  (* client-chosen correlation id, unique per conn *)
  cr_client : string option;  (* stable identity surviving reconnects *)
  cr_kernel : string option;  (* built-in kernel name … *)
  cr_name : string option;  (* … or inline source with a display name *)
  cr_source : string option;
  cr_top : string option;
  cr_passes : string option;  (* textual pipeline spec; None = default *)
  cr_priority : int;  (* higher runs first; default 0 *)
  cr_deadline : float option;  (* per-job wall-clock limit, seconds *)
  cr_want_verilog : bool;  (* include the Verilog in the response *)
}

type poll_req = {
  pl_client : string option;  (* whose jobs; None = this connection's *)
  pl_id : string option;  (* one job, or None for a listing *)
}

type request =
  | Compile of compile_req
  | Cancel of string
  | Poll of poll_req
  | Health
  | Metrics
  | Shutdown

(* The compile request's codec, shared by the "compile" frame and the
   journal's admit record (which carries the resolved client). *)
let compile_req_to_fields r =
  let opt k = function None -> [] | Some v -> [ (k, Json.Str v) ] in
  [ ("id", Json.Str r.cr_id) ]
  @ opt "client" r.cr_client @ opt "kernel" r.cr_kernel @ opt "name" r.cr_name
  @ opt "source" r.cr_source @ opt "top" r.cr_top @ opt "passes" r.cr_passes
  @ [ ("priority", Json.Num (float_of_int r.cr_priority)) ]
  @ (match r.cr_deadline with None -> [] | Some d -> [ ("deadline", Json.Num d) ])
  @ [ ("verilog", Json.Bool r.cr_want_verilog) ]

let compile_req_of_json j =
  match Json.field_str j "id" with
  | None -> Error "compile: missing \"id\""
  | Some id -> (
    let kernel = Json.field_str j "kernel" in
    let source = Json.field_str j "source" in
    match (kernel, source) with
    | None, None -> Error "compile: needs \"kernel\" or \"source\""
    | Some _, Some _ -> Error "compile: \"kernel\" and \"source\" are exclusive"
    | _ ->
      Ok
        {
          cr_id = id;
          cr_client = Json.field_str j "client";
          cr_kernel = kernel;
          cr_name = Json.field_str j "name";
          cr_source = source;
          cr_top = Json.field_str j "top";
          cr_passes = Json.field_str j "passes";
          cr_priority = Option.value ~default:0 (Json.field_int j "priority");
          cr_deadline = Json.field_num j "deadline";
          cr_want_verilog = Option.value ~default:false (Json.field_bool j "verilog");
        })

(* The idempotency key of a compile request: its compile-relevant
   fields only, so a resubmission with a different deadline or
   priority is still the *same request*. *)
let digest_of_request r =
  let part = function None -> "\x00" | Some s -> "\x01" ^ s in
  Digest.to_hex
    (Digest.string
       (String.concat "\x02"
          [ part r.cr_kernel; part r.cr_name; part r.cr_source; part r.cr_top; part r.cr_passes ]))

let request_of_json j =
  match Json.field_str j "op" with
  | None -> Error "missing \"op\" field"
  | Some "health" -> Ok Health
  | Some "metrics" -> Ok Metrics
  | Some "shutdown" -> Ok Shutdown
  | Some "poll" ->
    Ok (Poll { pl_client = Json.field_str j "client"; pl_id = Json.field_str j "id" })
  | Some "cancel" -> (
    match Json.field_str j "id" with
    | Some id -> Ok (Cancel id)
    | None -> Error "cancel: missing \"id\"")
  | Some "compile" -> Result.map (fun r -> Compile r) (compile_req_of_json j)
  | Some op -> Error (Printf.sprintf "unknown op %S" op)

let request_of_line line =
  match Json.parse line with
  | Error e -> Error ("invalid JSON: " ^ e)
  | Ok j -> request_of_json j

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)

let error_frame msg = Json.Obj [ ("event", Json.Str "error"); ("message", Json.Str msg) ]

(* An admission rejection: the job never entered the queue.  Reasons:
   "overloaded" (queue full), "shutting-down", "duplicate-id". *)
let rejected_frame ~id reason =
  Json.Obj
    [
      ("event", Json.Str "result");
      ("id", Json.Str id);
      ("status", Json.Str "rejected");
      ("reason", Json.Str reason);
    ]

let cancel_frame ~id state =
  Json.Obj
    [ ("event", Json.Str "cancel"); ("id", Json.Str id); ("state", Json.Str state) ]

(* The terminal frame for an admitted job, built from its report. *)
let result_frame ~id ~want_verilog (r : Driver.report) =
  let status = Driver.status_to_string (Driver.report_status r) in
  let base =
    [
      ("event", Json.Str "result");
      ("id", Json.Str id);
      ("status", Json.Str status);
      ("job", Json.Str r.Driver.rp_job);
      ("attempts", Json.Num (float_of_int r.Driver.rp_attempts));
    ]
  in
  let rest =
    match r.Driver.rp_outcome with
    | Ok o ->
      [
        ("top", Json.Str o.Driver.top_name);
        ("from_cache", Json.Bool o.Driver.from_cache);
        ("seconds", Json.Num o.Driver.seconds);
        ( "degradations",
          Json.Arr (List.map (fun d -> Json.Str d) o.Driver.degradations) );
      ]
      @ (if want_verilog then [ ("verilog", Json.Str o.Driver.verilog) ] else [])
    | Error e ->
      [
        ( "diagnostics",
          Json.Arr
            (List.map
               (fun d -> Json.Str (Hir_ir.Diagnostic.to_string d))
               e.Driver.err_diags) );
      ]
  in
  Json.Obj (base @ rest)

(* ------------------------------------------------------------------ *)
(* Client: blocking line-JSON over a socket, for tests and the swarm
   bench.  Reads buffer until a newline; [recv] returns None on EOF. *)

module Client = struct
  type t = { fd : Unix.file_descr; buf : Buffer.t; mutable eof : bool }

  let of_fd fd = { fd; buf = Buffer.create 1024; eof = false }

  let connect_unix path =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    of_fd fd

  let connect_tcp host port =
    let addr = Unix.inet_addr_of_string host in
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (addr, port));
    of_fd fd

  (* Write a whole frame; raises [Unix.Unix_error (EPIPE, _, _)] if the
     server is gone (SIGPIPE is ignored process-wide). *)
  let send_line t line = Io.write_all t.fd line

  let send t j = send_line t (Json.to_line j)

  let rec recv_line t =
    let contents = Buffer.contents t.buf in
    match String.index_opt contents '\n' with
    | Some i ->
      let line = String.sub contents 0 i in
      Buffer.clear t.buf;
      Buffer.add_string t.buf
        (String.sub contents (i + 1) (String.length contents - i - 1));
      Some line
    | None ->
      if t.eof then None
      else begin
        let chunk = Bytes.create 65536 in
        let got = Unix.read t.fd chunk 0 (Bytes.length chunk) in
        if got = 0 then begin
          t.eof <- true;
          (* A final unterminated fragment is dropped: frames end in \n. *)
          None
        end
        else begin
          Buffer.add_subbytes t.buf chunk 0 got;
          recv_line t
        end
      end

  let recv t =
    match recv_line t with
    | None -> None
    | Some line -> (
      match Json.parse line with
      | Ok j -> Some j
      | Error e -> Some (error_frame ("client: bad frame from server: " ^ e)))

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
end
