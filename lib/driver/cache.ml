(* Content-addressed compilation cache with a keyed fingerprint chain.

   The cache holds three *kinds* of entry, one per memoization boundary
   of the staged compile flow in [Driver]:

     - [Job]  — the final Verilog of a whole job, keyed on
       Digest(version ⊕ pipeline ⊕ top selector ⊕ raw source text).
       The fastest possible hit: no parsing at all.  Only a compile
       that emitted a function of its design stores one.
     - [Src]  — the *normalized* module text (print∘parse fixed point)
       keyed on the raw source text.  A hit proves the source parsed
       and verified before, so the verify stage is skipped.
     - [Vmod] — one compiled function ([Incr.compiled]): its emitted
       Verilog module, the shared [hirdef_*] definitions that module
       instantiates, and its inclusive resource usage, keyed on its
       *cone hash*: the function's normalized printed form plus the
       (recursive) hashes of its callees, plus the pass-pipeline spec.
       A hit skips that function's optimize *and* emit stages; a miss
       re-optimizes and emits it from the in-memory plan.  Only [Incr]
       writes or reads the payload format.

   A design is stored once, under its Job key.  Editing one kernel of
   an 8-kernel module therefore re-emits that kernel's cone tail only:
   the 7 untouched kernels re-link from their functions' Vmod entries,
   however much the rest of the source file moved around (comments,
   sibling kernels), and the edited one reuses every callee's Vmod
   entry below the edit.

   Entry format: one file per entry, [<key><ext>], whose extension
   names its kind.  The file is one header line, then the payload:

       <digest> <lut> <ff> <dsp> <bram> <top as an OCaml string literal>

   The digest is MD5 over the kind, the header's other fields and the
   payload's own MD5, so it covers everything a hit returns, and a hit
   reads the payload once, into the string it returns.

   Integrity: the cache trusts nothing it reads back.  Every hit
   re-digests the entry; a truncated, bit-flipped or unparseable entry
   is *quarantined* (moved to [<dir>/quarantine/], collision-suffixed
   so forensic copies are never overwritten) and reported as
   [Corrupt], which the driver treats as a miss-plus-recompute — a
   damaged cache can cost time, never wrong Verilog.  `hirc cache
   --verify` runs the same check over every entry offline through a
   side-effect-free probe (the runtime hit/miss counters are not
   perturbed) and quarantines files of no current kind, and `--prune`
   empties the quarantine and removes stale temp files.

   Writes are one [Io.publish] per entry (temp file, fsync, atomic
   rename, directory fsync): concurrent workers (or concurrent hirc
   processes) racing to fill the same entry simply last-write-win with
   identical content, and readers never observe a partial entry.  A
   write that fails midway unlinks its temp file.  Counters are atomics
   for the same reason.

   Eviction: with a byte budget ([create ?budget_bytes], `hirc
   --cache-budget`), the cache evicts least-recently-used entries.
   Every hit touches the entry's mtime ([Unix.utimes]), so file mtimes
   *are* the LRU order — no separate index to corrupt, and the order
   survives across processes.  When a store pushes the estimated
   population over budget, a sweep walks the shards, sorts entries
   oldest-first (ties broken by name for determinism) and removes them
   until the population fits.  The quarantine is never part of the
   budget or the sweep.

   Layout: entries are sharded into 256 subdirectories by the first two
   hex digits of the key ([<dir>/ab/<key>.v]) — a flat directory with
   thousands of entries makes every lookup and readdir pay for the
   whole population. *)

type kind = Job | Src | Vmod

let kinds = [ Job; Src; Vmod ]

let kind_to_string = function
  | Job -> "job"
  | Src -> "src"
  | Vmod -> "vmod"

(* Entry file extension per kind.  [Job] keeps the historical [.v]
   so pre-existing tooling (and the store-failure tests) still point at
   the right file. *)
let kind_ext = function
  | Job -> ".v"
  | Src -> ".src"
  | Vmod -> ".vm"

let kind_of_file f = List.find_opt (fun kind -> Filename.extension f = kind_ext kind) kinds

type kind_stat = { k_hits : int; k_misses : int; k_stores : int }

type t = {
  dir : string;
  budget_bytes : int option;
  bytes : int Atomic.t;  (* estimated entry-file population *)
  metrics : Hir_ir.Metrics.t;
      (* shared by every worker domain: "<kind>.hits", "<kind>.misses"
         and "<kind>.stores" per kind; "corrupt" (entries quarantined by
         lookups), "faults" (read/write IO failures survived) and
         "evictions" (entries removed by the LRU sweep) over all kinds *)
}

let count t name = Hir_ir.Metrics.incr t.metrics name
let count_kind t kind what = count t (kind_to_string kind ^ "." ^ what)

(* Bump whenever the emitted Verilog or the entry format changes.
   (v2: digest line in the sidecar; v3: sharded directory layout;
   v4: staged per-function compilation and multi-kind entries;
   v5: shared definitions as their own entries; v6: a builder job
   compiles its module's printed fixed point, so it emits what a text
   job of the same printed module emits under the same Job key; v7: a
   function's definitions travel in its own Vmod payload; v8: one file
   per entry, whose header the digest covers.) *)
let driver_version = "hir-driver/8"

let quarantine_dir t = Filename.concat t.dir "quarantine"

(* The 2-hex shard subdirectories that actually exist. *)
let shards t =
  let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') in
  Sys.readdir t.dir |> Array.to_list
  |> List.filter (fun f ->
         String.length f = 2
         && is_hex f.[0] && is_hex f.[1]
         && Sys.is_directory (Filename.concat t.dir f))
  |> List.sort compare

(* Every file in the shards, in a stable order. *)
let shard_files t =
  List.concat_map
    (fun s ->
      let dir = Filename.concat t.dir s in
      Sys.readdir dir |> Array.to_list |> List.sort compare |> List.map (Filename.concat dir))
    (shards t)

let file_size path =
  try (Unix.stat path).Unix.st_size with Unix.Unix_error _ | Sys_error _ -> 0

let create ?budget_bytes ~dir () =
  Io.mkdir_p dir;
  let t =
    {
      dir;
      budget_bytes;
      bytes = Atomic.make 0;
      metrics = Hir_ir.Metrics.create ~shared:true ();
    }
  in
  (* Only pay the population scan when a budget will actually use it. *)
  if budget_bytes <> None then
    Atomic.set t.bytes (List.fold_left (fun n f -> n + file_size f) 0 (shard_files t));
  t

let key ~pipeline ~top ~source =
  let material =
    String.concat "\x00"
      [ driver_version; pipeline; Option.value ~default:"" top; source ]
  in
  Digest.to_hex (Digest.string material)

(* A key for the staged entries: the kind joins the material, so
   entries of different kinds over the same parts never collide. *)
let stage_key ~kind ~parts =
  let material =
    String.concat "\x00" (driver_version :: kind_to_string kind :: parts)
  in
  Digest.to_hex (Digest.string material)

type entry = {
  e_verilog : string;
      (* the payload: final Verilog for Job, one function's record for
         Vmod, the normalized module text for Src *)
  e_top : string;  (* top/function name; "" where not meaningful *)
  e_usage : Hir_resources.Model.usage;
}

(* The shard a key lives in: its first two hex digits.  Keys are hex
   digests, so this spreads entries uniformly over 256 directories. *)
let shard_dir t k =
  Filename.concat t.dir (if String.length k >= 2 then String.sub k 0 2 else k)

let payload_path t kind k = Filename.concat (shard_dir t k) (k ^ kind_ext kind)

(* The header's digest over its [fields] (everything after the digest)
   and the payload. *)
let entry_digest kind ~fields payload =
  Digest.to_hex
    (Digest.string (String.concat "\x00" [ kind_to_string kind; fields; Digest.string payload ]))

let header_fields entry =
  let u = entry.e_usage in
  Printf.sprintf "%d %d %d %d %S" u.Hir_resources.Model.lut u.ff u.dsp u.bram entry.e_top

(* A header line whose digest checked out, back to the entry. *)
let entry_of_fields fields payload =
  Scanf.sscanf_opt fields "%d %d %d %d %S%!" (fun lut ff dsp bram top ->
      { e_verilog = payload; e_top = top; e_usage = { Hir_resources.Model.lut; ff; dsp; bram } })

(* Move one damaged file into the quarantine without overwriting any
   forensic copy already there: on a name collision the new copy gets a
   numeric suffix ([<name>.1], [.2], …).  Best-effort throughout —
   quarantining must never fail the compile that found the damage, and
   a concurrent worker may have quarantined (or rewritten) it already. *)
let quarantine_file t path =
  Io.mkdir_p (quarantine_dir t);
  let base = Filename.basename path in
  let rec dst_for n =
    let candidate =
      if n = 0 then Filename.concat (quarantine_dir t) base
      else Filename.concat (quarantine_dir t) (Printf.sprintf "%s.%d" base n)
    in
    if Sys.file_exists candidate then dst_for (n + 1) else candidate
  in
  try Sys.rename path (dst_for 0)
  with Sys_error _ | Unix.Unix_error _ -> (
    try Sys.remove path with Sys_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Lookup                                                              *)

type verdict =
  | Hit of entry
  | Miss  (* no entry *)
  | Read_fault of string  (* transient IO failure; entry left alone *)
  | Corrupt of string  (* integrity failure; entry quarantined *)

(* The header line, then the rest of the file as the payload.  A file
   with no header line at all raises [End_of_file]. *)
let read_entry path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let header = input_line ic in
      (header, really_input_string ic (in_channel_length ic - pos_in ic)))

(* The integrity check shared by the counting lookup and the
   side-effect-free [probe]: no counters, no mtime touch, but damaged
   entries are still quarantined (serving them later is never right). *)
let probe ~kind t k =
  let path = payload_path t kind k in
  let corrupt reason =
    quarantine_file t path;
    Corrupt (Printf.sprintf "%s: %s" (Filename.basename path) reason)
  in
  (* The entry can be evicted (or be unreadable) between the existence
     check and the read — a classic TOCTOU.  Per the contract above, IO
     failures degrade to misses, so neither [Sys_error] nor
     [Unix_error] from the read may escape to the caller. *)
  try
    Faults.point "cache.read";
    if not (Sys.file_exists path) then Miss
    else
      match read_entry path with
      | exception End_of_file -> corrupt "empty entry"
      | header, payload -> (
        let digest, fields =
          match String.index_opt header ' ' with
          | Some i -> (String.sub header 0 i, String.sub header (i + 1) (String.length header - i - 1))
          | None -> (header, "")
        in
        if not (String.equal digest (entry_digest kind ~fields payload)) then
          corrupt "content digest mismatch"
        else
          match entry_of_fields fields payload with
          | Some e -> Hit e
          | None -> corrupt "unparseable header")
  with
  | Faults.Injected p -> Read_fault ("injected fault at " ^ p)
  | Sys_error msg -> Read_fault msg
  | Unix.Unix_error (e, _, _) -> Read_fault (Unix.error_message e)

let consult ~kind t k =
  let verdict = probe ~kind t k in
  (match verdict with
  | Hit _ ->
    count_kind t kind "hits";
    (* Touch the entry so file mtimes order the LRU sweep; both times
       0.0 means "set to now".  Best-effort: a concurrent eviction may
       have removed the file. *)
    if t.budget_bytes <> None then (
      try Unix.utimes (payload_path t kind k) 0.0 0.0
      with Unix.Unix_error _ | Sys_error _ -> ())
  | Miss -> count_kind t kind "misses"
  | Read_fault _ ->
    count_kind t kind "misses";
    count t "faults"
  | Corrupt _ ->
    count_kind t kind "misses";
    count t "corrupt");
  verdict

(* ------------------------------------------------------------------ *)
(* LRU eviction                                                        *)

(* One sweep: walk the shards, list every entry file with its mtime,
   and remove oldest-first until the population fits the budget.  Ties
   (same mtime second) break on the name so concurrent sweepers
   converge on the same victims.  Best-effort: a racing worker may have
   removed (or re-stored) an entry already. *)
let evict_to_budget t budget =
  let entries =
    List.filter_map
      (fun path ->
        match Unix.stat path with
        | exception (Unix.Unix_error _ | Sys_error _) -> None
        | st -> Some (st.Unix.st_mtime, path, st.Unix.st_size))
      (shard_files t)
  in
  let remaining = ref (List.fold_left (fun n (_, _, size) -> n + size) 0 entries) in
  List.iter
    (fun (_, path, size) ->
      if !remaining > budget then begin
        (try Sys.remove path with Sys_error _ -> ());
        remaining := !remaining - size;
        count t "evictions"
      end)
    (List.sort compare entries);
  Atomic.set t.bytes !remaining

(* ------------------------------------------------------------------ *)
(* Store                                                               *)

let store ~kind t k entry =
  (* Filling the cache is best-effort: a full disk, revoked permissions
     or a squatter at the entry path must not fail a compile that
     already succeeded.  The next lookup simply misses again. *)
  try
    Io.mkdir_p (shard_dir t k);
    let fields = header_fields entry in
    let header =
      Printf.sprintf "%s %s\n" (entry_digest kind ~fields entry.e_verilog) fields
    in
    Io.publish ~fault_point:"cache.write" (payload_path t kind k) (fun oc ->
        output_string oc header;
        output_string oc entry.e_verilog);
    count_kind t kind "stores";
    (match t.budget_bytes with
    | None -> ()
    | Some budget ->
      let added = String.length header + String.length entry.e_verilog in
      if Atomic.fetch_and_add t.bytes added + added > budget then
        evict_to_budget t budget);
    Ok ()
  with
  | Faults.Injected p ->
    count t "faults";
    Error ("injected fault at " ^ p)
  | Sys_error msg ->
    count t "faults";
    Error msg
  | Unix.Unix_error (e, _, _) ->
    count t "faults";
    Error (Unix.error_message e)

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)

(* The headline hit/miss/store counters report the Job kind only — the
   whole-job fast path — so "8 hits / 0 misses" on a warm batch keeps
   meaning what it always meant.  The staged kinds are reported
   separately by [kind_stats]. *)
let get t name = Hir_ir.Metrics.get t.metrics name
let hits t = get t "job.hits"
let misses t = get t "job.misses"
let store_count t = get t "job.stores"
let corrupt_count t = get t "corrupt"
let fault_count t = get t "faults"
let eviction_count t = get t "evictions"

let kind_stats t =
  List.map
    (fun kind ->
      let get what = get t (kind_to_string kind ^ "." ^ what) in
      (kind, { k_hits = get "hits"; k_misses = get "misses"; k_stores = get "stores" }))
    kinds

(* ------------------------------------------------------------------ *)
(* Offline maintenance: `hirc cache --verify | --prune | --stats`      *)

type verify_report = {
  vr_scanned : int;  (* files examined: every shard file but temp files *)
  vr_ok : int;
  vr_quarantined : (string * string) list;  (* key or file name, reason *)
}

(* Run the hit-path integrity check over every entry on disk through
   the side-effect-free [probe]: damaged entries are quarantined
   exactly as a lookup would have done, but the runtime hit/miss
   counters (`--stats`) are not perturbed and no LRU mtime is touched.
   A file of no current kind (a sidecar or payload left by an older
   build) can never hit, so it is quarantined too.  Temp files may be
   a concurrent store in flight: [prune] handles them. *)
let verify t =
  let files =
    List.filter (fun path -> not (Filename.check_suffix path ".tmp")) (shard_files t)
  in
  let quarantined = ref [] in
  let ok = ref 0 in
  List.iter
    (fun path ->
      let f = Filename.basename path in
      match kind_of_file f with
      | None ->
        quarantine_file t path;
        quarantined := (f, "file of no current entry kind") :: !quarantined
      | Some kind -> (
        let k = Filename.remove_extension f in
        match probe ~kind t k with
        | Hit _ -> incr ok
        | Miss -> ()  (* evicted since the listing *)
        | Corrupt reason -> quarantined := (k, reason) :: !quarantined
        | Read_fault reason -> quarantined := (k, "unreadable: " ^ reason) :: !quarantined))
    files;
  { vr_scanned = List.length files; vr_ok = !ok; vr_quarantined = List.rev !quarantined }

type prune_report = { pr_removed : int; pr_bytes : int }

(* Delete quarantined entries and any stale temp files left by killed
   processes (the in-process writer cleans its own). *)
let prune t =
  let removed = ref 0 and bytes = ref 0 in
  let rm path =
    (try
       bytes := !bytes + (Unix.stat path).Unix.st_size;
       Sys.remove path;
       incr removed
     with Sys_error _ | Unix.Unix_error _ -> ())
  in
  let qdir = quarantine_dir t in
  if Sys.file_exists qdir && Sys.is_directory qdir then begin
    Array.iter (fun f -> rm (Filename.concat qdir f)) (Sys.readdir qdir);
    (try Unix.rmdir qdir with Unix.Unix_error _ -> ())
  end;
  let is_tmp path = Filename.check_suffix path ".tmp" in
  Array.iter
    (fun f -> if is_tmp f then rm (Filename.concat t.dir f))
    (Sys.readdir t.dir);
  List.iter (fun path -> if is_tmp path then rm path) (shard_files t);
  { pr_removed = !removed; pr_bytes = !bytes }

(* On-disk population by kind, for `hirc cache DIR --stats`:
   (kind, entry count, entry-file bytes). *)
let stats_by_kind t =
  let files = shard_files t in
  List.map
    (fun kind ->
      let mine = List.filter (fun path -> kind_of_file path = Some kind) files in
      (kind, List.length mine, List.fold_left (fun n path -> n + file_size path) 0 mine))
    kinds
