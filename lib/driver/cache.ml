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

   Integrity: the cache trusts nothing it reads back.  Every hit
   re-digests the payload against the digest recorded in the sidecar;
   a truncated, bit-flipped or unparseable entry is *quarantined*
   (moved to [<dir>/quarantine/], collision-suffixed so forensic
   copies are never overwritten) and reported as [Corrupt], which the
   driver treats as a miss-plus-recompute — a damaged cache can cost
   time, never wrong Verilog.  `hirc cache --verify` runs the same
   check over every entry offline through a side-effect-free probe
   (the runtime hit/miss counters are not perturbed) and quarantines
   files of no current kind, and `--prune` empties the quarantine and
   removes stale temp files.

   Writes go through a unique temp file followed by [Sys.rename], which
   is atomic on POSIX: concurrent workers (or concurrent hirc
   processes) racing to fill the same entry simply last-write-win with
   identical content, and readers never observe a partial entry.  A
   write that fails midway unlinks its temp file.  Counters are atomics
   for the same reason.

   Eviction: with a byte budget ([create ?budget_bytes], `hirc
   --cache-budget`), the cache evicts least-recently-used entries.
   Every hit touches the payload's mtime ([Unix.utimes]), so file
   mtimes *are* the LRU order — no separate index to corrupt, and the
   order survives across processes.  When a store pushes the estimated
   population over budget, a sweep walks the shards, sorts entries
   oldest-first (ties broken by key for determinism) and removes
   payload+sidecar pairs until the population fits.  The quarantine is
   never part of the budget or the sweep.

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

let kind_of_string = function
  | "job" -> Some Job
  | "src" -> Some Src
  | "vmod" -> Some Vmod
  | _ -> None

(* Payload file extension per kind.  [Job] keeps the historical [.v]
   so pre-existing tooling (and the store-failure tests) still point at
   the right file. *)
let kind_ext = function
  | Job -> ".v"
  | Src -> ".src"
  | Vmod -> ".vm"

type kind_stat = { k_hits : int; k_misses : int; k_stores : int }

type t = {
  dir : string;
  budget_bytes : int option;
  bytes : int Atomic.t;  (* estimated payload+sidecar population *)
  metrics : Hir_ir.Metrics.t;
      (* shared by every worker domain: "<kind>.hits", "<kind>.misses"
         and "<kind>.stores" per kind; "corrupt" (entries quarantined by
         lookups), "faults" (read/write IO failures survived) and
         "evictions" (entries removed by the LRU sweep) over all kinds *)
}

let count t name = Hir_ir.Metrics.incr t.metrics name
let count_kind t kind what = count t (kind_to_string kind ^ "." ^ what)

(* Bump whenever the emitted Verilog or the meta format changes.
   (v2: digest line in the sidecar; v3: sharded directory layout;
   v4: staged per-function compilation and multi-kind entries;
   v5: shared definitions as their own entries; v6: a builder job
   compiles its module's printed fixed point, so it emits what a text
   job of the same printed module emits under the same Job key; v7: a
   function's definitions travel in its own Vmod payload.) *)
let driver_version = "hir-driver/7"

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

(* Estimated byte population of the live entries (quarantine excluded),
   used to seed the budget accounting at [create] and to re-sync it
   during a sweep so the estimate cannot drift. *)
let measure_bytes t =
  List.fold_left
    (fun total s ->
      let dir = Filename.concat t.dir s in
      Array.fold_left
        (fun total f ->
          try total + (Unix.stat (Filename.concat dir f)).Unix.st_size
          with Unix.Unix_error _ | Sys_error _ -> total)
        total (Sys.readdir dir))
    0 (shards t)

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
  if budget_bytes <> None then Atomic.set t.bytes (measure_bytes t);
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
let meta_path t k = Filename.concat (shard_dir t k) (k ^ ".meta")

(* Atomic *and durable* publish via temp file + fsync + rename + dir
   fsync: the bytes are on disk before the rename makes them visible,
   and the rename itself is persisted, so a post-crash cache can never
   hold a renamed-but-empty entry.  The temp file is unlinked on *any*
   failure (short write, injected fault, rename onto a squatted path),
   so failed stores cannot litter the cache directory. *)
let write_file_atomic ~dir path content =
  let tmp = Filename.temp_file ~temp_dir:dir ".cache" ".tmp" in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists tmp then try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin tmp in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc content;
          flush oc;
          Unix.fsync (Unix.descr_of_out_channel oc);
          close_out oc);
      Faults.point "cache.write";
      Sys.rename tmp path;
      Io.fsync_dir dir)

let content_digest verilog = Digest.to_hex (Digest.string verilog)

let meta_to_string ~kind ~top ~digest (u : Hir_resources.Model.usage) =
  Printf.sprintf "kind %s\ntop %s\ndigest %s\nlut %d\nff %d\ndsp %d\nbram %d\n"
    (kind_to_string kind) top digest u.lut u.ff u.dsp u.bram

let meta_fields s =
  String.split_on_char '\n' s
  |> List.filter_map (fun line ->
         match String.index_opt line ' ' with
         | Some i ->
           Some (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
         | None -> None)

let meta_of_string s =
  let fields = meta_fields s in
  let int k = Option.bind (List.assoc_opt k fields) int_of_string_opt in
  match
    ( Option.bind (List.assoc_opt "kind" fields) kind_of_string,
      List.assoc_opt "top" fields,
      List.assoc_opt "digest" fields,
      int "lut",
      int "ff",
      int "dsp",
      int "bram" )
  with
  | Some kind, Some top, Some digest, Some lut, Some ff, Some dsp, Some bram ->
    Some (kind, top, digest, { Hir_resources.Model.lut; ff; dsp; bram })
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Quarantine                                                          *)

(* Move one damaged file into the quarantine without overwriting any
   forensic copy already there: on a name collision the new copy gets a
   numeric suffix ([<name>.1], [.2], …).  Best-effort throughout —
   quarantining must never fail the compile that found the damage. *)
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

(* Move a damaged entry's files out of the lookup path.  A concurrent
   worker may have quarantined (or rewritten) the entry already. *)
let quarantine_entry ?kind t k =
  let payloads =
    match kind with
    | Some kind -> [ payload_path t kind k ]
    | None -> List.map (fun kind -> payload_path t kind k) kinds
  in
  List.iter
    (fun path -> if Sys.file_exists path then quarantine_file t path)
    (payloads @ [ meta_path t k ])

(* ------------------------------------------------------------------ *)
(* Lookup                                                              *)

type verdict =
  | Hit of entry
  | Miss  (* no entry *)
  | Read_fault of string  (* transient IO failure; entry left alone *)
  | Corrupt of string  (* integrity failure; entry quarantined *)

(* The integrity check shared by the counting lookup and the
   side-effect-free [probe]: no counters, no mtime touch, but damaged
   entries are still quarantined (serving them later is never right). *)
let probe ~kind t k =
  let vp = payload_path t kind k and mp = meta_path t k in
  (* The entry can be evicted (or be unreadable) between the existence
     check and the reads — a classic TOCTOU.  Per the contract above,
     IO failures degrade to misses, so neither [Sys_error] nor
     [Unix_error] from the reads may escape to the caller. *)
  try
    Faults.point "cache.read";
    if not (Sys.file_exists vp && Sys.file_exists mp) then Miss
    else
      match meta_of_string (Io.read_file mp) with
      | None ->
        quarantine_entry ~kind t k;
        Corrupt (Printf.sprintf "%s: unparseable metadata" (k ^ ".meta"))
      | Some (meta_kind, top, digest, usage) ->
        if meta_kind <> kind then begin
          quarantine_entry t k;
          Corrupt (Printf.sprintf "%s: entry kind mismatch" (k ^ ".meta"))
        end
        else
          let verilog = Io.read_file vp in
          if not (String.equal (content_digest verilog) digest) then begin
            quarantine_entry ~kind t k;
            Corrupt
              (Printf.sprintf "%s: content digest mismatch" (k ^ kind_ext kind))
          end
          else Hit { e_verilog = verilog; e_top = top; e_usage = usage }
  with
  | Faults.Injected p -> Read_fault ("injected fault at " ^ p)
  | Sys_error msg -> Read_fault msg
  | Unix.Unix_error (e, _, _) -> Read_fault (Unix.error_message e)

let consult ~kind t k =
  let verdict = probe ~kind t k in
  (match verdict with
  | Hit _ ->
    count_kind t kind "hits";
    (* Touch the payload so file mtimes order the LRU sweep; both times
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

(* One sweep: walk the shards, list every entry (payload+sidecar pair)
   with its payload mtime, and remove oldest-first until the population
   fits the budget.  Ties (same mtime second) break on the key so
   concurrent sweepers converge on the same victims.  Best-effort: a
   racing worker may have removed (or re-stored) an entry already. *)
let evict_to_budget t budget =
  let entries = ref [] in
  let total = ref 0 in
  List.iter
    (fun s ->
      let dir = Filename.concat t.dir s in
      Array.iter
        (fun f ->
          let path = Filename.concat dir f in
          match Unix.stat path with
          | exception (Unix.Unix_error _ | Sys_error _) -> ()
          | st ->
            total := !total + st.Unix.st_size;
            if not (Filename.check_suffix f ".meta") then
              let k = Filename.remove_extension f in
              let msize =
                try (Unix.stat (meta_path t k)).Unix.st_size
                with Unix.Unix_error _ | Sys_error _ -> 0
              in
              entries :=
                (st.Unix.st_mtime, k, path, st.Unix.st_size + msize) :: !entries)
        (Sys.readdir dir))
    (shards t);
  let victims =
    List.sort
      (fun (m1, k1, _, _) (m2, k2, _, _) ->
        match compare (m1 : float) m2 with 0 -> compare k1 k2 | c -> c)
      !entries
  in
  let remaining = ref !total in
  List.iter
    (fun (_, k, payload, size) ->
      if !remaining > budget then begin
        (try Sys.remove payload with Sys_error _ -> ());
        (try Sys.remove (meta_path t k) with Sys_error _ -> ());
        remaining := !remaining - size;
        count t "evictions"
      end)
    victims;
  Atomic.set t.bytes !remaining

(* ------------------------------------------------------------------ *)
(* Store                                                               *)

let store ~kind t k entry =
  (* Filling the cache is best-effort: a full disk, revoked permissions
     or a squatter at the entry path must not fail a compile that
     already succeeded.  The next lookup simply misses again. *)
  try
    let shard = shard_dir t k in
    Io.mkdir_p shard;
    let meta =
      meta_to_string ~kind ~top:entry.e_top
        ~digest:(content_digest entry.e_verilog)
        entry.e_usage
    in
    write_file_atomic ~dir:shard (payload_path t kind k) entry.e_verilog;
    write_file_atomic ~dir:shard (meta_path t k) meta;
    count_kind t kind "stores";
    (match t.budget_bytes with
    | None -> ()
    | Some budget ->
      let added = String.length entry.e_verilog + String.length meta in
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
  vr_scanned : int;  (* entries examined (one per .meta) *)
  vr_ok : int;
  vr_quarantined : (string * string) list;  (* key, reason *)
}

let payload_exts = List.map kind_ext kinds

let is_payload f = List.exists (fun ext -> Filename.check_suffix f ext) payload_exts

(* Run the hit-path integrity check over every entry on disk through
   the side-effect-free [probe]: damaged entries are quarantined
   exactly as a lookup would have done, but the runtime hit/miss
   counters (`--stats`) are not perturbed and no LRU mtime is touched. *)
let verify t =
  let shard_files =
    List.concat_map
      (fun s ->
        Sys.readdir (Filename.concat t.dir s)
        |> Array.to_list
        |> List.map (fun f -> (s, f)))
      (shards t)
  in
  let entries =
    List.filter_map
      (fun (_, f) ->
        if Filename.check_suffix f ".meta" then Some (Filename.remove_extension f)
        else None)
      shard_files
    |> List.sort compare
  in
  let orphans =
    (* payloads with no sidecar can never hit; quarantine them too *)
    List.filter_map
      (fun (_, f) ->
        if is_payload f && not (Sys.file_exists (meta_path t (Filename.remove_extension f)))
        then Some (Filename.remove_extension f)
        else None)
      shard_files
    |> List.sort compare
  in
  (* Files of no current kind (payloads of a retired kind, such as the
     optimized-function [.fn] entries) can never hit either.  Temp
     files may be a concurrent store in flight: [prune] handles them. *)
  let strays =
    List.filter
      (fun (_, f) ->
        not (Filename.check_suffix f ".meta" || Filename.check_suffix f ".tmp" || is_payload f))
      shard_files
    |> List.sort compare
  in
  let quarantined = ref [] in
  let ok = ref 0 in
  List.iter
    (fun k ->
      (* The sidecar names the entry's kind.  One naming a retired kind
         can never hit (its payload is a stray below); an unreadable or
         unparseable one probes as a Job entry. *)
      let meta =
        try Some (Io.read_file (meta_path t k)) with Sys_error _ | Unix.Unix_error _ -> None
      in
      let retired =
        match Option.bind meta (fun m -> List.assoc_opt "kind" (meta_fields m)) with
        | Some name -> kind_of_string name = None
        | None -> false
      in
      if retired then begin
        quarantine_entry t k;
        quarantined := (k, "metadata of no current entry kind") :: !quarantined
      end
      else
        let kind =
          match Option.bind meta meta_of_string with Some (kind, _, _, _) -> kind | None -> Job
        in
        match probe ~kind t k with
        | Hit _ -> incr ok
        | Miss ->
          quarantine_entry t k;
          quarantined := (k, "missing payload") :: !quarantined
        | Corrupt reason -> quarantined := (k, reason) :: !quarantined
        | Read_fault reason -> quarantined := (k, "unreadable: " ^ reason) :: !quarantined)
    entries;
  List.iter
    (fun k ->
      quarantine_entry t k;
      quarantined := (k, "orphan payload (no metadata)") :: !quarantined)
    orphans;
  List.iter
    (fun (s, f) ->
      quarantine_file t (Filename.concat (Filename.concat t.dir s) f);
      quarantined := (f, "file of no current entry kind") :: !quarantined)
    strays;
  {
    vr_scanned = List.length entries + List.length orphans + List.length strays;
    vr_ok = !ok;
    vr_quarantined = List.rev !quarantined;
  }

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
  let sweep_tmp dir =
    Array.iter
      (fun f -> if Filename.check_suffix f ".tmp" then rm (Filename.concat dir f))
      (Sys.readdir dir)
  in
  sweep_tmp t.dir;
  List.iter (fun s -> sweep_tmp (Filename.concat t.dir s)) (shards t);
  { pr_removed = !removed; pr_bytes = !bytes }

(* On-disk population by kind, for `hirc cache DIR --stats`:
   (kind, entry count, payload+sidecar bytes). *)
let stats_by_kind t =
  let m = Hir_ir.Metrics.create () in
  let name kind what = kind_to_string kind ^ "." ^ what in
  List.iter
    (fun s ->
      let dir = Filename.concat t.dir s in
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".meta" then begin
            let k = Filename.remove_extension f in
            match meta_of_string (Io.read_file (Filename.concat dir f)) with
            | exception Sys_error _ -> ()
            | None -> ()
            | Some (kind, _, _, _) ->
              let size path =
                try (Unix.stat path).Unix.st_size
                with Unix.Unix_error _ | Sys_error _ -> 0
              in
              Hir_ir.Metrics.incr m (name kind "entries");
              Hir_ir.Metrics.incr m (name kind "bytes")
                ~by:(size (Filename.concat dir f) + size (payload_path t kind k))
          end)
        (Sys.readdir dir))
    (shards t);
  List.map
    (fun kind ->
      let get what = Hir_ir.Metrics.get m (name kind what) in
      (kind, get "entries", get "bytes"))
    kinds
