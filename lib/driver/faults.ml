(* Deterministic fault injection for the compilation service.

   The service's failure paths — cache IO errors, worker-spawn
   failures, mid-compile crashes, journal IO errors — are exactly the
   paths ordinary test runs never take.  This module makes them
   reachable on demand: code under test declares named *injection
   points* ([point "cache.read"] etc.), and a test or `hirc batch
   --inject SPEC --inject-seed N` installs a configuration that makes
   some of those points raise [Injected].

   Determinism is the whole game: a fired fault must be reproducible
   from (spec, seed) alone, independent of how many domains ran the
   batch or which worker picked up which job.  Decisions are therefore
   a pure hash of (seed, scope, point, hit-count), where the *scope* is
   the job name ([Driver.compile_job] wraps each job in [with_scope])
   and the hit-count is tracked per (domain, scope).  A job's fault
   schedule is then a function of its own name and its own actions —
   scheduling order and worker count cannot perturb it.

   When no configuration is installed, [point] is one atomic load and a
   branch — cheap enough to leave the probes in production code. *)

exception Injected of string  (* the point that fired *)

(* The injection points wired into the service.  [parse_spec] rejects
   unknown names so a typo in --inject fails fast. *)
let known_points =
  [
    "cache.read"; "cache.write"; "worker.spawn"; "job.compile"; "journal.append";
    "journal.mark"; "journal.replay";
  ]

type trigger =
  | Prob of float  (* fire each hit with this probability *)
  | Nth of int  (* fire on exactly the nth hit (1-based) per scope *)

type config = {
  rules : (string * trigger) list;  (* point name or "*"; first match wins *)
  seed : int;
}

(* ------------------------------------------------------------------ *)
(* Spec parsing:  SPEC ::= item (',' item)*                            *)
(*                item ::= point '=' prob | point '@' nth              *)
(* where point is a known point name or '*' (all points).              *)

let parse_item s =
  let s = String.trim s in
  let split c =
    Option.map
      (fun i ->
        ( String.trim (String.sub s 0 i),
          String.trim (String.sub s (i + 1) (String.length s - i - 1)) ))
      (String.index_opt s c)
  in
  let check_name name k =
    if name = "*" || List.mem name known_points then k ()
    else
      Error
        (Printf.sprintf "unknown injection point '%s' (known: %s, or *)" name
           (String.concat ", " known_points))
  in
  match split '=' with
  | Some (name, v) ->
    check_name name (fun () ->
        match float_of_string_opt v with
        | Some p when p >= 0. && p <= 1. -> Ok (name, Prob p)
        | _ -> Error (Printf.sprintf "'%s=%s': probability must be a float in [0,1]" name v))
  | None -> (
    match split '@' with
    | Some (name, v) ->
      check_name name (fun () ->
          match int_of_string_opt v with
          | Some n when n >= 1 -> Ok (name, Nth n)
          | _ -> Error (Printf.sprintf "'%s@%s': trigger count must be a positive integer" name v))
    | None ->
      Error
        (Printf.sprintf
           "'%s' is not of the form point=probability or point@count" s))

let parse_spec s =
  if String.trim s = "" then Error "empty injection spec"
  else
    String.split_on_char ',' s
    |> List.fold_left
         (fun acc item ->
           match acc with
           | Error _ as e -> e
           | Ok rules -> (
             match parse_item item with
             | Ok r -> Ok (r :: rules)
             | Error e -> Error e))
         (Ok [])
    |> Result.map List.rev

let rules_to_string rules =
  String.concat ","
    (List.map
       (function
         | name, Prob p -> Printf.sprintf "%s=%g" name p
         | name, Nth n -> Printf.sprintf "%s@%d" name n)
       rules)

(* ------------------------------------------------------------------ *)
(* Seeded decisions                                                    *)

(* splitmix64 finalizer: a well-mixed bijection on 64-bit ints. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

(* A uniform float in [0,1) from (seed, key, index) — pure, so every
   domain computes the same value.  Also used by the batch retry loop
   for backoff jitter. *)
let uniform ~seed ~key ~index =
  let open Int64 in
  let h = of_int (Hashtbl.hash key) in
  let z =
    mix64
      (add (of_int seed)
         (mul 0x9e3779b97f4a7c15L (add (mul 0x10001L h) (of_int index))))
  in
  to_float (shift_right_logical z 11) *. (1.0 /. 9007199254740992.0)

(* ------------------------------------------------------------------ *)
(* Installation and per-domain scope state                             *)

(* The active configuration, plus an epoch that invalidates every
   domain's hit counters on (re)install — without it, two consecutive
   batches in one process would see different counter phases and lose
   determinism. *)
let current : config option Atomic.t = Atomic.make None
let epoch : int Atomic.t = Atomic.make 0

type dstate = {
  mutable ds_epoch : int;
  mutable ds_scope : string;
  (* scope -> point -> hits *)
  ds_tables : (string, (string, int) Hashtbl.t) Hashtbl.t;
}

let dls : dstate Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { ds_epoch = -1; ds_scope = ""; ds_tables = Hashtbl.create 8 })

let install cfg =
  Atomic.set current (Some cfg);
  Atomic.incr epoch

let uninstall () =
  Atomic.set current None;
  Atomic.incr epoch

let with_config cfg f =
  install cfg;
  Fun.protect ~finally:uninstall f

(* Scope the fault schedule to a named unit of work (a compile job).
   Nested scopes replace, not stack — a job is the natural granularity. *)
let with_scope name f =
  let st = Domain.DLS.get dls in
  let saved = st.ds_scope in
  st.ds_scope <- name;
  Fun.protect ~finally:(fun () -> st.ds_scope <- saved) f

let rule_for cfg name =
  match List.assoc_opt name cfg.rules with
  | Some _ as r -> r
  | None -> List.assoc_opt "*" cfg.rules

let point name =
  match Atomic.get current with
  | None -> ()
  | Some cfg -> (
    match rule_for cfg name with
    | None -> ()
    | Some trig ->
      let st = Domain.DLS.get dls in
      let e = Atomic.get epoch in
      if st.ds_epoch <> e then begin
        Hashtbl.reset st.ds_tables;
        st.ds_epoch <- e
      end;
      let counts =
        match Hashtbl.find_opt st.ds_tables st.ds_scope with
        | Some t -> t
        | None ->
          let t = Hashtbl.create 8 in
          Hashtbl.add st.ds_tables st.ds_scope t;
          t
      in
      let c = 1 + Option.value ~default:0 (Hashtbl.find_opt counts name) in
      Hashtbl.replace counts name c;
      let fire =
        match trig with
        | Nth n -> c = n
        | Prob p ->
          uniform ~seed:cfg.seed ~key:(st.ds_scope ^ "\x00" ^ name) ~index:c < p
      in
      if fire then raise (Injected name))
