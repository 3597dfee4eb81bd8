(* Passes and the pass manager.

   A pass transforms the IR rooted at an op (usually a module or a
   function) and reports whether it changed anything.  The manager runs
   a pipeline, optionally re-verifying between passes, and records
   wall-clock statistics per pass — the infrastructure behind the
   compile-time evaluation in Table 6.

   Instrumentation: the manager emits a [Pass_begin]/[Pass_end] event
   around every pass.  The per-pass stats list handed back in [result]
   is built from the very same events, so an external tracer (see
   lib/driver) and [pp_stats] observe identical timings.

   Counters: the manager runs each pass in its own [Metrics] scope, so
   whatever the pass records ([Metrics.record], or a rewriter's bumps)
   lands in that pass's table — e.g. how often each rewrite pattern
   fired.  A snapshot of the table rides on [Pass_end] and [stat], so
   it reaches both the textual stats and the Chrome traces. *)

type t = {
  name : string;
  description : string;
  run : Ir.op -> Diagnostic.Engine.t -> bool;
}

let make ~name ~description run = { name; description; run }

type stat = {
  pass_name : string;
  seconds : float;
  changed : bool;
  counters : (string * int) list;  (* sorted by name *)
}

type event =
  | Pass_begin of { pass_name : string; index : int }
  | Pass_end of {
      pass_name : string;
      index : int;
      seconds : float;
      changed : bool;
      counters : (string * int) list;
    }

type result = {
  stats : stat list;
  engine : Diagnostic.Engine.t;
  succeeded : bool;
}

module Manager = struct
  type manager = {
    passes : t list;
    verify_each : bool;
    instrument : event -> unit;
  }

  let create ?(verify_each = false) ?(instrument = fun _ -> ()) passes =
    { passes; verify_each; instrument }

  let run mgr root =
    let engine = Diagnostic.Engine.create () in
    (* Stats are collected by listening to the same event stream the
       external instrumentation callback sees. *)
    let collected = ref [] in
    let emit_event ev =
      (match ev with
      | Pass_end { pass_name; seconds; changed; counters; _ } ->
        collected := { pass_name; seconds; changed; counters } :: !collected
      | Pass_begin _ -> ());
      mgr.instrument ev
    in
    let finish succeeded =
      { stats = List.rev !collected; engine; succeeded }
    in
    let rec go index = function
      | [] -> finish true
      | pass :: rest ->
        emit_event (Pass_begin { pass_name = pass.name; index });
        let t0 = Unix.gettimeofday () in
        let changed, counters = Metrics.with_scope (fun () -> pass.run root engine) in
        let seconds = Unix.gettimeofday () -. t0 in
        emit_event
          (Pass_end { pass_name = pass.name; index; seconds; changed; counters });
        if Diagnostic.Engine.has_errors engine then finish false
        else if mgr.verify_each then begin
          match Verify.verify root with
          | Ok () -> go (index + 1) rest
          | Error verify_engine ->
            Diagnostic.Engine.errorf engine (Ir.Op.loc root)
              "IR verification failed after pass '%s':\n%s" pass.name
              (Diagnostic.Engine.to_string verify_engine);
            finish false
        end
        else go (index + 1) rest
    in
    go 0 mgr.passes

  (* The `--stats` table: one line per pass, then its counters. *)
  let pp_stats fmt stats =
    List.iter
      (fun s ->
        Format.fprintf fmt "%-28s %8.3f ms %s@\n" s.pass_name (s.seconds *. 1000.)
          (if s.changed then "(changed)" else "");
        List.iter
          (fun (name, n) -> Format.fprintf fmt "    %-32s %6d@\n" name n)
          s.counters)
      stats
end
