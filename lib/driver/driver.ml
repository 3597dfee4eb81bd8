(* The compilation service: one place that owns the end-to-end compile
   flow (parse/build → verify → pass pipeline → emit → print), shared
   by hirc, the benchmark harness and the tests.

   On top of the single-job flow it layers
     - a content-addressed cache (module [Cache]) consulted before any
       work is done and filled after a successful compile, with hit-path
       integrity verification and quarantine of damaged entries;
     - a multicore batch mode (module [Service]) that compiles many
       jobs concurrently on OCaml 5 domains, with results returned in
       input order and byte-identical to a sequential run (each job
       compiles under [Ir.with_isolated_ids], so the id-derived names
       in the Verilog do not depend on scheduling);
     - per-job fault tolerance: wall-clock/work guards (module [Guard])
       that turn runaway compiles into structured timeout diagnostics,
       retry with capped exponential backoff for transient failures,
       and quarantine of repeat offenders — a batch always terminates
       with exactly one outcome per job, and partial results are
       returned, never discarded;
     - per-stage timing spans, fault/degradation instants and the
       job's counter table (module [Trace]) exportable as Chrome trace
       JSON. *)

open Hir_ir
open Hir_dialect
module Emit = Hir_codegen.Emit

type source =
  | Text of { src_name : string; text : string }
  | Builder of { src_name : string; build : unit -> Ir.op * Ir.op }

type job = {
  src : source;
  pipeline : Pipeline.spec;
  top : string option;  (* ignored for [Builder] sources *)
}

type output = {
  job_name : string;
  top_name : string;  (* name of the chosen top-level function *)
  verilog : string;
  usage : Hir_resources.Model.usage;
  from_cache : bool;
  note : string option;  (* e.g. implicit top-function choice *)
  degradations : string list;
      (* fallbacks taken while still producing this output: cache
         faults survived, corrupt entries quarantined, retries.
         Empty = clean compile. *)
  pass_stats : Pass.stat list;  (* empty on a cache hit *)
  seconds : float;  (* total job wall time *)
}

(* How a failure should be treated by the retry machinery:
   - [Transient]: infrastructure trouble (IO faults, injected faults) —
     retrying may succeed;
   - [Timeout]: the job exhausted its deadline/budget — retrying would
     spend the same budget again, so it fails permanently;
   - [Permanent]: the input is at fault (parse/verify/codegen errors) —
     no retry can help;
   - [Cancelled]: the caller withdrew the job (explicit cancel frame or
     client disconnect) — never retried, and reported as its own
     outcome, not as a failure of the input. *)
type failure_class = Transient | Timeout | Permanent | Cancelled

(* A failed job: every failure mode — lex/parse errors, verifier
   rejections, pass failures, codegen errors, timeouts, injected
   faults, even unexpected exceptions — is normalized to a list of
   located [Diagnostic]s, so callers (and the batch scheduler's
   domains) never see an exception escape [compile_job]. *)
type error = {
  err_job : string;  (* the job's source name *)
  err_class : failure_class;
  err_diags : Diagnostic.t list;  (* at least one *)
}

type outcome = (output, error) result

let error_to_string e =
  String.concat "\n" (List.map Diagnostic.to_string e.err_diags)

let source_name = function
  | Text { src_name; _ } -> src_name
  | Builder { src_name; _ } -> src_name

let job_of_text ?top ~pipeline ~name text =
  { src = Text { src_name = name; text }; pipeline; top }

let job_of_file ?top ~pipeline path =
  job_of_text ?top ~pipeline ~name:path (Io.read_file path)

let job_of_builder ~pipeline ~name build =
  { src = Builder { src_name = name; build }; pipeline; top = None }

(* ------------------------------------------------------------------ *)
(* Single-job flow                                                     *)

exception Compile_failed of Diagnostic.t list

let fail_msg msg = raise (Compile_failed [ Diagnostic.error Location.unknown msg ])

(* Structural verification, then, if that was clean, each call
   against its callee's signature and the schedule: their accessors
   assume a structurally sound module.  The engine holds every
   diagnostic reported. *)
let verifier_engine module_op =
  let engine = Diagnostic.Engine.create () in
  (match Verify.verify module_op with
  | Ok () -> ()
  | Error e -> List.iter (Diagnostic.Engine.emit engine) (Diagnostic.Engine.to_list e));
  if not (Diagnostic.Engine.has_errors engine) then begin
    Ops.verify_calls engine module_op;
    Verify_schedule.verify_module engine module_op
  end;
  engine

let run_verifiers module_op =
  let engine = verifier_engine module_op in
  if Diagnostic.Engine.has_errors engine then
    raise (Compile_failed (Diagnostic.Engine.to_list engine))

(* Diagnostics with no location of their own are attributed to the
   job, so batch output still says which input failed.  `hirc verify`
   attributes its diagnostics the same way, so it and `hirc compile`
   report an input's errors alike. *)
let attribute ~job diags =
  List.map
    (fun (d : Diagnostic.t) ->
      if Location.is_unknown d.Diagnostic.loc then { d with Diagnostic.loc = Location.name job }
      else d)
    diags

(* A lex or parse error as every command reports it: `hirc compile`,
   `hirc verify` and `hirc print` print the same line for one input. *)
let frontend_diagnostic = function
  | Parser.Parse_error (loc, msg) -> Some (Diagnostic.error loc ("parse error: " ^ msg))
  | Lexer.Lex_error (loc, msg) -> Some (Diagnostic.error loc ("lex error: " ^ msg))
  | _ -> None

(* Parse a source, a lex or parse error becoming its diagnostic. *)
let parse_source ~file text =
  match Parser.parse_string ~file text with
  | m -> Ok m
  | exception exn -> (
    match frontend_diagnostic exn with Some d -> Error d | None -> raise exn)

(* Top-function selection, with a note when the choice is implicit:
   with no [--top] and several functions we keep the historical
   behaviour (the last, i.e. textually final, function) but say so
   instead of picking silently. *)
let pick_top module_op top =
  (* Extern declarations have no body, so they are never an implicit
     top choice (naming one explicitly is reported by codegen). *)
  let funcs =
    List.filter (fun f -> not (Ops.is_extern_func f)) (Ops.module_funcs module_op)
  in
  match (top, funcs) with
  | Some name, _ -> (
    match Ops.lookup_func module_op name with
    | Some f -> (f, None)
    | None -> fail_msg (Printf.sprintf "no function @%s in the module" name))
  | None, [] -> fail_msg "module contains no (non-extern) functions"
  | None, [ f ] -> (f, None)
  | None, funcs ->
    let f = List.nth funcs (List.length funcs - 1) in
    let note =
      Printf.sprintf
        "--top not given; choosing the last of %d functions, @%s (candidates: %s)"
        (List.length funcs)
        (Ops.func_name f)
        (String.concat ", " (List.map (fun g -> "@" ^ Ops.func_name g) funcs))
    in
    (f, Some note)

(* The instrument of the per-function mini-pipelines: pass spans in
   the Chrome trace, the pass's counters in the job's table (as
   "pass:<pass>/<counter>", summed over functions), and a guard
   checkpoint between passes so a pipeline that overruns its deadline
   stops at the next pass boundary. *)
let pass_instrument ~trace ~guard = function
  | Pass.Pass_begin _ -> ()
  | Pass.Pass_end { pass_name; seconds; changed; counters; _ } ->
    let stop = Trace.now () in
    let name = "pass:" ^ pass_name in
    (* Pattern/fold application counts also ride on the pass span, so
       the Chrome trace shows which rewrites fired in which function. *)
    let counter_args = List.map (fun (k, n) -> (k, string_of_int n)) counters in
    Trace.add_span trace ~cat:"pass"
      ~args:(("changed", string_of_bool changed) :: counter_args)
      ~name ~start:(stop -. seconds) ~stop ();
    List.iter
      (fun (k, n) -> Metrics.incr ~by:n (Trace.metrics trace) (name ^ "/" ^ k))
      counters;
    Guard.tick guard

(* The state of one job, passed through the stages below. *)
type state = {
  st_job : job;
  st_name : string;
  st_cache : Cache.t option;
  st_trace : Trace.t;
  st_guard : Guard.t;
  st_pipeline : string;  (* the pipeline's spec, as keys hash it *)
  st_fns : (string, Incr.compiled) Hashtbl.t;  (* compiled functions, by name *)
  mutable st_stats : Pass.stat list list;  (* per optimized function, newest first *)
  mutable st_degradations : string list;  (* newest first *)
}

let count st name = Metrics.incr (Trace.metrics st.st_trace) name

let degrade st reason =
  st.st_degradations <- reason :: st.st_degradations;
  Trace.instant st.st_trace ~cat:"fault" ~args:[ ("job", st.st_name) ] reason;
  count st "degradations"

(* Staged-cache plumbing: every consult degrades IO trouble to a miss
   (with a note), every store is best-effort.  With no cache attached
   both are inert, and the stages compute exactly the same bytes: the
   compute path does not depend on the cache being present.  A key is
   forced only with a cache attached, so a cache-less job hashes
   nothing. *)
let consult st kind what k =
  match st.st_cache with
  | None -> None
  | Some c -> (
    match
      Trace.span st.st_trace ~cat:"cache" "cache-lookup" (fun () ->
          Cache.consult ~kind c (Lazy.force k))
    with
    | Cache.Hit entry -> Some entry
    | Cache.Miss -> None
    | Cache.Read_fault reason ->
      degrade st (Printf.sprintf "%s cache read fault, recompiling: %s" what reason);
      count st "cache-read-fault";
      None
    | Cache.Corrupt reason ->
      degrade st
        (Printf.sprintf "corrupt %s cache entry quarantined, recompiling: %s" what reason);
      count st "cache-quarantined";
      None)

(* [entry] builds the entry, and runs only with a cache attached: a
   Vmod payload copies the function's whole module text. *)
let store st kind what k entry =
  match st.st_cache with
  | None -> ()
  | Some c ->
    let entry = entry () in
    Trace.span st.st_trace ~cat:"cache" "cache-store" (fun () ->
        match Cache.store ~kind c (Lazy.force k) entry with
        | Ok () -> ()
        | Error reason ->
          degrade st (Printf.sprintf "cache write fault, %s not cached: %s" what reason);
          count st "cache-write-fault")

(* The text the job's keys are computed from, and a builder source's
   module with its top.  A builder module is named in place
   ([Printer.fix_names]), which brings it to the print∘parse fixed
   point, and printed only for a job with a cache: each function's own
   print is then its slice of that text, as it is for a text job. *)
let source_text st =
  match st.st_job.src with
  | Text { text; _ } -> (Lazy.from_val text, None)
  | Builder { build; _ } ->
    Trace.span st.st_trace ~cat:"frontend" "build" (fun () ->
        let m, f = build () in
        Printer.fix_names m;
        let text = lazy (Printer.op_to_string m) in
        if st.st_cache <> None then ignore (Lazy.force text);
        (text, Some (m, f)))

let verify st m =
  Trace.span st.st_trace ~cat:"verify" "verify" (fun () -> run_verifiers m);
  Guard.tick st.st_guard

(* Plan the source and choose the top: (plan, top, note).  A builder
   module is already normalized and is rebuilt fresh on every compile,
   so it is planned in memory with no Src entry.  A text source is
   memoized in a Src entry keyed on its raw text, whose payload is the
   normalized module text: a hit proves the source parsed and verified
   before and skips the verifiers.  Without a cache, the parsed module
   is planned with no text at all: a parse is already named as the
   parse of its print ([Incr.normalize]), so both paths compile the
   same module. *)
let plan_source st ~text built =
  match built with
  | Some (m, f) ->
    Guard.tick st.st_guard;
    verify st m;
    ( Trace.span st.st_trace ~cat:"frontend" "plan" (fun () -> Incr.plan_of_module ~text m),
      Ops.func_name f,
      None )
  | None ->
    let name = st.st_name in
    let text = Lazy.force text in
    let src_key = lazy (Cache.stage_key ~kind:Cache.Src ~parts:[ text ]) in
    let plan =
      match consult st Cache.Src "source" src_key with
      | Some e ->
        let text = e.Cache.e_verilog in
        let m =
          Trace.span st.st_trace ~cat:"frontend" "parse" (fun () ->
              Ir.with_isolated_ids (fun () -> Parser.parse_string ~file:name text))
        in
        Guard.tick st.st_guard;
        (* The payload is a printed fixed point, so it is its own
           parse's print. *)
        Trace.span st.st_trace ~cat:"frontend" "plan" (fun () ->
            Incr.plan_of_module ~text:(Lazy.from_val text) m)
      | None ->
        let m =
          Trace.span st.st_trace ~cat:"frontend" "parse" (fun () ->
              Parser.parse_string ~file:name text)
        in
        Guard.tick st.st_guard;
        verify st m;
        let plan =
          Trace.span st.st_trace ~cat:"frontend" "plan" (fun () ->
              match st.st_cache with
              | None -> Incr.plan_of_module m
              | Some _ -> Incr.normalize ~file:name ~text m)
        in
        store st Cache.Src "normalized source" src_key (fun () ->
            {
              Cache.e_verilog = Lazy.force plan.Incr.pl_text;
              e_top = "";
              e_usage = Hir_resources.Model.zero;
            });
        plan
    in
    let f, note = pick_top plan.Incr.pl_module st.st_job.top in
    (plan, Ops.func_name f, note)

(* The top's cone, once the top is known to have a body and the cone
   to have no call cycle or unknown callee ([Emit.compile_cone], the
   walk [Emit.compile] runs).  The plan reads a function's callees on
   first use, so this is planning time. *)
let cone st plan ~top =
  Trace.span st.st_trace ~cat:"frontend" "plan" (fun () ->
      Emit.compile_cone plan.Incr.pl_fns ~top)

(* One function of the cone, every callee already compiled: its record
   comes from its Vmod entry, or it runs [Emit]'s stages from the plan
   and is printed and stored.  Returns whether it was emitted. *)
let compile_fn st plan ~passes ~hash fn =
  Guard.tick st.st_guard;
  let key = lazy (Cache.stage_key ~kind:Cache.Vmod ~parts:[ Lazy.force hash fn ]) in
  let cached =
    Option.bind (consult st Cache.Vmod "function-verilog" key) (fun e ->
        Incr.of_payload ~usage:e.Cache.e_usage e.Cache.e_verilog)
  in
  let c =
    match cached with
    | Some c -> c
    | None ->
      let f = Emit.find plan.Incr.pl_fns fn in
      let emit =
        if f.Emit.fn_extern then fun () -> (Emit.emit_extern_module f.Emit.fn_func, [])
        else begin
          let opt_fn, stats =
            Trace.span st.st_trace "optimize" (fun () ->
                Emit.optimize_fn ~passes
                  ~instrument:(pass_instrument ~trace:st.st_trace ~guard:st.st_guard)
                  f.Emit.fn_func)
          in
          st.st_stats <- stats :: st.st_stats;
          fun () ->
            let vmodule, defs, _ = Emit.emit_fn plan.Incr.pl_fns opt_fn in
            (vmodule, defs)
        end
      in
      let emitted = Trace.span st.st_trace ~cat:"backend" "emit" emit in
      let c =
        Trace.span st.st_trace ~cat:"backend" "pretty" (fun () ->
            Incr.print_compiled plan ~compiled:(Hashtbl.find st.st_fns) fn emitted)
      in
      store st Cache.Vmod "function Verilog" key (fun () ->
          { Cache.e_verilog = Incr.payload c; e_top = fn; e_usage = c.Incr.c_usage });
      c
  in
  Hashtbl.replace st.st_fns fn c;
  Option.is_none cached

(* Link the compiled cone into the job's result. *)
let link st (cone : Emit.cone) ~top =
  let verilog =
    Trace.span st.st_trace ~cat:"backend" "print" (fun () ->
        Incr.link cone.Emit.co_emit ~compiled:(Hashtbl.find st.st_fns))
  in
  Guard.tick st.st_guard;
  let usage = (Hashtbl.find st.st_fns top).Incr.c_usage in
  { Cache.e_verilog = verilog; e_top = top; e_usage = usage }

(* The job's stages: cache lookup, plan, per-function compile, link
   and store.  A failing stage's exception escapes: [compile_job] maps
   it to the job's error, and `hirc fuzz --full` runs this form so that
   a bug the mapping's backstop would report is a crash there. *)
let compile_job_exn ?cache ?(trace = Trace.create ()) ?(limits = Guard.no_limits) ?cancel job =
  let name = source_name job.src in
  let st =
    {
      st_job = job;
      st_name = name;
      st_cache = cache;
      st_trace = trace;
      st_guard = Guard.create ~job:name ?cancel limits;
      st_pipeline = Pipeline.to_string job.pipeline;
      st_fns = Hashtbl.create 16;
      st_stats = [];
      st_degradations = [];
    }
  in
  let started = Trace.now () in
  let finish ~from_cache ~note ~pass_stats (e : Cache.entry) =
    {
      job_name = name;
      top_name = e.Cache.e_top;
      verilog = e.Cache.e_verilog;
      usage = e.Cache.e_usage;
      from_cache;
      note;
      degradations = List.rev st.st_degradations;
      pass_stats;
      seconds = Trace.now () -. started;
    }
  in
  Faults.with_scope name (fun () ->
      Ir.with_isolated_ids (fun () ->
          let text, built = source_text st in
          let key =
            lazy (Cache.key ~pipeline:st.st_pipeline ~top:job.top ~source:(Lazy.force text))
          in
          Guard.tick st.st_guard;
          match consult st Cache.Job "job" key with
          | Some entry ->
            count st "cache-hit";
            finish ~from_cache:true ~note:None ~pass_stats:[] entry
          | None ->
            if cache <> None then count st "cache-miss";
            (* The compile itself as an injection point: models a
               worker crashing mid-job. *)
            Faults.point "job.compile";
            let plan, top, note = plan_source st ~text built in
            let cone = cone st plan ~top in
            let hash = lazy (Incr.cone_hashes plan ~pipeline:st.st_pipeline) in
            let passes = Pipeline.to_passes job.pipeline in
            let emitted = List.filter (compile_fn st plan ~passes ~hash) cone.Emit.co_deps in
            let entry = link st cone ~top in
            (* With every function of the design from its Vmod entry,
               the job is served from the cache and stores nothing. *)
            let from_cache = emitted = [] in
            if from_cache then count st "cache-link-hit"
            else store st Cache.Job "result" key (fun () -> entry);
            finish ~from_cache ~note ~pass_stats:(List.concat (List.rev st.st_stats)) entry))

let compile_job ?cache ?(trace = Trace.create ()) ?limits ?cancel job =
  let name = source_name job.src in
  let error err_class err_diags = Error { err_job = name; err_class; err_diags } in
  let fault ?(args = []) what =
    Trace.instant trace ~cat:"fault" ~args:(("job", name) :: args) what
  in
  match compile_job_exn ?cache ~trace ?limits ?cancel job with
  | o -> Ok o
  | exception (Compile_failed diags | Emit.Pass_failed diags) ->
    error Permanent (attribute ~job:name diags)
  | exception Guard.Exhausted { reason; _ } ->
    fault "job-timeout";
    error Timeout [ Diagnostic.error (Location.name name) ("job timeout: " ^ reason) ]
  | exception Guard.Cancelled _ ->
    fault "job-cancelled";
    error Cancelled [ Diagnostic.error (Location.name name) "job cancelled" ]
  | exception Faults.Injected p ->
    fault ~args:[ ("point", p) ] "fault-injected";
    error Transient [ Diagnostic.error (Location.name name) ("injected fault at " ^ p) ]
  | exception ((Parser.Parse_error _ | Lexer.Lex_error _) as exn) ->
    error Permanent (Option.to_list (frontend_diagnostic exn))
  | exception Emit.Codegen_error msg ->
    error Permanent [ Diagnostic.error (Location.name name) ("codegen: " ^ msg) ]
  | exception Sys_error msg ->
    (* IO trouble is infrastructure, not input: worth a retry. *)
    error Transient [ Diagnostic.error (Location.name name) msg ]
  | exception ((Stack_overflow | Out_of_memory) as e) -> raise e
  | exception exn ->
    (* Backstop: a bug anywhere in the stack (an uncaught [Failure], an
       [Invalid_argument], …) must not escape across the scheduler's
       domains; surface it as an internal-error diagnostic instead. *)
    error Permanent
      [ Diagnostic.error (Location.name name) ("internal error: " ^ Printexc.to_string exn) ]

(* ------------------------------------------------------------------ *)
(* Batch mode                                                          *)

(* Retry policy for transient failures: capped exponential backoff with
   jitter hashed from the job name (see [Faults.uniform]), then
   quarantine: a job still failing transiently after [max_attempts] is
   reported as failed and not retried again within the batch. *)
type retry_policy = {
  max_attempts : int;  (* total attempts, including the first *)
  base_backoff_s : float;
  max_backoff_s : float;
}

let default_retry = { max_attempts = 3; base_backoff_s = 0.002; max_backoff_s = 0.05 }

(* One per job, always: the scheduler invariant the fault-injection
   tests pin down is that a batch of n jobs yields exactly n reports,
   whatever faults fired. *)
type report = {
  rp_job : string;
  rp_attempts : int;
  rp_outcome : outcome;
}

let report_status r =
  match r.rp_outcome with
  | Error e -> if e.err_class = Cancelled then `Cancelled else `Failed
  | Ok o -> if o.degradations = [] then `Ok else `Degraded

let status_to_string = function
  | `Ok -> "ok"
  | `Degraded -> "degraded"
  | `Failed -> "failed"
  | `Cancelled -> "cancelled"

(* What a batch's reports add up to, for its summary line and JSON. *)
type tally = {
  t_ok : int;
  t_degraded : int;
  t_failed : int;  (* failed or cancelled *)
  t_cached : int;  (* served from the cache, whichever entry kind hit *)
}

let tally reports =
  Array.fold_left
    (fun t r ->
      let t =
        match report_status r with
        | `Ok -> { t with t_ok = t.t_ok + 1 }
        | `Degraded -> { t with t_degraded = t.t_degraded + 1 }
        | `Failed | `Cancelled -> { t with t_failed = t.t_failed + 1 }
      in
      match r.rp_outcome with
      | Ok o when o.from_cache -> { t with t_cached = t.t_cached + 1 }
      | _ -> t)
    { t_ok = 0; t_degraded = 0; t_failed = 0; t_cached = 0 }
    reports

(* A report for a job that was cancelled before any attempt ran (the
   service core dequeues it without spending a worker on it). *)
let cancelled_report ~job =
  {
    rp_job = job;
    rp_attempts = 0;
    rp_outcome =
      Error
        {
          err_job = job;
          err_class = Cancelled;
          err_diags = [ Diagnostic.error (Location.name job) "job cancelled" ];
        };
  }

(* A report for a job whose runner itself crashed (a bug escaping even
   [compile_job]'s backstop, or OOM in a worker): the service must
   still deliver exactly one report. *)
let crashed_report ~job exn =
  {
    rp_job = job;
    rp_attempts = 1;
    rp_outcome =
      Error
        {
          err_job = job;
          err_class = Permanent;
          err_diags =
            [ Diagnostic.error (Location.name job)
                ("internal error: job runner crashed: " ^ Printexc.to_string exn) ];
        };
  }

type batch_result = {
  reports : report array;  (* in job order *)
  outcomes : outcome array;  (* = reports' outcomes, in job order *)
  batch_notes : string list;  (* batch-level degradations (spawn faults) *)
  traces : Trace.t list;  (* one per job, tid = job index + 1 *)
  wall_seconds : float;
}

let run_with_retry ?cache ?cancel ~trace ~limits ~retry job =
  let name = source_name job.src in
  let rec go attempt retry_notes =
    match compile_job ?cache ~trace ~limits ?cancel job with
    | Ok o ->
      let o =
        if retry_notes = [] then o
        else { o with degradations = o.degradations @ List.rev retry_notes }
      in
      { rp_job = name; rp_attempts = attempt; rp_outcome = Ok o }
    | Error e when e.err_class = Transient && attempt < retry.max_attempts ->
      let cause =
        match e.err_diags with
        | d :: _ -> d.Diagnostic.msg
        | [] -> "transient failure"
      in
      Metrics.incr (Trace.metrics trace) "retries";
      Trace.instant trace ~cat:"fault"
        ~args:[ ("job", name); ("attempt", string_of_int attempt) ]
        "retry";
      (* Capped exponential backoff with jitter in [0.5x, 1.5x]. *)
      let backoff =
        Float.min retry.max_backoff_s
          (retry.base_backoff_s *. (2. ** float_of_int (attempt - 1)))
      in
      let jitter = 0.5 +. Faults.uniform ~seed:0 ~key:name ~index:attempt in
      let delay = backoff *. jitter in
      if delay > 0. then Unix.sleepf delay;
      go (attempt + 1)
        (Printf.sprintf "attempt %d failed (%s); retried" attempt cause
        :: retry_notes)
    | Error e ->
      let e =
        if e.err_class = Transient then
          (* Retries exhausted: quarantine the repeat offender. *)
          { e with
            err_diags =
              e.err_diags
              @ [ Diagnostic.error (Location.name name)
                    (Printf.sprintf
                       "job quarantined after %d transient failures; giving up"
                       attempt) ] }
        else e
      in
      { rp_job = name; rp_attempts = attempt; rp_outcome = Error e }
  in
  go 1 []

(* Batch mode is one-shot use of the service core: submit every job as
   a single client at equal priority (so scheduling is plain FIFO),
   shut the pool down to drain it, and collect the per-index reports.
   Results stay byte-identical to a sequential run — each job compiles
   under [Ir.with_isolated_ids], so output does not depend on which
   worker ran it or when. *)
let batch ?cache ?(workers = 1) ?(limits = Guard.no_limits) ?(retry = default_retry)
    (jobs : job array) =
  let n = Array.length jobs in
  let epoch = Trace.now () in
  let traces =
    Array.init n (fun i ->
        let t = Trace.create ~epoch () in
        Trace.set_tid t (i + 1);
        t)
  in
  let reports = Array.make n None in
  let spawned = min (max 0 workers) n in
  let svc =
    Service.create ~workers:spawned
      ~run:(fun h ->
        let i = Service.data h in
        run_with_retry ?cache
          ~cancel:(Service.cancel_flag h)
          ~trace:traces.(i) ~limits ~retry jobs.(i))
      ~cancelled:(fun h -> cancelled_report ~job:(source_name jobs.(Service.data h).src))
      ~crashed:(fun h exn ->
        crashed_report ~job:(source_name jobs.(Service.data h).src) exn)
      ~on_complete:(fun c ->
        reports.(Service.data c.Service.c_handle) <- Some c.Service.c_result)
      ()
  in
  Array.iteri
    (fun i _ ->
      match Service.submit svc ~client:0 ~priority:0 i with
      | Service.Accepted _ -> ()
      | Service.Overloaded | Service.Stopped ->
        (* Unbounded depth, not yet stopped: cannot happen. *)
        assert false)
    jobs;
  (* Drain: with zero live workers (all spawns failed, or -j0) shutdown
     runs the queue inline in this domain, preserving the degradation
     ladder the spawn-fault tests pin down. *)
  Service.shutdown svc;
  let reports =
    Array.map
      (function
        | Some r -> r
        | None -> assert false (* shutdown delivers every completion *))
      reports
  in
  let batch_notes =
    match Service.spawn_failure_count svc with
    | 0 -> []
    | f ->
      [ Printf.sprintf
          "%d of %d worker spawns failed; batch degraded to the surviving workers" f
          spawned ]
  in
  {
    reports;
    outcomes = Array.map (fun r -> r.rp_outcome) reports;
    batch_notes;
    traces = Array.to_list traces;
    wall_seconds = Trace.now () -. epoch;
  }

(* Prime a cache by compiling a job list through the normal batch
   machinery (same fault handling, same retries), purely for the side
   effect of filling [cache].  Returns (stored, hits, failures): jobs
   newly compiled into the cache, jobs already present, jobs that
   failed to compile. *)
let warm_cache ~cache ?(workers = 1) ?(limits = Guard.no_limits)
    ?(retry = default_retry) (jobs : job array) =
  let t = tally (batch ~cache ~workers ~limits ~retry jobs).reports in
  (t.t_ok + t.t_degraded - t.t_cached, t.t_cached, t.t_failed)
