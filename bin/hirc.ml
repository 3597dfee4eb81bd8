(* hirc — the HIR compiler driver.

     hirc compile design.hir [-o out.v] [--top f] [--no-opt]
         parse (generic textual form), verify, optimize, emit Verilog
     hirc verify design.hir
         run the structural and schedule verifiers, print diagnostics
     hirc print design.hir
         parse and re-print (round-trip check)
     hirc kernels
         list the built-in benchmark kernels
     hirc demo <kernel> [-o out.v] [--no-opt] [--stats] [--no-share]
         compile a built-in kernel and report resources (--stats shows
         the per-definition hierarchy breakdown; --no-share flattens it)
     hirc pipeline --passes "<spec>" design.hir [-o out.v] [--stats]
         compile with an explicit textual pass pipeline (--list shows
         the available passes)
     hirc batch <files-or-kernels…> [-j N] [--cache-dir D] [--trace t.json]
               [--deadline S] [--retries N] [--json OUT.json]
               [--inject SPEC] [--inject-seed N]
         compile many designs concurrently through the compilation
         service, with optional persistent caching, Chrome tracing,
         per-job deadlines, retry of transient failures and seeded
         fault injection; exits 0 when every job succeeded (possibly
         degraded), 2 when the batch completed but some jobs failed
     hirc cache <dir> [--verify] [--prune]
         check every cache entry against its content digest
         (quarantining damaged ones) and/or empty the quarantine
     hirc fuzz [N] [--seed S] [--full] [--corpus DIR] [--crash-dir DIR]
               [--dump-last FILE]
         mutation-fuzz the textual frontend (--full: compile each input
         as `hirc compile` does); exits 1 if any input crashes instead of
         failing with a diagnostic
     hirc sim <kernel> [--cycles N] [--stats] [--vcd out.vcd] [--hls]
         compile a built-in kernel and run it on the opcode engine of the
         RTL simulator with generic inputs; --stats reports the
         simulator's own counters (settles, assigns evaluated vs skipped,
         fast-path hit rate)
     hirc serve (--socket PATH | --port P) [-j N] [--queue-depth N]
                [--cache-dir D] [--journal DIR] [--deadline S] [--verbose]
                [--inject SPEC] [--inject-seed N]
         persistent compile server: line-JSON compile/cancel/poll frames
         and health/metrics probes, with an optional write-ahead job
         journal for crash recovery and a graceful drain on SIGTERM
     hirc journal <dir> [--verify] [--compact]
         replay a serve journal and report pending and quarantined
         records, and/or rewrite it down to its pending set

   The end-to-end flow (parse → verify → passes → emit) lives in
   [Hir_driver.Driver]; this file is only the command-line surface. *)

open Hir_ir
open Hir_dialect
open Hir_driver
open Cmdliner

let () = Ops.register ()

(* Ignore SIGPIPE process-wide: a client that hangs up mid-response (or
   a broken pipe on batch stdout) must surface as an [EPIPE]
   [Unix.Unix_error] on the offending write — a per-connection error the
   server handles — not kill the process.  Windows has no SIGPIPE. *)
let () =
  match Sys.os_type with
  | "Unix" | "Cygwin" -> Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  | _ -> ()

(* A design file's module, or the line to report: a lex or parse error
   reads as `hirc compile` reports it. *)
let load_module path =
  match Io.read_file path with
  | exception Sys_error e -> Error e
  | text -> Result.map_error Diagnostic.to_string (Driver.parse_source ~file:path text)

(* Run [f], which writes the file or directory [path].  If it cannot,
   hirc reports that as one line and exits 1. *)
let writing path f =
  let cannot reason =
    Printf.eprintf "hirc: cannot write %s: %s\n" path reason;
    exit 1
  in
  try f () with
  | Sys_error e ->
    (* A [Sys_error] from opening a file reads "PATH: REASON". *)
    let prefix = path ^ ": " in
    let n = String.length prefix in
    cannot (if String.starts_with ~prefix e then String.sub e n (String.length e - n) else e)
  | Unix.Unix_error (err, _, _) -> cannot (Unix.error_message err)

let write_file path text = writing path (fun () -> Io.write_file path text)
let make_dir dir = writing dir (fun () -> Io.mkdir_p dir)

let output_text out text =
  match out with
  | None -> print_string text
  | Some path ->
    write_file path text;
    Printf.eprintf "wrote %s (%d bytes)\n" path (String.length text)

(* Run one job through the compilation service and write its output. *)
let run_job ?cache ?stats ~out job =
  match Driver.compile_job ?cache job with
  | Error e ->
    prerr_endline (Driver.error_to_string e);
    1
  | Ok o ->
    Option.iter (Printf.eprintf "note: %s\n") o.Driver.note;
    if stats = Some true then
      Format.eprintf "%a%!" Pass.Manager.pp_stats o.Driver.pass_stats;
    if stats = Some true && cache <> None then
      prerr_endline (if o.Driver.from_cache then "cache: hit" else "cache: miss");
    output_text out o.Driver.verilog;
    0

(* ----------------------------- commands --------------------------- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Input .hir file")

let out_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Output file")

let top_arg =
  Arg.(value & opt (some string) None & info [ "top" ] ~docv:"FUNC" ~doc:"Top-level function")

let no_opt_arg =
  Arg.(value & flag & info [ "no-opt" ] ~doc:"Skip the optimization pipeline")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:"Persist compiled output in a content-addressed cache under $(docv)")

(* "512K" / "64M" / "2G" -> bytes; bare numbers are bytes. *)
let parse_size s =
  let s = String.trim s in
  let n = String.length s in
  if n = 0 then Error (`Msg "empty size")
  else
    let mult, digits =
      match Char.uppercase_ascii s.[n - 1] with
      | 'K' -> (1024, String.sub s 0 (n - 1))
      | 'M' -> (1024 * 1024, String.sub s 0 (n - 1))
      | 'G' -> (1024 * 1024 * 1024, String.sub s 0 (n - 1))
      | _ -> (1, s)
    in
    match int_of_string_opt (String.trim digits) with
    | Some v when v > 0 -> Ok (v * mult)
    | _ ->
      Error (`Msg (Printf.sprintf "invalid size '%s' (expected e.g. 512K, 64M, 1G)" s))

let size_conv = Arg.conv (parse_size, fun ppf n -> Format.fprintf ppf "%d" n)

let cache_budget_arg =
  Arg.(
    value
    & opt (some size_conv) None
    & info [ "cache-budget" ] ~docv:"SIZE"
        ~doc:
          "Keep the cache under $(docv) bytes (suffixes K, M, G) by evicting \
           least-recently-used entries after each store")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"OUT.json"
        ~doc:"Write per-stage timing spans as Chrome trace JSON to $(docv)")

let inject_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "inject" ] ~docv:"SPEC"
        ~doc:
          "Deterministic fault injection: comma-separated rules \
           $(i,point)=$(i,prob) (fire each hit with that probability) or \
           $(i,point)@$(i,n) (fire on exactly the n-th hit per job). Points: \
           cache.read, cache.write, worker.spawn, job.compile, journal.append, \
           journal.mark, journal.replay, or $(b,*) for all.")

let inject_seed_arg =
  Arg.(
    value & opt int 0
    & info [ "inject-seed" ] ~docv:"N"
        ~doc:"Seed for --inject decisions; the same seed reproduces the same faults")

(* Parse --inject/--inject-seed into a [Faults.config], or None when
   injection is off.  Shared by `hirc batch` and `hirc serve`. *)
let fault_config_of inject inject_seed =
  match inject with
  | None -> Ok None
  | Some spec -> (
    match Faults.parse_spec spec with
    | Error e -> Error (Printf.sprintf "invalid --inject spec: %s" e)
    | Ok rules -> Ok (Some { Faults.rules; seed = inject_seed }))

let with_faults cfg f =
  match cfg with None -> f () | Some cfg -> Faults.with_config cfg f

let compile_cmd =
  let run file out top no_opt =
    let pipeline = Pipeline.default ~optimize:(not no_opt) in
    run_job ~out (Driver.job_of_file ?top ~pipeline file)
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile textual HIR to Verilog")
    Term.(const run $ file_arg $ out_arg $ top_arg $ no_opt_arg)

let verify_cmd =
  let run file =
    match load_module file with
    | Error e ->
      prerr_endline e;
      1
    | Ok m ->
      let engine = Driver.verifier_engine m in
      if Diagnostic.Engine.has_errors engine then begin
        Driver.attribute ~job:file (Diagnostic.Engine.to_list engine)
        |> List.iter (fun d -> prerr_endline (Diagnostic.to_string d));
        1
      end
      else begin
        Printf.printf "%s: all functions verify\n" file;
        0
      end
  in
  Cmd.v (Cmd.info "verify" ~doc:"Verify a textual HIR design") Term.(const run $ file_arg)

let print_cmd =
  let pretty_arg =
    Arg.(value & flag & info [ "pretty" ] ~doc:"Use the paper-style custom syntax")
  in
  let run file out pretty =
    match load_module file with
    | Error e ->
      prerr_endline e;
      1
    | Ok m ->
      if pretty then output_text out (Pretty.module_to_string m)
      else output_text out (Printer.op_to_string m ^ "\n");
      0
  in
  Cmd.v
    (Cmd.info "print" ~doc:"Parse and re-print (round-trip, or --pretty)")
    Term.(const run $ file_arg $ out_arg $ pretty_arg)

let kernels_cmd =
  let run () =
    List.iter
      (fun k ->
        Printf.printf "%-14s %s\n" k.Hir_kernels.Kernels.name
          k.Hir_kernels.Kernels.description)
      Hir_kernels.Kernels.all;
    0
  in
  Cmd.v
    (Cmd.info "kernels" ~doc:"List the built-in benchmark kernels")
    Term.(const run $ const ())

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print per-pass statistics / resource estimates")

(* " (did you mean transpose?)" — or "" when nothing is close. *)
let did_you_mean candidates =
  match candidates with
  | [] -> ""
  | l -> Printf.sprintf " (did you mean %s?)" (String.concat " or " l)

let unknown_kernel name =
  Printf.sprintf "unknown kernel %s%s (try `hirc kernels`)" name
    (did_you_mean (Hir_kernels.Kernels.suggest name))

let no_share_arg =
  Arg.(
    value & flag
    & info [ "no-share" ]
        ~doc:
          "With --stats, report flat (inclusive) resource numbers instead of the \
           hierarchy-aware per-definition breakdown")

let demo_cmd =
  let kernel_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL" ~doc:"Kernel name")
  in
  let run name out no_opt stats no_share =
    match Hir_kernels.Kernels.find name with
    | None ->
      Printf.eprintf "%s\n" (unknown_kernel name);
      1
    | Some k ->
      let pipeline = Pipeline.default ~optimize:(not no_opt) in
      let job = Driver.job_of_builder ~pipeline ~name k.Hir_kernels.Kernels.build in
      (match Driver.compile_job job with
      | Error e ->
        prerr_endline (Driver.error_to_string e);
        1
      | Ok o ->
        if stats then begin
          Format.eprintf "%a%!" Pass.Manager.pp_stats o.Driver.pass_stats;
          if no_share then
            (* Flat accounting: every instance charged in full. *)
            Printf.eprintf "%s: %s\n" name
              (Format.asprintf "%a" Hir_resources.Model.pp o.Driver.usage)
          else begin
            (* Hierarchy-aware accounting needs the design AST, which
               the driver's cached text path does not keep; re-emit. *)
            let module_op, top = k.Hir_kernels.Kernels.build () in
            let emitted =
              Hir_codegen.Emit.compile ~optimize:(not no_opt) ~module_op ~top ()
            in
            let report =
              Hir_resources.Model.shared_report emitted.Hir_codegen.Emit.design
            in
            Printf.eprintf "%s:\n%s\n" name
              (Format.asprintf "%a" Hir_resources.Model.pp_shared report)
          end
        end;
        output_text out o.Driver.verilog;
        0)
  in
  Cmd.v
    (Cmd.info "demo" ~doc:"Compile a built-in kernel")
    Term.(const run $ kernel_arg $ out_arg $ no_opt_arg $ stats_arg $ no_share_arg)

(* ------------------------------------------------------------------ *)
(* hirc pipeline                                                       *)

let passes_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "passes" ] ~docv:"SPEC"
        ~doc:
          "Comma-separated pass names, e.g. \
           'canonicalize,precision-opt,unroll,delay-elim'. A pass runs once per \
           mention: 'retime,retime' runs retime twice.")

let pipeline_cmd =
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List the available passes and exit")
  in
  let file_opt_arg =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Input .hir file")
  in
  let run passes file out top stats cache_dir cache_budget list =
    if list then begin
      List.iter
        (fun (name, descr) -> Printf.printf "%-20s %s\n" name descr)
        (Pipeline.available_passes ());
      0
    end
    else
      match (passes, file) with
      | None, _ ->
        prerr_endline "pipeline: --passes SPEC is required (or --list)";
        1
      | _, None ->
        prerr_endline "pipeline: an input FILE is required (or --list)";
        1
      | Some spec_src, Some file -> (
        match Pipeline.parse_located spec_src with
        | Error d ->
          Printf.eprintf "%s\n" (Diagnostic.to_string d);
          1
        | Ok pipeline ->
          Printf.eprintf "pipeline: %s\n" (Pipeline.to_string pipeline);
          let cache =
            Option.map
              (fun dir -> Cache.create ?budget_bytes:cache_budget ~dir ())
              cache_dir
          in
          run_job ?cache ~stats ~out (Driver.job_of_file ?top ~pipeline file))
  in
  Cmd.v
    (Cmd.info "pipeline" ~doc:"Compile with an explicit textual pass pipeline")
    Term.(
      const run $ passes_arg $ file_opt_arg $ out_arg $ top_arg $ stats_arg
      $ cache_dir_arg $ cache_budget_arg $ list_arg)

(* ------------------------------------------------------------------ *)
(* hirc fuzz                                                           *)

let fuzz_cmd =
  let iterations_arg =
    Arg.(
      value & pos 0 int 10000
      & info [] ~docv:"N" ~doc:"Number of fuzz iterations (default 10000)")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"PRNG seed (default 1)")
  in
  let full_arg =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:
            "Compile each input through the stages `hirc compile` ships: verify, \
             the optimizing pass pipeline and per-function emit and print, as an \
             uncached job (slower; default fuzzes parse + verify only)")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some dir) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Add every .hir file under $(docv) to the seed corpus")
  in
  let crash_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "crash-dir" ] ~docv:"DIR"
          ~doc:"Write each crashing input to $(docv)/crash-<i>.hir")
  in
  let dump_last_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dump-last" ] ~docv:"FILE"
          ~doc:
            "Before each iteration, overwrite $(docv) with the input about to run — \
             if the fuzzer hangs or is killed, $(docv) holds the offending input")
  in
  let run iterations seed full corpus_dir crash_dir dump_last =
    let corpus =
      Hir_fuzz.Corpus.default ()
      @ (match corpus_dir with Some d -> Hir_fuzz.Corpus.load_dir d | None -> [])
    in
    let mode = if full then Hir_fuzz.Fuzz.Full else Hir_fuzz.Fuzz.Frontend in
    let on_crash (c : Hir_fuzz.Fuzz.crash) =
      Printf.eprintf "CRASH at iteration %d: %s\n" c.Hir_fuzz.Fuzz.crash_iteration
        c.Hir_fuzz.Fuzz.crash_exn;
      match crash_dir with
      | None -> ()
      | Some dir ->
        make_dir dir;
        let path =
          Filename.concat dir
            (Printf.sprintf "crash-%d.hir" c.Hir_fuzz.Fuzz.crash_iteration)
        in
        write_file path c.Hir_fuzz.Fuzz.crash_input;
        Printf.eprintf "  input saved to %s\n" path
    in
    let on_input ~iteration:_ input = Option.iter (fun path -> write_file path input) dump_last in
    let stats = Hir_fuzz.Fuzz.run ~mode ~seed ~on_crash ~on_input ~iterations corpus in
    Printf.printf "fuzz (%s, seed %d): %s\n"
      (if full then "full" else "frontend")
      seed
      (Hir_fuzz.Fuzz.stats_to_string stats);
    if stats.Hir_fuzz.Fuzz.crashes = [] then 0 else 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Mutation-fuzz the textual frontend; any input that produces a \
          non-diagnostic crash is reported (and the run exits 1)")
    Term.(
      const run $ iterations_arg $ seed_arg $ full_arg $ corpus_arg $ crash_dir_arg
      $ dump_last_arg)

(* ------------------------------------------------------------------ *)
(* hirc sim                                                            *)

module Emit = Hir_codegen.Emit
module Harness = Hir_rtl.Harness

let sim_cmd =
  let kernel_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"KERNEL" ~doc:"Kernel name (see `hirc kernels`)")
  in
  let cycles_arg =
    let non_negative =
      let parse s =
        match Arg.conv_parser Arg.int s with
        | Ok n when n < 0 ->
          Error (`Msg (Printf.sprintf "invalid value '%d', expected a non-negative integer" n))
        | r -> r
      in
      Arg.conv ~docv:"N" (parse, Format.pp_print_int)
    in
    Arg.(
      value
      & opt (some non_negative) None
      & info [ "cycles" ] ~docv:"N"
          ~doc:
            "Clock cycles to run before 8 drain cycles (default: the interpreter's \
             latency)")
  in
  let vcd_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "vcd" ] ~docv:"OUT.vcd" ~doc:"Dump a VCD waveform to $(docv)")
  in
  let hls_arg =
    Arg.(
      value & flag
      & info [ "hls" ]
          ~doc:
            "Simulate the HLS-compiled variant from the evaluation suite instead of \
             the native HIR kernel")
  in
  let run name cycles stats vcd_path use_hls =
    let build_r =
      if use_hls then
        match Hir_hls.Suite.find name with
        | None ->
          let names = List.map fst (Hir_hls.Suite.all ()) in
          Error
            (Printf.sprintf "unknown HLS suite kernel %s%s (one of: %s)" name
               (did_you_mean (Hir_kernels.Kernels.suggest_from ~candidates:names name))
               (String.concat ", " names))
        | Some source ->
          Ok
            (fun () ->
              let c = Hir_hls.Compiler.compile source in
              (c.Hir_hls.Compiler.hls_module, c.Hir_hls.Compiler.hls_func))
      else
        match Hir_kernels.Kernels.find name with
        | None -> Error (unknown_kernel name)
        | Some k -> Ok k.Hir_kernels.Kernels.build
    in
    match build_r with
    | Error e ->
      prerr_endline e;
      1
    | Ok build ->
      (* Generic inputs derived from the compiled interface: zeroed
         scalars, zero-filled tensors on readable memref ports, a
         capture buffer on write-only ports. *)
      let emitted =
        let m, f = build () in
        if use_hls then Emit.compile ~module_op:m ~top:f ()
        else Emit.compile ~optimize:true ~module_op:m ~top:f ()
      in
      let inputs =
        List.map
          (fun arg ->
            match arg with
            | Emit.Ifc_scalar (_, w, _) -> (Harness.Scalar (Bitvec.zero w), Interp.Scalar (Bitvec.zero w))
            | Emit.Ifc_mem mi -> (
              let info = mi.Emit.mi_info in
              match info.Types.port with
              | Types.Write -> (Harness.Out_tensor, Interp.Out_tensor)
              | _ ->
                let n = Types.num_elements info in
                let zeros = Array.init n (fun _ -> Bitvec.zero mi.Emit.mi_elem_width) in
                (Harness.Tensor zeros, Interp.Tensor (Array.copy zeros))))
          emitted.Emit.top_iface.Emit.ifc_args
      in
      let harness_inputs = List.map fst inputs in
      let cycles =
        match cycles with
        | Some n -> n
        | None ->
          (* compile mutated the module, so rebuild for the interpreter. *)
          let m, f = build () in
          let r, _ = Interp.run ~module_op:m ~func:f (List.map snd inputs) in
          r.Interp.cycles
      in
      let simulate () = Harness.run ?vcd_path ~emitted ~inputs:harness_inputs ~cycles () in
      let (result, _agents), counters =
        Metrics.with_scope (fun () ->
            match vcd_path with Some path -> writing path simulate | None -> simulate ())
      in
      let failures = List.length result.Harness.failures in
      Printf.printf "%s: %d cycles on the opcode engine, %d assertion failure(s)\n" name
        result.Harness.cycles_run failures;
      List.iter
        (fun (fl : Hir_rtl.Sim.assertion_failure) ->
          Printf.printf "  assertion at cycle %d: %s\n" fl.Hir_rtl.Sim.at_cycle
            fl.Hir_rtl.Sim.message)
        result.Harness.failures;
      List.iter
        (fun (rname, v) -> Printf.printf "  result %s = %s\n" rname (Bitvec.to_string v))
        result.Harness.output_values;
      if stats then
        List.iter (fun (cname, n) -> Printf.printf "  %-28s %10d\n" cname n) counters;
      if failures = 0 then 0 else 1
  in
  Cmd.v
    (Cmd.info "sim" ~doc:"Run a built-in kernel in the RTL simulator")
    Term.(
      const run $ kernel_arg $ cycles_arg $ stats_arg $ vcd_arg $ hls_arg)

(* ------------------------------------------------------------------ *)
(* hirc cache                                                          *)

let cache_cmd =
  let dir_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Cache directory (as passed to --cache-dir)")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Check every entry against its content digest; damaged entries are \
             moved to $(i,DIR)/quarantine")
  in
  let prune_arg =
    Arg.(
      value & flag
      & info [ "prune" ] ~doc:"Delete quarantined entries and stale temp files")
  in
  let warm_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "warm" ] ~docv:"KERNELS"
          ~doc:
            "Precompile a comma-separated list of built-in kernels (or $(b,all)) \
             into the cache, priming it for a server or batch run")
  in
  let warm_jobs_arg =
    Arg.(
      value
      & opt int (Service.default_workers ())
      & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Worker domains for --warm")
  in
  let cache_stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Print on-disk population and size by entry kind (whole-job, \
             normalized source, per-function Verilog)")
  in
  let warm c spec workers =
    let names =
      if spec = "all" then List.map (fun k -> k.Hir_kernels.Kernels.name) Hir_kernels.Kernels.all
      else
        String.split_on_char ',' spec
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
    in
    let jobs_r =
      List.fold_left
        (fun acc name ->
          match (acc, Hir_kernels.Kernels.find name) with
          | Error e, _ -> Error e
          | _, None -> Error (unknown_kernel name)
          | Ok jobs, Some k ->
            Ok
              (Driver.job_of_builder
                 ~pipeline:(Pipeline.default ~optimize:true)
                 ~name k.Hir_kernels.Kernels.build
              :: jobs))
        (Ok []) names
      |> Result.map List.rev
    in
    match jobs_r with
    | Error e ->
      prerr_endline e;
      1
    | Ok jobs ->
      let stored, hits, failures =
        Driver.warm_cache ~cache:c ~workers (Array.of_list jobs)
      in
      Printf.printf "warm: %d kernel%s -> %d stored, %d already cached, %d failed\n"
        (List.length jobs)
        (if List.length jobs = 1 then "" else "s")
        stored hits failures;
      if failures > 0 then 1 else 0
  in
  let run dir verify prune warm_spec warm_workers stats budget =
    if not (verify || prune || stats || warm_spec <> None) then begin
      prerr_endline "cache: nothing to do (pass --verify, --prune, --stats and/or --warm)";
      1
    end
    else begin
      let c = Cache.create ?budget_bytes:budget ~dir () in
      if verify then begin
        let r = Cache.verify c in
        Printf.printf "verify: %d entries scanned, %d ok, %d quarantined\n"
          r.Cache.vr_scanned r.Cache.vr_ok
          (List.length r.Cache.vr_quarantined);
        List.iter
          (fun (k, reason) -> Printf.printf "  quarantined %s: %s\n" k reason)
          r.Cache.vr_quarantined
      end;
      if prune then begin
        let r = Cache.prune c in
        Printf.printf "prune: removed %d file%s, %d bytes\n" r.Cache.pr_removed
          (if r.Cache.pr_removed = 1 then "" else "s")
          r.Cache.pr_bytes
      end;
      if stats then begin
        let by_kind = Cache.stats_by_kind c in
        let entries = List.fold_left (fun a (_, n, _) -> a + n) 0 by_kind in
        let bytes = List.fold_left (fun a (_, _, b) -> a + b) 0 by_kind in
        Printf.printf "stats: %d entr%s, %d bytes\n" entries
          (if entries = 1 then "y" else "ies")
          bytes;
        List.iter
          (fun (kind, n, b) ->
            Printf.printf "  %-5s %6d entr%s %10d bytes\n" (Cache.kind_to_string kind)
              n
              (if n = 1 then "y  " else "ies")
              b)
          by_kind
      end;
      match warm_spec with Some spec -> warm c spec warm_workers | None -> 0
    end
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Verify the integrity of a compilation cache, prune its quarantine, report \
          its per-kind population, or warm it by precompiling built-in kernels")
    Term.(
      const run $ dir_arg $ verify_arg $ prune_arg $ warm_arg $ warm_jobs_arg
      $ cache_stats_arg $ cache_budget_arg)

(* ------------------------------------------------------------------ *)
(* hirc batch                                                          *)

(* Machine-readable per-job outcome summary, the contract scripted
   consumers rely on (see README): one object per job plus aggregate
   counts.  Kept deliberately flat — no nested trace data. *)
let write_batch_json path ~workers (result : Driver.batch_result) =
  let strs l = Json.Arr (List.map (fun s -> Json.Str s) l) in
  let num n = Json.Num (float_of_int n) in
  let jobs =
    Array.to_list result.Driver.reports
    |> List.map (fun (r : Driver.report) ->
           let status = Driver.report_status r in
           let common =
             [
               ("name", Json.Str r.Driver.rp_job);
               ("status", Json.Str (Driver.status_to_string status));
               ("attempts", num r.Driver.rp_attempts);
             ]
           in
           let rest =
             match r.Driver.rp_outcome with
             | Ok o ->
               [
                 ("from_cache", Json.Bool o.Driver.from_cache);
                 ("seconds", Json.Num o.Driver.seconds);
                 ("degradations", strs o.Driver.degradations);
               ]
             | Error e ->
               [ ("diagnostics", strs (List.map Diagnostic.to_string e.Driver.err_diags)) ]
           in
           Json.Obj (common @ rest))
  in
  let t = Driver.tally result.Driver.reports in
  let summary =
    Json.Obj
      [
        ("total", num (Array.length result.Driver.reports));
        ("ok", num t.Driver.t_ok);
        ("degraded", num t.Driver.t_degraded);
        ("failed", num t.Driver.t_failed);
        ("wall_seconds", Json.Num result.Driver.wall_seconds);
        ("workers", num workers);
        ("notes", strs result.Driver.batch_notes);
      ]
  in
  write_file path
    (Json.to_string (Json.Obj [ ("jobs", Json.Arr jobs); ("summary", summary) ]) ^ "\n")

let batch_cmd =
  let inputs_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"INPUT"
          ~doc:"A .hir file or the name of a built-in kernel (see `hirc kernels`)")
  in
  let jobs_arg =
    Arg.(
      value
      & opt int (Service.default_workers ())
      & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Number of worker domains")
  in
  let all_kernels_arg =
    Arg.(value & flag & info [ "kernels" ] ~doc:"Also compile every built-in kernel")
  in
  let out_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output-dir" ] ~docv:"DIR" ~doc:"Write one $(docv)/<name>.v per input")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECS"
          ~doc:
            "Per-job wall-clock deadline; a job that exceeds it fails with a \
             job-timeout diagnostic, the rest of the batch is unaffected")
  in
  let retries_arg =
    Arg.(
      value
      & opt int Driver.default_retry.Driver.max_attempts
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Total attempts per job for transient failures (default 3); \
             parse/verify errors and timeouts are never retried")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"OUT.json"
          ~doc:"Write a machine-readable per-job outcome summary to $(docv)")
  in
  let run inputs workers all_kernels out_dir cache_dir cache_budget trace_out no_opt
      passes inject inject_seed deadline retries json_out =
    let pipeline_r =
      match passes with
      | None -> Ok (Pipeline.default ~optimize:(not no_opt))
      | Some src -> Pipeline.parse_located src
    in
    match (pipeline_r, fault_config_of inject inject_seed) with
    | Error d, _ ->
      Printf.eprintf "%s\n" (Diagnostic.to_string d);
      1
    | _, Error e ->
      prerr_endline e;
      1
    | Ok pipeline, Ok fault_cfg -> (
      let kernel_job k =
        Driver.job_of_builder ~pipeline ~name:k.Hir_kernels.Kernels.name
          k.Hir_kernels.Kernels.build
      in
      let job_of_input input =
        if Sys.file_exists input then Ok (Driver.job_of_file ~pipeline input)
        else
          match Hir_kernels.Kernels.find input with
          | Some k -> Ok (kernel_job k)
          | None ->
            Error
              (Printf.sprintf "%s: neither a file nor a built-in kernel%s" input
                 (did_you_mean (Hir_kernels.Kernels.suggest input)))
      in
      let jobs_r =
        List.fold_left
          (fun acc input ->
            match (acc, job_of_input input) with
            | Error e, _ | _, Error e -> Error e
            | Ok jobs, Ok j -> Ok (j :: jobs))
          (Ok []) inputs
        |> Result.map List.rev
      in
      match jobs_r with
      | Error e ->
        prerr_endline e;
        1
      | Ok file_jobs ->
        let jobs =
          file_jobs
          @ (if all_kernels then List.map kernel_job Hir_kernels.Kernels.all else [])
        in
        if jobs = [] then begin
          prerr_endline "batch: nothing to compile (give files, kernel names or --kernels)";
          1
        end
        else begin
          let cache =
            Option.map
              (fun dir -> Cache.create ?budget_bytes:cache_budget ~dir ())
              cache_dir
          in
          let limits = { Guard.deadline_s = deadline } in
          let retry = { Driver.default_retry with Driver.max_attempts = max 1 retries } in
          let result =
            with_faults fault_cfg (fun () ->
                Driver.batch ?cache ~workers ~limits ~retry (Array.of_list jobs))
          in
          Array.iter
            (fun (r : Driver.report) ->
              let status = Driver.report_status r in
              let attempts =
                if r.Driver.rp_attempts > 1 then
                  Printf.sprintf "  (%d attempts)" r.Driver.rp_attempts
                else ""
              in
              match r.Driver.rp_outcome with
              | Error e ->
                Printf.printf "FAIL %s%s\n%s\n" e.Driver.err_job attempts
                  (Driver.error_to_string e)
              | Ok o ->
                Option.iter (Printf.eprintf "note: %s: %s\n" o.Driver.job_name) o.Driver.note;
                (match out_dir with
                | Some dir ->
                  make_dir dir;
                  let base =
                    Filename.remove_extension (Filename.basename o.Driver.job_name)
                  in
                  write_file (Filename.concat dir (base ^ ".v")) o.Driver.verilog
                | None -> ());
                Printf.printf "%-8s %-24s top=%-18s %8.2f ms%s%s\n"
                  (Driver.status_to_string status)
                  o.Driver.job_name o.Driver.top_name (o.Driver.seconds *. 1000.)
                  (if o.Driver.from_cache then "  (cached)" else "")
                  attempts;
                List.iter (fun d -> Printf.printf "    - %s\n" d) o.Driver.degradations)
            result.Driver.reports;
          List.iter (fun n -> Printf.printf "note: %s\n" n) result.Driver.batch_notes;
          let total = Array.length result.Driver.reports in
          let t = Driver.tally result.Driver.reports in
          (* Hits are the jobs served from the cache, whichever entry
             kind hit; misses are the rest. *)
          let cache_line =
            match cache with
            | None -> ""
            | Some c ->
              Printf.sprintf ", cache %d hits / %d misses" t.Driver.t_cached
                (total - t.Driver.t_cached)
              ^ (match (Cache.corrupt_count c, Cache.fault_count c) with
                | 0, 0 -> ""
                | corrupt, faults ->
                  Printf.sprintf " / %d corrupt / %d faults" corrupt faults)
          in
          Printf.printf
            "batch: %d jobs (%d ok, %d degraded, %d failed), %d workers, %.2f ms wall%s\n"
            total t.Driver.t_ok t.Driver.t_degraded t.Driver.t_failed workers
            (result.Driver.wall_seconds *. 1000.)
            cache_line;
          (match trace_out with
          | Some path ->
            writing path (fun () -> Trace.write_chrome_json path result.Driver.traces);
            Printf.eprintf "wrote %s\n" path
          | None -> ());
          (match json_out with
          | Some path ->
            write_batch_json path ~workers result;
            Printf.eprintf "wrote %s\n" path
          | None -> ());
          (* Exit contract: 0 = every job produced output (possibly
             degraded), 2 = the batch completed but some jobs failed.
             Exit 1 is reserved for not running at all (bad spec) and
             for an output that cannot be written. *)
          if t.Driver.t_failed > 0 then 2 else 0
        end)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Compile many designs concurrently through the compilation service")
    Term.(
      const run $ inputs_arg $ jobs_arg $ all_kernels_arg $ out_dir_arg $ cache_dir_arg
      $ cache_budget_arg $ trace_arg $ no_opt_arg $ passes_arg $ inject_arg
      $ inject_seed_arg $ deadline_arg $ retries_arg $ json_arg)

(* ------------------------------------------------------------------ *)
(* hirc serve                                                          *)

let serve_cmd =
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Listen on a Unix domain socket at $(docv)")
  in
  let port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "port" ] ~docv:"PORT"
          ~doc:"Listen on TCP 127.0.0.1:$(docv) (0 picks a free port)")
  in
  let workers_arg =
    Arg.(
      value
      & opt int (Service.default_workers ())
      & info [ "j"; "jobs" ] ~docv:"N" ~doc:"Number of worker domains")
  in
  let depth_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Admission limit: compile frames beyond $(docv) queued jobs are \
             rejected with status $(b,rejected), reason $(b,overloaded)")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECS"
          ~doc:"Default per-job wall-clock deadline (a frame's own wins)")
  in
  let retries_arg =
    Arg.(
      value
      & opt int Driver.default_retry.Driver.max_attempts
      & info [ "retries" ] ~docv:"N" ~doc:"Total attempts per job for transient failures")
  in
  let verbose_arg =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Log connections and admissions to stderr")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"DIR"
          ~doc:
            "Write-ahead job journal: every admitted job is recorded (and fsynced) \
             in $(docv) before it runs and marked on completion; on startup the \
             journal is replayed and admitted-but-incomplete jobs are re-enqueued, \
             so a crashed server loses no admitted work")
  in
  let drain_arg =
    Arg.(
      value & opt float 30.0
      & info [ "drain-deadline" ] ~docv:"SECS"
          ~doc:
            "On SIGTERM or a shutdown frame, finish in-flight jobs for up to \
             $(docv) seconds before cancelling the stragglers and exiting")
  in
  let run socket port workers depth cache_dir cache_budget trace_out deadline retries
      verbose journal drain_deadline inject inject_seed =
    match fault_config_of inject inject_seed with
    | Error e ->
      prerr_endline e;
      1
    | Ok fault_cfg -> (
      let listen =
        match (socket, port) with
        | Some path, None -> Ok (Server.Unix_path path)
        | None, Some port -> Ok (Server.Tcp ("127.0.0.1", port))
        | None, None -> Error "serve: pass --socket PATH or --port N"
        | Some _, Some _ -> Error "serve: --socket and --port are exclusive"
      in
      match listen with
      | Error e ->
        prerr_endline e;
        1
      | Ok listen ->
        let cfg =
          {
            (Server.default_config ~listen ()) with
            Server.cfg_workers = workers;
            cfg_max_depth = max 1 depth;
            cfg_cache =
              Option.map
                (fun dir -> Cache.create ?budget_bytes:cache_budget ~dir ())
                cache_dir;
            cfg_default_deadline = deadline;
            cfg_retry =
              { Driver.default_retry with Driver.max_attempts = max 1 retries };
            cfg_trace_path = trace_out;
            cfg_journal = journal;
            cfg_drain_deadline = max 0. drain_deadline;
            cfg_verbose = verbose;
          }
        in
        with_faults fault_cfg (fun () -> Server.run cfg))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run a persistent compilation server: line-JSON compile/cancel/poll \
          frames and health/metrics probes over a Unix or TCP socket, with \
          continuous admission onto the worker pool, an optional write-ahead job \
          journal for crash recovery, and graceful drain on SIGTERM (see README \
          for the protocol)")
    Term.(
      const run $ socket_arg $ port_arg $ workers_arg $ depth_arg $ cache_dir_arg
      $ cache_budget_arg $ trace_arg $ deadline_arg $ retries_arg $ verbose_arg
      $ journal_arg $ drain_arg $ inject_arg $ inject_seed_arg)

(* ------------------------------------------------------------------ *)
(* hirc journal                                                        *)

let journal_cmd =
  let dir_arg =
    Arg.(
      required & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Journal directory (as passed to serve --journal)")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Replay the journal and report record, completion, pending and \
             quarantine counts (torn tails and CRC failures are tolerated, \
             counted, and skipped)")
  in
  let compact_arg =
    Arg.(
      value & flag
      & info [ "compact" ]
          ~doc:
            "Rewrite the log down to its still-pending admit records (temp + \
             fsync + rename, crash-safe)")
  in
  let run dir verify compact =
    if not (verify || compact) then begin
      prerr_endline "journal: nothing to do (pass --verify and/or --compact)";
      1
    end
    else begin
      let code = ref 0 in
      if verify then begin
        let r = Journal.verify ~dir in
        Printf.printf
          "verify: %d record(s), %d done mark(s), %d pending job(s), %d \
           quarantined%s\n"
          r.Journal.rr_records r.Journal.rr_completed
          (List.length r.Journal.rr_pending)
          r.Journal.rr_quarantined
          (if r.Journal.rr_torn_tail then ", torn tail dropped" else "");
        List.iter
          (fun (req : Protocol.compile_req) ->
            Printf.printf "  pending %s/%s (digest %s)\n"
              (Option.value ~default:"" req.Protocol.cr_client)
              req.Protocol.cr_id (Protocol.digest_of_request req))
          r.Journal.rr_pending
      end;
      if compact then begin
        match Journal.compact ~dir () with
        | Ok kept -> Printf.printf "compact: kept %d pending record(s)\n" kept
        | Error e ->
          Printf.printf "compact: failed: %s\n" e;
          code := 1
      end;
      !code
    end
  in
  Cmd.v
    (Cmd.info "journal"
       ~doc:
         "Inspect or compact a serve write-ahead job journal: replay it, report \
          pending and quarantined records, or rewrite it down to its pending set")
    Term.(const run $ dir_arg $ verify_arg $ compact_arg)

let () =
  let doc = "HIR: an MLIR-style IR for hardware accelerator description" in
  let info = Cmd.info "hirc" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            compile_cmd; verify_cmd; print_cmd; kernels_cmd; demo_cmd; pipeline_cmd;
            fuzz_cmd; sim_cmd; batch_cmd; cache_cmd; serve_cmd; journal_cmd;
          ]))
