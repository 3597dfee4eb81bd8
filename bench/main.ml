(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 8).

     --table 2    op inventory (Table 2)
     --table 4    matrix-transpose resource usage (Table 4)
     --table 5    resource usage of all kernels, HLS vs HIR (Table 5)
     --table 6    compile times and speedups (Table 6)
     --figure 1   schedule-error diagnostic (Figure 1)
     --figure 2   pipeline-imbalance diagnostic (Figure 2)
     --figure 3   memref banking layout (Figure 3)
     --check      functional verification of every generated design
     --ablation   loop pipelining, precision, delay-elim and retiming ablations
     --scaling    GEMM PE grid size vs HIR and HLS compile time
     --canonicalize-scaling  canonicalize on unrolled GEMM n = 4..16
     --sim-scaling  opcode RTL simulator vs reference tree-walker
     --incremental  edit-1-of-8-kernels warm recompile vs cold batch
     --emit-scaling flat vs shared-definition emission, bytes + time
     --stages     per-stage compile-time breakdown through lib/driver
     --serve-swarm  client-swarm stress test of `hirc serve`
     --serve-crash [--crash-seed N] [--hirc PATH]
                  kill -9 and journal recovery of `hirc serve` (default
                  seed 1, binary _build/default/bin/hirc.exe)
     --json PATH  additionally dump all recorded numbers as JSON

   --serve-swarm and --serve-crash run only when named: they are not
   part of the no-argument run.

   With no arguments, everything runs.  Absolute resource numbers come
   from the analytical model in [Hir_resources.Model], not Vivado; the
   paper's numbers are printed alongside so the reproduced *shape* can
   be judged (see EXPERIMENTS.md). *)

open Hir_ir
open Hir_dialect
module Emit = Hir_codegen.Emit
module Harness = Hir_rtl.Harness
module Model = Hir_resources.Model
module Hls = Hir_hls
module Driver = Hir_driver.Driver
module Pipeline = Hir_driver.Pipeline
module Trace = Hir_driver.Trace

let () = Ops.register ()

(* Machine-readable results: every section [record]s its numbers and
   --json PATH writes them all out, so future PRs can track the perf
   trajectory without scraping the tables. *)
let json_results : (string * string * (string * float) list) list ref = ref []

let record ~section ~name fields = json_results := (section, name, fields) :: !json_results

let write_json path =
  let module Json = Hir_driver.Json in
  let entry (section, name, fields) =
    Json.Obj
      (("section", Json.Str section) :: ("name", Json.Str name)
      :: List.map (fun (k, v) -> (k, Json.Num v)) fields)
  in
  let oc = open_out path in
  output_string oc
    (Json.to_string (Json.Obj [ ("results", Json.Arr (List.map entry (List.rev !json_results))) ]));
  output_char oc '\n';
  close_out oc;
  Printf.eprintf "wrote %s\n" path

let line () = print_endline (String.make 78 '-')

let header title =
  line ();
  Printf.printf "%s\n" title;
  line ()

(* ------------------------------------------------------------------ *)
(* Compilation helpers                                                 *)

(* The resource usage `hirc compile` reports for a built design: a
   builder job through the driver, with the default pipeline. *)
let usage ~optimize build =
  let job = Driver.job_of_builder ~pipeline:(Pipeline.default ~optimize) ~name:"bench" build in
  match Driver.compile_job job with
  | Ok o -> o.Driver.usage
  | Error e -> failwith (Driver.error_to_string e)

(* The HLS flow's design, which it lowers unoptimized: the HLS
   compiler's HIR for a suite source. *)
let hls_usage source_of =
  usage ~optimize:false (fun () ->
      let c = Hls.Compiler.compile (source_of ()) in
      (c.Hls.Compiler.hls_module, c.Hls.Compiler.hls_func))

(* Full HIR compile pipeline, as timed for Table 6: construct the
   design (standing in for parsing), verify it, generate and print
   Verilog.  Both flows use the identical backend; the HLS flow
   additionally pays for dependence analysis and its scheduling
   search, which is the gap Table 6 measures. *)
let hir_compile_once build =
  let m, f = build () in
  let engine = Diagnostic.Engine.create () in
  Verify_schedule.verify_module engine m;
  assert (not (Diagnostic.Engine.has_errors engine));
  let emitted = Emit.compile ~optimize:false ~module_op:m ~top:f () in
  Sys.opaque_identity (Hir_verilog.Pretty.design_to_string emitted.Emit.design)

(* Full HLS compile pipeline: frontend, allocation, scheduling,
   lowering, then the same backend. *)
let hls_compile_once source_of =
  let c = Hls.Compiler.compile (source_of ()) in
  let emitted =
    Emit.compile ~module_op:c.Hls.Compiler.hls_module ~top:c.Hls.Compiler.hls_func ()
  in
  Sys.opaque_identity (Hir_verilog.Pretty.design_to_string emitted.Emit.design)

let median_seconds ?(runs = 7) f =
  let samples =
    List.init runs (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (f ());
        Unix.gettimeofday () -. t0)
  in
  List.nth (List.sort compare samples) (runs / 2)

(* Minimum-of-runs: the standard noise-robust estimator for ratio
   gates — background load only ever slows a run down, so the fastest
   sample is the best estimate of the true cost.  Used for the
   sim-scaling budget checks, where a median on a loaded box flaps. *)
let best_seconds ?(runs = 5) f =
  let best = ref infinity in
  for _ = 1 to runs do
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)

let table2 () =
  header "Table 2: data types and operations of the HIR dialect";
  Printf.printf "Data types: i1/i8/i32/... (arbitrary-width ints), f32, !hir.const,\n";
  Printf.printf "            !hir.time, !hir.memref<dims*elem, packing, port>\n\n";
  Printf.printf "%-18s %-10s %s\n" "Operation" "Traits" "Summary";
  List.iter
    (fun (def : Dialect.op_def) ->
      let traits =
        def.Dialect.od_traits
        |> List.map (function
             | Dialect.Terminator -> "term"
             | Dialect.Pure -> "pure"
             | Dialect.Commutative -> "comm"
             | Dialect.Scheduled -> "sched")
        |> String.concat ","
      in
      Printf.printf "%-18s %-10s %s\n" def.Dialect.od_name traits def.Dialect.od_summary)
    (Dialect.registered_ops ())

(* ------------------------------------------------------------------ *)
(* Table 4                                                             *)

let table4 () =
  header "Table 4: resource usage of matrix transpose (model) vs paper (Vivado)";
  let rows =
    [
      ( "Vivado HLS",
        (fun () -> hls_usage Hls.Suite.transpose),
        (41, 92) );
      ( "Vivado HLS (manual opt)",
        (fun () -> hls_usage (Hls.Suite.transpose ~iv_width:5)),
        (7, 51) );
      ( "HIR (no opt)",
        (fun () -> usage ~optimize:false Hir_kernels.Transpose.build),
        (32, 72) );
      ( "HIR (auto opt)",
        (fun () -> usage ~optimize:true Hir_kernels.Transpose.build),
        (8, 18) );
    ]
  in
  Printf.printf "%-26s %10s %10s    %12s %10s\n" "" "LUT(model)" "FF(model)"
    "LUT(paper)" "FF(paper)";
  List.iter
    (fun (name, usage, (plut, pff)) ->
      let u = usage () in
      Printf.printf "%-26s %10d %10d    %12d %10d\n" name u.Model.lut u.Model.ff plut pff)
    rows

(* ------------------------------------------------------------------ *)
(* Table 5                                                             *)

let table5 () =
  header "Table 5: FPGA resource usage, baseline (HLS/Verilog) vs HIR";
  let paper =
    [
      ("transpose", (7, 51, 0, 0), (8, 18, 0, 0));
      ("stencil_1d", (152, 237, 6, 0), (114, 147, 6, 0));
      ("histogram", (130, 107, 0, 1), (101, 146, 0, 1));
      ("gemm", (14495, 24538, 768, 0), (12645, 29062, 768, 0));
      ("convolution", (1517, 2490, 0, 0), (289, 661, 0, 0));
      ("fifo", (34, 36, 0, 1), (43, 140, 0, 1));
    ]
  in
  let baseline_usage name =
    match name with
    | "transpose" -> hls_usage (Hls.Suite.transpose ~iv_width:5)
    | "stencil_1d" -> hls_usage Hls.Suite.stencil
    | "histogram" -> hls_usage Hls.Suite.histogram
    | "gemm" -> hls_usage Hls.Suite.gemm
    | "convolution" -> hls_usage Hls.Suite.convolution
    | "fifo" -> Model.design_usage (Hir_resources.Baselines.sync_fifo_design ())
    | _ -> assert false
  in
  let hir_build name =
    match name with
    | "transpose" -> Hir_kernels.Transpose.build
    | "stencil_1d" -> Hir_kernels.Stencil1d.build
    | "histogram" -> Hir_kernels.Histogram.build
    | "gemm" -> (fun () -> Hir_kernels.Gemm.build ())
    | "convolution" -> Hir_kernels.Convolution.build
    | "fifo" -> Hir_kernels.Fifo.build
    | _ -> assert false
  in
  Printf.printf "%-12s | %-28s | %-28s\n" ""
    "baseline model (paper)" "HIR model (paper)";
  Printf.printf "%-12s | %6s %6s %4s %4s | %6s %6s %4s %4s\n" "benchmark" "LUT" "FF"
    "DSP" "BRAM" "LUT" "FF" "DSP" "BRAM";
  List.iter
    (fun (name, (bl, bf, bd, bb), (hl, hf, hd, hb)) ->
      let bu = baseline_usage name in
      let hu = usage ~optimize:true (hir_build name) in
      Printf.printf "%-12s | %6d %6d %4d %4d | %6d %6d %4d %4d   <- model\n" name
        bu.Model.lut bu.Model.ff bu.Model.dsp bu.Model.bram hu.Model.lut hu.Model.ff
        hu.Model.dsp hu.Model.bram;
      Printf.printf "%-12s | %6d %6d %4d %4d | %6d %6d %4d %4d   <- paper\n" "" bl bf
        bd bb hl hf hd hb)
    paper

(* ------------------------------------------------------------------ *)
(* Table 6                                                             *)

let kernels_for_timing =
  [
    ("transpose", Hir_kernels.Transpose.build, (fun () -> Hls.Suite.transpose ()));
    ("stencil_1d", Hir_kernels.Stencil1d.build, (fun () -> Hls.Suite.stencil ()));
    ("histogram", Hir_kernels.Histogram.build, (fun () -> Hls.Suite.histogram ()));
    ("gemm", (fun () -> Hir_kernels.Gemm.build ()), (fun () -> Hls.Suite.gemm ()));
    ("convolution", Hir_kernels.Convolution.build, (fun () -> Hls.Suite.convolution ()));
  ]

let paper_times =
  [
    ("transpose", (0.006, 13.0));
    ("stencil_1d", (0.007, 8.0));
    ("histogram", (0.007, 13.0));
    ("gemm", (0.099, 33.0));
    ("convolution", (0.013, 14.0));
  ]

let table6 () =
  header "Table 6: compile times (seconds) and speedup of HIR over the HLS flow";
  Printf.printf "%-12s %10s %10s %10s %9s   %s\n" "benchmark" "HIR(s)" "HLS(s)"
    "sched(s)" "speedup" "(paper: HIR / Vivado HLS / speedup)";
  List.iter
    (fun (name, hir_build, hls_src) ->
      let hir_t =
        median_seconds (fun () -> hir_compile_once (fun () -> hir_build ()))
      in
      let hls_t = median_seconds ~runs:5 (fun () -> hls_compile_once hls_src) in
      let sched_t =
        let c = Hls.Compiler.compile (hls_src ()) in
        List.assoc "scheduling" c.Hls.Compiler.phase_seconds
      in
      let p_hir, p_hls = List.assoc name paper_times in
      record ~section:"table6" ~name
        [
          ("hir_s", hir_t); ("hls_s", hls_t); ("sched_s", sched_t);
          ("speedup", hls_t /. hir_t);
        ];
      Printf.printf "%-12s %10.4f %10.4f %10.4f %8.1fx   (%.3f / %.0f / %.0fx)\n" name
        hir_t hls_t sched_t (hls_t /. hir_t) p_hir p_hls (p_hls /. p_hir))
    kernels_for_timing;
  Printf.printf
    "\nNote: the baseline here is this repo's HLS compiler, not Vivado HLS;\n\
     the reproduced claim is the ordering and the origin of the gap (the\n\
     scheduling search the HLS flow performs and HIR does not need).\n"

(* Per-stage compile-time breakdown of the HIR flow, measured through
   the driver's tracing instrumentation — where the totals of Table 6
   actually go.  The columns are disjoint: [optimize] is the optimize
   span less the passes it runs (cloning the function into a
   mini-module of its own and naming the optimized function), and
   [other] is what the listed columns leave of the total. *)
let stages () =
  header "Table 6 (breakdown): per-stage HIR compile time through lib/driver (ms)";
  let columns = [ "build"; "verify"; "plan"; "passes"; "optimize"; "emit"; "pretty"; "print" ] in
  Printf.printf "%-12s" "benchmark";
  List.iter (Printf.printf " %8s") (columns @ [ "other"; "total" ]);
  print_newline ();
  List.iter
    (fun (name, hir_build, _) ->
      let trace = Trace.create () in
      let job =
        Driver.job_of_builder
          ~pipeline:(Pipeline.default ~optimize:true)
          ~name
          (fun () -> hir_build ())
      in
      match Driver.compile_job ~trace job with
      | Error e -> Printf.printf "%-12s FAILED: %s\n" name (Driver.error_to_string e)
      | Ok o ->
        let pass_total =
          List.fold_left (fun acc (s : Pass.stat) -> acc +. s.Pass.seconds) 0.
            o.Driver.pass_stats
        in
        let stage = function
          | "passes" -> pass_total
          | "optimize" -> Trace.total_seconds trace "optimize" -. pass_total
          | n -> Trace.total_seconds trace n
        in
        let listed = List.map (fun n -> (n, stage n)) columns in
        let other = o.Driver.seconds -. List.fold_left (fun acc (_, s) -> acc +. s) 0. listed in
        let row = listed @ [ ("other", other); ("total", o.Driver.seconds) ] in
        record ~section:"stages" ~name (List.map (fun (n, s) -> (n ^ "_s", s)) row);
        Printf.printf "%-12s" name;
        List.iter (fun (_, s) -> Printf.printf " %8.3f" (s *. 1000.)) row;
        print_newline ())
    kernels_for_timing

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)

let loc_at file line col = Location.file ~file ~line ~col

let figure1 () =
  header "Figure 1: schedule verifier diagnostic for a mis-scheduled array add";
  let m = Builder.create_module () in
  let _ =
    Builder.func m ~name:"Array_Add"
      ~args:
        [
          Builder.arg "A" (Types.memref ~dims:[ 128 ] ~elem:Typ.i32 ~port:Types.Read ());
          Builder.arg "B" (Types.memref ~dims:[ 128 ] ~elem:Typ.i32 ~port:Types.Read ());
          Builder.arg "C" (Types.memref ~dims:[ 128 ] ~elem:Typ.i32 ~port:Types.Write ());
        ]
      (fun b args t ->
        match args with
        | [ a; bb; c ] ->
          let c0 = Builder.constant b 0 in
          let c1 = Builder.constant b 1 in
          let c128 = Builder.constant b 128 in
          let _ =
            Builder.for_loop b ~iv_width:8 ~iv_hint:"i" ~lb:c0 ~ub:c128 ~step:c1
              ~at:Builder.(t @>> 1)
              ~loc:(loc_at "test/HIR/err_add.mlir" 8 3)
              (fun b ~iv:i ~ti ->
                Builder.yield b ~at:Builder.(ti @>> 1);
                let va = Builder.mem_read b a [ i ] ~at:Builder.(ti @>> 0) in
                let vb = Builder.mem_read b bb [ i ] ~at:Builder.(ti @>> 0) in
                let vc = Builder.add b va vb in
                Builder.mem_write b vc c [ i ] ~at:Builder.(ti @>> 1)
                  ~loc:(loc_at "test/HIR/err_add.mlir" 13 5))
          in
          Builder.return_ b []
        | _ -> assert false)
  in
  let engine = Diagnostic.Engine.create () in
  Verify_schedule.verify_module engine m;
  print_endline (Diagnostic.Engine.to_string engine)

let figure2 () =
  header "Figure 2: pipeline-imbalance diagnostic for a multiply-accumulate";
  let m = Builder.create_module () in
  let mult =
    Builder.extern_func m ~name:"mult3"
      ~args:[ Builder.arg "a" Typ.i32; Builder.arg "b" Typ.i32 ]
      ~results:[ (Typ.i32, 3) ]
  in
  let _ =
    Builder.func m ~name:"mac"
      ~args:
        [ Builder.arg "a" Typ.i32; Builder.arg "b" Typ.i32; Builder.arg "c" Typ.i32 ]
      ~results:[ (Typ.i32, 3) ]
      (fun b args t ->
        match args with
        | [ a; bb; c ] ->
          let p = List.hd (Builder.call b ~callee:mult [ a; bb ] ~at:Builder.(t @>> 0)) in
          let c2 =
            Builder.delay b c ~by:2 ~at:Builder.(t @>> 0)
              ~loc:(loc_at "test/HIR/mac.mlir" 8 8)
          in
          let r = Builder.add b p c2 ~loc:(loc_at "test/HIR/mac.mlir" 9 10) in
          Builder.return_ b [ r ]
        | _ -> assert false)
  in
  let engine = Diagnostic.Engine.create () in
  Verify_schedule.verify_module engine m;
  print_endline (Diagnostic.Engine.to_string engine)

let figure3 () =
  header "Figure 3: memory banking of A : !hir.memref<3*2*i32, packing=[1], r>";
  let t =
    Types.memref ~packing:(Some [ 1 ]) ~dims:[ 3; 2 ] ~elem:Typ.i32 ~port:Types.Read ()
  in
  let info = Types.memref_info t in
  Printf.printf "banks = %d, elements per bank = %d\n\n" (Types.num_banks info)
    (Types.bank_depth info);
  List.iter
    (fun (idx, bank, addr) ->
      Printf.printf "  A[%s] -> bank %d, address %d\n"
        (String.concat "][" (List.map string_of_int idx))
        bank addr)
    (Types.layout info)

(* ------------------------------------------------------------------ *)
(* Functional check                                                    *)

let check () =
  header "Functional check: every design vs its software reference";
  List.iter
    (fun k ->
      match k.Hir_kernels.Kernels.check () with
      | Ok r ->
        Printf.printf "  %-14s PASS (interp)  latency=%d cycles, %d reads, %d writes\n"
          k.Hir_kernels.Kernels.name r.Interp.cycles r.Interp.reads r.Interp.writes
      | Error e -> Printf.printf "  %-14s FAIL: %s\n" k.Hir_kernels.Kernels.name e)
    Hir_kernels.Kernels.all;
  let overlapped, single = Hir_kernels.Taskparallel.overlap_summary () in
  Printf.printf
    "\n  Listing 3 overlap: two chained stencils take %d cycles overlapped vs\n\
    \  %d for one stencil alone (sequential execution would need ~%d).\n"
    overlapped single (2 * single)

(* ------------------------------------------------------------------ *)
(* Scaling (backs the Table 6 discussion)                              *)

(* How compile time scales with the PE grid: the HLS flow's dependence
   analysis is quadratic in the unrolled body and its modulo scheduling
   must search, while HIR's codegen only grows with the output size —
   the structural reason behind the paper's compile-time gap. *)
let scaling () =
  header "Scaling: GEMM PE grid size vs compile time (seconds)";
  Printf.printf "%-8s %12s %12s %14s\n" "n (PEs)" "HIR total" "HLS total" "HLS scheduling";
  List.iter
    (fun n ->
      let hir_t =
        median_seconds ~runs:3 (fun () ->
            hir_compile_once (fun () -> Hir_kernels.Gemm.build ~n ()))
      in
      let hls_t =
        median_seconds ~runs:3 (fun () -> hls_compile_once (fun () -> Hls.Suite.gemm ~n ()))
      in
      let sched_t =
        let c = Hls.Compiler.compile (Hls.Suite.gemm ~n ()) in
        List.assoc "scheduling" c.Hls.Compiler.phase_seconds
      in
      Printf.printf "%-8s %12.4f %12.4f %14.4f\n"
        (Printf.sprintf "%dx%d" n n)
        hir_t hls_t sched_t)
    [ 4; 8; 12; 16 ]

(* ------------------------------------------------------------------ *)
(* Canonicalize scaling: the greedy worklist driver                   *)

(* The worklist driver touches an op only when it or one of its
   operands changed, so its cost tracks the rewrites, not rounds x
   module size.  Fully-unrolled GEMM grids give a family of inputs
   whose size grows with n².  Each sample rebuilds and re-unrolls a
   fresh module (untimed) so every run starts from identical IR. *)

let count_all_ops m =
  let n = ref 0 in
  Ir.Walk.ops_pre m ~f:(fun _ -> incr n);
  !n

let median_of samples = List.nth (List.sort compare samples) (List.length samples / 2)

let time_fresh ~runs ~prepare f =
  median_of
    (List.init runs (fun _ ->
         let m = prepare () in
         let t0 = Unix.gettimeofday () in
         ignore (Sys.opaque_identity (f m));
         Unix.gettimeofday () -. t0))

(* Generous wall-clock ceiling for the driver on the fully-unrolled
   default GEMM (n=16, ~10k ops): far above any healthy run, so the
   make-check guard only fires on a real complexity regression. *)
let gemm16_budget_s = 2.0

let canonicalize_scaling () =
  header "Canonicalize scaling: worklist driver (unrolled GEMM)";
  Printf.printf "%-8s %8s %12s %10s %7s\n" "n (PEs)" "ops" "driver(s)" "processed"
    "rounds";
  let violation = ref None in
  List.iter
    (fun n ->
      let prepare () =
        let m, _ = Hir_kernels.Gemm.build ~n () in
        ignore (Unroll.run m);
        m
      in
      let ops = count_all_ops (prepare ()) in
      let processed = ref 0 and rounds = ref 0 in
      let driver_t =
        time_fresh ~runs:3 ~prepare (fun m ->
            let stats = Passes.run_canonicalize_stats m in
            processed := stats.Rewrite.ds_processed;
            rounds := stats.Rewrite.ds_rounds;
            stats.Rewrite.ds_changed)
      in
      record ~section:"canonicalize-scaling"
        ~name:(Printf.sprintf "gemm-%dx%d" n n)
        [
          ("ops", float_of_int ops);
          ("driver_s", driver_t);
          ("ops_processed", float_of_int !processed);
          ("rounds", float_of_int !rounds);
        ];
      Printf.printf "%-8s %8d %12.4f %10d %7d\n"
        (Printf.sprintf "%dx%d" n n)
        ops driver_t !processed !rounds;
      if n = 16 && driver_t > gemm16_budget_s then
        violation :=
          Some
            (Printf.sprintf
               "driver canonicalize on unrolled 16x16 GEMM took %.3fs (budget %.1fs)"
               driver_t gemm16_budget_s))
    [ 4; 8; 12; 16 ];
  match !violation with
  | None -> Printf.printf "\ntime budget OK (16x16 driver within %.1fs)\n" gemm16_budget_s
  | Some msg ->
    Printf.eprintf "\nTIME BUDGET VIOLATION: %s\n" msg;
    exit 1

(* ------------------------------------------------------------------ *)
(* Sim scaling: opcode engine vs reference walker                      *)

(* Two engines: the reference simulator (test/sim_reference.ml, driven
   through [Harness.Make (Sim_reference)]) re-walks every expression
   tree per settle; the opcode engine lowers the netlist once to a flat
   int-array opcode program interpreted by a single match loop, which
   [Sim.fork] shares between stimuli.

   End-to-end cycles/sec charges each engine its own elaboration
   (flatten + Sim.create, i.e. the opcode engine pays for its
   compiler); steady-state cycles/sec elaborates once and times only
   what repeats per stimulus — a [Sim.fork], agent setup, and the
   cycle loop — which is what a long-running simulation sees.
   (Subtracting a separately measured elaboration time from the
   end-to-end figure gives the same quantity in expectation, but as
   the difference of two noisy measurements it is far too jittery to
   gate on.)  make check requires each design to beat the reference
   walker's end-to-end rate by its floor below — on GEMM 16x16 with
   the opcode engine's steady-state rate, on the small designs end to
   end — and GEMM to finish within a wall budget.

   The floors carry over gates once stated against the closure-compiled
   engine, since deleted: 10x its end-to-end rate for GEMM steady state
   and 0.8x it end to end on the small designs.  Each floor is that
   factor times R_d, the deleted engine's end-to-end speed over the
   reference walker on design d, taken as the larger median of two
   sets of 12 runs of this bench on a 2-vCPU host (median [range]):
                  set A                set B                floor
     gemm         31.7x [29.4 - 43.0]  30.1x [21.2 - 35.1]  10 * 31.7  = 317x
     convolution  10.1x [7.9 - 11.3]   10.4x                0.8 * 10.4 = 8.32x
     transpose     5.9x [3.7 - 7.6]     5.9x                0.8 * 5.9  = 4.72x
     histogram    11.6x [7.2 - 14.9]   12.4x                0.8 * 12.4 = 9.92x *)

let sim_gemm_budget_s = 2.0

let sim_scaling () =
  let module Sim = Hir_rtl.Sim in
  let module Flatten = Hir_rtl.Flatten in
  let module Reference_harness = Harness.Make (Sim_reference) in
  header "Sim scaling: opcode / reference engines (cycles/second)";
  Printf.printf "%-12s %6s %9s %9s %10s %8s\n" "benchmark" "cycles" "ref(c/s)" "op(c/s)"
    "steady c/s" "speedup";
  let gemm_inputs =
    let a, b = Hir_kernels.Gemm.make_inputs ~seed:34 in
    [ Harness.Tensor a; Harness.Tensor b; Harness.Out_tensor ]
  in
  let conv_inputs =
    let input = Hir_kernels.Convolution.make_input ~seed:35 in
    [ Harness.Tensor input; Harness.Out_tensor ]
  in
  let transpose_inputs =
    [ Harness.Tensor (Hir_kernels.Transpose.make_input ~seed:31); Harness.Out_tensor ]
  in
  let histogram_inputs =
    [ Harness.Tensor (Hir_kernels.Histogram.make_input ~seed:33); Harness.Out_tensor ]
  in
  let interp_cycles ~m ~f inputs =
    let result, _ =
      Interp.run ~module_op:m ~func:f
        (List.map
           (function
             | Harness.Scalar v -> Interp.Scalar v
             | Harness.Tensor a -> Interp.Tensor a
             | Harness.Out_tensor -> Interp.Out_tensor)
           inputs)
    in
    result.Interp.cycles
  in
  let violation = ref None in
  let violate fmt = Printf.ksprintf (fun m -> if !violation = None then violation := Some m) fmt in
  List.iter
    (fun (name, build, inputs, floor) ->
      let m, f = build () in
      let cycles = interp_cycles ~m ~f inputs in
      (* compile mutates the module (unroll etc.), so rebuild fresh. *)
      let m, f = build () in
      let emitted = Emit.compile ~optimize:true ~module_op:m ~top:f () in
      let last_stats = ref None in
      (* Steady-state: elaborate once, then time per-stimulus work only
         (fork, agents, cycle loop) on forks of the shared program. *)
      let proto = Sim.create (Flatten.flatten emitted.Emit.design) in
      let steady_run () =
        let total = cycles + 8 in
        let sim = Sim.fork proto in
        let agents = Harness.setup_agents sim ~emitted ~inputs in
        let start = Sim.writer sim "t_start" in
        for c = 0 to total - 1 do
          Harness.cycle_once sim ~start agents None ~is_first:(c = 0)
        done;
        Harness.finish_run sim ~emitted ~total
      in
      let opcode_run () =
        let result, _ = Harness.run ~emitted ~inputs ~cycles () in
        last_stats := Some result.Harness.sim_stats;
        result
      in
      (* The reference runs are interleaved with the opcode samples
         each gate compares them with, so the minima on both sides of
         a ratio come from the same stretch of time: a slow phase of
         the host during a short opcode window would otherwise skew
         the ratio (GEMM's reference runs take seconds, its steady
         samples milliseconds). *)
      let reference_t = ref infinity and opcode_t = ref infinity in
      let opcode_steady_t = ref infinity in
      let sample best f =
        let t0 = Unix.gettimeofday () in
        ignore (Sys.opaque_identity (f ()));
        best := Float.min !best (Unix.gettimeofday () -. t0)
      in
      for i = 1 to 5 do
        if i <= 3 then
          sample reference_t (fun () -> Reference_harness.run ~emitted ~inputs ~cycles ());
        sample opcode_t opcode_run;
        sample opcode_steady_t steady_run
      done;
      let reference_t = !reference_t and opcode_t = !opcode_t in
      let opcode_steady_t = !opcode_steady_t in
      let opcode_elab_t =
        best_seconds ~runs:3 (fun () ->
            Sys.opaque_identity (Sim.create (Flatten.flatten emitted.Emit.design)))
      in
      let stats = match !last_stats with Some s -> s | None -> assert false in
      let total_cycles = float_of_int stats.Sim.st_cycles in
      let cps t = total_cycles /. t in
      let reference_cps = cps reference_t in
      let opcode_cps = cps opcode_t in
      let opcode_steady_cps = cps opcode_steady_t in
      let speedup = opcode_steady_cps /. reference_cps in
      let evaluated = stats.Sim.st_assigns_evaluated in
      let skipped = stats.Sim.st_assigns_skipped in
      let fast_rate =
        if evaluated = 0 then 0.
        else float_of_int stats.Sim.st_fastpath_evaluated /. float_of_int evaluated
      in
      let skip_rate =
        if evaluated + skipped = 0 then 0.
        else float_of_int skipped /. float_of_int (evaluated + skipped)
      in
      record ~section:"sim-scaling" ~name
        [
          ("cycles", total_cycles);
          ("reference_s", reference_t);
          ("opcode_s", opcode_t);
          ("reference_cps", reference_cps);
          ("opcode_cps", opcode_cps);
          ("opcode_elab_s", opcode_elab_t);
          ("opcode_steady_cps", opcode_steady_cps);
          ("speedup_steady_vs_reference", speedup);
          ("fastpath_rate", fast_rate);
          ("skip_rate", skip_rate);
        ];
      Printf.printf "%-12s %6d %9.0f %9.0f %10.0f %7.1fx\n" name stats.Sim.st_cycles
        reference_cps opcode_cps opcode_steady_cps speedup;
      (match floor with
      | `Steady k ->
        if speedup < k then
          violate "opcode steady-state only %.0fx over reference end-to-end on %s (need %.0fx)"
            speedup name k
      | `End_to_end k ->
        let e2e = opcode_cps /. reference_cps in
        if e2e < k then
          violate "opcode end-to-end only %.2fx over reference on %s (need %.2fx)" e2e name k);
      if name = "gemm" && opcode_t > sim_gemm_budget_s then
        violate "opcode GEMM simulation took %.3fs (budget %.1fs)" opcode_t sim_gemm_budget_s)
    (* Each design's floor over the reference walker, derived above. *)
    [
      ("gemm", (fun () -> Hir_kernels.Gemm.build ()), gemm_inputs, `Steady 317.0);
      ("convolution", Hir_kernels.Convolution.build, conv_inputs, `End_to_end 8.32);
      ("transpose", Hir_kernels.Transpose.build, transpose_inputs, `End_to_end 4.72);
      ("histogram", Hir_kernels.Histogram.build, histogram_inputs, `End_to_end 9.92);
    ];
  match !violation with
  | None ->
    Printf.printf
      "\nsim budget OK (every design over its reference floor; GEMM within %.1fs)\n"
      sim_gemm_budget_s
  | Some msg ->
    Printf.eprintf "\nSIM BUDGET VIOLATION: %s\n" msg;
    exit 1

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)

(* Matrix transpose with a configurable inner-loop initiation interval:
   the II=1 pipeline of Listing 1 against slower schedules, showing
   what explicit loop pipelining (Section 7.1) buys. *)
let transpose_with_ii ii =
  let n = 16 in
  let m = Builder.create_module () in
  let f =
    Builder.func m ~name:"transpose_ii"
      ~args:
        [
          Builder.arg "Ai" (Types.memref ~dims:[ n; n ] ~elem:Typ.i32 ~port:Types.Read ());
          Builder.arg "Co" (Types.memref ~dims:[ n; n ] ~elem:Typ.i32 ~port:Types.Write ());
        ]
      (fun b args t ->
        match args with
        | [ ai; co ] ->
          let c0 = Builder.constant b 0 in
          let c1 = Builder.constant b 1 in
          let cn = Builder.constant b n in
          let _ =
            Builder.for_loop b ~iv_hint:"i" ~lb:c0 ~ub:cn ~step:c1 ~at:Builder.(t @>> 1)
              (fun b ~iv:i ~ti ->
                let tf_j =
                  Builder.for_loop b ~iv_hint:"j" ~lb:c0 ~ub:cn ~step:c1
                    ~at:Builder.(ti @>> 1)
                    (fun b ~iv:j ~ti:tj ->
                      let v = Builder.mem_read b ai [ i; j ] ~at:Builder.(tj @>> 0) in
                      let j1 = Builder.delay b j ~by:1 ~at:Builder.(tj @>> 0) in
                      Builder.mem_write b v co [ j1; i ] ~at:Builder.(tj @>> 1);
                      Builder.yield b ~at:Builder.(tj @>> ii))
                in
                Builder.yield b ~at:Builder.(tf_j @>> 1))
          in
          Builder.return_ b []
        | _ -> assert false)
  in
  (m, f)

let ablation () =
  header "Ablation 1: loop pipelining (Section 7.1) — transpose inner-loop II";
  let input = Hir_kernels.Transpose.make_input ~seed:77 in
  List.iter
    (fun ii ->
      let m, f = transpose_with_ii ii in
      let result, _ =
        Interp.run ~module_op:m ~func:f [ Interp.Tensor input; Interp.Out_tensor ]
      in
      Printf.printf "  II=%d: %4d cycles\n" ii result.Interp.cycles)
    [ 1; 2; 4 ];

  header "Ablation 2: precision optimization (Section 6.3) per kernel";
  Printf.printf "  %-14s %18s %18s\n" "kernel" "no-opt LUT/FF" "auto-opt LUT/FF";
  List.iter
    (fun (name, build) ->
      let a = usage ~optimize:false build in
      let b = usage ~optimize:true build in
      Printf.printf "  %-14s %11d/%-6d %11d/%-6d\n" name a.Model.lut a.Model.ff
        b.Model.lut b.Model.ff)
    [
      ("transpose", Hir_kernels.Transpose.build);
      ("stencil_1d", Hir_kernels.Stencil1d.build);
      ("histogram", Hir_kernels.Histogram.build);
      ("convolution", Hir_kernels.Convolution.build);
      ("fifo", Hir_kernels.Fifo.build);
    ];

  header "Ablation 3: delay elimination (Section 6.4) — shared shift registers";
  let delay_bits m =
    List.fold_left
      (fun acc d ->
        match Typ.bit_width (Ir.Value.typ (Ir.Op.result d 0)) with
        | Some w -> acc + (w * Ops.delay_by d)
        | None -> acc)
      0
      (Ir.Walk.find_all m "hir.delay")
  in
  List.iter
    (fun (name, build) ->
      let m, _ = build () in
      ignore (Unroll.run m);
      let before = delay_bits m in
      ignore (Passes.run_delay_elim m);
      let after = delay_bits m in
      Printf.printf "  %-14s shift-register bits: %6d -> %6d\n" name before after)
    [
      ("gemm", fun () -> Hir_kernels.Gemm.build ());
      ("convolution", Hir_kernels.Convolution.build);
      ("fifo", Hir_kernels.Fifo.build);
    ];

  header "Ablation 4: retiming (Section 7.4) on a 2-stage dual-input pipeline";
  let m = Builder.create_module () in
  let _ =
    Builder.func m ~name:"retime_demo"
      ~args:[ Builder.arg "x" Typ.i32; Builder.arg "y" Typ.i32 ]
      ~results:[ (Typ.i32, 2) ]
      (fun b args t ->
        match args with
        | [ x; y ] ->
          let dx = Builder.delay b x ~by:2 ~at:Builder.(t @>> 0) in
          let dy = Builder.delay b y ~by:2 ~at:Builder.(t @>> 0) in
          Builder.return_ b [ Builder.add b dx dy ]
        | _ -> assert false)
  in
  Printf.printf "  register bits before retiming: %d\n" (delay_bits m);
  ignore (Retime.run m);
  Printf.printf "  register bits after  retiming: %d\n" (delay_bits m)

(* ------------------------------------------------------------------ *)
(* Serve swarm: stress the compilation server                          *)

module Server = Hir_driver.Server
module Protocol = Hir_driver.Protocol
module Cache = Hir_driver.Cache
module Faults = Hir_driver.Faults
module Service = Hir_driver.Service

(* N concurrent clients hammer one `hirc serve` instance (run
   in-process on its own domain) over a Unix socket with mixed kernel
   sizes, mixed priorities, a sprinkling of explicit cancels and 10%
   injected faults on the cache and compile paths.  The invariant under
   test is the server's zero-lost-jobs contract: every admitted job
   produces exactly one terminal response (ok / degraded / failed /
   cancelled), rejections are explicit, and client-observed p99 latency
   stays bounded.  The cache is warmed first (`hirc cache --warm`
   machinery), so steady-state traffic exercises the hit path — and,
   under injection, the read-fault recompile path. *)

let swarm_clients = 8
let swarm_jobs_per_client = 12
let swarm_fault_spec = "cache.read=0.1,cache.write=0.1,job.compile=0.1"
let swarm_seed = 11

let serve_swarm () =
  header
    (Printf.sprintf
       "Serve swarm: %d clients x %d jobs, mixed kernels, faults %s (seed %d)"
       swarm_clients swarm_jobs_per_client swarm_fault_spec swarm_seed);
  let tmp =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hir-swarm-%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists tmp) then Unix.mkdir tmp 0o755;
  let sock = Filename.concat tmp "serve.sock" in
  let trace_path = Filename.concat tmp "serve-trace.json" in
  let cache_dir = Filename.concat tmp "cache" in
  let cache = Cache.create ~dir:cache_dir () in
  (* Warm the cache (cleanly, before faults are installed) with every
     built-in kernel, the same priming a production deploy would do. *)
  let kernel_names =
    List.map (fun k -> k.Hir_kernels.Kernels.name) Hir_kernels.Kernels.all
  in
  let warm_jobs =
    List.map
      (fun k ->
        Driver.job_of_builder
          ~pipeline:(Pipeline.default ~optimize:true)
          ~name:k.Hir_kernels.Kernels.name k.Hir_kernels.Kernels.build)
      Hir_kernels.Kernels.all
    |> Array.of_list
  in
  let stored, hits, warm_failures =
    Driver.warm_cache ~cache ~workers:(Service.default_workers ()) warm_jobs
  in
  Printf.printf "warm: %d kernels -> %d stored, %d already cached, %d failed\n%!"
    (Array.length warm_jobs) stored hits warm_failures;
  let rules =
    match Faults.parse_spec swarm_fault_spec with
    | Ok r -> r
    | Error e -> failwith ("bad swarm fault spec: " ^ e)
  in
  let cfg =
    {
      (Server.default_config ~listen:(Server.Unix_path sock) ()) with
      Server.cfg_workers = max 2 (Service.default_workers ());
      cfg_max_depth = 48;
      cfg_cache = Some (Cache.create ~dir:cache_dir ());
      cfg_trace_path = Some trace_path;
    }
  in
  Faults.with_config { Faults.rules; seed = swarm_seed } (fun () ->
      let server =
        Domain.spawn (fun () -> Server.run cfg)
      in
      (* Wait for the socket to come up. *)
      let rec wait_sock n =
        if n = 0 then failwith "server socket never appeared";
        if not (Sys.file_exists sock) then begin
          Unix.sleepf 0.05;
          wait_sock (n - 1)
        end
      in
      wait_sock 200;
      let client_run idx () =
        let c = Protocol.Client.connect_unix sock in
        let terminal = Hashtbl.create 16 in  (* id -> (status, latency) *)
        let submitted = Hashtbl.create 16 in  (* id -> submit time *)
        let n = swarm_jobs_per_client in
        for i = 0 to n - 1 do
          let id = Printf.sprintf "c%d-j%d" idx i in
          let kernel = List.nth kernel_names ((idx + (3 * i)) mod List.length kernel_names) in
          let priority = i mod 3 in
          Hashtbl.replace submitted id (Unix.gettimeofday ());
          Protocol.Client.send c
            (Protocol.Json.Obj
               [
                 ("op", Protocol.Json.Str "compile");
                 ("id", Protocol.Json.Str id);
                 ("kernel", Protocol.Json.Str kernel);
                 ("priority", Protocol.Json.Num (float_of_int priority));
               ]);
          (* ~10% explicit cancels, racing the compile: any of
             cancelled / finished is legal, but the job must still get
             exactly one terminal response. *)
          if i mod 10 = 9 then
            Protocol.Client.send c
              (Protocol.Json.Obj
                 [
                   ("op", Protocol.Json.Str "cancel"); ("id", Protocol.Json.Str id);
                 ])
        done;
        (* Read until every id has its terminal response. *)
        let rec pump () =
          if Hashtbl.length terminal < n then
            match Protocol.Client.recv c with
            | None -> failwith (Printf.sprintf "client %d: server hung up early" idx)
            | Some j -> (
              match (Protocol.Json.field_str j "event", Protocol.Json.field_str j "id") with
              | Some "result", Some id ->
                if Hashtbl.mem terminal id then
                  failwith (Printf.sprintf "client %d: duplicate response for %s" idx id);
                let status =
                  Option.value ~default:"?" (Protocol.Json.field_str j "status")
                in
                let latency =
                  Unix.gettimeofday () -. Hashtbl.find submitted id
                in
                Hashtbl.replace terminal id (status, latency);
                pump ()
              | _ -> pump () (* cancel acks, etc. *))
        in
        pump ();
        Protocol.Client.close c;
        Hashtbl.fold (fun id sl acc -> (id, sl) :: acc) terminal []
      in
      let clients =
        List.init swarm_clients (fun idx -> Domain.spawn (client_run idx))
      in
      let per_client = List.map Domain.join clients in
      let all = List.concat per_client in
      (* One more client for the probes, then shutdown. *)
      let probe = Protocol.Client.connect_unix sock in
      Protocol.Client.send probe
        (Protocol.Json.Obj [ ("op", Protocol.Json.Str "metrics") ]);
      let metrics = Protocol.Client.recv probe in
      Protocol.Client.send probe
        (Protocol.Json.Obj [ ("op", Protocol.Json.Str "shutdown") ]);
      ignore (Protocol.Client.recv probe);
      Protocol.Client.close probe;
      let server_exit = Domain.join server in
      (* ---- verdicts ---- *)
      let expected = swarm_clients * swarm_jobs_per_client in
      let count st =
        List.length (List.filter (fun (_, (s, _)) -> s = st) all)
      in
      let ok = count "ok" and degraded = count "degraded" in
      let failed = count "failed" and cancelled = count "cancelled" in
      let rejected = count "rejected" in
      let latencies =
        List.filter_map
          (fun (_, (s, l)) -> if s = "rejected" then None else Some l)
          all
        |> List.sort compare
      in
      let pct q =
        match latencies with
        | [] -> 0.
        | l ->
          let n = List.length l in
          List.nth l (min (n - 1) (int_of_float (q *. float_of_int n)))
      in
      Printf.printf
        "swarm: %d responses / %d jobs: %d ok, %d degraded, %d failed, %d \
         cancelled, %d rejected\n"
        (List.length all) expected ok degraded failed cancelled rejected;
      Printf.printf "swarm: latency p50 %.1f ms, p90 %.1f ms, p99 %.1f ms (n=%d)\n"
        (pct 0.50 *. 1000.) (pct 0.90 *. 1000.) (pct 0.99 *. 1000.)
        (List.length latencies);
      (match metrics with
      | Some m -> Printf.printf "swarm: server metrics: %s\n" (Protocol.Json.to_string m)
      | None -> ());
      Printf.printf "swarm: server exit code %d, lifetime trace %s (%d bytes)\n"
        server_exit trace_path
        (try (Unix.stat trace_path).Unix.st_size with Unix.Unix_error _ -> 0);
      record ~section:"serve-swarm" ~name:"swarm"
        [
          ("clients", float_of_int swarm_clients);
          ("jobs", float_of_int expected);
          ("responses", float_of_int (List.length all));
          ("ok", float_of_int ok);
          ("degraded", float_of_int degraded);
          ("failed", float_of_int failed);
          ("cancelled", float_of_int cancelled);
          ("rejected", float_of_int rejected);
          ("p50_s", pct 0.50);
          ("p99_s", pct 0.99);
        ];
      (* Hard verdicts, enforced by make check: zero lost jobs (exactly
         one terminal response each), a working trace export, a clean
         server exit, and a bounded p99. *)
      let trace_ok =
        try (Unix.stat trace_path).Unix.st_size > 0 with Unix.Unix_error _ -> false
      in
      let p99_budget_s = 30.0 in
      let violations =
        (if List.length all <> expected then
           [ Printf.sprintf "%d responses for %d jobs" (List.length all) expected ]
         else [])
        @ (if server_exit <> 0 then
             [ Printf.sprintf "server exited %d" server_exit ]
           else [])
        @ (if not trace_ok then [ "lifetime Chrome trace missing/empty" ] else [])
        @
        if pct 0.99 > p99_budget_s then
          [ Printf.sprintf "p99 %.1fs over %.1fs budget" (pct 0.99) p99_budget_s ]
        else []
      in
      match violations with
      | [] ->
        Hir_driver.Io.remove_tree tmp;
        Printf.printf
          "swarm OK: zero lost jobs, p99 within %.0fs, trace exported, clean exit\n"
          p99_budget_s
      | v ->
        Printf.eprintf "SWARM VIOLATION: %s (kept %s)\n" (String.concat "; " v) tmp;
        exit 1)

(* ------------------------------------------------------------------ *)
(* Serve crash: kill -9 recovery through the write-ahead journal       *)

module Journal = Hir_driver.Journal

(* The durability contract end to end, against the real binary: an
   8-client swarm hammers a journaled `hirc serve` (with 10% injected
   faults on every journal.* point), the server is SIGKILLed mid-swarm,
   restarted on the same journal, and every client recovers every job
   through the poll/resubmit protocol.  Verdicts: 100% of jobs reach a
   terminal result with Verilog byte-identical to a fault-free direct
   compile, the restarted server drains to a clean exit 0, and a
   separate unfaulted SIGTERM phase proves the drain contract (late
   compiles rejected "shutting-down", exit 0, journal replay finds
   zero incomplete jobs). *)

let crash_clients = 8
let crash_jobs_per_client = 12
let crash_fault_spec = "journal.append=0.1,journal.mark=0.1,journal.replay=0.1"

let serve_crash ~seed ~hirc () =
  header
    (Printf.sprintf
       "Serve crash: %d clients x %d jobs, kill -9 + journal replay, faults %s \
        (seed %d)"
       crash_clients crash_jobs_per_client crash_fault_spec seed);
  if not (Sys.file_exists hirc) then
    failwith (Printf.sprintf "hirc binary not found at %s (pass --hirc PATH)" hirc);
  let tmp =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hir-crash-%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists tmp) then Unix.mkdir tmp 0o755;
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun m -> violations := m :: !violations) fmt in
  (* The fault-free reference: a direct in-process compile of each
     kernel.  Byte-identity of every served result against this is the
     determinism half of the recovery contract.  The multi-megabyte
     kernels are left out to keep 96 Verilog-bearing responses cheap. *)
  let baseline =
    List.filter_map
      (fun k ->
        let name = k.Hir_kernels.Kernels.name in
        let job =
          Driver.job_of_builder
            ~pipeline:(Pipeline.default ~optimize:true)
            ~name k.Hir_kernels.Kernels.build
        in
        match Driver.compile_job job with
        | Ok o when String.length o.Driver.verilog <= 400_000 ->
          Some (name, o.Driver.verilog)
        | _ -> None)
      Hir_kernels.Kernels.all
  in
  if baseline = [] then failwith "no small kernels for the crash swarm";
  let kernel_names = List.map fst baseline in
  Printf.printf "baseline: %d kernel(s) compiled fault-free for byte comparison\n%!"
    (List.length kernel_names);
  let kernel_of idx i =
    List.nth kernel_names ((idx + (3 * i)) mod List.length kernel_names)
  in
  let client_name idx = Printf.sprintf "c%d" idx in
  let job_id idx i = Printf.sprintf "c%d-j%d" idx i in
  let sock = Filename.concat tmp "crash.sock" in
  let journal_dir = Filename.concat tmp "journal" in
  let cache_dir = Filename.concat tmp "cache" in
  let spawn_server extra =
    if Sys.file_exists sock then Unix.unlink sock;
    let argv =
      [ hirc; "serve"; "--socket"; sock; "-j"; "2"; "--queue-depth"; "256" ] @ extra
    in
    Unix.create_process hirc (Array.of_list argv) Unix.stdin Unix.stdout Unix.stderr
  in
  let wait_sock () =
    let rec go n =
      if n = 0 then failwith "server socket never appeared";
      if not (Sys.file_exists sock) then begin
        Unix.sleepf 0.05;
        go (n - 1)
      end
    in
    go 400
  in
  let rec connect_retry n =
    match Protocol.Client.connect_unix sock with
    | c -> c
    | exception (Unix.Unix_error _ | Sys_error _) when n > 0 ->
      Unix.sleepf 0.05;
      connect_retry (n - 1)
  in
  let send_compile c ~client ~id ~kernel =
    Protocol.Client.send c
      (Protocol.Json.Obj
         [
           ("op", Protocol.Json.Str "compile");
           ("client", Protocol.Json.Str client);
           ("id", Protocol.Json.Str id);
           ("kernel", Protocol.Json.Str kernel);
           ("verilog", Protocol.Json.Bool true);
         ])
  in
  (* (client, id) -> (status, verilog option); both phases fill it. *)
  let results : (string * string, string * string option) Hashtbl.t =
    Hashtbl.create 128
  in
  let results_mu = Mutex.create () in
  let record_result key v =
    Mutex.lock results_mu;
    if not (Hashtbl.mem results key) then Hashtbl.replace results key v;
    Mutex.unlock results_mu
  in
  let faulted_args =
    [
      "--journal"; journal_dir; "--cache-dir"; cache_dir; "--inject";
      crash_fault_spec; "--inject-seed"; string_of_int seed;
    ]
  in

  (* ---- phase A: swarm, then kill -9 mid-flight ---- *)
  let pid = spawn_server faulted_args in
  wait_sock ();
  let client_a idx () =
    match connect_retry 20 with
    | exception _ -> ()
    | c ->
      (try
         for i = 0 to crash_jobs_per_client - 1 do
           send_compile c ~client:(client_name idx) ~id:(job_id idx i)
             ~kernel:(kernel_of idx i)
         done;
         let remaining = ref crash_jobs_per_client in
         while !remaining > 0 do
           match Protocol.Client.recv c with
           | None -> remaining := 0  (* server died: phase B recovers *)
           | Some j -> (
             match
               ( Protocol.Json.field_str j "event",
                 Protocol.Json.field_str j "id",
                 Protocol.Json.field_str j "reason" )
             with
             | Some "result", Some id, None ->
               let status =
                 Option.value ~default:"?" (Protocol.Json.field_str j "status")
               in
               record_result (client_name idx, id)
                 (status, Protocol.Json.field_str j "verilog");
               decr remaining
             | _ -> ())
         done
       with _ -> ());
      (try Protocol.Client.close c with _ -> ())
  in
  let swarm = List.init crash_clients (fun idx -> Domain.spawn (client_a idx)) in
  (* Kill once a slice of the swarm has completed: late enough that the
     journal holds both done marks and in-flight admits, early enough
     that plenty of admitted work is still pending. *)
  let completed_now () =
    match connect_retry 1 with
    | exception _ -> None
    | p ->
      let r =
        try
          Protocol.Client.send p
            (Protocol.Json.Obj [ ("op", Protocol.Json.Str "metrics") ]);
          match Protocol.Client.recv p with
          | Some m ->
            Option.bind (Protocol.Json.mem "jobs" m) (fun jobs ->
                Protocol.Json.field_int jobs "completed")
          | None -> None
        with _ -> None
      in
      (try Protocol.Client.close p with _ -> ());
      r
  in
  let kill_after = (crash_clients * crash_jobs_per_client) / 8 in
  let rec kill_watch n =
    if n = 0 then ()  (* kill regardless: recovery must cope either way *)
    else
      match completed_now () with
      | Some c when c >= kill_after -> ()
      | _ ->
        Unix.sleepf 0.05;
        kill_watch (n - 1)
  in
  kill_watch 1200;
  Unix.kill pid Sys.sigkill;
  (match Unix.waitpid [] pid with
  | _, Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | _, st ->
    violate "phase A: expected SIGKILL death, got %s"
      (match st with
      | Unix.WEXITED n -> Printf.sprintf "exit %d" n
      | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
      | Unix.WSTOPPED n -> Printf.sprintf "stop %d" n));
  List.iter Domain.join swarm;
  let phase_a = Hashtbl.length results in
  Printf.printf "phase A: killed server (pid %d) with %d/%d responses delivered\n%!"
    pid phase_a
    (crash_clients * crash_jobs_per_client);

  (* ---- phase B: restart on the same journal, recover everything ---- *)
  let pid = spawn_server faulted_args in
  wait_sock ();
  (* Per job: poll until a terminal result, with at most one request
     outstanding, so the server never queues a frame the client is not
     about to read.  A poll is answered by the job's result or by its
     state: "pending" polls again after 50 ms; "unknown" means the
     admit never reached the journal (or its record was faulted away),
     so the job is resubmitted and its own frame awaited, its result or
     a rejection (duplicate-id: a replay admitted it meanwhile), before
     polling resumes.  Frames about other jobs are stale and dropped. *)
  let recover_client idx =
    let c = connect_retry 40 in
    let client = client_name idx in
    for i = 0 to crash_jobs_per_client - 1 do
      let id = job_id idx i in
      if not (Hashtbl.mem results (client, id)) then begin
        let deadline = Unix.gettimeofday () +. 90. in
        (* The next frame about [id], or [None] once the job is lost. *)
        let rec next_frame () =
          if Unix.gettimeofday () > deadline then begin
            violate "phase B: %s/%s never resolved" client id;
            None
          end
          else
            match Protocol.Client.recv c with
            | None ->
              violate "phase B: server hung up on %s" client;
              None
            | Some j when Protocol.Json.field_str j "id" = Some id -> Some j
            | Some _ -> next_frame ()
        in
        let is_result j =
          Protocol.Json.field_str j "event" = Some "result"
          && Protocol.Json.field_str j "reason" = None
        in
        let record j =
          let status = Option.value ~default:"?" (Protocol.Json.field_str j "status") in
          record_result (client, id) (status, Protocol.Json.field_str j "verilog")
        in
        let rec poll () =
          Protocol.Client.send c
            (Protocol.Json.Obj
               [
                 ("op", Protocol.Json.Str "poll");
                 ("client", Protocol.Json.Str client);
                 ("id", Protocol.Json.Str id);
               ]);
          match next_frame () with
          | None -> ()
          | Some j when is_result j -> record j
          | Some j when Protocol.Json.field_str j "state" = Some "unknown" -> (
            send_compile c ~client ~id ~kernel:(kernel_of idx i);
            match next_frame () with
            | None -> ()
            | Some j when is_result j -> record j
            | Some _ -> retry ())
          | Some _ -> retry ()
        and retry () =
          Unix.sleepf 0.05;
          poll ()
        in
        poll ()
      end
    done;
    Protocol.Client.close c
  in
  for idx = 0 to crash_clients - 1 do
    recover_client idx
  done;
  (* Metrics for the log, then a graceful shutdown. *)
  let probe = connect_retry 40 in
  Protocol.Client.send probe (Protocol.Json.Obj [ ("op", Protocol.Json.Str "metrics") ]);
  (match Protocol.Client.recv probe with
  | Some m -> Printf.printf "phase B: server metrics: %s\n%!" (Protocol.Json.to_string m)
  | None -> ());
  Protocol.Client.send probe (Protocol.Json.Obj [ ("op", Protocol.Json.Str "shutdown") ]);
  ignore (try Protocol.Client.recv probe with _ -> None);
  (try Protocol.Client.close probe with _ -> ());
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED n -> violate "phase B: restarted server exited %d" n
  | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
    violate "phase B: restarted server killed by signal %d" n);
  (* ---- verdicts: zero lost jobs, byte-identical output ---- *)
  let expected = crash_clients * crash_jobs_per_client in
  let got = Hashtbl.length results in
  if got <> expected then violate "recovered %d of %d jobs" got expected;
  let mismatches = ref 0 and compared = ref 0 in
  for idx = 0 to crash_clients - 1 do
    for i = 0 to crash_jobs_per_client - 1 do
      match Hashtbl.find_opt results (client_name idx, job_id idx i) with
      | None -> ()
      | Some (status, verilog) -> (
        if status <> "ok" && status <> "degraded" then
          violate "%s: terminal status %s" (job_id idx i) status;
        match verilog with
        | None -> violate "%s: result carried no Verilog" (job_id idx i)
        | Some v ->
          incr compared;
          if v <> List.assoc (kernel_of idx i) baseline then begin
            incr mismatches;
            violate "%s: Verilog differs from fault-free baseline" (job_id idx i)
          end)
    done
  done;
  let r = Journal.replay ~dir:journal_dir in
  Printf.printf
    "phase B: %d/%d jobs terminal, %d byte-compared, %d mismatches; journal: %d \
     record(s), %d quarantined, %d still pending (lost done-marks are re-done, \
     not lost)\n%!"
    got expected !compared !mismatches r.Journal.rr_records r.Journal.rr_quarantined
    (List.length r.Journal.rr_pending);

  (* ---- phase C: SIGTERM drain, no faults ---- *)
  let sock2 = Filename.concat tmp "drain.sock" in
  let journal2 = Filename.concat tmp "journal-drain" in
  let cache2 = Filename.concat tmp "cache-drain" in
  if Sys.file_exists sock2 then Unix.unlink sock2;
  let argv =
    [
      hirc; "serve"; "--socket"; sock2; "-j"; "2"; "--journal"; journal2;
      "--cache-dir"; cache2; "--drain-deadline"; "60";
    ]
  in
  let pid = Unix.create_process hirc (Array.of_list argv) Unix.stdin Unix.stdout Unix.stderr in
  let rec wait_sock2 n =
    if n = 0 then failwith "drain server socket never appeared";
    if not (Sys.file_exists sock2) then begin
      Unix.sleepf 0.05;
      wait_sock2 (n - 1)
    end
  in
  wait_sock2 400;
  let c = Protocol.Client.connect_unix sock2 in
  (* The control connection: health probes tell when the pool is busy
     and when the drain has begun, so the steps below wait on server
     state rather than on the clock. *)
  let ctl = Protocol.Client.connect_unix sock2 in
  let health () =
    Protocol.Client.send ctl (Protocol.Json.Obj [ ("op", Protocol.Json.Str "health") ]);
    match Protocol.Client.recv ctl with
    | Some j -> j
    | None -> failwith "phase C: the server closed the control connection"
  in
  (* Poll every 5 ms; 30 s without the awaited state is a hang. *)
  let await what ok =
    let deadline = Unix.gettimeofday () +. 30. in
    let rec go () =
      if not (ok (health ())) then
        if Unix.gettimeofday () > deadline then
          failwith ("phase C: timed out waiting for " ^ what)
        else begin
          Unix.sleepf 0.005;
          go ()
        end
    in
    go ()
  in
  (* gemm is the slowest cold compile by far; one per worker pins the
     whole pool, so the SIGTERM lands with the pool genuinely
     mid-flight and the drain window stays open for the late-client
     rejection. *)
  let drain_kernels =
    "gemm" :: "gemm" :: List.filteri (fun i _ -> i < 4) kernel_names
  in
  let drain_jobs = List.length drain_kernels in
  List.iteri
    (fun i kernel ->
      Protocol.Client.send c
        (Protocol.Json.Obj
           [
             ("op", Protocol.Json.Str "compile");
             ("client", Protocol.Json.Str "d0");
             ("id", Protocol.Json.Str (Printf.sprintf "d0-j%d" i));
             ("kernel", Protocol.Json.Str kernel);
           ]))
    drain_kernels;
  await "both workers busy" (fun j -> Protocol.Json.field_int j "running" = Some 2);
  Unix.kill pid Sys.sigterm;
  await "the drain" (fun j -> Protocol.Json.field_str j "status" = Some "draining");
  (* A late client must get an explicit shutting-down rejection (the
     listener stays open during the drain precisely for this). *)
  (match Protocol.Client.connect_unix sock2 with
  | exception _ -> violate "phase C: could not connect during drain"
  | late ->
    Protocol.Client.send late
      (Protocol.Json.Obj
         [
           ("op", Protocol.Json.Str "compile");
           ("id", Protocol.Json.Str "late");
           ("kernel", Protocol.Json.Str (List.hd kernel_names));
         ]);
    (match try Protocol.Client.recv late with _ -> None with
    | Some j
      when Protocol.Json.field_str j "status" = Some "rejected"
           && Protocol.Json.field_str j "reason" = Some "shutting-down" ->
      ()
    | Some j ->
      violate "phase C: late compile got %s, wanted shutting-down"
        (Protocol.Json.to_string j)
    | None -> violate "phase C: no response to the late compile");
    try Protocol.Client.close late with _ -> ());
  (try Protocol.Client.close ctl with _ -> ());
  (* The in-flight jobs must still finish (or be cancelled at the drain
     deadline — with 60s to spare they finish). *)
  let terminal = ref 0 in
  (try
     while !terminal < drain_jobs do
       match Protocol.Client.recv c with
       | None -> raise Exit
       | Some j ->
         if
           Protocol.Json.field_str j "event" = Some "result"
           && Protocol.Json.field_str j "reason" = None
         then incr terminal
     done
   with _ -> ());
  if !terminal <> drain_jobs then
    violate "phase C: %d of %d in-flight jobs finished before exit" !terminal
      drain_jobs;
  (try Protocol.Client.close c with _ -> ());
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED n -> violate "phase C: drained server exited %d" n
  | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
    violate "phase C: drained server killed by signal %d" n);
  let r2 = Journal.replay ~dir:journal2 in
  if r2.Journal.rr_pending <> [] then
    violate "phase C: %d incomplete job(s) in the journal after drain"
      (List.length r2.Journal.rr_pending);
  Printf.printf "phase C: drain: %d in-flight finished, journal pending %d\n%!"
    !terminal
    (List.length r2.Journal.rr_pending);
  record ~section:"serve-crash" ~name:(Printf.sprintf "crash-seed%d" seed)
    [
      ("jobs", float_of_int expected);
      ("phase_a_responses", float_of_int phase_a);
      ("recovered", float_of_int got);
      ("byte_compared", float_of_int !compared);
      ("mismatches", float_of_int !mismatches);
      ("journal_pending_after_drain", float_of_int (List.length r2.Journal.rr_pending));
    ];
  match List.rev !violations with
  | [] ->
    Hir_driver.Io.remove_tree tmp;
    Printf.printf
      "crash OK: kill -9 lost nothing (%d/%d jobs, %d byte-identical), SIGTERM \
       drained cleanly\n"
      got expected !compared
  | v ->
    Printf.eprintf "CRASH VIOLATION: %s (kept %s)\n" (String.concat "; " v) tmp;
    exit 1

(* ------------------------------------------------------------------ *)
(* Incremental recompilation: edit 1 of 8 kernels                      *)

(* The headline scenario for the keyed fingerprint chain (DESIGN.md):
   every benchmark kernel's functions linked into ONE source module,
   compiled as eight jobs (one per top), then a single kernel's loop
   bound edited and the batch re-run against the warm cache.  The seven
   untouched kernels must re-link from their per-function entries — the
   warm batch is budgeted at [incremental_budget] of the cold one
   (expected shape ~1/8) and its outputs must be byte-identical to a
   cache-less compile of the edited source.  Structural reuse (7 jobs
   served from the cache, exactly 1 re-optimized function, one store
   per entry kind) is checked too, so a timing fluke can't mask a cache
   regression. *)
let incremental_budget = 0.25

let incremental () =
  header "Incremental recompile: edit 1 of 8 kernels, warm batch vs cold batch";
  (* A fixed 8-kernel workload: the budget and the structural
     expectations (7 served jobs, 1 re-optimized function) are calibrated
     against this set.  Every job parses the whole combined source, a
     per-job cost no cache can avoid, so adding kernels to the registry
     (e.g. the large systolic design) would shift the warm/cold balance
     of a timing gate that is about cache reuse, not suite size. *)
  let workload =
    List.filter
      (fun k -> k.Hir_kernels.Kernels.name <> "systolic")
      Hir_kernels.Kernels.all
  in
  let tops, texts =
    List.fold_left
      (fun (tops, texts) k ->
        let m, f = k.Hir_kernels.Kernels.build () in
        let fns =
          List.map
            (fun f -> (Ops.func_name f, Printer.op_to_string f))
            (Ir.Walk.find_all m "hir.func")
        in
        (tops @ [ Ops.func_name f ], texts @ fns))
      ([], []) workload
  in
  let combined texts = Hir_driver.Incr.module_of_texts texts Printer.op_to_string in
  let replace_first ~needle ~by s =
    let n = String.length needle in
    let rec find i =
      if i + n > String.length s then None
      else if String.sub s i n = needle then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> failwith ("incremental: needle not found: " ^ needle)
    | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
  in
  (* The edit: shrink elementwise_max's loop bound 64 -> 48, a real
     semantic change confined to one function. *)
  let edited = "elementwise_max" in
  let texts_edited =
    List.map
      (fun (n, t) ->
        if n = edited then (n, replace_first ~needle:"{value = 64}" ~by:"{value = 48}" t)
        else (n, t))
      texts
  in
  let src_cold = combined texts and src_warm = combined texts_edited in
  let pipeline = Pipeline.default ~optimize:true in
  let jobs src =
    Array.of_list
      (List.map
         (fun top -> Driver.job_of_text ~top ~pipeline ~name:("incr-" ^ top) src)
         tops)
  in
  let tmp =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hir-incr-%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists tmp) then Unix.mkdir tmp 0o755;
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let verilogs label (result : Driver.batch_result) =
    Array.to_list result.Driver.outcomes
    |> List.map (function
         | Ok (o : Driver.output) -> (o.Driver.top_name, o.Driver.verilog)
         | Error e ->
           failwith
             (Printf.sprintf "incremental: %s compile failed: %s" label
                (Driver.error_to_string e)))
  in
  (* One run of the scenario against a fresh cache.  The structural
     checks (byte-identity, 7 served jobs, 1 re-optimized function, the
     warm stores) are load-independent and must hold on EVERY attempt;
     only the timing ratio is allowed a retry below. *)
  let attempt n =
    let cache = Cache.create ~dir:(Filename.concat tmp (Printf.sprintf "cache%d" n)) () in
    let cold, cold_s = time (fun () -> Driver.batch ~cache ~workers:1 (jobs src_cold)) in
    ignore (verilogs "cold" cold);
    let cold_stats = Cache.kind_stats cache in
    let warm, warm_s = time (fun () -> Driver.batch ~cache ~workers:1 (jobs src_warm)) in
    let warm_vs = verilogs "warm" warm in
    let base_vs = verilogs "baseline" (Driver.batch ~workers:1 (jobs src_warm)) in
    let delta kind field =
      let stat l = List.assoc kind l in
      field (stat (Cache.kind_stats cache)) - field (stat cold_stats)
    in
    let stores stat_of =
      String.concat " "
        (List.map
           (fun kind -> Printf.sprintf "%s %d" (Cache.kind_to_string kind) (stat_of kind))
           Cache.kinds)
    in
    let cold_stores = stores (fun kind -> (List.assoc kind cold_stats).Cache.k_stores) in
    let warm_store kind = delta kind (fun s -> s.Cache.k_stores) in
    let warm_stores = stores warm_store in
    let served = (Driver.tally warm.Driver.reports).Driver.t_cached in
    (* A re-optimized function leaves one stat per pipeline pass. *)
    let reoptimized =
      Array.fold_left
        (fun n -> function Ok o -> n + List.length o.Driver.pass_stats | Error _ -> n)
        0 warm.Driver.outcomes
      / List.length (Pipeline.to_passes pipeline)
    in
    let structural =
      (if warm_vs <> base_vs then
         [ "warm outputs differ from cache-less compile of the edited source" ]
       else [])
      @ (if served <> 7 then
           [ Printf.sprintf "expected 7 jobs served from the cache, saw %d" served ]
         else [])
      @ (if List.exists (fun kind -> warm_store kind <> 1) Cache.kinds then
           [ Printf.sprintf "expected the warm batch to store one entry per kind, saw %s"
               warm_stores ]
         else [])
      @
      if reoptimized <> 1 then
        [ Printf.sprintf "expected exactly 1 function re-optimized, saw %d" reoptimized ]
      else []
    in
    if structural <> [] then begin
      Printf.eprintf "INCREMENTAL VIOLATION: %s (kept %s)\n" (String.concat "; " structural) tmp;
      exit 1
    end;
    (cold_s, warm_s, served, reoptimized, (cold_stores, warm_stores))
  in
  (* The ratio gate is a timing measurement on a possibly-loaded
     machine: take the best of up to 3 attempts before declaring a
     perf regression. *)
  let rec measure n best =
    let (cold_s, warm_s, _, _, _) as r = attempt n in
    let best =
      match best with
      | Some ((bc, bw, _, _, _) as b) when bw /. bc <= warm_s /. cold_s -> b
      | _ -> r
    in
    let bc, bw, _, _, _ = best in
    if bw /. bc <= incremental_budget || n >= 3 then (best, n)
    else measure (n + 1) (Some best)
  in
  let (cold_s, warm_s, served, reoptimized, (cold_stores, warm_stores)), attempts =
    measure 1 None
  in
  let ratio = warm_s /. cold_s in
  Printf.printf "cold batch (8 kernels, 1 worker)   %8.1f ms\n" (cold_s *. 1e3);
  Printf.printf "warm batch (1 kernel edited)       %8.1f ms   ratio %.3f (budget %.2f, %d attempt%s)\n"
    (warm_s *. 1e3) ratio incremental_budget attempts
    (if attempts = 1 then "" else "s");
  Printf.printf "reuse: %d jobs served from the cache, %d function re-optimized\n" served
    reoptimized;
  Printf.printf "stores: cold batch %s; warm batch %s\n" cold_stores warm_stores;
  record ~section:"incremental" ~name:"edit-1-of-8"
    [ ("cold_s", cold_s); ("warm_s", warm_s); ("ratio", ratio) ];
  if ratio > incremental_budget then begin
    Printf.eprintf "INCREMENTAL VIOLATION: warm/cold ratio %.3f over %.2f budget (kept %s)\n"
      ratio incremental_budget tmp;
    exit 1
  end;
  Hir_driver.Io.remove_tree tmp;
  Printf.printf "incremental OK: byte-identical, %.1f%% of cold\n" (ratio *. 100.)

(* ------------------------------------------------------------------ *)
(* Hierarchical emission scaling: flat vs shared-definition codegen.

   The definition cache outlines the N structurally identical PE bodies
   of an unrolled design into one shared module instantiated N times,
   so emitted bytes should grow ~O(n) on an n x n grid where the flat
   emitter grows ~O(n^2).  The gate is on bytes, which are
   deterministic: GEMM 16x16 must come out at least [emit_hier_floor]
   times smaller than the flat emission.  Wall-times are recorded for
   the trajectory but not gated (machine-load dependent). *)

let emit_hier_floor = 5.0

let emit_scaling () =
  header "Hierarchical emission: flat vs shared-definition codegen (bytes, ms)";
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let measure ~hier build =
    Ir.with_isolated_ids (fun () ->
        let module_op, top = build () in
        let (emitted, text), s =
          time (fun () ->
              let emitted = Emit.compile ~optimize:true ~hier ~module_op ~top () in
              (emitted, Hir_verilog.Pretty.design_to_string emitted.Emit.design))
        in
        ( String.length text,
          List.length emitted.Emit.design.Hir_verilog.Ast.modules,
          s ))
  in
  Printf.printf "%-10s %4s  %12s %9s   %12s %9s %8s  %7s\n" "kernel" "n"
    "flat bytes" "flat ms" "hier bytes" "hier ms" "modules" "ratio";
  let row kernel n build =
    let fb, _, fs = measure ~hier:false build in
    let hb, hm, hs = measure ~hier:true build in
    let ratio = float_of_int fb /. float_of_int hb in
    Printf.printf "%-10s %4d  %12d %9.1f   %12d %9.1f %8d  %6.2fx\n" kernel n fb
      (fs *. 1e3) hb (hs *. 1e3) hm ratio;
    record ~section:"emit-scaling"
      ~name:(Printf.sprintf "%s-%d" kernel n)
      [
        ("flat_bytes", float_of_int fb);
        ("hier_bytes", float_of_int hb);
        ("flat_s", fs);
        ("hier_s", hs);
        ("modules", float_of_int hm);
        ("ratio", ratio);
      ];
    ratio
  in
  let sizes = [ 4; 8; 16 ] in
  let gemm_ratios =
    List.map (fun n -> (n, row "gemm" n (fun () -> Hir_kernels.Gemm.build ~n ()))) sizes
  in
  List.iter
    (fun n -> ignore (row "systolic" n (fun () -> Hir_kernels.Systolic.build ~n ())))
    sizes;
  let gate = List.assoc 16 gemm_ratios in
  if gate < emit_hier_floor then begin
    Printf.eprintf
      "EMIT-SCALING VIOLATION: GEMM 16x16 hier/flat byte ratio %.2fx under the %.1fx floor\n"
      gate emit_hier_floor;
    exit 1
  end;
  Printf.printf "emit-scaling OK: GEMM 16x16 %.2fx smaller (floor %.1fx)\n" gate
    emit_hier_floor

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

let () =
  let args = Array.to_list Sys.argv in
  let has flag value =
    let rec go = function
      | f :: v :: _ when f = flag && v = value -> true
      | _ :: rest -> go rest
      | [] -> false
    in
    go args
  in
  let json_path =
    let rec go = function
      | "--json" :: path :: _ -> Some path
      | _ :: rest -> go rest
      | [] -> None
    in
    go args
  in
  let all = List.length args = 1 || (List.length args = 3 && json_path <> None) in
  if all || has "--table" "2" then table2 ();
  if all || has "--figure" "1" then figure1 ();
  if all || has "--figure" "2" then figure2 ();
  if all || has "--figure" "3" then figure3 ();
  if all || List.mem "--check" args then check ();
  if all || List.mem "--ablation" args then ablation ();
  if all || List.mem "--scaling" args then scaling ();
  if all || List.mem "--canonicalize-scaling" args then canonicalize_scaling ();
  if all || List.mem "--sim-scaling" args then sim_scaling ();
  if all || List.mem "--incremental" args then incremental ();
  if all || List.mem "--emit-scaling" args then emit_scaling ();
  if all || has "--table" "4" then table4 ();
  if all || has "--table" "5" then table5 ();
  if all || has "--table" "6" then table6 ();
  if all || has "--table" "6" || List.mem "--stages" args then stages ();
  if List.mem "--serve-swarm" args then serve_swarm ();
  (if List.mem "--serve-crash" args then
     let opt_val flag default =
       let rec go = function
         | f :: v :: _ when f = flag -> v
         | _ :: rest -> go rest
         | [] -> default
       in
       go args
     in
     serve_crash
       ~seed:(int_of_string (opt_val "--crash-seed" "1"))
       ~hirc:(opt_val "--hirc" "_build/default/bin/hirc.exe")
       ());
  Option.iter write_json json_path;
  line ()
