(* sim-batch: a closed loop with one caller.  Set-up elaborates each
   design once with `hirc sim`'s defaults (the opcode engine,
   partitions sized to the machine); the loop then runs a seeded stream
   of stimuli through [Sim.fork] copies with the harness's per-cycle
   functions and checks every result against the kernel's reference.
   Only the rtl layers work here: every functional check of generated
   hardware runs through this simulator. *)

open Hir_dialect
module Emit = Hir_codegen.Emit
module Harness = Hir_rtl.Harness
module Sim = Hir_rtl.Sim
module Flatten = Hir_rtl.Flatten
module L = Bench_util.Layers

(* Small designs (tens to hundreds of signals) expose per-cycle
   overhead; the large ones (thousands of signals) expose settle cost
   that grows with the netlist. *)
type group = Small | Large

let group_name = function Small -> "small" | Large -> "large"

(* Stimuli per 100-stimulus block.  The small group is 98% of stimuli,
   so the median sits inside it and follows per-cycle overhead.  The
   large group is 2% of stimuli and the slowest, so p99 is the middle
   of its stimuli and follows settle cost; it is about a fifth of the
   time.  Throughput weighs both.  Histogram is left out: its 1,036
   cycles cross as many barriers as five large-design stimuli, so on a
   host with slow wake-ups it outlasted GEMM 16x16 and p99 jumped
   between the two groups from run to run. *)
let weights =
  [
    (("fifo", Small), 14);
    (("elementwise_max", Small), 14);
    (("stencil_1d", Small), 14);
    (("convolution", Small), 26);
    (("task_parallel", Small), 15);
    (("transpose", Small), 15);
    (("gemm16", Large), 1);
    (("systolic16", Large), 1);
  ]

type elaborated = {
  design : Designs.t;
  group : group;
  emitted : Emit.emitted;
  proto : Sim.t;
  total : int;  (* cycles per stimulus: the interpreter's latency + 8 *)
}

let interp_input = function
  | Harness.Scalar v -> Interp.Scalar v
  | Harness.Tensor a -> Interp.Tensor a
  | Harness.Out_tensor -> Interp.Out_tensor

(* What `hirc sim` does before its first cycle: the interpreter's cycle
   count, an optimizing compile, flatten, and the engine's program. *)
let elaborate layers (d, group) =
  let stim = (Option.get d.Designs.stimulus) 0 in
  let cycles =
    L.span layers "hir.interp.busy_ms" (fun () ->
        let m, f = d.Designs.build () in
        (fst (Interp.run ~module_op:m ~func:f (List.map interp_input stim.Designs.inputs)))
          .Interp.cycles)
  in
  let m, f = d.Designs.build () in
  let emitted = Emit.compile ~optimize:true ~module_op:m ~top:f () in
  let flat = L.span layers "rtl.flatten.busy_ms" (fun () -> Flatten.flatten emitted.Emit.design) in
  let proto = L.span layers "rtl.sim.create.busy_ms" (fun () -> Sim.create flat) in
  { design = d; group; emitted; proto; total = cycles + 8 }

(* Per-group per-cycle time of the three parts of a cycle. *)
type cycle_times = { mutable agents : float; mutable settle : float; mutable clock : float }

(* One cycle as [Harness.cycle_once] runs it, with each part timed. *)
let traced_cycle sim ~start agents ~is_first (ct : cycle_times) =
  let t0 = Bench_util.now () in
  start (Bitvec.of_bool is_first);
  List.iter Harness.agent_drive agents;
  let t1 = Bench_util.now () in
  Sim.settle_only sim;
  let t2 = Bench_util.now () in
  List.iter Harness.agent_observe agents;
  let t3 = Bench_util.now () in
  Sim.clock sim;
  let t4 = Bench_util.now () in
  ct.agents <- ct.agents +. (t1 -. t0) +. (t3 -. t2);
  ct.settle <- ct.settle +. (t2 -. t1);
  ct.clock <- ct.clock +. (t4 -. t3)

(* Simulate one stimulus to completion on a fork of the design's
   program; [cycle] runs one cycle.  Returns the run and its agents. *)
let simulate e (stim : Designs.stimulus) ~fork ~cycle =
  let sim = fork e.proto in
  let agents = Harness.setup_agents sim ~emitted:e.emitted ~inputs:stim.Designs.inputs in
  let start = Sim.writer sim "t_start" in
  for c = 0 to e.total - 1 do
    cycle sim ~start agents ~is_first:(c = 0)
  done;
  (Harness.finish_run sim ~emitted:e.emitted ~total:e.total, agents)

let check (stim : Designs.stimulus) ((result : Harness.run_result), agents) =
  let actual = Harness.nth_tensor agents stim.Designs.out_arg in
  result.Harness.failures = []
  && Array.length actual = Array.length stim.Designs.expected
  &&
  let ok = ref true in
  Array.iteri
    (fun i e ->
      if stim.Designs.valid i then
        match actual.(i) with Some v when Bitvec.equal v e -> () | _ -> ok := false)
    stim.Designs.expected;
  !ok

let pool_size = 8

(* The host-speed reference of each group: two domains crossing a
   barrier per round, like the partitioned settle, with as much work per
   round as the group's cycles have.  A small design's cycle is mostly
   waking the other domain, about 7 us on a quiet host; a large one's
   is mostly work, about 25 us, beside one such wake-up.  On a 2-vCPU
   shared virtual machine the wake-up cost from 7 to over 36 us, between
   runs and within one, and the small designs' stimuli moved in proportion;
   corrected by the small group's reference, the large designs' times
   fell as much, so each group has its own. *)
let reference = function
  | Small -> { Bench_util.rounds = 300; steps = 10; nominal_s = 0.003 }
  | Large -> { Bench_util.rounds = 100; steps = 100; nominal_s = 0.003 }

(* Stimuli between two samples of the references, which take about a
   fifth of the loop's time on a quiet host. *)
let ref_every = 20

let run (args : Bench_util.args) =
  let designs =
    List.map (fun ((name, g), _) -> (Designs.find name, g)) weights
  in
  let setup_layers = L.create () in
  let setup_s, elaborated =
    Bench_util.timed_setup ~clock:Bench_util.cpu_now (fun () -> List.map (elaborate setup_layers) designs)
  in
  let by_name = List.map (fun e -> (e.design.Designs.name, e)) elaborated in
  (* Benchmark-only work: the stimulus pools with their references, and
     the size and resources of the simulated designs. *)
  let rng = Bench_util.rng ~seed:args.seed ~salt:2 in
  let pools =
    List.map
      (fun e ->
        ( e.design.Designs.name,
          Array.init pool_size (fun _ ->
              (Option.get e.design.Designs.stimulus) (Random.State.int rng 1_000_000)) ))
      elaborated
  in
  let served = Hashtbl.create 16 in
  let next, block = Bench_util.deck (Bench_util.rng ~seed:args.seed ~salt:3) weights in
  let layers = L.create () in
  let fresh () = { agents = 0.; settle = 0.; clock = 0. } in
  let ct_small = fresh () and ct_large = fresh () in
  let cycles = [| 0; 0 |] and untraced = [| 0.; 0. |] in
  let gi = function Small -> 0 | Large -> 1 in
  let samples = ref [] and attempted = ref 0 and failed = ref 0 in
  let untraced_s = ref 0. and traced_s = ref 0. in
  let gc0 = Gc.quick_stat () in
  let b = Bench_util.budget args in
  let t_loop = Bench_util.now () and c_loop = Bench_util.cpu_now () in
  (* A stimulus is timed on the wall clock, as its caller waits for it:
     with two partitions its CPU time would add the domains' work
     together and leave out the cross-domain hand-offs of every settle.
     Reference samples of both groups, every [ref_every] stimuli; the
     blocks leave their time out. *)
  let refs = ref [] and groups = ref [] and excluded = ref 0. in
  let sample g =
    let t0 = Bench_util.now () in
    let r = Bench_util.reference_work ~clock:Bench_util.now (reference g) in
    excluded := !excluded +. (Bench_util.now () -. t0);
    r
  in
  while Bench_util.more b ~done_ops:!attempted do
    if !attempted mod ref_every = 0 then begin
      let small = sample Small in
      refs := (small, sample Large) :: !refs
    end;
    let name, group = next () in
    let e = List.assoc name by_name in
    let k = Option.value ~default:0 (Hashtbl.find_opt served name) in
    Hashtbl.replace served name (k + 1);
    let stim = (List.assoc name pools).(k mod pool_size) in
    incr attempted;
    let t0 = Bench_util.now () in
    let r = simulate e stim ~fork:Sim.fork ~cycle:(fun sim ~start agents ~is_first ->
        Harness.cycle_once sim ~start agents None ~is_first) in
    let dt = Bench_util.now () -. t0 in
    let ok = check stim r in
    if args.trace then begin
      untraced_s := !untraced_s +. dt;
      cycles.(gi group) <- cycles.(gi group) + e.total;
      untraced.(gi group) <- untraced.(gi group) +. dt;
      let ct = match group with Small -> ct_small | Large -> ct_large in
      let t1 = Bench_util.now () in
      let ((result, _) as r) =
        simulate e stim
          ~fork:(fun p -> L.span layers "rtl.sim.fork.busy_ms" (fun () -> Sim.fork p))
          ~cycle:(fun sim ~start agents ~is_first -> traced_cycle sim ~start agents ~is_first ct)
      in
      traced_s := !traced_s +. (Bench_util.now () -. t1);
      let st = result.Harness.sim_stats in
      L.add layers "rtl.sim.assigns_evaluated" (float_of_int st.Sim.st_assigns_evaluated);
      L.add layers "rtl.sim.assigns_skipped" (float_of_int st.Sim.st_assigns_skipped);
      if not (ok && check stim r) then incr failed
    end
    else if not ok then incr failed;
    groups := group :: !groups;
    samples := (dt, Bench_util.now () -. !excluded) :: !samples
  done;
  let wall = Bench_util.now () -. t_loop and cpu = Bench_util.cpu_now () -. c_loop in
  let gc = Bench_util.gc_metrics ~before:gc0 ~ops:!attempted in
  let n = !attempted in
  (* Stimulus [i]'s factor comes from its group's samples around it. *)
  let refs = Array.of_list (List.rev !refs) and groups = Array.of_list (List.rev !groups) in
  let group_refs g = Array.map (fun (small, large) -> match g with Small -> small | Large -> large) refs in
  let small_refs = group_refs Small and large_refs = group_refs Large in
  let scale i =
    match groups.(i) with
    | Small -> Bench_util.bracketing_scale (reference Small) ~every:ref_every small_refs i
    | Large -> Bench_util.bracketing_scale (reference Large) ~every:ref_every large_refs i
  in
  let windows = [ Bench_util.window ~scale ~block ~start:t_loop !samples ] in
  let speed = Bench_util.speed_factor (reference Small) (Array.to_list small_refs) in
  let notes =
    Printf.sprintf "# sim-batch: %d stimuli in %.2f s wall, %.2f s CPU (all domains); %s" n wall
      cpu (Bench_util.sample_note windows)
    :: Bench_util.speed_note ~refs:(Array.to_list small_refs) ~scale:speed
         [ Bench_util.window ~block ~start:t_loop !samples ]
    :: List.map
         (fun e ->
           Printf.sprintf "#   %-16s %-5s %5d signals %4d cycles %d partition(s)"
             e.design.Designs.name (group_name e.group)
             (List.length (Sim.signal_names e.proto))
             e.total (Sim.partitions e.proto))
         elaborated
  in
  let metrics =
    if not args.trace then begin
      let design_sum f =
        float_of_int (List.fold_left (fun acc e -> acc + f e.emitted.Emit.design) 0 elaborated)
      in
      let usage d = Hir_resources.Model.design_usage d in
      [
        ("setup_s", setup_s);
        ("peak_rss_mb", Bench_util.peak_rss_mb "self");
        ("ops_per_s", Bench_util.ops_per_s windows);
        ("p50_ms", Bench_util.p50 windows *. 1e3);
        ("p99_ms", Bench_util.p99 windows *. 1e3);
        ( "verilog_bytes",
          design_sum (fun d -> String.length (Hir_verilog.Pretty.design_to_string d)) );
        ("design_luts", design_sum (fun d -> (usage d).Hir_resources.Model.lut));
        ("design_ffs", design_sum (fun d -> (usage d).Hir_resources.Model.ff));
      ]
    end
    else
      let per_cycle v g = if cycles.(gi g) = 0 then 0. else v /. float_of_int cycles.(gi g) *. 1e9 in
      let per_setup name =
        L.get setup_layers name /. float_of_int Bench_util.setup_runs *. 1e3
      in
      let evaluated = L.get layers "rtl.sim.assigns_evaluated" in
      let skipped = L.get layers "rtl.sim.assigns_skipped" in
      let cps g = if untraced.(gi g) = 0. then 0. else float_of_int cycles.(gi g) /. untraced.(gi g) in
      [
        ("hir.interp.busy_ms", per_setup "hir.interp.busy_ms");
        ("rtl.flatten.busy_ms", per_setup "rtl.flatten.busy_ms");
        ("rtl.sim.create.busy_ms", per_setup "rtl.sim.create.busy_ms");
        ("rtl.sim.settle.ns_per_cycle.small", per_cycle ct_small.settle Small);
        ("rtl.sim.settle.ns_per_cycle.large", per_cycle ct_large.settle Large);
        ("rtl.sim.clock.ns_per_cycle.small", per_cycle ct_small.clock Small);
        ("rtl.sim.clock.ns_per_cycle.large", per_cycle ct_large.clock Large);
        ("rtl.harness.agents.ns_per_cycle.small", per_cycle ct_small.agents Small);
        ("rtl.harness.agents.ns_per_cycle.large", per_cycle ct_large.agents Large);
        ("rtl.sim.assigns_evaluated", Bench_util.mean_of evaluated n);
        ("rtl.sim.skip_ratio", if evaluated +. skipped = 0. then 0. else skipped /. (evaluated +. skipped));
        ( "rtl.sim.partitions",
          float_of_int (List.fold_left (fun acc e -> max acc (Sim.partitions e.proto)) 0 elaborated) );
        ("rtl.sim.fork.busy_us", Bench_util.mean_of (L.get layers "rtl.sim.fork.busy_ms") n *. 1e6);
        ("sim.small_cps", cps Small);
        ("sim.large_cps", cps Large);
        ("trace.overhead_ms", Bench_util.mean_of (!traced_s -. !untraced_s) n *. 1e3);
      ]
      @ gc
  in
  { Bench_util.attempted = n; failed = !failed; metrics; notes }
