(* Equivalence of the RTL simulator and its oracle: the opcode engine
   ([Sim], including batched forks) must produce bit-identical peek
   traces and assertion-failure lists to the tree walker in
   sim_reference.ml — the executable specification of the Verilog
   width semantics.

   Two layers:
   - a qcheck property over randomly generated flat netlists (every
     operator class, widths straddling the 63-bit unboxed fast path,
     registers, memories with out-of-range writes, assertions),
     driven for many cycles with per-stimulus random input streams
     through the opcode engine x batch {1,4} and the walker x 4;
   - lockstep runs of real compiled kernels through [Harness.run] and
     [Harness.Make (Sim_reference).run], plus forked multi-stimulus
     runs with memory agents, comparing scalar outputs, tensors, and
     failures.
   The opcode engine's schedule counters are pinned on two kernels, the
   harness's VCD dump must match the walker's byte for byte, and the
   harness's memory agents get an out-of-range address check. *)

open Hir_dialect
module V = Hir_verilog.Ast
module Flatten = Hir_rtl.Flatten
module Sim = Hir_rtl.Sim
module Harness = Hir_rtl.Harness
module Ref_harness = Harness.Make (Sim_reference)
module Emit = Hir_codegen.Emit

let () = Ops.register ()

(* ------------------------------------------------------------------ *)
(* Random netlist generation                                           *)

(* Widths chosen to straddle the unboxed boundary. *)
let width_pool = [| 1; 2; 3; 5; 8; 16; 17; 31; 32; 33; 48; 62; 63; 64; 65; 80; 100 |]

let pick st arr = arr.(Random.State.int st (Array.length arr))
let pick_list st l = List.nth l (Random.State.int st (List.length l))

let random_bv st w =
  let rec go acc remaining =
    if remaining <= 0 then acc
    else
      let k = min 29 remaining in
      let c = Bitvec.of_int ~width:k (Random.State.int st (1 lsl k)) in
      go (Bitvec.concat acc c) (remaining - k)
  in
  let k = min 29 w in
  go (Bitvec.of_int ~width:k (Random.State.int st (1 lsl k))) (w - k)

(* [leaves] are all readable signals; [small] those of width <= 8, safe
   as shift amounts and memory addresses (the reference walker calls
   [Bitvec.to_int] on those and raises above 2^62, so the generator
   stays below that). *)
type genv = {
  st : Random.State.t;
  leaves : (string * int) list;
  small : (string * int) list;
  mems : string list;
}

let gen_leaf g =
  if Random.State.bool g.st && g.leaves <> [] then V.Ref (fst (pick_list g.st g.leaves))
  else V.Const (random_bv g.st (pick g.st width_pool))

let gen_amount g =
  if Random.State.bool g.st && g.small <> [] then V.Ref (fst (pick_list g.st g.small))
  else V.Const (Bitvec.of_int ~width:7 (Random.State.int g.st 80))

let rec gen_expr g ~depth =
  if depth = 0 || Random.State.int g.st 4 = 0 then gen_leaf g
  else
    let sub () = gen_expr g ~depth:(depth - 1) in
    match Random.State.int g.st 10 with
    | 0 -> V.Unop (pick g.st [| V.Not; V.Red_or; V.Red_and |], sub ())
    | 1 | 2 ->
      V.Binop
        (pick g.st [| V.Add; V.Sub; V.Mul; V.And; V.Or; V.Xor |], sub (), sub ())
    | 3 ->
      V.Binop (pick g.st [| V.Lt; V.Le; V.Gt; V.Ge; V.Eq; V.Ne |], sub (), sub ())
    | 4 -> V.Binop (pick g.st [| V.Log_and; V.Log_or |], sub (), sub ())
    | 5 -> V.Binop ((if Random.State.bool g.st then V.Shl else V.Shr), sub (), gen_amount g)
    | 6 -> V.Ternary (sub (), sub (), sub ())
    | 7 ->
      let lo = Random.State.int g.st 8 in
      let hi = lo + Random.State.int g.st 24 in
      V.Slice (sub (), hi, lo)
    | 8 when g.mems <> [] -> V.Index (pick_list g.st g.mems, gen_amount g)
    | _ ->
      let n = 1 + Random.State.int g.st 3 in
      V.Concat (List.init n (fun _ -> gen_expr g ~depth:(depth - 1)))

(* A random flat module: input ports, a chain of assigns (acyclic by
   construction — each wire reads only previously declared signals),
   registers updated in an always block with conditionals, a memory
   written through a 4-bit address against depth 8 (so out-of-range
   writes and their failure messages are exercised), and an assertion
   that fires data-dependently. *)
let gen_design seed =
  let st = Random.State.make [| seed; 0x9e3779b9 |] in
  let n_inputs = 2 + Random.State.int st 3 in
  let inputs = List.init n_inputs (fun i -> (Printf.sprintf "in%d" i, pick st width_pool)) in
  let ports =
    { V.port_name = "clk"; dir = V.Input; width = 1 }
    :: List.map (fun (n, w) -> { V.port_name = n; dir = V.Input; width = w }) inputs
  in
  let regs = List.init (1 + Random.State.int st 3) (fun i -> (Printf.sprintf "r%d" i, pick st width_pool)) in
  let mem_width = pick st width_pool in
  let base_leaves = inputs @ regs in
  let items = ref [] in
  let emit i = items := i :: !items in
  List.iter (fun (n, w) -> emit (V.Reg_decl { name = n; width = w })) regs;
  emit (V.Mem_decl { name = "m0"; width = mem_width; depth = 8; style = V.Style_bram });
  (* Assign chain; each new wire becomes a leaf for the next. *)
  let n_wires = 3 + Random.State.int st 6 in
  let leaves = ref base_leaves in
  for i = 0 to n_wires - 1 do
    let g =
      {
        st;
        leaves = !leaves;
        small = List.filter (fun (_, w) -> w <= 8) !leaves;
        mems = [ "m0" ];
      }
    in
    let w = pick st width_pool in
    let name = Printf.sprintf "w%d" i in
    emit (V.Wire_decl { name; width = w });
    emit (V.Assign { target = name; expr = gen_expr g ~depth:3 });
    leaves := (name, w) :: !leaves
  done;
  let g =
    {
      st;
      leaves = !leaves;
      small = List.filter (fun (_, w) -> w <= 8) !leaves;
      mems = [ "m0" ];
    }
  in
  let reg_stmts =
    List.concat_map
      (fun (rname, _) ->
        let s = V.Nonblocking (V.Lref rname, gen_expr g ~depth:3) in
        if Random.State.int st 3 = 0 then
          [ V.If (gen_expr g ~depth:2, [ s ], [ V.Nonblocking (V.Lref rname, gen_leaf g) ]) ]
        else [ s ])
      regs
  in
  let mem_stmt =
    V.If
      ( gen_expr g ~depth:2,
        [ V.Nonblocking (V.Lindex ("m0", gen_amount g), gen_expr g ~depth:2) ],
        [] )
  in
  let assert_stmt = V.Assert_stmt { cond = gen_expr g ~depth:2; message = "prop" } in
  emit (V.Always_ff (reg_stmts @ [ mem_stmt; assert_stmt ]));
  let m = { V.mod_name = "top"; ports; items = List.rev !items } in
  (Flatten.flatten { V.modules = [ m ]; top = "top" }, inputs)

(* ------------------------------------------------------------------ *)
(* Lockstep driving                                                    *)

let compare_failures ctx fc fr =
  if List.length fc <> List.length fr then
    QCheck.Test.fail_reportf "%s: %d failures vs %d reference" ctx
      (List.length fc) (List.length fr);
  List.iter2
    (fun (a : Sim.assertion_failure) (b : Sim.assertion_failure) ->
      if a.Sim.at_cycle <> b.Sim.at_cycle || not (String.equal a.Sim.message b.Sim.message)
      then
        QCheck.Test.fail_reportf "%s: failure mismatch (%d,%s) vs (%d,%s)" ctx
          a.Sim.at_cycle a.Sim.message b.Sim.at_cycle b.Sim.message)
    fc fr

(* Every engine replays the same per-stimulus input streams and is
   compared peek-for-peek, cycle-for-cycle, against a reference-walker
   trace of the same stimulus — plus assertion/OOB failure ordering at
   the end.  Batched variants run [fork]s of one simulator interleaved
   cycle by cycle. *)
let n_stimuli = 4
let n_cycles = 30

module type ENGINE = sig
  include Harness.SIM

  val fork : t -> t
end

(* (name, engine, batch): batch > 1 exercises [fork] on every engine. *)
let lockstep_grid : (string * (module ENGINE) * int) list =
  [
    ("opcode", (module Sim), 1);
    ("opcode", (module Sim), 4);
    ("reference", (module Sim_reference), 4);
  ]

let lockstep_netlist (dseed, iseed) =
  let flat, inputs = gen_design dseed in
  let streams =
    Array.init n_stimuli (fun k ->
        let st = Random.State.make [| iseed; k; 0x51ed270b |] in
        Array.init n_cycles (fun _ ->
            List.map (fun (n, w) -> (n, random_bv st w)) inputs))
  in
  (* Run [batch] simulators of [flat] (the first created, the rest
     forked from it; sim [k] driven by stream [k]) interleaved,
     returning per-stimulus peek traces and failure lists. *)
  let run_sims (module S : ENGINE) batch =
    let proto = S.create flat in
    let sims = Array.init batch (fun i -> if i = 0 then proto else S.fork proto) in
    let traces = Array.init batch (fun _ -> Array.make n_cycles []) in
    let names = S.signal_names proto in
    for cyc = 0 to n_cycles - 1 do
      Array.iteri
        (fun k sim ->
          List.iter (fun (n, v) -> S.set_input sim n v) streams.(k).(cyc);
          S.settle_only sim;
          traces.(k).(cyc) <- List.map (fun (n, _) -> (n, S.peek sim n)) names;
          S.clock sim)
        sims
    done;
    (traces, Array.map S.failures sims)
  in
  let ref_traces, ref_failures = run_sims (module Sim_reference) n_stimuli in
  List.iter
    (fun (engine, sim, batch) ->
      let traces, failures = run_sims sim batch in
      let ctx k =
        Printf.sprintf "seed (%d,%d) engine %s b%d stim %d" dseed iseed engine batch k
      in
      for k = 0 to batch - 1 do
        for cyc = 0 to n_cycles - 1 do
          List.iter2
            (fun (name, v) (name', vr) ->
              assert (String.equal name name');
              if not (Bitvec.equal v vr) then
                QCheck.Test.fail_reportf "%s cycle %d signal %s: %s <> reference %s"
                  (ctx k) cyc name (Bitvec.to_hex_string v) (Bitvec.to_hex_string vr))
            traces.(k).(cyc) ref_traces.(k).(cyc)
        done;
        compare_failures (ctx k) failures.(k) ref_failures.(k)
      done)
    lockstep_grid;
  true

let netlist_equiv =
  QCheck.Test.make ~count:60
    ~name:"every engine x batch == reference on random netlists"
    QCheck.(pair small_nat small_nat)
    lockstep_netlist

(* ------------------------------------------------------------------ *)
(* Kernel-level lockstep through the harness                           *)

(* The optimized design of [build] and the interpreter's cycle count
   on [inputs]. *)
let compile_kernel ~build inputs =
  let m, f = build () in
  let cycles = Harness.interp_cycles ~module_op:m ~func:f inputs in
  (Emit.compile ~optimize:true ~module_op:m ~top:f (), cycles)

let check_against_reference name ~(rr : Harness.run_result) ~ar
    ~(rc : Harness.run_result) ~ac ~out_arg =
  Alcotest.(check int) "same cycle count" rr.Harness.cycles_run rc.Harness.cycles_run;
  (match (rc.Harness.failures, rr.Harness.failures) with
  | [], [] -> ()
  | fc, fr ->
    Alcotest.(check int) "same failure count" (List.length fr) (List.length fc);
    List.iter2
      (fun (a : Sim.assertion_failure) (b : Sim.assertion_failure) ->
        Alcotest.(check int) "failure cycle" b.Sim.at_cycle a.Sim.at_cycle;
        Alcotest.(check string) "failure message" b.Sim.message a.Sim.message)
      fc fr);
  List.iter2
    (fun (n, vc) (n', vr) ->
      Alcotest.(check string) "output name" n' n;
      if not (Bitvec.equal vc vr) then
        Alcotest.failf "%s output %s: %s <> reference %s" name n
          (Bitvec.to_string vc) (Bitvec.to_string vr))
    rc.Harness.output_values rr.Harness.output_values;
  let tc = Harness.nth_tensor ac out_arg and tr = Harness.nth_tensor ar out_arg in
  Array.iteri
    (fun i vc ->
      match (vc, tr.(i)) with
      | None, None -> ()
      | Some a, Some b when Bitvec.equal a b -> ()
      | _ -> Alcotest.failf "%s tensor[%d] differs between engines" name i)
    tc

let kernel_lockstep name build inputs ~out_arg () =
  let emitted, cycles = compile_kernel ~build inputs in
  let rr, ar = Ref_harness.run ~emitted ~inputs ~cycles () in
  let rc, ac = Harness.run ~emitted ~inputs ~cycles () in
  check_against_reference (name ^ "/opcode") ~rr ~ar ~rc ~ac ~out_arg

(* Batched multi-stimulus execution: four different input tensors
   through one compiled opcode program, each on a [Sim.fork] with its
   own memory agents, interleaved cycle by cycle, and each compared
   against an individual reference run of the same stimulus. *)
let batch_lockstep () =
  let build = Hir_kernels.Transpose.build in
  let stimuli =
    List.init 4 (fun k ->
        [
          Harness.Tensor (Hir_kernels.Transpose.make_input ~seed:(120 + k));
          Harness.Out_tensor;
        ])
  in
  let emitted, cycles = compile_kernel ~build (List.hd stimuli) in
  let proto = Sim.create (Flatten.flatten emitted.Emit.design) in
  let runs =
    List.map
      (fun inputs ->
        let sim = Sim.fork proto in
        (sim, Sim.writer sim "t_start", Harness.setup_agents sim ~emitted ~inputs))
      stimuli
  in
  let total = cycles + 8 in
  for c = 0 to total - 1 do
    List.iter
      (fun (sim, start, agents) ->
        Harness.cycle_once sim ~start agents None ~is_first:(c = 0))
      runs
  done;
  List.iteri
    (fun k (sim, _, ac) ->
      let rc = Harness.finish_run sim ~emitted ~total in
      let inputs = List.nth stimuli k in
      let rr, ar = Ref_harness.run ~emitted ~inputs ~cycles () in
      check_against_reference (Printf.sprintf "transpose/fork[%d]" k) ~rr ~ar ~rc ~ac
        ~out_arg:1)
    runs

let transpose_lockstep () =
  let input = Hir_kernels.Transpose.make_input ~seed:91 in
  kernel_lockstep "transpose" Hir_kernels.Transpose.build
    [ Harness.Tensor input; Harness.Out_tensor ]
    ~out_arg:1 ()

let convolution_lockstep () =
  let input = Hir_kernels.Convolution.make_input ~seed:92 in
  kernel_lockstep "convolution" Hir_kernels.Convolution.build
    [ Harness.Tensor input; Harness.Out_tensor ]
    ~out_arg:1 ()

let histogram_lockstep () =
  let input = Hir_kernels.Histogram.make_input ~seed:93 in
  kernel_lockstep "histogram" Hir_kernels.Histogram.build
    [ Harness.Tensor input; Harness.Out_tensor ]
    ~out_arg:1 ()

(* The opcode engine's event-driven schedule, pinned by its counters on
   the transpose and convolution lockstep stimuli: a change meant only
   to make the engine faster must leave every one of them unchanged.
   Expected (settles, evaluated, skipped, fast-path) per kernel. *)
let pinned_stats () =
  List.iter
    (fun (name, build, input, (settles, evaluated, skipped, fast)) ->
      let inputs = [ Harness.Tensor input; Harness.Out_tensor ] in
      let emitted, cycles = compile_kernel ~build inputs in
      let r, _ = Harness.run ~emitted ~inputs ~cycles () in
      let s = r.Harness.sim_stats in
      let check what expected actual = Alcotest.(check int) (name ^ " " ^ what) expected actual in
      check "settles" settles s.Sim.st_settles;
      check "assigns evaluated" evaluated s.Sim.st_assigns_evaluated;
      check "assigns skipped" skipped s.Sim.st_assigns_skipped;
      check "fast-path evaluated" fast s.Sim.st_fastpath_evaluated)
    [
      ( "transpose",
        Hir_kernels.Transpose.build,
        Hir_kernels.Transpose.make_input ~seed:91,
        (298, 1608, 2266, 1608) );
      ( "convolution",
        Hir_kernels.Convolution.build,
        Hir_kernels.Convolution.make_input ~seed:92,
        (84, 2383, 3749, 2383) );
    ]

(* ------------------------------------------------------------------ *)
(* Harness VCD dump                                                    *)

(* [Harness.run ~vcd_path], the `hirc sim --vcd` path, against the
   walker driven through the same harness: the two dumps of one fifo
   run must be equal byte for byte — same signals in the same order,
   same values, same change times. *)
let harness_vcd () =
  let inputs = [ Harness.Tensor (Hir_kernels.Fifo.make_input ~seed:94); Harness.Out_tensor ] in
  let emitted, cycles = compile_kernel ~build:Hir_kernels.Fifo.build inputs in
  let dump run =
    let path = Filename.temp_file "hir_fifo" ".vcd" in
    run path;
    let text = In_channel.with_open_bin path In_channel.input_all in
    Sys.remove path;
    text
  in
  let opcode =
    dump (fun vcd_path -> ignore (Harness.run ~vcd_path ~emitted ~inputs ~cycles ()))
  in
  let reference =
    dump (fun vcd_path -> ignore (Ref_harness.run ~vcd_path ~emitted ~inputs ~cycles ()))
  in
  Alcotest.(check bool) "dump covers the run" true
    (String.length reference > 1000
    && String.ends_with ~suffix:(Printf.sprintf "\n#%d\n" (cycles + 8)) reference);
  Alcotest.(check bool) "opcode VCD == reference VCD" true (String.equal opcode reference)

(* ------------------------------------------------------------------ *)
(* Memory agents                                                       *)

(* A 2-bank, depth-3 memref gets a 2-bit address port, so address 3 is
   representable but names no element: a read of it must return zero
   and a write must be dropped, not alias bank 1's first element. *)
let agent_out_of_range () =
  let info =
    Types.memref_info
      (Types.memref ~packing:(Some [ 1 ]) ~dims:[ 2; 3 ] ~elem:Hir_ir.Typ.i32
         ~port:Types.Read_write ())
  in
  let mi = Emit.mem_iface_of ~base:"m" info in
  Alcotest.(check int) "address width" 2 mi.Emit.mi_addr_width;
  (* Every port signal as a top-level input, so the test drives the
     design side of the interface directly. *)
  let port_signals (en, addr, data) = [ (en, 1); (addr, mi.Emit.mi_addr_width); (data, 32) ] in
  let signals =
    Array.to_list mi.Emit.mi_banks
    |> List.concat_map (fun (b : Emit.bank_names) ->
           List.concat_map port_signals
             (Option.to_list b.Emit.bn_rd @ Option.to_list b.Emit.bn_wr))
  in
  let ports =
    List.map
      (fun (port_name, width) -> { V.port_name; dir = V.Input; width })
      (("clk", 1) :: signals)
  in
  let top = { V.mod_name = "top"; ports; items = [] } in
  let sim = Sim.create (Flatten.flatten { V.modules = [ top ]; top = "top" }) in
  let elem i = Bitvec.of_int ~width:32 (100 + i) in
  let ag = Harness.build_agent sim mi (Some (Array.init 6 elem)) in
  let set name w v = Sim.set_input sim name (Bitvec.of_int ~width:w v) in
  let read addr =
    set "m_rd_en_0" 1 1;
    set "m_rd_addr_0" 2 addr;
    Harness.agent_observe ag;
    Harness.agent_drive ag;
    Sim.settle_only sim;
    Bitvec.to_int (Sim.peek sim "m_rd_data_0")
  in
  Alcotest.(check int) "in-range read on bank 0" 102 (read 2);
  Alcotest.(check int) "out-of-range read on bank 0 returns zero" 0 (read 3);
  set "m_rd_en_0" 1 0;
  set "m_wr_en_0" 1 1;
  set "m_wr_addr_0" 2 3;
  set "m_wr_data_0" 32 7;
  Harness.agent_observe ag;
  Array.iteri
    (fun i got ->
      Alcotest.(check bool)
        (Printf.sprintf "element %d unchanged by an out-of-range write" i)
        true
        (Option.equal Bitvec.equal got (Some (elem i))))
    (Harness.agent_tensor ag)

let () =
  Alcotest.run "sim_equiv"
    [
      ( "property",
        [ QCheck_alcotest.to_alcotest ~verbose:false netlist_equiv ] );
      ( "kernels",
        [
          Alcotest.test_case "transpose lockstep" `Quick transpose_lockstep;
          Alcotest.test_case "convolution lockstep" `Quick convolution_lockstep;
          Alcotest.test_case "histogram lockstep" `Quick histogram_lockstep;
          Alcotest.test_case "batched multi-stimulus lockstep" `Quick batch_lockstep;
          Alcotest.test_case "opcode statistics pinned" `Quick pinned_stats;
        ] );
      ( "harness",
        [
          Alcotest.test_case "agent out-of-range address" `Quick agent_out_of_range;
          Alcotest.test_case "VCD dump matches the reference walker" `Quick harness_vcd;
        ] );
    ]
