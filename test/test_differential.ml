(* Property-based differential testing of the whole backend.

   Two generators produce random *well-scheduled* HIR designs: one
   emits straight-line code (reads, combinational arithmetic, delays,
   writes — with all operand births kept aligned by construction), the
   other scheduled [hir.for] loops pipelined at initiation intervals
   1..3 with a random combinational chain and extra pipeline stages in
   the body.  For each design we check three properties:

     1. the structural and schedule verifiers accept it;
     2. the textual round-trip is a fixpoint;
     3. the cycle-accurate interpreter and the RTL simulation of the
        generated Verilog agree on every output element.

   This hunts for disagreements between the four independent
   implementations of HIR semantics (verifier, interpreter, code
   generator, RTL simulator). *)

open Hir_ir
open Hir_dialect
module Emit = Hir_codegen.Emit
module Harness = Hir_rtl.Harness

let () = Ops.register ()

let input_size = 16
let max_outputs = 8

(* A recipe is a pure description of a design, so QCheck can print and
   shrink it. *)
type step =
  | S_read of int * int  (* input index, issue delta *)
  | S_bin of string * int * int  (* op, operand a, operand b (pool indices) *)
  | S_bin_const of string * int * int  (* op, operand, constant *)
  | S_delay of int * int  (* pool index, by *)

type recipe = { steps : step list; outputs : int list (* pool indices *) }

let step_to_string = function
  | S_read (i, d) -> Printf.sprintf "read[%d]@%d" i d
  | S_bin (op, a, b) -> Printf.sprintf "%s(#%d,#%d)" op a b
  | S_bin_const (op, a, c) -> Printf.sprintf "%s(#%d,%d)" op a c
  | S_delay (a, by) -> Printf.sprintf "delay(#%d,by %d)" a by

let recipe_to_string r =
  Printf.sprintf "steps=[%s] outputs=[%s]"
    (String.concat "; " (List.map step_to_string r.steps))
    (String.concat "," (List.map string_of_int r.outputs))

let ops_pool = [ "hir.add"; "hir.sub"; "hir.mult"; "hir.and"; "hir.or"; "hir.xor" ]

let gen_recipe : recipe QCheck.Gen.t =
  let open QCheck.Gen in
  let* n_steps = int_range 2 24 in
  (* Pool entry 0 always exists: a read of input[0] at delta 0. *)
  let rec build k pool_size acc =
    if k = 0 then return (List.rev acc)
    else
      let* choice = int_range 0 99 in
      let* s =
        if choice < 30 || pool_size = 0 then
          let* i = int_range 0 (input_size - 1) in
          let* d = int_range 0 4 in
          return (S_read (i, d))
        else if choice < 60 then
          let* a = int_range 0 (pool_size - 1) in
          let* b = int_range 0 (pool_size - 1) in
          let* op = oneofl ops_pool in
          return (S_bin (op, a, b))
        else if choice < 80 then
          let* a = int_range 0 (pool_size - 1) in
          let* c = int_range (-100) 1000 in
          let* op = oneofl ops_pool in
          return (S_bin_const (op, a, c))
        else
          let* a = int_range 0 (pool_size - 1) in
          let* by = int_range 1 3 in
          return (S_delay (a, by))
      in
      build (k - 1) (pool_size + 1) (s :: acc)
  in
  let* steps = build n_steps 1 [] in
  let pool_size = 1 + List.length steps in
  let* n_out = int_range 1 (min max_outputs pool_size) in
  let* outputs = list_repeat n_out (int_range 0 (pool_size - 1)) in
  return { steps = S_read (0, 0) :: steps; outputs }

(* Build the HIR design from a recipe.  The pool tracks (value, birth
   delta); binary operands are aligned by delaying the earlier one. *)
let build_design recipe =
  let m = Builder.create_module () in
  let f =
    Builder.func m ~name:"fuzz"
      ~args:
        [
          Builder.arg "inp"
            (Types.memref ~dims:[ input_size ] ~elem:Typ.i32 ~port:Types.Read ());
          Builder.arg "out"
            (Types.memref ~packing:(Some []) ~dims:[ max_outputs ] ~elem:Typ.i32
               ~port:Types.Write ());
        ]
      (fun b args t ->
        match args with
        | [ inp; out ] ->
          let pool = ref [] in
          let push v d = pool := !pool @ [ (v, d) ] in
          let nth i = List.nth !pool (i mod List.length !pool) in
          let align (v, d) target =
            if d = target then v
            else Builder.delay b v ~by:(target - d) ~at:Builder.(t @>> d)
          in
          List.iter
            (fun step ->
              match step with
              | S_read (i, d) ->
                let idx = Builder.constant b i in
                let v = Builder.mem_read b inp [ idx ] ~at:Builder.(t @>> d) in
                push v (d + 1)
              | S_bin (op, a_i, b_i) ->
                let va, da = nth a_i and vb, db = nth b_i in
                let target = max da db in
                let va = align (va, da) target and vb = align (vb, db) target in
                push (Builder.binop op b va vb) target
              | S_bin_const (op, a_i, c) ->
                let va, da = nth a_i in
                let vc = Builder.constant b c in
                push (Builder.binop op b va vc) da
              | S_delay (a_i, by) ->
                let va, da = nth a_i in
                push (Builder.delay b va ~by ~at:Builder.(t @>> da)) (da + by))
            recipe.steps;
          List.iteri
            (fun slot pool_idx ->
              let v, d = nth pool_idx in
              let idx = Builder.constant b slot in
              Builder.mem_write b v out [ idx ] ~at:Builder.(t @>> d))
            recipe.outputs;
          Builder.return_ b []
        | _ -> assert false)
  in
  (m, f)

(* The read port sees several reads; reads that share a cycle must
   share an address (§4.5).  The generator does not guarantee that, so
   recipes with read conflicts are filtered out by the verifier — the
   property only requires agreement on *accepted* designs. *)
let verifier_accepts m =
  let e = Diagnostic.Engine.create () in
  (match Verify.verify m with
  | Ok () -> ()
  | Error err -> List.iter (Diagnostic.Engine.emit e) (Diagnostic.Engine.to_list err));
  Verify_schedule.verify_module e m;
  not (Diagnostic.Engine.has_errors e)

let input_data =
  Array.init input_size (fun i -> Bitvec.of_int ~width:32 ((i * 2654435761) land 0xFFFFFF))

let interp_outputs m f =
  let _, tensors =
    Interp.run ~module_op:m ~func:f [ Interp.Tensor input_data; Interp.Out_tensor ]
  in
  Interp.tensor_snapshot (tensors 1) ~cycle:max_int

let rtl_outputs m f =
  let emitted = Emit.emit ~module_op:m ~top:f () in
  let result, agents =
    Harness.run ~emitted
      ~inputs:[ Harness.Tensor input_data; Harness.Out_tensor ]
      ~cycles:40 ()
  in
  (result.Harness.failures, Harness.nth_tensor agents 1)

let agree a b =
  Array.for_all2
    (fun x y ->
      match (x, y) with
      | Some x, Some y -> Bitvec.equal x y
      | None, None -> true
      | _ -> false)
    a b

let arb_recipe = QCheck.make ~print:recipe_to_string gen_recipe

(* ------------------------------------------------------------------ *)
(* Loop recipes: a pipelined hir.for at a chosen initiation interval.

   Body shape: read inp[i] (1-cycle latency), feed it through a random
   chain of constant binops, optionally add [lr_extra] pipeline stages
   of delay, and write to out[i] at the matching stage.  The yield
   offset IS the initiation interval, so II ∈ 1..3 pipelines iterations
   at different overlaps against the multi-stage body. *)

type loop_recipe = {
  lr_ii : int;  (* initiation interval, 1..3 *)
  lr_chain : (string * int) list;  (* constant binop chain on the read value *)
  lr_extra : int;  (* extra delay stages before the write, 0..2 *)
}

let loop_recipe_to_string r =
  Printf.sprintf "ii=%d chain=[%s] extra=%d" r.lr_ii
    (String.concat "; " (List.map (fun (op, c) -> Printf.sprintf "%s %d" op c) r.lr_chain))
    r.lr_extra

let gen_loop_recipe : loop_recipe QCheck.Gen.t =
  let open QCheck.Gen in
  let* lr_ii = int_range 1 3 in
  let* n_chain = int_range 0 4 in
  let* lr_chain = list_repeat n_chain (pair (oneofl ops_pool) (int_range (-100) 1000)) in
  let* lr_extra = int_range 0 2 in
  return { lr_ii; lr_chain; lr_extra }

let build_loop_design r =
  let m = Builder.create_module () in
  let f =
    Builder.func m ~name:"loopfuzz"
      ~args:
        [
          Builder.arg "inp"
            (Types.memref ~dims:[ input_size ] ~elem:Typ.i32 ~port:Types.Read ());
          Builder.arg "out"
            (Types.memref ~dims:[ input_size ] ~elem:Typ.i32 ~port:Types.Write ());
        ]
      (fun b args t ->
        match args with
        | [ inp; out ] ->
          let c0 = Builder.constant b 0 in
          let c1 = Builder.constant b 1 in
          let cn = Builder.constant b input_size in
          let _tf =
            Builder.for_loop b ~iv_hint:"i" ~lb:c0 ~ub:cn ~step:c1
              ~at:Builder.(t @>> 1)
              (fun b ~iv:i ~ti ->
                Builder.yield b ~at:Builder.(ti @>> r.lr_ii);
                (* The read value is born at ti@1 (1-cycle latency). *)
                let v = Builder.mem_read b inp [ i ] ~at:Builder.(ti @>> 0) in
                let v =
                  List.fold_left
                    (fun v (op, c) -> Builder.binop op b v (Builder.constant b c))
                    v r.lr_chain
                in
                let stage = 1 + r.lr_extra in
                let v =
                  if r.lr_extra = 0 then v
                  else Builder.delay b v ~by:r.lr_extra ~at:Builder.(ti @>> 1)
                in
                let addr = Builder.delay b i ~by:stage ~at:Builder.(ti @>> 0) in
                Builder.mem_write b v out [ addr ] ~at:Builder.(ti @>> stage))
          in
          Builder.return_ b []
        | _ -> assert false)
  in
  (m, f)

let arb_loop_recipe = QCheck.make ~print:loop_recipe_to_string gen_loop_recipe

let prop_differential =
  QCheck.Test.make ~count:120 ~name:"interp == RTL on random scheduled designs"
    arb_recipe (fun recipe ->
      let m, f = build_design recipe in
      QCheck.assume (verifier_accepts m);
      (* Round-trip property comes free on the same design. *)
      let text1 = Printer.op_to_string m in
      let reparsed = Parser.parse_string text1 in
      let text2 = Printer.op_to_string reparsed in
      if text1 <> text2 then QCheck.Test.fail_report "print/parse not a fixpoint";
      let expected = interp_outputs m f in
      let m2, f2 = build_design recipe in
      let failures, actual = rtl_outputs m2 f2 in
      if failures <> [] then
        QCheck.Test.fail_report
          ("UB assertion fired: " ^ (List.hd failures).Hir_rtl.Sim.message);
      if not (agree expected actual) then QCheck.Test.fail_report "interp != RTL"
      else true)

let prop_optimizer_preserves =
  QCheck.Test.make ~count:60 ~name:"optimizer preserves random designs" arb_recipe
    (fun recipe ->
      let m, f = build_design recipe in
      QCheck.assume (verifier_accepts m);
      let expected = interp_outputs m f in
      let m2, f2 = build_design recipe in
      ignore (Passes.run_canonicalize m2);
      ignore (Precision_opt.run m2);
      ignore (Passes.run_delay_elim m2);
      ignore (Retime.run m2);
      QCheck.assume (verifier_accepts m2);
      let after = interp_outputs m2 f2 in
      agree expected after)

let rtl_loop_outputs r m f =
  let emitted = Emit.emit ~module_op:m ~top:f () in
  let result, agents =
    Harness.run ~emitted
      ~inputs:[ Harness.Tensor input_data; Harness.Out_tensor ]
      ~cycles:((r.lr_ii * input_size) + r.lr_extra + 16)
      ()
  in
  (result.Harness.failures, Harness.nth_tensor agents 1)

let prop_loop_differential =
  QCheck.Test.make ~count:60 ~name:"interp == RTL on pipelined loops (II 1..3)"
    arb_loop_recipe (fun recipe ->
      let m, f = build_loop_design recipe in
      (* Loop designs are well-scheduled by construction: the verifier
         must accept every one, so a rejection is itself a bug. *)
      if not (verifier_accepts m) then
        QCheck.Test.fail_report "verifier rejected a well-scheduled loop design";
      let text1 = Printer.op_to_string m in
      let reparsed = Parser.parse_string text1 in
      let text2 = Printer.op_to_string reparsed in
      if text1 <> text2 then QCheck.Test.fail_report "print/parse not a fixpoint";
      let expected = interp_outputs m f in
      let m2, f2 = build_loop_design recipe in
      let failures, actual = rtl_loop_outputs recipe m2 f2 in
      if failures <> [] then
        QCheck.Test.fail_report
          ("UB assertion fired: " ^ (List.hd failures).Hir_rtl.Sim.message);
      if not (agree expected actual) then QCheck.Test.fail_report "interp != RTL"
      else true)

let prop_loop_optimizer_preserves =
  QCheck.Test.make ~count:40 ~name:"optimizer preserves pipelined loops"
    arb_loop_recipe (fun recipe ->
      let m, f = build_loop_design recipe in
      QCheck.assume (verifier_accepts m);
      let expected = interp_outputs m f in
      let m2, f2 = build_loop_design recipe in
      ignore (Passes.run_canonicalize m2);
      ignore (Precision_opt.run m2);
      ignore (Passes.run_delay_elim m2);
      ignore (Retime.run m2);
      QCheck.assume (verifier_accepts m2);
      let after = interp_outputs m2 f2 in
      agree expected after)

(* ------------------------------------------------------------------ *)
(* Hierarchical emission: flat vs. outlined designs in lockstep.

   The outliner must be behaviorally invisible: a design emitted with
   the definition cache on (structurally identical unrolled clones
   shared as module definitions, wide port arbitration lowered to
   chains of shared stages) must produce the same outputs and the same
   assertion failures as the flat emission of the same IR.  Pinned two
   ways: a qcheck property over random unrolled bodies (the shape the
   outliner exists for), and full kernel runs (gemm, systolic) against
   their reference models. *)

type unroll_recipe = {
  ur_iters : int;  (* unrolled trip count, 2..6 *)
  ur_chain : (string * int) list;  (* per-clone binop chain *)
  ur_stages : int;  (* extra delay stages before the write, 0..2 *)
}

let unroll_recipe_to_string r =
  Printf.sprintf "iters=%d chain=[%s] stages=%d" r.ur_iters
    (String.concat "; " (List.map (fun (op, c) -> Printf.sprintf "%s %d" op c) r.ur_chain))
    r.ur_stages

let gen_unroll_recipe : unroll_recipe QCheck.Gen.t =
  let open QCheck.Gen in
  let* ur_iters = int_range 2 6 in
  let* n_chain = int_range 1 5 in
  let* ur_chain = list_repeat n_chain (pair (oneofl ops_pool) (int_range (-100) 1000)) in
  let* ur_stages = int_range 0 2 in
  return { ur_iters; ur_chain; ur_stages }

(* out[u] = chain(inp[u]), one unroll_for clone per u, iterations
   serialized by the yield offset so the shared memory ports see one
   access per cycle.  Every clone has the same shape, so the emitter's
   grouping marks [ur_iters] structurally identical sites. *)
let build_unroll_design r =
  let m = Builder.create_module () in
  let f =
    Builder.func m ~name:"unrollfuzz"
      ~args:
        [
          Builder.arg "inp"
            (Types.memref ~dims:[ input_size ] ~elem:Typ.i32 ~port:Types.Read ());
          Builder.arg "out"
            (Types.memref ~dims:[ input_size ] ~elem:Typ.i32 ~port:Types.Write ());
        ]
      (fun b args t ->
        match args with
        | [ inp; out ] ->
          let _tf =
            Builder.unroll_for b ~iv_hint:"u" ~lb:0 ~ub:r.ur_iters ~step:1
              ~at:Builder.(t @>> 1)
              (fun b ~iv:u ~ti:tu ->
                Builder.yield b ~at:Builder.(tu @>> 1);
                let v = Builder.mem_read b inp [ u ] ~at:Builder.(tu @>> 0) in
                let v =
                  List.fold_left
                    (fun v (op, c) -> Builder.binop op b v (Builder.constant b c))
                    v r.ur_chain
                in
                let v =
                  if r.ur_stages = 0 then v
                  else Builder.delay b v ~by:r.ur_stages ~at:Builder.(tu @>> 1)
                in
                Builder.mem_write b v out [ u ] ~at:Builder.(tu @>> (1 + r.ur_stages)))
          in
          Builder.return_ b []
        | _ -> assert false)
  in
  (m, f)

let arb_unroll_recipe = QCheck.make ~print:unroll_recipe_to_string gen_unroll_recipe

let harness_outputs ~hier (m, f) =
  let emitted = Emit.compile ~hier ~module_op:m ~top:f () in
  let result, agents =
    Harness.run ~emitted
      ~inputs:[ Harness.Tensor input_data; Harness.Out_tensor ]
      ~cycles:60 ()
  in
  (result.Harness.failures, Harness.nth_tensor agents 1)

let prop_hier_lockstep =
  QCheck.Test.make ~count:80 ~name:"flat == hierarchical on unrolled designs"
    arb_unroll_recipe (fun recipe ->
      let expected =
        let m, f = build_unroll_design recipe in
        interp_outputs m f
      in
      let flat_failures, flat_out = harness_outputs ~hier:false (build_unroll_design recipe) in
      let hier_failures, hier_out = harness_outputs ~hier:true (build_unroll_design recipe) in
      if List.length flat_failures <> List.length hier_failures then
        QCheck.Test.fail_report "flat and hierarchical failure counts differ";
      if not (agree flat_out hier_out) then
        QCheck.Test.fail_report "flat != hierarchical outputs";
      if not (agree expected hier_out) then
        QCheck.Test.fail_report "interp != hierarchical outputs"
      else true)

(* Full kernels, flat vs. hierarchical vs. reference model — the
   RTL-vs-reference differential check for the systolic generator, and
   the same for gemm (whose PE grid is the outliner's original
   target).  Runs both unoptimized and under the full pass pipeline. *)
let kernel_lockstep ~build ~inputs ~expected ~out_slot ~cycles () =
  let run ~hier ~optimize =
    let m, f = build () in
    let emitted = Emit.compile ~optimize ~hier ~module_op:m ~top:f () in
    let result, agents = Harness.run ~emitted ~inputs ~cycles () in
    (result.Harness.failures, Harness.nth_tensor agents out_slot, emitted)
  in
  List.iter
    (fun optimize ->
      let flat_failures, flat_out, _ = run ~hier:false ~optimize in
      let hier_failures, hier_out, hier_emitted = run ~hier:true ~optimize in
      Alcotest.(check int)
        (Printf.sprintf "failure counts agree (optimize=%b)" optimize)
        (List.length flat_failures) (List.length hier_failures);
      Alcotest.(check bool)
        (Printf.sprintf "no assertion failures (optimize=%b)" optimize)
        true (hier_failures = []);
      Alcotest.(check bool)
        (Printf.sprintf "flat == hierarchical (optimize=%b)" optimize)
        true (agree flat_out hier_out);
      Array.iteri
        (fun i v ->
          match v with
          | Some got when Bitvec.equal got expected.(i) -> ()
          | _ ->
            Alcotest.failf "output %d disagrees with the reference (optimize=%b)" i
              optimize)
        hier_out;
      (* The definition cache must actually fire on these kernels:
         hierarchy, not just equivalence. *)
      Alcotest.(check bool)
        (Printf.sprintf "design is hierarchical (optimize=%b)" optimize)
        true
        (List.length hier_emitted.Emit.design.Hir_verilog.Ast.modules > 1))
    [ false; true ]

let test_gemm_lockstep () =
  let n = 4 in
  let a, bm = Hir_kernels.Systolic.make_inputs ~n ~seed:11 () in
  kernel_lockstep
    ~build:(fun () -> Hir_kernels.Gemm.build ~n ())
    ~inputs:[ Harness.Tensor a; Harness.Tensor bm; Harness.Out_tensor ]
    ~expected:(Hir_kernels.Systolic.reference ~n a bm)
    ~out_slot:2
    ~cycles:((6 * n * n) + 60)
    ()

let test_systolic_lockstep () =
  let n = 4 in
  let a, bm = Hir_kernels.Systolic.make_inputs ~n ~seed:7 () in
  kernel_lockstep
    ~build:(fun () -> Hir_kernels.Systolic.build ~n ())
    ~inputs:[ Harness.Tensor a; Harness.Tensor bm; Harness.Out_tensor ]
    ~expected:(Hir_kernels.Systolic.reference ~n a bm)
    ~out_slot:2
    ~cycles:((6 * n * n) + 60)
    ()

let test_systolic_deep_mac_lockstep () =
  let n = 5 in
  let a, bm = Hir_kernels.Systolic.make_inputs ~n ~seed:3 () in
  kernel_lockstep
    ~build:(fun () -> Hir_kernels.Systolic.build ~n ~mac_stages:3 ())
    ~inputs:[ Harness.Tensor a; Harness.Tensor bm; Harness.Out_tensor ]
    ~expected:(Hir_kernels.Systolic.reference ~n a bm)
    ~out_slot:2
    ~cycles:((6 * n * n) + 60)
    ()

(* The greedy worklist driver and the legacy whole-module-scan pass
   loop are two independent implementations of canonicalize; on every
   accepted random design they must produce IR that prints identically
   (canonical printing ignores value ids, so two separately-built
   modules compare structurally), and the driver must converge by
   draining its worklist, never via the round backstop. *)

let driver_vs_legacy build recipe =
  let m1, _ = build recipe in
  QCheck.assume (verifier_accepts m1);
  let m2, _ = build recipe in
  let stats = Passes.run_canonicalize_stats m1 in
  if stats.Rewrite.ds_backstop then
    QCheck.Test.fail_report "driver hit the round backstop";
  ignore (Legacy_canon.run_canonicalize m2);
  let a = Printer.op_to_canonical_string m1 in
  let b = Printer.op_to_canonical_string m2 in
  if a <> b then
    QCheck.Test.fail_report
      (Printf.sprintf "driver/legacy diverge:\n--- driver ---\n%s\n--- legacy ---\n%s" a b)
  else true

let prop_driver_matches_legacy =
  QCheck.Test.make ~count:80 ~name:"greedy driver == legacy canonicalize"
    arb_recipe
    (driver_vs_legacy build_design)

let prop_loop_driver_matches_legacy =
  QCheck.Test.make ~count:40 ~name:"greedy driver == legacy canonicalize (loops)"
    arb_loop_recipe
    (driver_vs_legacy build_loop_design)

(* Guard against vacuous properties: a healthy fraction of generated
   recipes must actually reach the differential check. *)
let test_acceptance_rate () =
  let recipes = QCheck.Gen.generate ~n:200 gen_recipe in
  let accepted =
    List.length
      (List.filter (fun r -> verifier_accepts (fst (build_design r))) recipes)
  in
  Alcotest.(check bool)
    (Printf.sprintf "acceptance rate reasonable (%d/200)" accepted)
    true
    (accepted >= 40);
  (* And the §4.5 read-port-conflict filter does reject some designs,
     i.e. the verifier is doing real work on this generator. *)
  Alcotest.(check bool) "some designs rejected" true (accepted < 200)

let () =
  Alcotest.run "differential"
    [
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_differential;
          QCheck_alcotest.to_alcotest prop_optimizer_preserves;
          QCheck_alcotest.to_alcotest prop_loop_differential;
          QCheck_alcotest.to_alcotest prop_loop_optimizer_preserves;
          QCheck_alcotest.to_alcotest prop_driver_matches_legacy;
          QCheck_alcotest.to_alcotest prop_loop_driver_matches_legacy;
          Alcotest.test_case "generator acceptance rate" `Quick test_acceptance_rate;
        ] );
      ( "hierarchy",
        [
          QCheck_alcotest.to_alcotest prop_hier_lockstep;
          Alcotest.test_case "gemm flat == hierarchical == reference" `Quick
            test_gemm_lockstep;
          Alcotest.test_case "systolic flat == hierarchical == reference" `Quick
            test_systolic_lockstep;
          Alcotest.test_case "systolic deep MAC lockstep" `Quick
            test_systolic_deep_mac_lockstep;
        ] );
    ]
