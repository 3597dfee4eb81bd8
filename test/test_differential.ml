(* Property-based differential testing of the whole backend.

   The generators of [Random_designs] produce random *well-scheduled*
   HIR designs: straight-line code (reads, combinational arithmetic,
   delays, writes — with all operand births kept aligned by
   construction), and scheduled [hir.for] loops pipelined at initiation
   intervals 1..3 with a random combinational chain and extra pipeline
   stages in the body.  For each design we check three properties:

     1. the structural and schedule verifiers accept it;
     2. the textual round-trip is a fixpoint;
     3. the cycle-accurate interpreter and the RTL simulation of the
        generated Verilog agree on every output element.

   This hunts for disagreements between the four independent
   implementations of HIR semantics (verifier, interpreter, code
   generator, RTL simulator). *)

open Hir_ir
open Hir_dialect
open Random_designs
module Emit = Hir_codegen.Emit
module Harness = Hir_rtl.Harness

let () = Ops.register ()

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

(* delay(#0,by 3) is defined after the first delay(#0,by 1) but before
   the second, so delay-elim may chain it only onto the first.  The
   optimized design must emit, and its RTL must agree with the
   unoptimized interpreter. *)
let test_delay_order_recipe () =
  let recipe =
    {
      steps =
        [
          S_read (0, 0); S_read (6, 4); S_bin ("hir.mult", 0, 1); S_delay (0, 1);
          S_bin ("hir.or", 2, 0); S_delay (0, 1); S_delay (0, 3);
          S_bin_const ("hir.sub", 3, 599); S_read (3, 3); S_bin_const ("hir.and", 0, 235);
          S_bin_const ("hir.and", 8, 651); S_bin ("hir.xor", 9, 5); S_bin ("hir.or", 7, 0);
          S_bin ("hir.xor", 9, 7); S_read (0, 1);
        ];
      outputs = [ 7; 4; 12 ];
    }
  in
  let m, f = build_design recipe in
  Alcotest.(check bool) "verifier accepts the recipe" true (verifier_accepts m);
  let expected = interp_outputs m f in
  let m2, f2 = build_design recipe in
  let emitted = Emit.compile ~optimize:true ~module_op:m2 ~top:f2 () in
  let result, agents =
    Harness.run ~emitted
      ~inputs:[ Harness.Tensor input_data; Harness.Out_tensor ]
      ~cycles:40 ()
  in
  Alcotest.(check int) "no UB assertion fired" 0 (List.length result.Harness.failures);
  Alcotest.(check bool) "optimized RTL == interp" true
    (agree expected (Harness.nth_tensor agents 1))

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

(* ------------------------------------------------------------------ *)
(* Outlining: the class-matching outliner against the oracle that
   canonicalizes and prints every site ([Legacy_outline]).  Each runs
   on its own lowering of the function (lowering is deterministic), so
   neither sees the other's instance names or definitions. *)

let outlined_by outline ~module_op f =
  let l = Emit.lower ~module_op f in
  let items, ff =
    outline ~names:l.Emit.lw_names ~registry:l.Emit.lw_registry ~ports:l.Emit.lw_ports
      ~items:l.Emit.lw_items ~ff:l.Emit.lw_ff
  in
  (items, ff, Hir_codegen.Outline.defs l.Emit.lw_registry)

(* Runs the default pipeline on [m], then compares the outliners on
   every function with a body; returns how many definitions they
   outlined. *)
let outliners_agree ~optimize ~what m =
  let engine = Diagnostic.Engine.create () in
  List.iter (fun (p : Pass.t) -> ignore (p.Pass.run m engine)) (Emit.default_passes ~optimize);
  List.fold_left
    (fun n f ->
      if Ops.is_extern_func f then n
      else begin
        let ((_, _, defs) as got) = outlined_by Hir_codegen.Outline.run ~module_op:m f in
        let want = outlined_by Legacy_outline.run ~module_op:m f in
        if got <> want then
          Alcotest.failf "%s @%s (optimize=%b): the outliners disagree" what (Ops.func_name f)
            optimize;
        n + List.length defs
      end)
    0 (Ops.module_funcs m)

let prop_outliner_matches_oracle =
  QCheck.Test.make ~count:80 ~name:"outliner == print-every-site oracle" arb_unroll_recipe
    (fun recipe ->
      List.iter
        (fun optimize ->
          let m, _ = build_unroll_design recipe in
          ignore (outliners_agree ~optimize ~what:"unrollfuzz" m))
        [ false; true ];
      true)

(* Random tagged item streams, for the cases emission seldom produces:
   groups of a few shapes that differ only in a constant, a width, the
   width of what they read, whether a declaration is read outside the
   group, or the length of their names.  Many sites therefore match a
   representative in lockstep, and many nearly do.  Two of the comments
   print alike (a line break is written as an escape), so some sites
   join a class by its text alone. *)
module V = Hir_verilog.Ast

type stream_group = {
  sg_shape : int;  (* 0: one wire; 1: adds a register, an ff and an instance; 2: a longer chain *)
  sg_const : int;
  sg_width : int;
  sg_suffix : string;  (* appended to the group's names *)
  sg_source : int;  (* 0: a port; 1: the previous group's wire *)
  sg_source2 : int;  (* the same, for the chain of shape 2 *)
  sg_export : bool;  (* read by a shared item *)
  sg_comment : string;  (* shape 1's comment; two of them print alike *)
}

let gen_stream_group =
  let open QCheck.Gen in
  let* sg_shape = int_range 0 2 in
  let* sg_const = oneofl [ 1; 1; 2 ] in
  let* sg_width = oneofl [ 8; 8; 16 ] in
  let* sg_suffix = oneofl [ ""; "_longer"; "_" ^ String.make 40 'n' ] in
  let* sg_source = int_range 0 1 in
  let* sg_source2 = int_range 0 1 in
  let* sg_export = bool in
  let* sg_comment = oneofl [ "stage"; "a\nb"; "a\\nb" ] in
  return { sg_shape; sg_const; sg_width; sg_suffix; sg_source; sg_source2; sg_export; sg_comment }

let arb_stream =
  QCheck.make
    ~print:(fun (pw, gs) ->
      Printf.sprintf "port width %d; %s" pw
        (String.concat "; "
           (List.map
              (fun g ->
                Printf.sprintf "shape %d const %d width %d suffix %S sources %d %d export %b comment %S"
                  g.sg_shape g.sg_const g.sg_width g.sg_suffix g.sg_source g.sg_source2 g.sg_export
                  g.sg_comment)
              gs)))
    QCheck.Gen.(pair (oneofl [ 8; 16 ]) (list_size (int_range 2 10) gen_stream_group))

let build_stream (port_width, groups) =
  let ports = [ { V.port_name = "p0"; dir = V.Input; width = port_width } ] in
  let items = ref [] and ff = ref [] in
  let item g it = items := (g, it) :: !items in
  List.iteri
    (fun i sg ->
      let g = Some (100 + i) in
      let name base = Printf.sprintf "%s%d%s" base i sg.sg_suffix in
      let wire = name "w" in
      let source choice =
        if choice = 1 && i > 0 then Printf.sprintf "w%d%s" (i - 1) (List.nth groups (i - 1)).sg_suffix
        else "p0"
      in
      let const = V.Const (Bitvec.of_int ~width:sg.sg_width sg.sg_const) in
      item g (V.Wire_decl { name = wire; width = sg.sg_width });
      item g (V.Assign { target = wire; expr = V.Binop (V.Add, V.Ref (source sg.sg_source), const) });
      if sg.sg_shape = 1 then begin
        let reg = name "r" in
        item g (V.Comment sg.sg_comment);
        item g (V.Reg_decl { name = reg; width = 1 });
        item g
          (V.Instance
             {
               module_name = "sub";
               instance_name = name "u";
               connections = [ ("clk", V.Ref "clk"); ("a", V.Ref wire) ];
             });
        ff := (g, V.Nonblocking (V.Lref reg, V.Slice (V.Ref wire, 0, 0))) :: !ff
      end;
      if sg.sg_shape = 2 then
        List.iter
          (fun k ->
            let t = name (Printf.sprintf "t%d_" k) in
            item g (V.Wire_decl { name = t; width = sg.sg_width });
            item g
              (V.Assign { target = t; expr = V.Binop (V.Xor, V.Ref wire, V.Ref (source sg.sg_source2)) }))
          [ 0; 1; 2 ];
      if sg.sg_export then begin
        let out = Printf.sprintf "out%d" i in
        item None (V.Wire_decl { name = out; width = sg.sg_width });
        item None (V.Assign { target = out; expr = V.Ref wire })
      end)
    groups;
  (ports, List.rev !items, List.rev !ff)

let prop_outliner_streams =
  QCheck.Test.make ~count:500 ~name:"outliner == print-every-site oracle on item streams"
    arb_stream (fun spec ->
      let ports, items, ff = build_stream spec in
      let run outline =
        let registry = Hir_codegen.Outline.create_registry () in
        let items, ff = outline ~names:(Hir_codegen.Names.create ()) ~registry ~ports ~items ~ff in
        (items, ff, Hir_codegen.Outline.defs registry)
      in
      run Hir_codegen.Outline.run = run Legacy_outline.run)

(* Every kernel ("gemm" is GEMM 16×16, "systolic" the 8×8 array) and
   the 16×16 systolic array. *)
let test_outliner_kernels () =
  let designs =
    List.map (fun k -> (k.Hir_kernels.Kernels.name, k.Hir_kernels.Kernels.build)) Hir_kernels.Kernels.all
    @ [ ("systolic16", fun () -> Hir_kernels.Systolic.build ~n:16 ()) ]
  in
  List.iter
    (fun (what, build) ->
      List.iter
        (fun optimize ->
          let n = outliners_agree ~optimize ~what (fst (build ())) in
          if List.mem what [ "gemm"; "systolic16" ] then
            Alcotest.(check bool) (what ^ " outlines a class") true (n > 0))
        [ false; true ])
    designs

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
   recipes must actually reach the differential check.  The recipes
   come from one fixed random state, so the count is the same on every
   run. *)
let test_acceptance_rate () =
  let recipes =
    QCheck.Gen.generate ~rand:(Random.State.make [| 1 |]) ~n:200 gen_recipe
  in
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
          Alcotest.test_case "delay order recipe" `Quick test_delay_order_recipe;
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
          QCheck_alcotest.to_alcotest prop_outliner_matches_oracle;
          QCheck_alcotest.to_alcotest prop_outliner_streams;
          Alcotest.test_case "outliner == oracle on kernels" `Quick test_outliner_kernels;
        ] );
    ]
