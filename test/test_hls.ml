(* Tests for the baseline HLS compiler: its scheduling decisions (list
   scheduling, iterative modulo scheduling discovering recurrence IIs),
   and full functional equivalence of the compiled designs against the
   same software references used for the HIR kernels — through the HIR
   interpreter and through generated-Verilog RTL simulation. *)

open Hir_ir
open Hir_dialect
module Hls = Hir_hls
module Emit = Hir_codegen.Emit
module Harness = Hir_rtl.Harness

let () = Ops.register ()

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let verify_clean m =
  let e = Diagnostic.Engine.create () in
  (match Verify.verify m with
  | Ok () -> ()
  | Error err -> List.iter (Diagnostic.Engine.emit e) (Diagnostic.Engine.to_list err));
  Verify_schedule.verify_module e m;
  if Diagnostic.Engine.has_errors e then
    Alcotest.failf "HLS-emitted HIR must verify:\n%s" (Diagnostic.Engine.to_string e)

let compile_fresh source = Hls.Compiler.compile source

(* ------------------------------------------------------------------ *)
(* Scheduling behaviour                                                *)

let test_histogram_ii_discovery () =
  let c = compile_fresh (Hls.Suite.histogram ()) in
  verify_clean c.Hls.Compiler.hls_module;
  (* The accumulate loop was asked for II=1 but carries a BRAM
     read-modify-write recurrence: the modulo scheduler must settle on
     II=2. *)
  let ii_of var = List.assoc var c.Hls.Compiler.loop_iis in
  check_int "clear loop II" 1 (ii_of "bc");
  check_int "accumulate loop II" 2 (ii_of "p");
  check_int "writeback loop II" 1 (ii_of "bo")

let test_pipeline_iis () =
  let c = compile_fresh (Hls.Suite.transpose ()) in
  check_int "transpose inner II" 1 (List.assoc "j" c.Hls.Compiler.loop_iis);
  let c = compile_fresh (Hls.Suite.stencil ()) in
  check_int "stencil II" 1 (List.assoc "i" c.Hls.Compiler.loop_iis);
  let c = compile_fresh (Hls.Suite.gemm ()) in
  check_int "gemm load II" 1 (List.assoc "k" c.Hls.Compiler.loop_iis);
  check_int "gemm compute II" 1 (List.assoc "kk" c.Hls.Compiler.loop_iis);
  let c = compile_fresh (Hls.Suite.convolution ()) in
  check_int "convolution II" 1 (List.assoc "p" c.Hls.Compiler.loop_iis)

let test_phase_report () =
  let c = compile_fresh (Hls.Suite.gemm ()) in
  let phases = List.map fst c.Hls.Compiler.phase_seconds in
  check_bool "has scheduling phase" true (List.mem "scheduling" phases);
  check_bool "times non-negative" true
    (List.for_all (fun (_, t) -> t >= 0.) c.Hls.Compiler.phase_seconds)

let test_manual_opt_widths () =
  (* The Table 4 manual-optimization variant narrows the loop
     variables in the source. *)
  let c = compile_fresh (Hls.Suite.transpose ~iv_width:5 ()) in
  verify_clean c.Hls.Compiler.hls_module;
  let fors = Ir.Walk.find_all c.Hls.Compiler.hls_func "hir.for" in
  List.iter
    (fun loop ->
      match Ir.Value.typ (Ops.loop_induction_var loop) with
      | Typ.Int w -> check_int "declared iv width" 5 w
      | _ -> Alcotest.fail "integer iv expected")
    fors

(* ------------------------------------------------------------------ *)
(* Functional equivalence                                              *)

let interp_outputs source inputs ~out_arg =
  let c = compile_fresh source in
  verify_clean c.Hls.Compiler.hls_module;
  let result, tensors =
    Interp.run ~module_op:c.Hls.Compiler.hls_module ~func:c.Hls.Compiler.hls_func inputs
  in
  (result, Interp.tensor_snapshot (tensors out_arg) ~cycle:max_int)

let compare_expected ~name ?(valid = fun _ -> true) expected actual =
  Array.iteri
    (fun i e ->
      if valid i then
        match actual.(i) with
        | Some got when Bitvec.equal got e -> ()
        | Some got ->
          Alcotest.failf "%s[%d]: expected %s got %s" name i (Bitvec.to_string e)
            (Bitvec.to_string got)
        | None -> Alcotest.failf "%s[%d] never written" name i)
    expected

let rtl_outputs source inputs ~out_arg =
  let c = compile_fresh source in
  let module_op = c.Hls.Compiler.hls_module and func = c.Hls.Compiler.hls_func in
  (* Cycle budget from the interpreter. *)
  let cycles = Harness.interp_cycles ~module_op ~func inputs in
  let emitted = Emit.compile ~module_op ~top:func () in
  let result, agents = Harness.run ~emitted ~inputs ~cycles () in
  (match result.Harness.failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "UB assertion at cycle %d: %s" f.Hir_rtl.Sim.at_cycle
      f.Hir_rtl.Sim.message);
  Harness.nth_tensor agents out_arg

let test_transpose_interp () =
  let input = Hir_kernels.Transpose.make_input ~seed:41 in
  let _, out =
    interp_outputs (Hls.Suite.transpose ()) [ Interp.Tensor input; Interp.Out_tensor ] ~out_arg:1
  in
  compare_expected ~name:"transpose" (Hir_kernels.Transpose.reference input) out

let test_stencil_interp () =
  let input = Hir_kernels.Stencil1d.make_input ~seed:42 in
  let lo, hi = Hir_kernels.Stencil1d.valid_range in
  let _, out =
    interp_outputs (Hls.Suite.stencil ()) [ Interp.Tensor input; Interp.Out_tensor ] ~out_arg:1
  in
  compare_expected ~name:"stencil" ~valid:(fun i -> i >= lo && i <= hi)
    (Hir_kernels.Stencil1d.reference input) out

let test_histogram_interp () =
  let input = Hir_kernels.Histogram.make_input ~seed:43 in
  let _, out =
    interp_outputs (Hls.Suite.histogram ()) [ Interp.Tensor input; Interp.Out_tensor ] ~out_arg:1
  in
  compare_expected ~name:"histogram" (Hir_kernels.Histogram.reference input) out

let test_gemm_interp () =
  let a, b = Hir_kernels.Gemm.make_inputs ~seed:44 in
  let _, out =
    interp_outputs (Hls.Suite.gemm ())
      [ Interp.Tensor a; Interp.Tensor b; Interp.Out_tensor ]
      ~out_arg:2
  in
  compare_expected ~name:"gemm" (Hir_kernels.Gemm.reference a b) out

let test_convolution_interp () =
  let input = Hir_kernels.Convolution.make_input ~seed:45 in
  let _, out =
    interp_outputs (Hls.Suite.convolution ())
      [ Interp.Tensor input; Interp.Out_tensor ]
      ~out_arg:1
  in
  compare_expected ~name:"convolution" ~valid:Hir_kernels.Convolution.is_valid_index
    (Hir_kernels.Convolution.reference input) out

let test_transpose_rtl () =
  let input = Hir_kernels.Transpose.make_input ~seed:51 in
  let out =
    rtl_outputs (Hls.Suite.transpose ()) [ Harness.Tensor input; Harness.Out_tensor ] ~out_arg:1
  in
  compare_expected ~name:"transpose-rtl" (Hir_kernels.Transpose.reference input) out

let test_stencil_rtl () =
  let input = Hir_kernels.Stencil1d.make_input ~seed:52 in
  let lo, hi = Hir_kernels.Stencil1d.valid_range in
  let out =
    rtl_outputs (Hls.Suite.stencil ()) [ Harness.Tensor input; Harness.Out_tensor ] ~out_arg:1
  in
  compare_expected ~name:"stencil-rtl" ~valid:(fun i -> i >= lo && i <= hi)
    (Hir_kernels.Stencil1d.reference input) out

let test_histogram_rtl () =
  let input = Hir_kernels.Histogram.make_input ~seed:53 in
  let out =
    rtl_outputs (Hls.Suite.histogram ()) [ Harness.Tensor input; Harness.Out_tensor ] ~out_arg:1
  in
  compare_expected ~name:"histogram-rtl" (Hir_kernels.Histogram.reference input) out

let test_gemm_rtl () =
  let a, b = Hir_kernels.Gemm.make_inputs ~seed:54 in
  let out =
    rtl_outputs (Hls.Suite.gemm ())
      [ Harness.Tensor a; Harness.Tensor b; Harness.Out_tensor ]
      ~out_arg:2
  in
  compare_expected ~name:"gemm-rtl" (Hir_kernels.Gemm.reference a b) out

let test_convolution_rtl () =
  let input = Hir_kernels.Convolution.make_input ~seed:55 in
  let out =
    rtl_outputs (Hls.Suite.convolution ())
      [ Harness.Tensor input; Harness.Out_tensor ]
      ~out_arg:1
  in
  compare_expected ~name:"convolution-rtl" ~valid:Hir_kernels.Convolution.is_valid_index
    (Hir_kernels.Convolution.reference input) out

(* ------------------------------------------------------------------ *)
(* SDC cross-validation                                                *)

(* The exact recurrence-MII from the difference-constraint solver must
   match the II the iterative modulo scheduler settles on (no resource
   bottlenecks exist in these bodies beyond the recurrences). *)
let test_sdc_recmii_matches () =
  let case ~source ~loop_var ~expect =
    match Hls.Sdc.analyze_pipelined_loop ~func:source ~loop_var with
    | Some (mii, _) -> check_int (Printf.sprintf "RecMII of %s" loop_var) expect mii
    | None -> Alcotest.failf "SDC found no feasible II for %s" loop_var
  in
  case ~source:(Hls.Suite.histogram ()) ~loop_var:"p" ~expect:2;
  case ~source:(Hls.Suite.stencil ()) ~loop_var:"i" ~expect:1;
  case ~source:(Hls.Suite.transpose ()) ~loop_var:"j" ~expect:1;
  case ~source:(Hls.Suite.convolution ()) ~loop_var:"p" ~expect:1

let test_sdc_dependence_pragma_matters () =
  (* Without the DEPENDENCE inter false pragma on the line buffers, the
     conservative loop-carried ordering constraints stretch the
     pipeline (deeper schedule, more alignment registers) even though
     the recurrence-MII stays 1 — exactly what the pragma buys in
     Vivado too. *)
  let conv = Hls.Suite.convolution () in
  let strip_pragma =
    let rec go = function
      | Hls.Ast.For f ->
        Hls.Ast.For { f with dep_free = []; body = List.map go f.body }
      | s -> s
    in
    { conv with Hls.Ast.body = List.map go conv.Hls.Ast.body }
  in
  match
    ( Hls.Sdc.analyze_pipelined_loop ~func:conv ~loop_var:"p",
      Hls.Sdc.analyze_pipelined_loop ~func:strip_pragma ~loop_var:"p" )
  with
  | Some (mii_with, len_with), Some (mii_without, len_without) ->
    check_int "II=1 with the pragma" 1 mii_with;
    check_int "MII unchanged" mii_with mii_without;
    check_bool "conservative schedule is deeper" true (len_without > len_with)
  | _ -> Alcotest.fail "SDC analysis failed"

let test_sdc_feasibility_monotone () =
  (* If II is feasible, II+1 is feasible too. *)
  let func = Hls.Suite.histogram () in
  match Hls.Sdc.analyze_pipelined_loop ~func ~loop_var:"p" with
  | Some (mii, _) ->
    check_bool "mii >= 1" true (mii >= 1);
    (* Re-run the underlying solver at mii + 1 through the public API
       by lowering expectations: analyze returns the minimum, so just
       assert the scheduler's chosen II is not below it. *)
    let c = compile_fresh (Hls.Suite.histogram ()) in
    let chosen = List.assoc "p" c.Hls.Compiler.loop_iis in
    check_bool "modulo scheduler >= exact RecMII" true (chosen >= mii);
    check_int "and equal here" mii chosen
  | None -> Alcotest.fail "no feasible II"

(* ------------------------------------------------------------------ *)
(* AST utilities                                                       *)

let test_unroll_and_fold () =
  let open Hls.Ast in
  let f =
    {
      fn_name = "t";
      params = [ P_array (Out, array ~width:32 "O" [ 4 ]) ];
      locals = [];
      body =
        [ for_ ~unroll:true "i" ~lb:0 ~ub:4 [ store "O" [ v "i" ] (v "i" *: Int 2) ] ];
    }
  in
  let f = unroll_func f in
  check_int "4 stores" 4 (List.length f.body);
  let f = fold_func f in
  (match f.body with
  | Store (_, [ Int 2 ], Int 4) :: _ ->
    Alcotest.fail "statement order unexpected"
  | Store (_, [ Int 0 ], Int 0) :: Store (_, [ Int 1 ], Int 2) :: _ -> ()
  | _ -> Alcotest.fail "unroll+fold shape unexpected");
  (* Power-of-two strength reduction. *)
  match fold_expr (v "x" *: Int 8) with
  | Binop (Shl, Var "x", Int 3) -> ()
  | _ -> Alcotest.fail "expected shift"

let () =
  Alcotest.run "hls"
    [
      ( "scheduling",
        [
          Alcotest.test_case "histogram II discovery" `Quick test_histogram_ii_discovery;
          Alcotest.test_case "pipeline IIs" `Quick test_pipeline_iis;
          Alcotest.test_case "phase report" `Quick test_phase_report;
          Alcotest.test_case "manual-opt widths" `Quick test_manual_opt_widths;
        ] );
      ( "interp equivalence",
        [
          Alcotest.test_case "transpose" `Quick test_transpose_interp;
          Alcotest.test_case "stencil" `Quick test_stencil_interp;
          Alcotest.test_case "histogram" `Quick test_histogram_interp;
          Alcotest.test_case "gemm" `Quick test_gemm_interp;
          Alcotest.test_case "convolution" `Quick test_convolution_interp;
        ] );
      ( "rtl equivalence",
        [
          Alcotest.test_case "transpose" `Quick test_transpose_rtl;
          Alcotest.test_case "stencil" `Quick test_stencil_rtl;
          Alcotest.test_case "histogram" `Quick test_histogram_rtl;
          Alcotest.test_case "gemm" `Slow test_gemm_rtl;
          Alcotest.test_case "convolution" `Quick test_convolution_rtl;
        ] );
      ( "sdc",
        [
          Alcotest.test_case "RecMII cross-validation" `Quick test_sdc_recmii_matches;
          Alcotest.test_case "dependence pragma" `Quick test_sdc_dependence_pragma_matters;
          Alcotest.test_case "scheduler respects RecMII" `Quick test_sdc_feasibility_monotone;
        ] );
      ( "ast",
        [ Alcotest.test_case "unroll + fold" `Quick test_unroll_and_fold ] );
    ]
