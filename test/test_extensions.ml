(* Tests for the extension features: the retiming transform (§7.4), the
   paper-style pretty printer, and the interpreter's enforcement of the
   §4.5 undefined-behaviour rules. *)

open Hir_ir
open Hir_dialect

let () = Ops.register ()

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec go i = i + n <= m && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let verify_clean m =
  let e = Diagnostic.Engine.create () in
  (match Verify.verify m with
  | Ok () -> ()
  | Error err -> List.iter (Diagnostic.Engine.emit e) (Diagnostic.Engine.to_list err));
  Verify_schedule.verify_module e m;
  if Diagnostic.Engine.has_errors e then
    Alcotest.failf "must verify:\n%s" (Diagnostic.Engine.to_string e)

(* ------------------------------------------------------------------ *)
(* Retiming                                                            *)

(* A design with two 32-bit shift registers feeding an adder: retiming
   must sink them into one register after the adder. *)
let build_retimable () =
  let m = Builder.create_module () in
  let f =
    Builder.func m ~name:"retimable"
      ~args:[ Builder.arg "x" Typ.i32; Builder.arg "y" Typ.i32 ]
      ~results:[ (Typ.i32, 2) ]
      (fun b args t ->
        match args with
        | [ x; y ] ->
          let dx = Builder.delay b x ~by:2 ~at:Builder.(t @>> 0) in
          let dy = Builder.delay b y ~by:2 ~at:Builder.(t @>> 0) in
          let s = Builder.add b dx dy in
          Builder.return_ b [ s ]
        | _ -> assert false)
  in
  (m, f)

let count_ops root name = List.length (Ir.Walk.find_all root name)

let total_delay_bits root =
  List.fold_left
    (fun acc d ->
      match Typ.bit_width (Ir.Value.typ (Ir.Op.result d 0)) with
      | Some w -> acc + (w * Ops.delay_by d)
      | None -> acc)
    0
    (Ir.Walk.find_all root "hir.delay")

let test_retime_sinks_registers () =
  let m, _f = build_retimable () in
  check_int "two delays before" 2 (count_ops m "hir.delay");
  check_int "128 register bits before" 128 (total_delay_bits m);
  check_bool "changed" true (Retime.run m);
  check_int "one delay after" 1 (count_ops m "hir.delay");
  check_int "64 register bits after" 64 (total_delay_bits m);
  verify_clean m

let test_retime_preserves_semantics () =
  let run_design m f a b =
    let result, _ =
      Interp.run ~module_op:m ~func:f
        [ Interp.Scalar (Bitvec.of_int ~width:32 a); Interp.Scalar (Bitvec.of_int ~width:32 b) ]
    in
    Bitvec.to_int (List.hd result.Interp.return_values)
  in
  let m, f = build_retimable () in
  let before = run_design m f 1000 234 in
  ignore (Retime.run m);
  let after = run_design m f 1000 234 in
  check_int "same value" before after;
  check_int "it is the sum" 1234 after

let test_retime_respects_mixed_keys () =
  (* Delays with different depths must not be merged. *)
  let m = Builder.create_module () in
  let _ =
    Builder.func m ~name:"mixed"
      ~args:[ Builder.arg "x" Typ.i32 ]
      ~results:[ (Typ.i32, 0) ]
      (fun b args t ->
        match args with
        | [ x ] ->
          let d1 = Builder.delay b x ~by:1 ~at:Builder.(t @>> 0) in
          let d2 = Builder.delay b x ~by:2 ~at:Builder.(t @>> 0) in
          let s = Builder.add b d1 d2 in
          Builder.return_ b [ s ]
        | _ -> assert false)
  in
  check_bool "no change" false (Retime.run m);
  check_int "both delays kept" 2 (count_ops m "hir.delay")

let test_retime_rtl_equivalence () =
  (* The retimed design still produces the right value in generated
     Verilog. *)
  let m, f = build_retimable () in
  ignore (Retime.run m);
  verify_clean m;
  let emitted = Hir_codegen.Emit.compile ~module_op:m ~top:f () in
  let result, _ =
    Hir_rtl.Harness.run ~emitted
      ~inputs:
        [
          Hir_rtl.Harness.Scalar (Bitvec.of_int ~width:32 41);
          Hir_rtl.Harness.Scalar (Bitvec.of_int ~width:32 1);
        ]
      ~cycles:4 ()
  in
  (match result.Hir_rtl.Harness.output_values with
  | [ (_, v) ] -> check_int "41+1" 42 (Bitvec.to_int v)
  | _ -> Alcotest.fail "one output expected")

(* ------------------------------------------------------------------ *)
(* Pretty printer                                                      *)

let test_pretty_transpose () =
  let m, _ = Hir_kernels.Transpose.build () in
  let text = Pretty.module_to_string m in
  List.iter
    (fun needle -> check_bool needle true (contains text needle))
    [
      "hir.func @transpose at %t (%Ai : !hir.memref<16*16*i32, r>";
      "hir.for %i : i32 = %c0 to %c16 step %c1 iter_time(%ti = %t offset 1) {";
      "hir.mem_read %Ai[%i, %j] at %tj : i32";
      "hir.delay %j by 1 at %tj : i32";
      "hir.mem_write";
      "hir.yield at %tj offset 1";
      "hir.yield at %tf_j offset 1";
      "hir.return";
    ]

let test_pretty_stencil_call () =
  let m, _ = Hir_kernels.Stencil1d.build () in
  let text = Pretty.module_to_string m in
  check_bool "call with delay annotation" true
    (contains text "hir.call @stencil_1d_op(");
  check_bool "result delay printed" true (contains text "delay 1)");
  check_bool "alloc printed" true (contains text "hir.alloc()")

let test_pretty_unroll () =
  let m, _ = Hir_kernels.Gemm.build () in
  let text = Pretty.module_to_string m in
  check_bool "unroll_for syntax" true
    (contains text "hir.unroll_for");
  check_bool "iter_time" true (contains text "iter_time(")

(* ------------------------------------------------------------------ *)
(* Interpreter UB enforcement (§4.5)                                   *)

let test_uninitialized_read_is_ub () =
  let m = Builder.create_module () in
  let f =
    Builder.func m ~name:"ub_read"
      ~args:[ Builder.arg "O" (Types.memref ~dims:[ 4 ] ~elem:Typ.i32 ~port:Types.Write ()) ]
      (fun b args t ->
        match args with
        | [ o ] ->
          let c0 = Builder.constant b 0 in
          let ports =
            Builder.alloc b ~kind:Ops.Lut_ram ~dims:[ 4 ] ~elem:Typ.i32
              ~ports:[ Types.Read ]
          in
          let r = List.hd ports in
          let v = Builder.mem_read b r [ c0 ] ~at:Builder.(t @>> 0) in
          Builder.mem_write b v o [ c0 ] ~at:Builder.(t @>> 1);
          Builder.return_ b []
        | _ -> assert false)
  in
  match Interp.run ~module_op:m ~func:f [ Interp.Out_tensor ] with
  | exception Interp.Runtime_error msg ->
    check_bool "mentions uninitialized" true (contains msg "uninitialized")
  | _ -> Alcotest.fail "expected a runtime error"

let test_out_of_bounds_is_ub () =
  let m = Builder.create_module () in
  let f =
    Builder.func m ~name:"ub_oob"
      ~args:
        [
          Builder.arg "A" (Types.memref ~dims:[ 4 ] ~elem:Typ.i32 ~port:Types.Read ());
          Builder.arg "O" (Types.memref ~dims:[ 4 ] ~elem:Typ.i32 ~port:Types.Write ());
        ]
      (fun b args t ->
        match args with
        | [ a; o ] ->
          let c9 = Builder.constant b 9 in
          let c0 = Builder.constant b 0 in
          let v = Builder.mem_read b a [ c9 ] ~at:Builder.(t @>> 0) in
          Builder.mem_write b v o [ c0 ] ~at:Builder.(t @>> 1);
          Builder.return_ b []
        | _ -> assert false)
  in
  let input = Array.make 4 (Bitvec.zero 32) in
  match Interp.run ~module_op:m ~func:f [ Interp.Tensor input; Interp.Out_tensor ] with
  | exception Interp.Runtime_error msg ->
    check_bool "mentions bounds" true (contains msg "bounds")
  | _ -> Alcotest.fail "expected a runtime error"

let test_descending_loop_is_ub () =
  let m = Builder.create_module () in
  let f =
    Builder.func m ~name:"ub_loop" ~args:[]
      (fun b _ t ->
        let c5 = Builder.constant b 5 in
        let c2 = Builder.constant b 2 in
        let c1 = Builder.constant b 1 in
        let _ =
          Builder.for_loop b ~lb:c5 ~ub:c2 ~step:c1 ~at:Builder.(t @>> 1)
            (fun b ~iv:_ ~ti -> Builder.yield b ~at:Builder.(ti @>> 1))
        in
        Builder.return_ b [])
  in
  match Interp.run ~module_op:m ~func:f [] with
  | exception Interp.Runtime_error msg -> check_bool "UB reported" true (contains msg "UB")
  | _ -> Alcotest.fail "expected a runtime error"

(* ------------------------------------------------------------------ *)
(* Extern modules and schedule signatures (§5.4)                       *)

let test_extern_through_interpreter () =
  (* The MAC of Figure 2 with balanced delays, executed through the
     interpreter using the registered behavioural model of the
     pipelined multiplier. *)
  let m = Builder.create_module () in
  let mult =
    Builder.extern_func m ~name:"mult"
      ~args:[ Builder.arg "a" Typ.i32; Builder.arg "b" Typ.i32 ]
      ~results:[ (Typ.i32, 2) ]
  in
  let f =
    Builder.func m ~name:"mac"
      ~args:[ Builder.arg "a" Typ.i32; Builder.arg "b" Typ.i32; Builder.arg "c" Typ.i32 ]
      ~results:[ (Typ.i32, 2) ]
      (fun b args t ->
        match args with
        | [ a; bb; c ] ->
          let p = List.hd (Builder.call b ~callee:mult [ a; bb ] ~at:Builder.(t @>> 0)) in
          let c2 = Builder.delay b c ~by:2 ~at:Builder.(t @>> 0) in
          Builder.return_ b [ Builder.add b p c2 ]
        | _ -> assert false)
  in
  verify_clean m;
  let bv n = Bitvec.of_int ~width:32 n in
  let result, _ =
    Interp.run ~module_op:m ~func:f
      [ Interp.Scalar (bv 7); Interp.Scalar (bv 6); Interp.Scalar (bv 100) ]
  in
  check_int "7*6+100" 142 (Bitvec.to_int (List.hd result.Interp.return_values));
  check_int "latency = multiplier depth" 2 result.Interp.cycles

(* A callee whose argument arrives late (arg_delay > 0): the caller
   must supply it at exactly that offset, which the verifier enforces
   and both executions honour. *)
let test_arg_delays () =
  let m = Builder.create_module () in
  let callee =
    Builder.func m ~name:"late_arg"
      ~args:[ Builder.arg "x" Typ.i32; Builder.arg ~delay:2 "y" Typ.i32 ]
      ~results:[ (Typ.i32, 2) ]
      (fun b args t ->
        match args with
        | [ x; y ] ->
          (* x arrives at t, y at t+2: align x. *)
          let x2 = Builder.delay b x ~by:2 ~at:Builder.(t @>> 0) in
          Builder.return_ b [ Builder.add b x2 y ]
        | _ -> assert false)
  in
  let f =
    Builder.func m ~name:"caller"
      ~args:[ Builder.arg "a" Typ.i32; Builder.arg "b" Typ.i32 ]
      ~results:[ (Typ.i32, 2) ]
      (fun b args t ->
        match args with
        | [ a; bb ] ->
          (* The y argument must be valid at t+2; produce it there. *)
          let b2 = Builder.delay b bb ~by:2 ~at:Builder.(t @>> 0) in
          let r = List.hd (Builder.call b ~callee [ a; b2 ] ~at:Builder.(t @>> 0)) in
          Builder.return_ b [ r ]
        | _ -> assert false)
  in
  verify_clean m;
  let bv n = Bitvec.of_int ~width:32 n in
  let result, _ =
    Interp.run ~module_op:m ~func:f [ Interp.Scalar (bv 30); Interp.Scalar (bv 12) ]
  in
  check_int "30+12" 42 (Bitvec.to_int (List.hd result.Interp.return_values));
  (* And through the generated Verilog. *)
  let emitted = Hir_codegen.Emit.compile ~module_op:m ~top:f () in
  let rtl, _ =
    Hir_rtl.Harness.run ~emitted
      ~inputs:[ Hir_rtl.Harness.Scalar (bv 30); Hir_rtl.Harness.Scalar (bv 12) ]
      ~cycles:6 ()
  in
  (match rtl.Hir_rtl.Harness.output_values with
  | [ (_, v) ] -> check_int "RTL agrees" 42 (Bitvec.to_int v)
  | _ -> Alcotest.fail "one output expected")

let () =
  Alcotest.run "extensions"
    [
      ( "retiming",
        [
          Alcotest.test_case "sinks registers" `Quick test_retime_sinks_registers;
          Alcotest.test_case "preserves semantics" `Quick test_retime_preserves_semantics;
          Alcotest.test_case "mixed keys untouched" `Quick test_retime_respects_mixed_keys;
          Alcotest.test_case "RTL equivalence" `Quick test_retime_rtl_equivalence;
        ] );
      ( "pretty printer",
        [
          Alcotest.test_case "transpose (Listing 1)" `Quick test_pretty_transpose;
          Alcotest.test_case "stencil call" `Quick test_pretty_stencil_call;
          Alcotest.test_case "gemm unroll" `Quick test_pretty_unroll;
        ] );
      ( "extern & signatures (§5.4)",
        [
          Alcotest.test_case "extern through interpreter" `Quick
            test_extern_through_interpreter;
          Alcotest.test_case "argument delays" `Quick test_arg_delays;
        ] );
      ( "interpreter UB (§4.5)",
        [
          Alcotest.test_case "uninitialized read" `Quick test_uninitialized_read_is_ub;
          Alcotest.test_case "out of bounds" `Quick test_out_of_bounds_is_ub;
          Alcotest.test_case "descending loop" `Quick test_descending_loop_is_ub;
        ] );
    ]
