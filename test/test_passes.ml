(* Tests for the optimization passes of Sections 6.2-6.4 and the
   unroll expansion of Section 7.3, including end-to-end semantics
   preservation on every evaluation kernel. *)

open Hir_ir
open Hir_dialect

let () = Ops.register ()

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let count_ops root name = List.length (Ir.Walk.find_all root name)

let engine () = Diagnostic.Engine.create ()

let verify_clean m =
  let e = engine () in
  (match Verify.verify m with
  | Ok () -> ()
  | Error err -> List.iter (Diagnostic.Engine.emit e) (Diagnostic.Engine.to_list err));
  Verify_schedule.verify_module e m;
  if Diagnostic.Engine.has_errors e then
    Alcotest.failf "IR must verify after pass:\n%s" (Diagnostic.Engine.to_string e)

(* ------------------------------------------------------------------ *)
(* DCE                                                                 *)

let test_dce () =
  let m = Builder.create_module () in
  let _ =
    Builder.func m ~name:"f" ~args:[ Builder.arg "x" Typ.i32 ]
      ~results:[ (Typ.i32, 0) ]
      (fun b args _t ->
        match args with
        | [ x ] ->
          let dead1 = Builder.add b x x in
          let _dead2 = Builder.mult b dead1 x in
          let live = Builder.add b x x in
          Builder.return_ b [ live ]
        | _ -> assert false)
  in
  check_int "before" 3 (count_ops m "hir.add" + count_ops m "hir.mult");
  let changed = Passes.run_dce m in
  check_bool "changed" true changed;
  (* dead2 goes first, then dead1 becomes dead; live add remains. *)
  check_int "after" 1 (count_ops m "hir.add" + count_ops m "hir.mult");
  verify_clean m;
  check_bool "idempotent" false (Passes.run_dce m)

(* ------------------------------------------------------------------ *)
(* Constant folding                                                    *)

let test_const_fold () =
  let m = Builder.create_module () in
  let _ =
    Builder.func m ~name:"f"
      ~args:[ Builder.arg "O" (Types.memref ~dims:[ 64 ] ~elem:Typ.i32 ~port:Types.Write ()) ]
      (fun b args t ->
        match args with
        | [ o ] ->
          let c3 = Builder.constant b 3 in
          let c4 = Builder.constant b 4 in
          let sum = Builder.add b c3 c4 in      (* 7 *)
          let prod = Builder.mult b sum c4 in   (* 28 *)
          Builder.mem_write b prod o [ sum ] ~at:Builder.(t @>> 0);
          Builder.return_ b []
        | _ -> assert false)
  in
  let changed = Passes.run_const_fold m in
  check_bool "changed" true changed;
  check_int "no arith left" 0 (count_ops m "hir.add" + count_ops m "hir.mult");
  (* The write's operands are now constants 28 and 7. *)
  let write = List.hd (Ir.Walk.find_all m "hir.mem_write") in
  check_int "value folded" 28
    (Option.get (Ops.as_constant (Ops.mem_write_value write)));
  check_int "address folded" 7
    (Option.get (Ops.as_constant (List.hd (Ops.mem_write_indices write))));
  verify_clean m

(* ------------------------------------------------------------------ *)
(* CSE                                                                 *)

let test_cse () =
  let m = Builder.create_module () in
  let _ =
    Builder.func m ~name:"f" ~args:[ Builder.arg "x" Typ.i32 ]
      ~results:[ (Typ.i32, 0) ]
      (fun b args _t ->
        match args with
        | [ x ] ->
          let a = Builder.add b x x in
          let bb = Builder.add b x x in  (* duplicate *)
          let s = Builder.mult b a bb in
          Builder.return_ b [ s ]
        | _ -> assert false)
  in
  check_int "before" 2 (count_ops m "hir.add");
  check_bool "changed" true (Passes.run_cse m);
  check_int "after" 1 (count_ops m "hir.add");
  let mult = List.hd (Ir.Walk.find_all m "hir.mult") in
  check_bool "operands unified" true
    (Ir.Value.equal (Ir.Op.operand mult 0) (Ir.Op.operand mult 1));
  verify_clean m

let test_cse_respects_scope () =
  (* Identical ops in two sibling loop bodies must NOT be merged: the
     surviving one would not dominate the other's uses. *)
  let m = Builder.create_module () in
  let _ =
    Builder.func m ~name:"f"
      ~args:[ Builder.arg "O" (Types.memref ~dims:[ 8 ] ~elem:Typ.i32 ~port:Types.Write ()) ]
      (fun b args t ->
        match args with
        | [ o ] ->
          let c0 = Builder.constant b 0 in
          let c1 = Builder.constant b 1 in
          let c8 = Builder.constant b 8 in
          let body b ~iv ~ti =
            let two_i = Builder.add b iv iv in
            let d = Builder.delay b two_i ~by:1 ~at:Builder.(ti @>> 0) in
            let iv1 = Builder.delay b iv ~by:1 ~at:Builder.(ti @>> 0) in
            Builder.mem_write b d o [ iv1 ] ~at:Builder.(ti @>> 1);
            Builder.yield b ~at:Builder.(ti @>> 1)
          in
          let tf1 = Builder.for_loop b ~lb:c0 ~ub:c8 ~step:c1 ~at:Builder.(t @>> 1) body in
          let _ = Builder.for_loop b ~lb:c0 ~ub:c8 ~step:c1 ~at:Builder.(tf1 @>> 1) body in
          Builder.return_ b []
        | _ -> assert false)
  in
  ignore (Passes.run_cse m);
  (* The adds use different induction variables so they can't merge
     anyway; the point is that CSE must not crash or corrupt scoping,
     and the result still verifies. *)
  check_int "adds preserved" 2 (count_ops m "hir.add");
  verify_clean m

(* ------------------------------------------------------------------ *)
(* Strength reduction                                                  *)

let test_strength_reduction () =
  let m = Builder.create_module () in
  let _ =
    Builder.func m ~name:"f" ~args:[ Builder.arg "x" Typ.i32 ]
      ~results:[ (Typ.i32, 0); (Typ.i32, 0); (Typ.i32, 0) ]
      (fun b args _t ->
        match args with
        | [ x ] ->
          let c8 = Builder.constant b 8 in
          let c1 = Builder.constant b 1 in
          let c0 = Builder.constant b 0 in
          let m8 = Builder.mult b x c8 in  (* -> shl 3 *)
          let m1 = Builder.mult b x c1 in  (* -> x *)
          let a0 = Builder.add b x c0 in   (* -> x *)
          Builder.return_ b [ m8; m1; a0 ]
        | _ -> assert false)
  in
  check_bool "changed" true (Passes.run_strength_reduction m);
  check_int "mults gone" 0 (count_ops m "hir.mult");
  check_int "one shift" 1 (count_ops m "hir.shl");
  let shl = List.hd (Ir.Walk.find_all m "hir.shl") in
  check_int "shift amount" 3 (Option.get (Ops.as_constant (Ir.Op.operand shl 1)));
  verify_clean m

let test_shift_fold_guard () =
  (* The folder must refuse shift counts OCaml's lsl/lsr/asr leave
     undefined (negative or >= Sys.int_size); hardware semantics for
     those belong to the RTL, not to an int-level fold. *)
  check_bool "shl in range folds" true (Ops.fold_binary "hir.shl" 1 3 = Some 8);
  check_bool "shl count 70" true (Ops.fold_binary "hir.shl" 1 70 = None);
  check_bool "shl count int_size" true
    (Ops.fold_binary "hir.shl" 1 Sys.int_size = None);
  check_bool "shl negative count" true (Ops.fold_binary "hir.shl" 1 (-1) = None);
  check_bool "shrl out of range" true (Ops.fold_binary "hir.shrl" 4 (-2) = None);
  check_bool "shra out of range" true (Ops.fold_binary "hir.shra" 4 100 = None);
  check_bool "shrl in range folds" true (Ops.fold_binary "hir.shrl" 8 2 = Some 2);
  (* In IR: canonicalize must leave the unfoldable shift alone rather
     than crash or materialize an undefined value. *)
  let m = Builder.create_module () in
  let _ =
    Builder.func m ~name:"f" ~args:[ Builder.arg "x" Typ.i32 ]
      ~results:[ (Typ.i32, 0) ]
      (fun b args _t ->
        match args with
        | [ x ] ->
          let c1 = Builder.constant b 1 in
          let c70 = Builder.constant b 70 in
          let s = Builder.shl b c1 c70 in
          let a = Builder.add b x s in
          Builder.return_ b [ a ]
        | _ -> assert false)
  in
  ignore (Passes.run_canonicalize m);
  check_int "unfoldable shl survives" 1 (count_ops m "hir.shl");
  verify_clean m

(* ------------------------------------------------------------------ *)
(* Delay elimination                                                   *)

let test_delay_elim () =
  let m = Builder.create_module () in
  let _ =
    Builder.func m ~name:"f" ~args:[ Builder.arg "x" Typ.i32 ]
      ~results:[ (Typ.i32, 1); (Typ.i32, 1); (Typ.i32, 3) ]
      (fun b args t ->
        match args with
        | [ x ] ->
          let d1 = Builder.delay b x ~by:1 ~at:Builder.(t @>> 0) in
          let d1' = Builder.delay b x ~by:1 ~at:Builder.(t @>> 0) in  (* dup *)
          let d3 = Builder.delay b x ~by:3 ~at:Builder.(t @>> 0) in  (* chains *)
          Builder.return_ b [ d1; d1'; d3 ]
        | _ -> assert false)
  in
  check_int "before" 3 (count_ops m "hir.delay");
  check_bool "changed" true (Passes.run_delay_elim m);
  check_int "after (dup removed)" 2 (count_ops m "hir.delay");
  (* Total shift-register depth drops from 1+1+3=5 to 1+2=3. *)
  let total_depth =
    List.fold_left
      (fun acc op -> acc + Ops.delay_by op)
      0
      (Ir.Walk.find_all m "hir.delay")
  in
  check_int "total depth" 3 total_depth;
  verify_clean m

(* ------------------------------------------------------------------ *)
(* Precision optimization (Table 4)                                    *)

let test_precision_transpose_semantics () =
  let m, f = Hir_kernels.Transpose.build () in
  check_bool "changed" true (Precision_opt.run m);
  verify_clean m;
  (* The 16-iteration loop induction variables fit in 4 bits, and the
     delayed address register shrinks with its input. *)
  let fors = Ir.Walk.find_all f "hir.for" in
  List.iter
    (fun loop ->
      match Ir.Value.typ (Ops.loop_induction_var loop) with
      | Typ.Int w -> check_int "narrowed iv" 4 w
      | _ -> Alcotest.fail "iv must stay integer")
    fors;
  List.iter
    (fun d ->
      match Ir.Value.typ (Ir.Op.result d 0) with
      | Typ.Int w -> check_bool "narrow delay" true (w <= 4)
      | _ -> ())
    (Ir.Walk.find_all f "hir.delay");
  let input = Hir_kernels.Transpose.make_input ~seed:11 in
  let _, tensors =
    Interp.run ~module_op:m ~func:f [ Interp.Tensor input; Interp.Out_tensor ]
  in
  let out = Interp.tensor_snapshot (tensors 1) ~cycle:max_int in
  let expected = Hir_kernels.Transpose.reference input in
  Array.iteri
    (fun i v ->
      match v with
      | Some got when Bitvec.equal got expected.(i) -> ()
      | _ -> Alcotest.failf "mismatch at %d after precision opt" i)
    out

let test_precision_range_analysis () =
  let m, f = Hir_kernels.Histogram.build () in
  ignore m;
  let _ = Precision_opt.run m in
  verify_clean m;
  (* 256-bound loops narrow to 8 bits… the iv ranges are [0,255]. *)
  let fors = Ir.Walk.find_all f "hir.for" in
  check_int "three loops" 3 (List.length fors);
  List.iter
    (fun loop ->
      match Ir.Value.typ (Ops.loop_induction_var loop) with
      | Typ.Int w -> check_int "narrowed to 8" 8 w
      | _ -> Alcotest.fail "iv must stay integer")
    fors

(* ------------------------------------------------------------------ *)
(* Unrolling                                                           *)

let test_unroll_simple () =
  let m = Builder.create_module () in
  let _ =
    Builder.func m ~name:"f"
      ~args:
        [ Builder.arg "O"
            (Types.memref ~packing:(Some []) ~dims:[ 4 ] ~elem:Typ.i32
               ~port:Types.Write ()) ]
      (fun b args t ->
        match args with
        | [ o ] ->
          let _tf =
            Builder.unroll_for b ~lb:0 ~ub:4 ~step:1 ~at:Builder.(t @>> 0)
              (fun b ~iv ~ti ->
                Builder.yield b ~at:Builder.(ti @>> 0);
                let v = Builder.add b iv iv in
                Builder.mem_write b v o [ iv ] ~at:Builder.(ti @>> 0))
          in
          Builder.return_ b []
        | _ -> assert false)
  in
  check_bool "changed" true (Unroll.run m);
  check_int "no unroll_for left" 0 (count_ops m "hir.unroll_for");
  check_int "4 writes" 4 (count_ops m "hir.mem_write");
  verify_clean m

let test_unroll_gemm_semantics () =
  let m, f = Hir_kernels.Gemm.build () in
  ignore (Unroll.run m);
  check_int "fully expanded" 0 (count_ops m "hir.unroll_for");
  (* 256 PE reduction loops + 1 load loop. *)
  check_int "for loops" 257 (count_ops f "hir.for");
  verify_clean m;
  let a, bm = Hir_kernels.Gemm.make_inputs ~seed:21 in
  let _, tensors =
    Interp.run ~module_op:m ~func:f
      [ Interp.Tensor a; Interp.Tensor bm; Interp.Out_tensor ]
  in
  let out = Interp.tensor_snapshot (tensors 2) ~cycle:max_int in
  let expected = Hir_kernels.Gemm.reference a bm in
  Array.iteri
    (fun i v ->
      match v with
      | Some got when Bitvec.equal got expected.(i) -> ()
      | _ -> Alcotest.failf "gemm mismatch at %d after unroll" i)
    out

(* ------------------------------------------------------------------ *)
(* Full pipeline preserves every kernel                                *)

let pipeline_case kernel () =
  let m, _f = kernel.Hir_kernels.Kernels.build () in
  ignore (Unroll.run m);
  ignore (Passes.run_canonicalize m);
  ignore (Precision_opt.run m);
  ignore (Passes.run_delay_elim m);
  verify_clean m

(* ------------------------------------------------------------------ *)
(* Use-list invariant: Verify.verify includes a use-chain consistency
   check (every operand slot appears exactly once in its value's use
   list, and no chain node points outside the tree), so running the
   verifier after each IR-producing stage proves the chains survive
   building, printing/parsing, cloning, and every pass. *)

let use_list_case kernel () =
  let m, _f = kernel.Hir_kernels.Kernels.build () in
  verify_clean m;
  (* A deep clone links its own slots as it is built. *)
  let clone = Ir.Clone.clone_op m in
  verify_clean clone;
  ignore (Unroll.run m);
  verify_clean m;
  ignore (Passes.run_canonicalize m);
  verify_clean m;
  ignore (Precision_opt.run m);
  verify_clean m;
  ignore (Passes.run_delay_elim m);
  verify_clean m;
  ignore (Retime.run m);
  verify_clean m

let test_use_lists_after_parse () =
  (* Round-trip a kernel through the textual format: the parser builds
     ops via Op.create, so the reparsed module's chains must verify. *)
  let m, _f = Hir_kernels.Transpose.build () in
  let text = Printer.op_to_string m in
  let reparsed = Parser.parse_string ~file:"reparse.hir" text in
  verify_clean reparsed

(* ------------------------------------------------------------------ *)
(* Driver convergence: on every built-in kernel (after full unrolling,
   the largest IR we produce) the greedy driver must reach a fixpoint
   by draining its worklist, never by hitting the round backstop. *)

let convergence_case kernel () =
  let m, _f = kernel.Hir_kernels.Kernels.build () in
  ignore (Unroll.run m);
  let stats = Passes.run_canonicalize_stats m in
  check_bool "no backstop" false stats.Rewrite.ds_backstop;
  verify_clean m;
  (* A second run must be a no-op: the first reached a true fixpoint. *)
  let again = Passes.run_canonicalize_stats m in
  check_bool "fixpoint" false again.Rewrite.ds_changed

let () =
  Alcotest.run "passes"
    [
      ( "scalar",
        [
          Alcotest.test_case "dce" `Quick test_dce;
          Alcotest.test_case "const fold" `Quick test_const_fold;
          Alcotest.test_case "cse" `Quick test_cse;
          Alcotest.test_case "cse scoping" `Quick test_cse_respects_scope;
          Alcotest.test_case "strength reduction" `Quick test_strength_reduction;
          Alcotest.test_case "shift fold guard" `Quick test_shift_fold_guard;
          Alcotest.test_case "delay elimination" `Quick test_delay_elim;
        ] );
      ( "precision (Table 4)",
        [
          Alcotest.test_case "transpose semantics" `Quick
            test_precision_transpose_semantics;
          Alcotest.test_case "histogram ranges" `Quick test_precision_range_analysis;
        ] );
      ( "unroll",
        [
          Alcotest.test_case "simple" `Quick test_unroll_simple;
          Alcotest.test_case "gemm semantics" `Quick test_unroll_gemm_semantics;
        ] );
      ( "pipeline verifies on all kernels",
        List.map
          (fun k ->
            Alcotest.test_case k.Hir_kernels.Kernels.name `Quick (pipeline_case k))
          Hir_kernels.Kernels.all );
      ( "use-list invariant",
        Alcotest.test_case "parse round-trip" `Quick test_use_lists_after_parse
        :: List.map
             (fun k ->
               Alcotest.test_case k.Hir_kernels.Kernels.name `Quick (use_list_case k))
             Hir_kernels.Kernels.all );
      ( "driver converges without backstop",
        List.map
          (fun k ->
            Alcotest.test_case k.Hir_kernels.Kernels.name `Quick (convergence_case k))
          Hir_kernels.Kernels.all );
    ]
