(* Tests for the HIR dialect: the paper's example designs (Listings
   1-4), the schedule verifier diagnostics of Figures 1 and 2, memref
   port-conflict detection, and the Figure 3 banking layout. *)

open Hir_ir
open Hir_dialect

let () = Ops.register ()

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let contains haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec go i = i + n <= m && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let loc_at line col = Location.file ~file:"test.mlir" ~line ~col

(* ------------------------------------------------------------------ *)
(* Paper designs                                                       *)

(* Listing 1: matrix transpose with a pipelined inner loop. *)
let build_transpose () =
  let m = Builder.create_module () in
  let func =
    Builder.func m ~name:"transpose"
      ~args:
        [
          Builder.arg "Ai" (Types.memref ~dims:[ 16; 16 ] ~elem:Typ.i32 ~port:Types.Read ());
          Builder.arg "Co" (Types.memref ~dims:[ 16; 16 ] ~elem:Typ.i32 ~port:Types.Write ());
        ]
      (fun b args t ->
        match args with
        | [ ai; co ] ->
          let c0 = Builder.constant b 0 in
          let c1 = Builder.constant b 1 in
          let c16 = Builder.constant b 16 in
          let _tf =
            Builder.for_loop b ~iv_hint:"i" ~lb:c0 ~ub:c16 ~step:c1
              ~at:Builder.(t @>> 1)
              (fun b ~iv:i ~ti ->
                let tf_j =
                  Builder.for_loop b ~iv_hint:"j" ~lb:c0 ~ub:c16 ~step:c1
                    ~at:Builder.(ti @>> 1)
                    (fun b ~iv:j ~ti:tj ->
                      let v = Builder.mem_read b ai [ i; j ] ~at:Builder.(tj @>> 0) in
                      let j1 = Builder.delay b j ~by:1 ~at:Builder.(tj @>> 0) in
                      Builder.mem_write b v co [ j1; i ] ~at:Builder.(tj @>> 1);
                      Builder.yield b ~at:Builder.(tj @>> 1))
                in
                Builder.yield b ~at:Builder.(tf_j @>> 1))
          in
          Builder.return_ b []
        | _ -> assert false)
  in
  (m, func)

let verify_all m =
  let engine = Diagnostic.Engine.create () in
  (match Verify.verify m with
  | Ok () -> ()
  | Error e ->
    List.iter (Diagnostic.Engine.emit engine) (Diagnostic.Engine.to_list e));
  Verify_schedule.verify_module engine m;
  engine

let test_transpose_verifies () =
  let m, func = build_transpose () in
  let engine = verify_all m in
  if Diagnostic.Engine.has_errors engine then
    Alcotest.failf "transpose should verify:\n%s" (Diagnostic.Engine.to_string engine);
  (* The inner loop is pipelined with II = 1. *)
  let analysis = Time_analysis.analyze func in
  let fors = Ir.Walk.find_all func "hir.for" in
  check_int "two loops" 2 (List.length fors);
  let inner = List.nth fors 1 in
  check_int "inner II" 1 (Option.get (Time_analysis.loop_ii analysis inner));
  let outer = List.nth fors 0 in
  check_bool "outer II not static" true (Time_analysis.loop_ii analysis outer = None)

(* Figure 1a: array-add with a mis-scheduled address. *)
let build_err_add () =
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
          let _tf =
            Builder.for_loop b ~iv_width:8 ~iv_hint:"i" ~lb:c0 ~ub:c128 ~step:c1
              ~at:Builder.(t @>> 1) ~loc:(loc_at 8 3)
              (fun b ~iv:i ~ti ->
                Builder.yield b ~at:Builder.(ti @>> 1);
                let va = Builder.mem_read b a [ i ] ~at:Builder.(ti @>> 0) in
                let vb = Builder.mem_read b bb [ i ] ~at:Builder.(ti @>> 0) in
                let vc = Builder.add b va vb in
                (* BUG (intentional): %i is consumed one cycle late. *)
                Builder.mem_write b vc c [ i ] ~at:Builder.(ti @>> 1) ~loc:(loc_at 13 5))
          in
          Builder.return_ b []
        | _ -> assert false)
  in
  m

let test_figure1_diagnostic () =
  let m = build_err_add () in
  let engine = verify_all m in
  check_bool "has errors" true (Diagnostic.Engine.has_errors engine);
  let text = Diagnostic.Engine.to_string engine in
  check_bool "message matches paper" true
    (contains text "Schedule error: mismatched delay (0 vs 1) in address 0!");
  check_bool "note present" true (contains text "note: Prior definition here.");
  check_bool "error location" true (contains text "test.mlir:13:5: error");
  check_bool "note location points at the loop" true (contains text "test.mlir:8:3: note")

(* Figure 2a: multiply-accumulate with a pipeline imbalance.  The
   multiplier is an external module with a 3-cycle latency while the
   design delays the accumulator input by only 2. *)
let build_mac ~mult_latency ~delay_by =
  let m = Builder.create_module () in
  let mult =
    Builder.extern_func m ~name:"mult"
      ~args:[ Builder.arg "a" Typ.i32; Builder.arg "b" Typ.i32 ]
      ~results:[ (Typ.i32, mult_latency) ]
  in
  let _ =
    Builder.func m ~name:"mac"
      ~args:
        [
          Builder.arg "a" Typ.i32;
          Builder.arg "b" Typ.i32;
          Builder.arg "c" Typ.i32;
        ]
      ~results:[ (Typ.i32, mult_latency) ]
      (fun b args t ->
        match args with
        | [ a; bb; c ] ->
          let ms = Builder.call b ~callee:mult [ a; bb ] ~at:Builder.(t @>> 0) in
          let m_res = List.hd ms in
          let c2 =
            Builder.delay b c ~by:delay_by ~at:Builder.(t @>> 0) ~loc:(loc_at 8 8)
          in
          let res = Builder.add b m_res c2 ~loc:(loc_at 9 10) in
          Builder.return_ b [ res ]
        | _ -> assert false)
  in
  m

let test_figure2_diagnostic () =
  let m = build_mac ~mult_latency:3 ~delay_by:2 in
  let engine = verify_all m in
  check_bool "has errors" true (Diagnostic.Engine.has_errors engine);
  let text = Diagnostic.Engine.to_string engine in
  check_bool "message matches paper" true
    (contains text "Schedule error: mismatched delay (2 vs 3) in right operand!");
  check_bool "error at the add" true (contains text "test.mlir:9:10: error");
  check_bool "note at the delay" true (contains text "test.mlir:8:8: note")

let test_mac_balanced_ok () =
  (* With matching delays the same design verifies (the paper's "two
     stage multiplier" original). *)
  let m = build_mac ~mult_latency:2 ~delay_by:2 in
  let engine = verify_all m in
  if Diagnostic.Engine.has_errors engine then
    Alcotest.failf "balanced MAC should verify:\n%s" (Diagnostic.Engine.to_string engine);
  let m = build_mac ~mult_latency:3 ~delay_by:3 in
  let engine = verify_all m in
  check_bool "3-stage with by=3 verifies" false (Diagnostic.Engine.has_errors engine)

(* ------------------------------------------------------------------ *)
(* More schedule-verifier behaviours                                   *)

let test_port_conflict () =
  (* Isolated ids fix the order the verifier visits the memrefs in. *)
  Ir.with_isolated_ids @@ fun () ->
  let m = Builder.create_module () in
  let _ =
    Builder.func m ~name:"conflict"
      ~args:
        [
          Builder.arg "A" (Types.memref ~dims:[ 8 ] ~elem:Typ.i32 ~port:Types.Read ());
          Builder.arg "B" (Types.memref ~dims:[ 8 ] ~elem:Typ.i32 ~port:Types.Write ());
          Builder.arg "C"
            (Types.memref ~packing:(Some []) ~dims:[ 2 ] ~elem:Typ.i32 ~port:Types.Read ());
        ]
      (fun b args t ->
        match args with
        | [ a; bm; c ] ->
          let c0 = Builder.constant b 0 in
          let c1 = Builder.constant b 1 in
          (* Two reads on the same port in the same cycle: UB.  A's
             accesses interleave two cycles, three reads in the second. *)
          let _ = Builder.mem_read b a [ c0 ] ~at:Builder.(t @>> 0) in
          let _ = Builder.mem_read b a [ c0 ] ~at:Builder.(t @>> 1) in
          let _ = Builder.mem_read b a [ c1 ] ~at:Builder.(t @>> 0) in
          let _ = Builder.mem_read b a [ c1 ] ~at:Builder.(t @>> 1) in
          let _ = Builder.mem_read b a [ c0 ] ~at:Builder.(t @>> 1) in
          (* A second memref with its own conflict. *)
          Builder.mem_write b c0 bm [ c0 ] ~at:Builder.(t @>> 2);
          Builder.mem_write b c1 bm [ c1 ] ~at:Builder.(t @>> 2);
          (* Distinct constant banks share a cycle legally; the same
             bank twice does not. *)
          let _ = Builder.mem_read b c [ c0 ] ~at:Builder.(t @>> 3) in
          let _ = Builder.mem_read b c [ c1 ] ~at:Builder.(t @>> 3) in
          let _ = Builder.mem_read b c [ c0 ] ~at:Builder.(t @>> 3) in
          Builder.return_ b []
        | _ -> assert false)
  in
  (* Line n names the n-th op in walk order, so the text pins which
     accesses each diagnostic pairs and in what order. *)
  let n = ref 0 in
  Ir.Walk.ops_pre m ~f:(fun op ->
      incr n;
      op.Ir.loc <- loc_at !n 1);
  let engine = verify_all m in
  (* B's pair, C's same-bank pair, then A's four same-cycle pairs: each
     access against the later accesses of its cycle, in the order the
     verifier recorded them. *)
  check_string "port conflict diagnostics"
    "test.mlir:11:1: error: Schedule error: multiple accesses to the same memref port in \
     the same cycle\n\
     test.mlir:10:1: note: Conflicting access here.\n\
     test.mlir:14:1: error: Schedule error: multiple accesses to the same memref port in \
     the same cycle\n\
     test.mlir:12:1: note: Conflicting access here.\n\
     test.mlir:9:1: error: Schedule error: multiple accesses to the same memref port in \
     the same cycle\n\
     test.mlir:8:1: note: Conflicting access here.\n\
     test.mlir:9:1: error: Schedule error: multiple accesses to the same memref port in \
     the same cycle\n\
     test.mlir:6:1: note: Conflicting access here.\n\
     test.mlir:8:1: error: Schedule error: multiple accesses to the same memref port in \
     the same cycle\n\
     test.mlir:6:1: note: Conflicting access here.\n\
     test.mlir:7:1: error: Schedule error: multiple accesses to the same memref port in \
     the same cycle\n\
     test.mlir:5:1: note: Conflicting access here."
    (Diagnostic.Engine.to_string engine)

let test_banked_no_conflict () =
  (* The stencil pattern: one write port onto a fully-distributed
     2-element buffer, written twice per cycle at distinct constant
     banks — legal (Listing 2). *)
  let m = Builder.create_module () in
  let _ =
    Builder.func m ~name:"banked"
      ~args:[ Builder.arg "x" Typ.i32 ]
      (fun b args t ->
        match args with
        | [ x ] ->
          let c0 = Builder.constant b 0 in
          let c1 = Builder.constant b 1 in
          let ports =
            Builder.alloc b ~kind:Ops.Reg ~dims:[ 2 ] ~packing:[] ~elem:Typ.i32
              ~ports:[ Types.Write ]
          in
          let w = List.hd ports in
          Builder.mem_write b x w [ c0 ] ~at:Builder.(t @>> 0);
          Builder.mem_write b x w [ c1 ] ~at:Builder.(t @>> 0);
          Builder.return_ b []
        | _ -> assert false)
  in
  let engine = verify_all m in
  if Diagnostic.Engine.has_errors engine then
    Alcotest.failf "banked writes should verify:\n%s" (Diagnostic.Engine.to_string engine)

let test_bad_ii () =
  let m = Builder.create_module () in
  let _ =
    Builder.func m ~name:"bad_ii" ~args:[]
      (fun b _args t ->
        let c0 = Builder.constant b 0 in
        let c1 = Builder.constant b 1 in
        let c4 = Builder.constant b 4 in
        let _tf =
          Builder.for_loop b ~lb:c0 ~ub:c4 ~step:c1 ~at:Builder.(t @>> 1)
            (fun b ~iv:_ ~ti -> Builder.yield b ~at:Builder.(ti @>> 0))
        in
        Builder.return_ b [])
  in
  let engine = verify_all m in
  check_bool "II=0 rejected" true
    (contains (Diagnostic.Engine.to_string engine) "initiation interval")

let test_cross_task_stable_use () =
  (* A value born in the function scope may be used inside a loop
     (stable from an ancestor time domain), like %i inside the j-loop
     of the transpose. *)
  let m = Builder.create_module () in
  let _ =
    Builder.func m ~name:"stable"
      ~args:
        [ Builder.arg "O" (Types.memref ~dims:[ 4 ] ~elem:Typ.i32 ~port:Types.Write ()) ]
      (fun b args t ->
        match args with
        | [ o ] ->
          let c0 = Builder.constant b 0 in
          let c1 = Builder.constant b 1 in
          let c4 = Builder.constant b 4 in
          let x = Builder.add b c1 c1 in
          (* x is Always (const): usable anywhere *)
          let _tf =
            Builder.for_loop b ~lb:c0 ~ub:c4 ~step:c1 ~at:Builder.(t @>> 1)
              (fun b ~iv ~ti ->
                Builder.yield b ~at:Builder.(ti @>> 1);
                Builder.mem_write b x o [ iv ] ~at:Builder.(ti @>> 0))
          in
          Builder.return_ b []
        | _ -> assert false)
  in
  let engine = verify_all m in
  if Diagnostic.Engine.has_errors engine then
    Alcotest.failf "stable use should verify:\n%s" (Diagnostic.Engine.to_string engine)

let test_sibling_loop_iv_leak () =
  (* Using a loop's induction variable after the loop is a schedule
     error: it belongs to a dead time domain. *)
  let m = Builder.create_module () in
  let _ =
    Builder.func m ~name:"leak"
      ~args:
        [ Builder.arg "O" (Types.memref ~dims:[ 4 ] ~elem:Typ.i32 ~port:Types.Write ()) ]
      (fun b args t ->
        match args with
        | [ o ] ->
          let c0 = Builder.constant b 0 in
          let c1 = Builder.constant b 1 in
          let c4 = Builder.constant b 4 in
          let leaked = ref None in
          let tf =
            Builder.for_loop b ~lb:c0 ~ub:c4 ~step:c1 ~at:Builder.(t @>> 1)
              (fun b ~iv ~ti ->
                leaked := Some iv;
                Builder.yield b ~at:Builder.(ti @>> 1))
          in
          (* SSA-dominance-wise this is ill-formed too, but the schedule
             verifier must flag the foreign time domain regardless. *)
          Builder.mem_write b (Option.get !leaked) o [ c0 ] ~at:Builder.(tf @>> 0);
          Builder.return_ b []
        | _ -> assert false)
  in
  let engine = Diagnostic.Engine.create () in
  Verify_schedule.verify_module engine m;
  check_bool "foreign domain flagged" true
    (contains (Diagnostic.Engine.to_string engine) "unrelated time domain")

(* ------------------------------------------------------------------ *)
(* Memref banking (Figure 3)                                           *)

let test_figure3_layout () =
  (* A : hir.memref<3*2*i32, packing=[1]> — dim 0 (size 3) distributed,
     dim 1 (size 2) packed: three banks of two elements. *)
  let t =
    Types.memref ~packing:(Some [ 1 ]) ~dims:[ 3; 2 ] ~elem:Typ.i32 ~port:Types.Read ()
  in
  let info = Types.memref_info t in
  check_int "banks" 3 (Types.num_banks info);
  check_int "bank depth" 2 (Types.bank_depth info);
  check_int "elements" 6 (Types.num_elements info);
  let layout = Types.layout info in
  check_int "layout entries" 6 (List.length layout);
  List.iter
    (fun (idx, bank, addr) ->
      match idx with
      | [ i; j ] ->
        check_int (Printf.sprintf "bank of [%d][%d]" i j) i bank;
        check_int (Printf.sprintf "addr of [%d][%d]" i j) j addr
      | _ -> Alcotest.fail "rank mismatch")
    layout

let test_memref_type_text () =
  let t =
    Types.memref ~packing:(Some [ 1 ]) ~dims:[ 3; 2 ] ~elem:Typ.i32 ~port:Types.Read ()
  in
  check_string "printed form" "!hir.memref<3*2*i32, packing=[1], r>" (Typ.to_string t);
  let plain = Types.memref ~dims:[ 16; 16 ] ~elem:Typ.i32 ~port:Types.Read_write () in
  check_string "fully packed omits packing" "!hir.memref<16*16*i32, rw>"
    (Typ.to_string plain)

(* ------------------------------------------------------------------ *)
(* unroll_for                                                          *)

let test_unroll_for_verifies () =
  let m = Builder.create_module () in
  let _ =
    Builder.func m ~name:"unrolled"
      ~args:
        [ Builder.arg "O" (Types.memref ~dims:[ 4 ] ~elem:Typ.i32 ~port:Types.Write ~packing:(Some []) ()) ]
      (fun b args t ->
        match args with
        | [ _o ] ->
          let _tf =
            Builder.unroll_for b ~lb:0 ~ub:4 ~step:1 ~at:Builder.(t @>> 0)
              (fun b ~iv:_ ~ti -> Builder.yield b ~at:Builder.(ti @>> 0))
          in
          Builder.return_ b []
        | _ -> assert false)
  in
  let engine = verify_all m in
  if Diagnostic.Engine.has_errors engine then
    Alcotest.failf "unroll_for should verify:\n%s" (Diagnostic.Engine.to_string engine)

let test_transpose_print_parse () =
  let m, _ = build_transpose () in
  let text1 = Printer.op_to_string m in
  let reparsed = Parser.parse_string text1 in
  let text2 = Printer.op_to_string reparsed in
  check_string "round-trip" text1 text2;
  let engine = verify_all reparsed in
  if Diagnostic.Engine.has_errors engine then
    Alcotest.failf "reparsed transpose fails verify:\n%s"
      (Diagnostic.Engine.to_string engine)

let () =
  Alcotest.run "hir"
    [
      ( "paper designs",
        [
          Alcotest.test_case "transpose verifies (Listing 1)" `Quick
            test_transpose_verifies;
          Alcotest.test_case "Figure 1 diagnostic" `Quick test_figure1_diagnostic;
          Alcotest.test_case "Figure 2 diagnostic" `Quick test_figure2_diagnostic;
          Alcotest.test_case "balanced MAC verifies" `Quick test_mac_balanced_ok;
          Alcotest.test_case "transpose text round-trip" `Quick
            test_transpose_print_parse;
        ] );
      ( "schedule verifier",
        [
          Alcotest.test_case "port conflict" `Quick test_port_conflict;
          Alcotest.test_case "banked accesses legal" `Quick test_banked_no_conflict;
          Alcotest.test_case "bad II" `Quick test_bad_ii;
          Alcotest.test_case "stable cross-scope use" `Quick test_cross_task_stable_use;
          Alcotest.test_case "iv leak across loops" `Quick test_sibling_loop_iv_leak;
        ] );
      ( "memref",
        [
          Alcotest.test_case "Figure 3 layout" `Quick test_figure3_layout;
          Alcotest.test_case "type text" `Quick test_memref_type_text;
        ] );
      ( "unroll",
        [ Alcotest.test_case "unroll_for verifies" `Quick test_unroll_for_verifies ] );
    ]
