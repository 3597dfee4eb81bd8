(* Unit tests for the Verilog substrate: the pretty printer, the
   elaborator (flattening), and the two-phase RTL simulator — width
   semantics, register/memory timing, hierarchy, assertions, and
   combinational-loop detection. *)

module V = Hir_verilog.Ast
module Pretty = Hir_verilog.Pretty
module Flatten = Hir_rtl.Flatten
module Sim = Hir_rtl.Sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let bv w n = Bitvec.of_int ~width:w n

let contains haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec go i = i + n <= m && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let simple_module ?(ports = []) items =
  {
    V.mod_name = "top";
    ports = { V.port_name = "clk"; dir = V.Input; width = 1 } :: ports;
    items;
  }

let design m = { V.modules = [ m ]; top = "top" }

let sim_of items ~ports = Sim.create (Flatten.flatten (design (simple_module ~ports items)))

(* ------------------------------------------------------------------ *)
(* Combinational evaluation                                            *)

let test_expr_eval () =
  let sim =
    sim_of
      ~ports:[ { V.port_name = "x"; dir = V.Input; width = 8 } ]
      [
        V.Wire_decl { name = "y"; width = 8 };
        V.Assign { target = "y"; expr = V.Binop (V.Add, V.Ref "x", V.const_int ~width:8 3) };
        V.Wire_decl { name = "cmp"; width = 1 };
        V.Assign
          { target = "cmp"; expr = V.Binop (V.Lt, V.Ref "x", V.const_int ~width:8 100) };
        V.Wire_decl { name = "slice"; width = 4 };
        V.Assign { target = "slice"; expr = V.Slice (V.Ref "x", 7, 4) };
        V.Wire_decl { name = "mux"; width = 8 };
        V.Assign
          {
            target = "mux";
            expr = V.Ternary (V.Ref "cmp", V.Ref "y", V.const_int ~width:8 0);
          };
      ]
  in
  Sim.set_input sim "x" (bv 8 0xAB);
  Sim.settle_only sim;
  check_int "add wraps" ((0xAB + 3) land 0xFF) (Bitvec.to_int (Sim.peek sim "y"));
  check_int "unsigned compare" 0 (Bitvec.to_int (Sim.peek sim "cmp"));
  check_int "slice" 0xA (Bitvec.to_int (Sim.peek sim "slice"));
  check_int "mux takes else" 0 (Bitvec.to_int (Sim.peek sim "mux"));
  Sim.set_input sim "x" (bv 8 5);
  Sim.settle_only sim;
  check_int "mux takes then" 8 (Bitvec.to_int (Sim.peek sim "mux"))

let test_mixed_width_context () =
  (* A narrow wire zero-extends into a wider assignment context. *)
  let sim =
    sim_of
      ~ports:[ { V.port_name = "a"; dir = V.Input; width = 4 } ]
      [
        V.Wire_decl { name = "wide"; width = 12 };
        V.Assign
          {
            target = "wide";
            expr = V.Binop (V.Add, V.Ref "a", V.const_int ~width:12 0x100);
          };
      ]
  in
  Sim.set_input sim "a" (bv 4 0xF);
  Sim.settle_only sim;
  check_int "zero-extended add" 0x10F (Bitvec.to_int (Sim.peek sim "wide"))

let test_topological_order () =
  (* Assigns written in reverse dependency order must still settle. *)
  let sim =
    sim_of
      ~ports:[ { V.port_name = "a"; dir = V.Input; width = 8 } ]
      [
        V.Wire_decl { name = "c"; width = 8 };
        V.Assign { target = "c"; expr = V.Binop (V.Add, V.Ref "b", V.const_int ~width:8 1) };
        V.Wire_decl { name = "b"; width = 8 };
        V.Assign { target = "b"; expr = V.Binop (V.Add, V.Ref "a", V.const_int ~width:8 1) };
      ]
  in
  Sim.set_input sim "a" (bv 8 10);
  Sim.settle_only sim;
  check_int "chained" 12 (Bitvec.to_int (Sim.peek sim "c"))

let test_combinational_loop_detected () =
  match
    sim_of ~ports:[]
      [
        V.Wire_decl { name = "a"; width = 1 };
        V.Wire_decl { name = "b"; width = 1 };
        V.Assign { target = "a"; expr = V.Unop (V.Not, V.Ref "b") };
        V.Assign { target = "b"; expr = V.Unop (V.Not, V.Ref "a") };
      ]
  with
  | exception Sim.Sim_error msg -> check_bool "mentions loop" true (contains msg "loop")
  | _ -> Alcotest.fail "expected combinational loop error"

let test_loop_path_reported () =
  (* A 3-signal loop must report the full cycle path, not just one
     participant. *)
  match
    sim_of ~ports:[]
      [
        V.Wire_decl { name = "a"; width = 1 };
        V.Wire_decl { name = "b"; width = 1 };
        V.Wire_decl { name = "c"; width = 1 };
        V.Assign { target = "a"; expr = V.Unop (V.Not, V.Ref "b") };
        V.Assign { target = "b"; expr = V.Unop (V.Not, V.Ref "c") };
        V.Assign { target = "c"; expr = V.Unop (V.Not, V.Ref "a") };
      ]
  with
  | exception Sim.Sim_error msg ->
    check_bool "mentions loop" true (contains msg "loop");
    check_bool ("full path in: " ^ msg) true (contains msg "a -> b -> c -> a")
  | _ -> Alcotest.fail "expected combinational loop error"

let test_empty_concat_rejected () =
  (* An empty concatenation is a [Sim_error], not a [Failure _] crash
     out of [List.hd] — on both engines. *)
  let items =
    [
      V.Wire_decl { name = "y"; width = 4 };
      V.Assign { target = "y"; expr = V.Concat [] };
    ]
  in
  (match sim_of ~ports:[] items with
  | exception Sim.Sim_error msg ->
    check_bool "opcode names concat" true (contains msg "concatenation")
  | sim -> (
    (* The opcode engine may defer to the first settle. *)
    match Sim.settle_only sim with
    | exception Sim.Sim_error msg ->
      check_bool "opcode names concat" true (contains msg "concatenation")
    | () -> Alcotest.fail "opcode engine accepted an empty concat"));
  let flat = Flatten.flatten (design (simple_module ~ports:[] items)) in
  let r = Sim.create ~engine:`Reference flat in
  match Sim.settle_only r with
  | exception Sim.Sim_error msg ->
    check_bool "reference names concat" true (contains msg "concatenation")
  | () -> Alcotest.fail "reference engine accepted an empty concat"

(* ------------------------------------------------------------------ *)
(* Opcode engine vs reference at word-width boundaries                 *)

(* One design exercising every operator class at width [w], run in
   lockstep on both engines with the same inputs; every named signal
   must agree every cycle, and the failure lists must be identical.
   Widths 1, 63, 64, 65 straddle the unboxed native-int fast path. *)
let boundary_items w =
  let wire name expr = [ V.Wire_decl { name; width = w }; V.Assign { target = name; expr } ] in
  let bit name expr = [ V.Wire_decl { name; width = 1 }; V.Assign { target = name; expr } ] in
  let a = V.Ref "a" and b = V.Ref "b" in
  List.concat
    [
      wire "sum" (V.Binop (V.Add, a, b));
      wire "diff" (V.Binop (V.Sub, a, b));
      wire "prod" (V.Binop (V.Mul, a, b));
      wire "band" (V.Binop (V.And, a, b));
      wire "bor" (V.Binop (V.Or, a, b));
      wire "bxor" (V.Binop (V.Xor, a, b));
      wire "bnot" (V.Unop (V.Not, a));
      wire "shl" (V.Binop (V.Shl, a, V.Ref "k"));
      wire "shr" (V.Binop (V.Shr, a, V.Ref "k"));
      wire "mux" (V.Ternary (V.Binop (V.Lt, a, b), a, b));
      bit "lt" (V.Binop (V.Lt, a, b));
      bit "le" (V.Binop (V.Le, a, b));
      bit "eq" (V.Binop (V.Eq, a, b));
      bit "redor" (V.Unop (V.Red_or, a));
      bit "redand" (V.Unop (V.Red_and, a));
      bit "landor" (V.Binop (V.Log_or, V.Binop (V.Log_and, a, b), V.Ref "k"));
      (if w > 1 then wire "sliced" (V.Slice (a, w - 1, 1)) else wire "sliced" a);
      [
        (* Concatenation doubles the width: crosses into the boxed
           representation exactly at w = 32..63. *)
        V.Wire_decl { name = "cat"; width = 2 * w };
        V.Assign { target = "cat"; expr = V.Concat [ a; b ] };
        V.Wire_decl { name = "cat_lo"; width = w };
        V.Assign { target = "cat_lo"; expr = V.Slice (V.Ref "cat", w - 1, 0) };
        (* Sequential state at width w, plus a memory. *)
        V.Reg_decl { name = "acc"; width = w };
        V.Mem_decl { name = "mem"; width = w; depth = 4; style = V.Style_bram };
        V.Reg_decl { name = "rd"; width = w };
        V.Always_ff
          [
            V.Nonblocking (V.Lref "acc", V.Binop (V.Add, V.Ref "acc", a));
            V.Nonblocking (V.Lindex ("mem", V.Slice (V.Ref "k", 1, 0)), V.Ref "acc");
            V.Nonblocking (V.Lref "rd", V.Index ("mem", V.const_int ~width:2 1));
            V.Assert_stmt { cond = V.Binop (V.Ne, a, b); message = "a = b" };
          ];
      ];
    ]

let boundary_values w =
  let ones = Bitvec.ones w in
  let top_bit = Bitvec.shift_left (Bitvec.one w) (w - 1) in
  let alt =
    (* 0101... pattern *)
    Bitvec.of_bin_string (String.init w (fun i -> if i mod 2 = 0 then '0' else '1'))
  in
  [| Bitvec.zero w; Bitvec.one w; ones; top_bit; alt; Bitvec.sub ones (Bitvec.one w) |]

let lockstep_boundary w () =
  let ports =
    [
      { V.port_name = "a"; dir = V.Input; width = w };
      { V.port_name = "b"; dir = V.Input; width = w };
      { V.port_name = "k"; dir = V.Input; width = 7 };
    ]
  in
  let flat = Flatten.flatten (design (simple_module ~ports (boundary_items w))) in
  let o = Sim.create ~engine:`Opcode flat in
  let r = Sim.create ~engine:`Reference flat in
  let names = Sim.signal_names o in
  let values = boundary_values w in
  let n = Array.length values in
  for cyc = 0 to (n * n) - 1 do
    let va = values.(cyc mod n)
    and vb = values.(cyc / n mod n)
    and vk = Bitvec.of_int ~width:7 (cyc * 13 mod 80) in
    List.iter
      (fun (name, v) ->
        Sim.set_input o name v;
        Sim.set_input r name v)
      [ ("a", va); ("b", vb); ("k", vk) ];
    Sim.settle_only o;
    Sim.settle_only r;
    List.iter
      (fun (name, _) ->
        let vo = Sim.peek o name and vr = Sim.peek r name in
        if not (Bitvec.equal vo vr) then
          Alcotest.failf "width %d, cycle %d, signal %s: opcode %s <> reference %s" w cyc
            name (Bitvec.to_hex_string vo) (Bitvec.to_hex_string vr))
      names;
    Sim.clock o;
    Sim.clock r
  done;
  let fo = Sim.failures o and fr = Sim.failures r in
  check_int "same failure count" (List.length fr) (List.length fo);
  List.iter2
    (fun (a : Sim.assertion_failure) (b : Sim.assertion_failure) ->
      check_int "failure cycle" b.Sim.at_cycle a.Sim.at_cycle;
      check_bool "failure message" true (String.equal a.Sim.message b.Sim.message))
    fo fr

(* The opcode engine's one documented divergence from the reference
   walker: a shift amount or memory address too large for an int, here
   a 70-bit 2^65.  The reference walker fails in [Bitvec.to_int]; the
   opcode engine zero-fills the shifts (narrow and wide), reads zero,
   and treats the write exactly like a write at address [depth] —
   dropped and reported out of range.  2^65 is 0 modulo the depth, so
   an address truncated to an int would alias cell 0. *)
let test_oversized_shift_and_address () =
  let depth = 4 in
  let ports =
    [
      { V.port_name = "a"; dir = V.Input; width = 8 };
      { V.port_name = "k"; dir = V.Input; width = 70 };
      { V.port_name = "addr"; dir = V.Input; width = 70 };
    ]
  in
  let wire ?(width = 8) name expr =
    [ V.Wire_decl { name; width }; V.Assign { target = name; expr } ]
  in
  let cells = List.init depth (Printf.sprintf "cell%d") in
  let items =
    List.concat
      [
        [ V.Mem_decl { name = "mem"; width = 8; depth; style = V.Style_bram } ];
        wire "shl" (V.Binop (V.Shl, V.Ref "a", V.Ref "k"));
        wire "shr" (V.Binop (V.Shr, V.Ref "a", V.Ref "k"));
        wire ~width:70 "wshl" (V.Binop (V.Shl, V.Ref "k", V.Ref "k"));
        wire ~width:70 "wshr" (V.Binop (V.Shr, V.Ref "k", V.Ref "k"));
        wire "rd" (V.Index ("mem", V.Ref "addr"));
        List.concat
          (List.mapi (fun i c -> wire c (V.Index ("mem", V.const_int ~width:2 i))) cells);
        [ V.Always_ff [ V.Nonblocking (V.Lindex ("mem", V.Ref "addr"), V.Ref "a") ] ];
      ]
  in
  let flat = Flatten.flatten (design (simple_module ~ports items)) in
  let big = Bitvec.shift_left (Bitvec.one 70) 65 in
  let run addr =
    let sim = Sim.create ~engine:`Opcode flat in
    List.iter
      (fun (n, v) -> Sim.set_input sim n v)
      [ ("a", bv 8 0xA5); ("k", big); ("addr", addr) ];
    let trace =
      List.init 3 (fun _ ->
          Sim.settle_only sim;
          let values = List.map (fun n -> Bitvec.to_int (Sim.peek sim n)) ("rd" :: cells) in
          Sim.clock sim;
          values)
    in
    let failures =
      List.map
        (fun (f : Sim.assertion_failure) -> (f.Sim.at_cycle, f.Sim.message))
        (Sim.failures sim)
    in
    (sim, trace, failures)
  in
  let sim, trace, failures = run big in
  List.iter
    (fun n -> check_bool (n ^ " by 2^65 reads 0") true (Bitvec.is_zero (Sim.peek sim n)))
    [ "shl"; "shr"; "wshl"; "wshr" ];
  check_bool "read at 2^65 and every cell read 0" true
    (List.for_all (List.for_all (( = ) 0)) trace);
  check_bool "each write at 2^65 reported out of range" true
    (failures = List.init 3 (fun c -> (c, "write past end of mem")));
  let _, trace_depth, failures_depth = run (Bitvec.of_int ~width:70 depth) in
  check_bool "write at 2^65 behaves as a write at depth" true
    (trace = trace_depth && failures = failures_depth);
  let r = Sim.create ~engine:`Reference flat in
  Sim.set_input r "k" big;
  match Sim.settle_only r with
  | exception Failure msg ->
    check_bool "reference fails in Bitvec.to_int" true (contains msg "too large")
  | () -> Alcotest.fail "reference walker accepted a 2^65 shift amount"

let test_fastpath_stats () =
  (* Narrow signals take the unboxed path; wide ones do not.  The
     event-driven settle must also actually skip quiescent assigns. *)
  let ports = [ { V.port_name = "a"; dir = V.Input; width = 8 } ] in
  let sim =
    sim_of ~ports
      [
        V.Wire_decl { name = "narrow"; width = 63 };
        V.Assign { target = "narrow"; expr = V.Ref "a" };
        V.Wire_decl { name = "wide"; width = 64 };
        V.Assign { target = "wide"; expr = V.Concat [ V.Ref "a"; V.Ref "a" ] };
        V.Wire_decl { name = "quiet"; width = 4 };
        V.Assign { target = "quiet"; expr = V.const_int ~width:4 9 };
      ]
  in
  Sim.set_input sim "a" (bv 8 1);
  Sim.settle_only sim;
  (* Second settle with nothing changed: everything should be skipped. *)
  Sim.settle_only sim;
  let s = Sim.stats sim in
  check_bool "some fast-path evals" true (s.Sim.st_fastpath_evaluated > 0);
  check_bool "some skips" true (s.Sim.st_assigns_skipped >= 3);
  (* clk + a + narrow + quiet are narrow; wide is not. *)
  check_int "narrow signals" 4 s.Sim.st_narrow_signals;
  check_int "wide signals" 1 s.Sim.st_wide_signals;
  check_int "settles" 2 s.Sim.st_settles

(* ------------------------------------------------------------------ *)
(* Sequential behaviour                                                *)

let test_register_timing () =
  let sim =
    sim_of
      ~ports:[ { V.port_name = "d"; dir = V.Input; width = 8 } ]
      [
        V.Reg_decl { name = "q"; width = 8 };
        V.Always_ff [ V.Nonblocking (V.Lref "q", V.Ref "d") ];
      ]
  in
  Sim.set_input sim "d" (bv 8 42);
  Sim.settle_only sim;
  check_int "before edge" 0 (Bitvec.to_int (Sim.peek sim "q"));
  Sim.clock sim;
  Sim.settle_only sim;
  check_int "after edge" 42 (Bitvec.to_int (Sim.peek sim "q"))

let test_nonblocking_swap () =
  (* The classic: two registers swap atomically with nonblocking
     assignments. *)
  let sim =
    sim_of ~ports:[]
      [
        V.Reg_decl { name = "a"; width = 4 };
        V.Reg_decl { name = "b"; width = 4 };
        V.Wire_decl { name = "init"; width = 1 };
        V.Assign { target = "init"; expr = V.Binop (V.Eq, V.Ref "a", V.const_int ~width:4 0) };
        V.Always_ff
          [
            V.If
              ( V.Ref "init",
                [
                  V.Nonblocking (V.Lref "a", V.const_int ~width:4 1);
                  V.Nonblocking (V.Lref "b", V.const_int ~width:4 2);
                ],
                [
                  V.Nonblocking (V.Lref "a", V.Ref "b");
                  V.Nonblocking (V.Lref "b", V.Ref "a");
                ] );
          ];
      ]
  in
  Sim.step sim;  (* init *)
  Sim.step sim;  (* swap *)
  Sim.settle_only sim;
  check_int "a took b" 2 (Bitvec.to_int (Sim.peek sim "a"));
  check_int "b took a" 1 (Bitvec.to_int (Sim.peek sim "b"))

let test_memory_read_first () =
  (* Read and write the same address in the same cycle: the read
     returns the old value (read-first BRAM). *)
  let sim =
    sim_of
      ~ports:
        [
          { V.port_name = "wdata"; dir = V.Input; width = 8 };
          { V.port_name = "we"; dir = V.Input; width = 1 };
        ]
      [
        V.Mem_decl { name = "mem"; width = 8; depth = 4; style = V.Style_bram };
        V.Reg_decl { name = "rdata"; width = 8 };
        V.Always_ff
          [
            V.If
              ( V.Ref "we",
                [ V.Nonblocking (V.Lindex ("mem", V.const_int ~width:2 1), V.Ref "wdata") ],
                [] );
            V.Nonblocking (V.Lref "rdata", V.Index ("mem", V.const_int ~width:2 1));
          ];
      ]
  in
  Sim.set_input sim "we" (bv 1 1);
  Sim.set_input sim "wdata" (bv 8 7);
  Sim.step sim;
  Sim.settle_only sim;
  check_int "read got old value" 0 (Bitvec.to_int (Sim.peek sim "rdata"));
  Sim.set_input sim "wdata" (bv 8 9);
  Sim.step sim;
  Sim.settle_only sim;
  check_int "read got first write" 7 (Bitvec.to_int (Sim.peek sim "rdata"))

let test_assertion_capture () =
  let sim =
    sim_of
      ~ports:[ { V.port_name = "bad"; dir = V.Input; width = 1 } ]
      [
        V.Always_ff
          [ V.Assert_stmt { cond = V.Unop (V.Not, V.Ref "bad"); message = "boom" } ];
      ]
  in
  Sim.step sim;
  check_int "no failure yet" 0 (List.length (Sim.failures sim));
  Sim.set_input sim "bad" (bv 1 1);
  Sim.settle_only sim;
  Sim.clock sim;
  (match Sim.failures sim with
  | [ f ] ->
    check_int "cycle recorded" 1 f.Sim.at_cycle;
    check_bool "message" true (f.Sim.message = "boom")
  | _ -> Alcotest.fail "expected exactly one failure")

(* ------------------------------------------------------------------ *)
(* Hierarchy                                                           *)

let test_flatten_hierarchy () =
  let child =
    {
      V.mod_name = "inc";
      ports =
        [
          { V.port_name = "clk"; dir = V.Input; width = 1 };
          { V.port_name = "x"; dir = V.Input; width = 8 };
          { V.port_name = "y"; dir = V.Output; width = 8 };
        ];
      items =
        [ V.Assign { target = "y"; expr = V.Binop (V.Add, V.Ref "x", V.const_int ~width:8 1) } ];
    }
  in
  let top =
    simple_module
      ~ports:
        [
          { V.port_name = "a"; dir = V.Input; width = 8 };
          { V.port_name = "out"; dir = V.Output; width = 8 };
        ]
      [
        V.Wire_decl { name = "mid"; width = 8 };
        V.Instance
          {
            module_name = "inc";
            instance_name = "u1";
            connections =
              [ ("clk", V.Ref "clk"); ("x", V.Binop (V.Add, V.Ref "a", V.const_int ~width:8 1)); ("y", V.Ref "mid") ];
          };
        V.Instance
          {
            module_name = "inc";
            instance_name = "u2";
            connections = [ ("clk", V.Ref "clk"); ("x", V.Ref "mid"); ("y", V.Ref "out") ];
          };
      ]
  in
  let sim = Sim.create (Flatten.flatten { V.modules = [ child; top ]; top = "top" }) in
  Sim.set_input sim "a" (bv 8 10);
  Sim.settle_only sim;
  (* a + 1 (expression) + 1 (u1) + 1 (u2) *)
  check_int "two instances chained" 13 (Bitvec.to_int (Sim.peek sim "out"))

(* ------------------------------------------------------------------ *)
(* Elaboration error paths                                             *)

let inc_child =
  {
    V.mod_name = "inc";
    ports =
      [
        { V.port_name = "clk"; dir = V.Input; width = 1 };
        { V.port_name = "x"; dir = V.Input; width = 8 };
        { V.port_name = "y"; dir = V.Output; width = 8 };
      ];
    items =
      [ V.Assign { target = "y"; expr = V.Binop (V.Add, V.Ref "x", V.const_int ~width:8 1) } ];
  }

let elab_fails ~needle modules =
  match Flatten.flatten { V.modules; top = "top" } with
  | _ -> Alcotest.failf "expected Elab_error mentioning %S" needle
  | exception Flatten.Elab_error msg ->
    check_bool (Printf.sprintf "message %S mentions %S" msg needle) true
      (contains msg needle)

let test_duplicate_module_rejected () =
  (* Two definitions under one name used to be resolved silently by
     "first declaration wins"; now instance resolution refuses. *)
  elab_fails ~needle:"duplicate definition of module inc"
    [ inc_child; { inc_child with V.items = [] }; simple_module [] ]

let test_unknown_module () =
  elab_fails ~needle:"unknown module ghost"
    [
      simple_module
        [ V.Instance { module_name = "ghost"; instance_name = "u"; connections = [] } ];
    ]

let test_unknown_port () =
  elab_fails ~needle:"no port nope"
    [
      inc_child;
      simple_module
        [
          V.Instance
            {
              module_name = "inc";
              instance_name = "u";
              connections = [ ("nope", V.Ref "clk") ];
            };
        ];
    ]

let test_output_port_needs_wire () =
  elab_fails ~needle:"output port y needs a plain wire"
    [
      inc_child;
      simple_module
        [
          V.Instance
            {
              module_name = "inc";
              instance_name = "u";
              connections =
                [ ("y", V.Binop (V.Add, V.Ref "clk", V.const_int ~width:8 1)) ];
            };
        ];
    ]

let test_unconnected_port_dangles () =
  (* An unconnected input becomes a dangling prefixed wire that reads
     as zero, so the child still elaborates and computes 0 + 1. *)
  let top =
    simple_module
      ~ports:[ { V.port_name = "out"; dir = V.Output; width = 8 } ]
      [
        V.Instance
          {
            module_name = "inc";
            instance_name = "u1";
            connections = [ ("clk", V.Ref "clk"); ("y", V.Ref "out") ];
          };
      ]
  in
  let flat = Flatten.flatten { V.modules = [ inc_child; top ]; top = "top" } in
  check_bool "dangling wire declared" true
    (List.exists
       (function V.Wire_decl { name = "u1__x"; width = 8 } -> true | _ -> false)
       flat.Flatten.flat_items);
  let sim = Sim.create flat in
  Sim.settle_only sim;
  check_int "dangling input reads as zero" 1 (Bitvec.to_int (Sim.peek sim "out"))

let test_prefix_collision_detected () =
  (* Instance [u1] signal [x] flattens to "u1__x"; a sibling wire
     already named "u1__x" must be a hard error, not a silent merge. *)
  elab_fails ~needle:"u1__x collides"
    [
      inc_child;
      simple_module
        [
          V.Wire_decl { name = "u1__x"; width = 8 };
          V.Instance
            {
              module_name = "inc";
              instance_name = "u1";
              connections = [ ("clk", V.Ref "clk") ];
            };
        ];
    ]

let test_prefix_collision_clean_case () =
  (* Names containing "__" are fine while they do not collide with an
     actual instance path. *)
  let top =
    simple_module
      [
        V.Wire_decl { name = "u1__other"; width = 8 };
        V.Assign { target = "u1__other"; expr = V.const_int ~width:8 5 };
        V.Instance
          {
            module_name = "inc";
            instance_name = "u1";
            connections = [ ("clk", V.Ref "clk") ];
          };
      ]
  in
  let flat = Flatten.flatten { V.modules = [ inc_child; top ]; top = "top" } in
  check_bool "clean design elaborates" true (flat.Flatten.flat_items <> [])

(* ------------------------------------------------------------------ *)
(* Pretty printer                                                      *)

let test_pretty_output () =
  let m =
    simple_module
      ~ports:[ { V.port_name = "x"; dir = V.Input; width = 8 } ]
      [
        V.Comment "hello";
        V.Reg_decl { name = "q"; width = 8 };
        V.Mem_decl { name = "mem"; width = 32; depth = 16; style = V.Style_lutram };
        V.Assign { target = "q_next"; expr = V.Binop (V.Add, V.Ref "q", V.Ref "x") };
        V.Always_ff
          [
            V.If (V.Ref "x", [ V.Nonblocking (V.Lref "q", V.Ref "x") ], []);
            V.Assert_stmt { cond = V.Ref "x"; message = "x must hold" };
          ];
      ]
  in
  let text = Pretty.module_to_string m in
  List.iter
    (fun needle -> check_bool needle true (contains text needle))
    [
      "module top (";
      "input wire clk";
      "input wire [7:0] x";
      "// hello";
      "reg [7:0] q = 0;";
      "ram_style = \"distributed\"";
      "reg [31:0] mem [0:15];";
      "assign q_next = (q + x);";
      "always @(posedge clk) begin";
      "q <= x;";
      "$error(\"x must hold\");";
      "endmodule";
    ]

(* ------------------------------------------------------------------ *)
(* VCD dumping                                                         *)

let test_vcd_dump () =
  let path = Filename.temp_file "hir_test" ".vcd" in
  let sim =
    sim_of
      ~ports:[ { V.port_name = "d"; dir = V.Input; width = 8 } ]
      [
        V.Reg_decl { name = "q"; width = 8 };
        V.Always_ff [ V.Nonblocking (V.Lref "q", V.Ref "d") ];
      ]
  in
  let vcd = Hir_rtl.Vcd.create ~path sim in
  for c = 0 to 3 do
    Sim.set_input sim "d" (bv 8 (10 * c));
    Sim.settle_only sim;
    Hir_rtl.Vcd.sample vcd sim;
    Sim.clock sim
  done;
  Hir_rtl.Vcd.close vcd;
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  List.iter
    (fun needle -> check_bool needle true (contains text needle))
    [ "$timescale"; "$var wire 8"; " d $end"; " q $end"; "#0"; "#1"; "b1010 " ]

(* Golden-trace: the opcode engine's VCD dump (slot-resolved sampling
   over its register files) must be byte-identical to the reference
   engine's dump of the same run — same signals, same ordering, same
   change timestamps. *)
let test_vcd_golden_trace () =
  let items =
    [
      V.Reg_decl { name = "q"; width = 8 };
      V.Wire_decl { name = "wide"; width = 70 };
      V.Wire_decl { name = "sum"; width = 8 };
      V.Assign { target = "sum"; expr = V.Binop (V.Add, V.Ref "q", V.Ref "d") };
      V.Assign { target = "wide"; expr = V.Concat [ V.Ref "q"; V.Ref "d"; V.Ref "q" ] };
      V.Always_ff [ V.Nonblocking (V.Lref "q", V.Ref "sum") ];
    ]
  in
  let ports = [ { V.port_name = "d"; dir = V.Input; width = 8 } ] in
  let flat = Flatten.flatten (design (simple_module ~ports items)) in
  let dump engine =
    let path = Filename.temp_file "hir_golden" ".vcd" in
    let sim = Sim.create ~engine flat in
    let vcd = Hir_rtl.Vcd.create ~path sim in
    for c = 0 to 7 do
      Sim.set_input sim "d" (bv 8 (17 * c mod 256));
      Sim.settle_only sim;
      Hir_rtl.Vcd.sample vcd sim;
      Sim.clock sim
    done;
    Hir_rtl.Vcd.close vcd;
    let ic = open_in path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove path;
    text
  in
  let golden = dump `Reference in
  check_bool "golden trace is non-trivial" true (String.length golden > 100);
  check_bool "opcode VCD == reference VCD" true (String.equal (dump `Opcode) golden)

let () =
  Alcotest.run "rtl"
    [
      ( "combinational",
        [
          Alcotest.test_case "expression evaluation" `Quick test_expr_eval;
          Alcotest.test_case "mixed-width context" `Quick test_mixed_width_context;
          Alcotest.test_case "topological settle" `Quick test_topological_order;
          Alcotest.test_case "combinational loop" `Quick test_combinational_loop_detected;
          Alcotest.test_case "loop path reported" `Quick test_loop_path_reported;
          Alcotest.test_case "empty concat rejected" `Quick test_empty_concat_rejected;
        ] );
      ( "engine boundary widths",
        [
          Alcotest.test_case "width 1" `Quick (lockstep_boundary 1);
          Alcotest.test_case "width 63" `Quick (lockstep_boundary 63);
          Alcotest.test_case "width 64" `Quick (lockstep_boundary 64);
          Alcotest.test_case "width 65" `Quick (lockstep_boundary 65);
          Alcotest.test_case "oversized shift and address" `Quick
            test_oversized_shift_and_address;
          Alcotest.test_case "fast-path stats" `Quick test_fastpath_stats;
        ] );
      ( "sequential",
        [
          Alcotest.test_case "register timing" `Quick test_register_timing;
          Alcotest.test_case "nonblocking swap" `Quick test_nonblocking_swap;
          Alcotest.test_case "memory read-first" `Quick test_memory_read_first;
          Alcotest.test_case "assertion capture" `Quick test_assertion_capture;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "flatten two levels" `Quick test_flatten_hierarchy;
          Alcotest.test_case "duplicate module rejected" `Quick
            test_duplicate_module_rejected;
          Alcotest.test_case "unknown module" `Quick test_unknown_module;
          Alcotest.test_case "unknown port" `Quick test_unknown_port;
          Alcotest.test_case "output port needs wire" `Quick
            test_output_port_needs_wire;
          Alcotest.test_case "unconnected port dangles" `Quick
            test_unconnected_port_dangles;
          Alcotest.test_case "prefix collision detected" `Quick
            test_prefix_collision_detected;
          Alcotest.test_case "prefix collision clean case" `Quick
            test_prefix_collision_clean_case;
        ] );
      ("pretty", [ Alcotest.test_case "verilog text" `Quick test_pretty_output ]);
      ( "vcd",
        [
          Alcotest.test_case "waveform dump" `Quick test_vcd_dump;
          Alcotest.test_case "golden trace across engines" `Quick test_vcd_golden_trace;
        ] );
    ]
