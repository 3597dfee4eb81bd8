(* Tests for the generic IR core: construction, traversal, cloning,
   rewriting, printing/parsing round-trips and structural
   verification. *)

open Hir_ir

let () = Hir_dialect.Ops.register ()

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* A tiny well-formed design used by several tests. *)
let build_add_func () =
  let module_op = Hir_dialect.Builder.create_module () in
  let func =
    Hir_dialect.Builder.func module_op ~name:"adder"
      ~args:
        [
          Hir_dialect.Builder.arg "x" Typ.i32;
          Hir_dialect.Builder.arg "y" Typ.i32;
        ]
      ~results:[ (Typ.i32, 0) ]
      (fun b args _t ->
        match args with
        | [ x; y ] ->
          let s = Hir_dialect.Builder.add b x y in
          Hir_dialect.Builder.return_ b [ s ]
        | _ -> assert false)
  in
  (module_op, func)

let test_construction () =
  let module_op, func = build_add_func () in
  check_string "module name" "builtin.module" (Ir.Op.name module_op);
  check_string "func name" "hir.func" (Ir.Op.name func);
  check_string "sym name" "adder" (Hir_dialect.Ops.func_name func);
  let body = Hir_dialect.Ops.func_body func in
  check_int "body args (2 data + time)" 3 (Ir.Block.num_args body);
  check_int "ops in body" 2 (List.length (Ir.Block.ops body));
  let funcs = Hir_dialect.Ops.module_funcs module_op in
  check_int "module funcs" 1 (List.length funcs);
  check_bool "lookup finds" true
    (Option.is_some (Hir_dialect.Ops.lookup_func module_op "adder"));
  check_bool "lookup missing" true
    (Option.is_none (Hir_dialect.Ops.lookup_func module_op "nope"))

let test_walk () =
  let module_op, _ = build_add_func () in
  let count = ref 0 in
  Ir.Walk.ops_pre module_op ~f:(fun _ -> incr count);
  check_int "pre-order count" 4 !count;
  (* module + func + add + return *)
  let names = ref [] in
  Ir.Walk.ops_post module_op ~f:(fun o -> names := Ir.Op.name o :: !names);
  check_string "post-order last is module" "builtin.module" (List.hd !names);
  let adds = Ir.Walk.find_all module_op "hir.add" in
  check_int "find_all" 1 (List.length adds)

let test_rewrite () =
  let module_op, func = build_add_func () in
  let body = Hir_dialect.Ops.func_body func in
  let x = Ir.Block.arg body 0 in
  let y = Ir.Block.arg body 1 in
  let add_op = List.hd (Ir.Walk.find_all module_op "hir.add") in
  check_int "uses of x" 1 (Ir.Value.num_uses x);
  check_bool "x has one use" true (Ir.Value.has_one_use x);
  check_bool "x users is the add" true
    (match Ir.Value.users x with [ u ] -> Ir.Op.equal u add_op | _ -> false);
  Ir.Value.replace_all_uses x y;
  check_int "uses of x after replace" 0 (Ir.Value.num_uses x);
  check_bool "x unused after replace" false (Ir.Value.has_uses x);
  check_int "uses of y after replace" 2 (Ir.Value.num_uses y);
  check_bool "y users dedup to the add" true
    (match Ir.Value.users y with [ u ] -> Ir.Op.equal u add_op | _ -> false);
  check_bool "add operands now equal" true
    (Ir.Value.equal (Ir.Op.operand add_op 0) (Ir.Op.operand add_op 1))

let test_clone () =
  let module_op, func = build_add_func () in
  let cloned = Ir.Clone.clone_op func in
  (* The clone is structurally identical but shares no values. *)
  let orig_add = List.hd (Ir.Walk.find_all func "hir.add") in
  let cloned_add = List.hd (Ir.Walk.find_all cloned "hir.add") in
  check_bool "distinct ops" false (Ir.Op.equal orig_add cloned_add);
  check_bool "distinct values" false
    (Ir.Value.equal (Ir.Op.result orig_add 0) (Ir.Op.result cloned_add 0));
  (* Cloned add's operands are the cloned block's args, not the
     original's. *)
  let cloned_body = Hir_dialect.Ops.func_body cloned in
  check_bool "operand remapped" true
    (Ir.Value.equal (Ir.Op.operand cloned_add 0) (Ir.Block.arg cloned_body 0));
  ignore module_op

let test_clone_with_mapping () =
  let module_op, func = build_add_func () in
  ignore module_op;
  let body = Hir_dialect.Ops.func_body func in
  let x = Ir.Block.arg body 0 in
  (* Substitute x by y while cloning the add op. *)
  let y = Ir.Block.arg body 1 in
  let add_op = List.hd (Ir.Walk.find_all func "hir.add") in
  let mapping = Hashtbl.create 4 in
  Hashtbl.replace mapping (Ir.Value.id x) y;
  let cloned = Ir.Clone.clone_op ~mapping add_op in
  check_bool "mapped operand" true (Ir.Value.equal (Ir.Op.operand cloned 0) y)

let test_attributes () =
  let op =
    Ir.Op.create "hir.constant"
      ~attrs:[ ("value", Attribute.Int 42) ]
      ~operands:[] ~result_types:[ Hir_dialect.Types.Const ]
  in
  check_int "int attr" 42 (Ir.Op.int_attr op "value");
  Ir.Op.set_attr op "value" (Attribute.Int 7);
  check_int "set_attr replaces" 7 (Ir.Op.int_attr op "value");
  check_int "attr count stable" 1 (List.length op.Ir.attrs);
  Ir.Op.remove_attr op "value";
  check_bool "removed" true (Ir.Op.attr op "value" = None)

let test_verify_ok () =
  let module_op, _ = build_add_func () in
  match Verify.verify module_op with
  | Ok () -> ()
  | Error e -> Alcotest.failf "expected clean verify, got:\n%s" (Diagnostic.Engine.to_string e)

let test_verify_dominance () =
  (* Manually build a block where an op uses a value defined after it. *)
  let module_op = Hir_dialect.Builder.create_module () in
  let _func =
    Hir_dialect.Builder.func module_op ~name:"bad"
      ~args:[ Hir_dialect.Builder.arg "x" Typ.i32 ]
      (fun b args _t ->
        match args with
        | [ x ] ->
          (* Build y = add x c, then move the constant after it. *)
          let c = Hir_dialect.Builder.constant b 1 in
          let _y = Hir_dialect.Builder.add b x c in
          Hir_dialect.Builder.return_ b [];
          let block = b.Hir_dialect.Builder.block in
          let const_op = Option.get (Ir.Value.defining_op c) in
          Ir.Block.remove block const_op;
          Ir.Block.append block const_op
        | _ -> assert false)
  in
  match Verify.verify module_op with
  | Ok () -> Alcotest.fail "expected dominance violation"
  | Error e ->
    let s = Diagnostic.Engine.to_string e in
    let contains sub =
      let n = String.length sub and m = String.length s in
      let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
      go 0
    in
    check_bool "mentions dominance" true (contains "dominate")

let test_verify_unregistered () =
  let module_op = Hir_dialect.Builder.create_module () in
  let block = Hir_dialect.Builder.module_block module_op in
  let bogus = Ir.Op.create "hir.func" ~operands:[] ~result_types:[] in
  Ir.Block.append block bogus;
  (* missing sym_name and body: dialect verifier must complain *)
  match Verify.verify module_op with
  | Ok () -> Alcotest.fail "expected dialect verifier error"
  | Error _ -> ()

(* The use-list check, on four corruptions of the adder's use chains:
   each yields exactly the pinned diagnostics, in order. *)
let test_verify_use_lists () =
  let corrupt f =
    Ir.with_isolated_ids (fun () ->
        let module_op, func = build_add_func () in
        let add = List.hd (Ir.Walk.find_all func "hir.add") in
        let x = add.Ir.operands.(0) and y = add.Ir.operands.(1) in
        let expected = f add x y in
        let engine = Verify.verify_op module_op in
        let got = List.map (fun d -> d.Diagnostic.msg) (Diagnostic.Engine.to_list engine) in
        (expected, got))
  in
  let check what (expected, got) = Alcotest.(check (list string)) what expected got in
  let id v = Ir.Value.id v in
  check "stale owner"
    (corrupt (fun _ x _ ->
         (* Created, so linked into x's chain, but never inserted. *)
         let stray = Ir.Op.create "hir.stray" ~operands:[ x ] ~result_types:[] in
         [
           Printf.sprintf
             "stale use: value %%%d has a use-list entry owned by 'hir.stray' (op %d), which is not in the IR tree"
             (id x) stray.Ir.op_id;
         ]));
  check "wrong value"
    (corrupt (fun add x y ->
         (* Slot 0 now reads y but its node stays in x's chain. *)
         add.Ir.operands.(0) <- y;
         [
           Printf.sprintf
             "use-list corruption: operand 0 of 'hir.add' reads %%%d but sits in the use list of %%%d"
             (id y) (id x);
           Printf.sprintf
             "use-list corruption: operand 0 of 'hir.add' is missing from the use list of %%%d"
             (id y);
         ]));
  check "missing slot"
    (corrupt (fun add _ y ->
         Ir.unlink_slot add.Ir.op_slots.(1);
         [
           Printf.sprintf
             "use-list corruption: operand 1 of 'hir.add' is missing from the use list of %%%d"
             (id y);
         ]));
  check "duplicated slot"
    (corrupt (fun add _ _ ->
         Ir.link_slot { Ir.u_owner = add; u_index = 0; u_prev = None; u_next = None };
         [ "use-list corruption: operand 0 of 'hir.add' appears 2 times in its value's use list" ]))

(* ------------------------------------------------------------------ *)
(* Printing and parsing                                                *)

let test_print_parse_roundtrip () =
  let module_op, _ = build_add_func () in
  let text1 = Printer.op_to_string module_op in
  let reparsed =
    try Parser.parse_string text1
    with
    | Parser.Parse_error (loc, msg) ->
      Alcotest.failf "parse error at %s: %s\nin:\n%s" (Location.to_string loc) msg text1
    | Lexer.Lex_error (loc, msg) ->
      Alcotest.failf "lex error at %s: %s\nin:\n%s" (Location.to_string loc) msg text1
  in
  let text2 = Printer.op_to_string reparsed in
  check_string "round-trip fixpoint" text1 text2;
  match Verify.verify reparsed with
  | Ok () -> ()
  | Error e -> Alcotest.failf "reparsed IR fails verify:\n%s" (Diagnostic.Engine.to_string e)

let test_parse_types () =
  List.iter
    (fun (text, expect) ->
      let lex = Lexer.create text in
      let t = Type_parser.parse lex in
      check_string ("type " ^ text) expect (Typ.to_string t))
    [
      ("i32", "i32");
      ("i1", "i1");
      ("f32", "f32");
      ("none", "none");
      ("!hir.const", "!hir.const");
      ("!hir.time", "!hir.time");
      ("!hir.memref<16*16*i32, r>", "!hir.memref<16*16*i32, r>");
      ("!hir.memref<2*i32, packing=[], w>", "!hir.memref<2*i32, packing=[], w>");
      ("!hir.memref<4*8*i32, packing=[1], rw>", "!hir.memref<4*8*i32, packing=[1], rw>");
    ]

let test_parse_errors () =
  let expect_fail text =
    match Parser.parse_string text with
    | exception (Parser.Parse_error _ | Lexer.Lex_error _) -> ()
    | _ -> Alcotest.failf "expected parse failure for: %s" text
  in
  expect_fail "\"hir.constant\"(";
  expect_fail "%x = \"hir.add\"(%undefined, %undefined) : (i32, i32) -> (i32)";
  expect_fail "\"hir.constant\"() : () -> (!hir.bogus)";
  expect_fail ""

(* Regressions from the fuzzing campaign: each case crashed (or
   silently misbehaved) before the frontend hardening. *)

let wrap_op body =
  Printf.sprintf "\"builtin.module\"() ({\n  ^bb():\n%s\n}) : () -> ()" body

let test_lexer_int_literals () =
  (* "123abc" used to reach int_of_string and crash with [Failure]. *)
  (match Parser.parse_string (wrap_op "  \"hir.nop\"() {value = 123abc} : () -> ()") with
  | exception Lexer.Lex_error (loc, _) ->
    Alcotest.(check bool) "lex error has a location" false (Location.is_unknown loc)
  | exception exn -> Alcotest.failf "wrong exception: %s" (Printexc.to_string exn)
  | _ -> Alcotest.fail "expected a lex error for 123abc");
  (* An out-of-range literal is a lex error, not a [Failure]. *)
  (match
     Parser.parse_string
       (wrap_op "  \"hir.nop\"() {value = 99999999999999999999} : () -> ()")
   with
  | exception Lexer.Lex_error _ -> ()
  | exception exn -> Alcotest.failf "wrong exception: %s" (Printexc.to_string exn)
  | _ -> Alcotest.fail "expected a lex error for an out-of-range literal");
  (* min_int has no positive counterpart, so "-4611686018427387904"
     must parse as one (negative) literal, not overflow. *)
  let m =
    Parser.parse_string
      (wrap_op
         (Printf.sprintf "  \"hir.nop\"() {value = %d} : () -> ()" min_int))
  in
  let nop = List.hd (Ir.Block.ops (Hir_dialect.Builder.module_block m)) in
  (match Ir.Op.attr nop "value" with
  | Some (Attribute.Int n) -> Alcotest.(check bool) "min_int survives" true (n = min_int)
  | _ -> Alcotest.fail "min_int literal lost")

let test_lexer_string_newlines () =
  (* Newlines inside string literals must advance the line counter so
     later locations stay accurate. *)
  let text =
    "\"builtin.module\"() ({\n\
    \  ^bb():\n\
    \  \"hir.nop\"() {tag = \"a\nb\"} : () -> ()\n\
    \  %x = \"hir.oops\"(\n\
     }) : () -> ()"
  in
  match Parser.parse_string ~file:"t.hir" text with
  | exception Parser.Parse_error (Location.File { line; _ }, _) ->
    (* The parser trips on the closing '}' of line 6 once the embedded
       newline is counted (line 5 if the string's newline were lost). *)
    Alcotest.(check int) "line tracks string newlines" 6 line
  | exception exn -> Alcotest.failf "wrong exception: %s" (Printexc.to_string exn)
  | _ -> Alcotest.fail "expected a parse error"

let test_duplicate_ssa_definition () =
  let text =
    wrap_op
      "  %c = \"hir.constant\"() {value = 1} : () -> (!hir.const)\n\
      \  %c = \"hir.constant\"() {value = 2} : () -> (!hir.const)"
  in
  let contains hay needle =
    let n = String.length needle and l = String.length hay in
    let rec go i = i + n <= l && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  match Parser.parse_string ~file:"dup.hir" text with
  | exception Parser.Parse_error (loc, msg) ->
    Alcotest.(check bool) "error is located" false (Location.is_unknown loc);
    Alcotest.(check bool) "message names the value" true (contains msg "%c")
  | exception exn -> Alcotest.failf "wrong exception: %s" (Printexc.to_string exn)
  | _ -> Alcotest.fail "expected duplicate-definition error"

let test_nesting_depth_limit () =
  (* Deeply nested attribute brackets used to exhaust the OCaml stack;
     now the parser reports a diagnostic at its depth limit. *)
  let deep = String.concat "" (List.init 300 (fun _ -> "[")) in
  let text = wrap_op ("  \"hir.nop\"() {v = " ^ deep ^ "} : () -> ()") in
  match Parser.parse_string text with
  | exception Parser.Parse_error (_, msg) ->
    Alcotest.(check bool)
      "mentions nesting" true
      (String.length msg > 0
      && (let lower = String.lowercase_ascii msg in
          let has_sub needle =
            let n = String.length needle and l = String.length lower in
            let rec go i = i + n <= l && (String.sub lower i n = needle || go (i + 1)) in
            go 0
          in
          has_sub "nest" || has_sub "deep"))
  | exception Stack_overflow -> Alcotest.fail "stack overflow: depth limit missing"
  | exception exn -> Alcotest.failf "wrong exception: %s" (Printexc.to_string exn)
  | _ -> Alcotest.fail "expected a depth-limit error"

let test_diagnostics_format () =
  let loc = Location.file ~file:"test/HIR/err_add.mlir" ~line:13 ~col:5 in
  let note_loc = Location.file ~file:"test/HIR/err_add.mlir" ~line:8 ~col:3 in
  let d =
    Diagnostic.error loc
      ~notes:[ Diagnostic.note ~loc:note_loc "Prior definition here." ]
      "Schedule error: mismatched delay (0 vs 1) in address 0!"
  in
  check_string "rendering"
    "test/HIR/err_add.mlir:13:5: error: Schedule error: mismatched delay (0 vs 1) \
     in address 0!\n\
     test/HIR/err_add.mlir:8:3: note: Prior definition here."
    (Diagnostic.to_string d)

let test_pass_manager () =
  let module_op, _ = build_add_func () in
  let ran = ref [] in
  let mk name =
    Pass.make ~name ~description:"test pass" (fun _ _ ->
        ran := name :: !ran;
        false)
  in
  let mgr = Pass.Manager.create ~verify_each:true [ mk "a"; mk "b" ] in
  let result = Pass.Manager.run mgr module_op in
  check_bool "succeeded" true result.Pass.succeeded;
  check_int "both passes ran" 2 (List.length !ran);
  check_int "stats recorded" 2 (List.length result.Pass.stats);
  (* A pass that reports an error halts the pipeline. *)
  let failing =
    Pass.make ~name:"fail" ~description:"fails" (fun op engine ->
        Diagnostic.Engine.error engine (Ir.Op.loc op) "boom";
        false)
  in
  let mgr = Pass.Manager.create [ mk "a"; failing; mk "c" ] in
  ran := [];
  let result = Pass.Manager.run mgr module_op in
  check_bool "failed" false result.Pass.succeeded;
  check_bool "later pass skipped" false (List.mem "c" !ran)

(* A shared table counts exactly while two domains insert and bump the
   same names; scopes nest, and [record] outside any scope is dropped. *)
let test_metrics () =
  let m = Metrics.create ~shared:true () in
  let bump () =
    for i = 1 to 100_000 do
      Metrics.incr m (Printf.sprintf "c%d" (i mod 50))
    done
  in
  let d = Domain.spawn bump in
  bump ();
  Domain.join d;
  let counters = Metrics.counters m in
  check_int "one entry per name" 50 (List.length counters);
  check_int "no lost increments" 200_000 (List.fold_left (fun acc (_, n) -> acc + n) 0 counters);
  Metrics.record "dropped";
  let ((), inner), outer =
    Metrics.with_scope (fun () ->
        Metrics.record ~n:2 "outer";
        Metrics.with_scope (fun () -> Metrics.record "inner"))
  in
  check_bool "inner scope" true (inner = [ ("inner", 1) ]);
  check_bool "outer scope" true (outer = [ ("outer", 2) ]);
  check_bool "every scope closed" true (Option.is_none (Metrics.scope ()))

let test_dialect_registry () =
  check_bool "hir.for registered" true (Dialect.lookup_op "hir.for" <> None);
  check_bool "terminator trait" true (Dialect.op_has_trait "hir.yield" Dialect.Terminator);
  check_bool "pure trait" true (Dialect.op_has_trait "hir.add" Dialect.Pure);
  check_bool "not pure" false (Dialect.op_has_trait "hir.mem_write" Dialect.Pure);
  let ops = Dialect.registered_ops () in
  check_bool "table 2 inventory has >= 25 ops" true (List.length ops >= 25);
  check_bool "sorted" true
    (let names = List.map (fun d -> d.Dialect.od_name) ops in
     names = List.sort String.compare names)

let () =
  Alcotest.run "ir"
    [
      ( "core",
        [
          Alcotest.test_case "construction" `Quick test_construction;
          Alcotest.test_case "walk" `Quick test_walk;
          Alcotest.test_case "rewrite" `Quick test_rewrite;
          Alcotest.test_case "clone" `Quick test_clone;
          Alcotest.test_case "clone with mapping" `Quick test_clone_with_mapping;
          Alcotest.test_case "attributes" `Quick test_attributes;
        ] );
      ( "verify",
        [
          Alcotest.test_case "well-formed" `Quick test_verify_ok;
          Alcotest.test_case "dominance" `Quick test_verify_dominance;
          Alcotest.test_case "dialect verifier" `Quick test_verify_unregistered;
          Alcotest.test_case "use-list corruption" `Quick test_verify_use_lists;
        ] );
      ( "text",
        [
          Alcotest.test_case "print/parse round-trip" `Quick test_print_parse_roundtrip;
          Alcotest.test_case "type parsing" `Quick test_parse_types;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "lexer int literals" `Quick test_lexer_int_literals;
          Alcotest.test_case "string newline tracking" `Quick test_lexer_string_newlines;
          Alcotest.test_case "duplicate SSA definition" `Quick test_duplicate_ssa_definition;
          Alcotest.test_case "nesting depth limit" `Quick test_nesting_depth_limit;
          Alcotest.test_case "diagnostic format" `Quick test_diagnostics_format;
        ] );
      ( "infra",
        [
          Alcotest.test_case "pass manager" `Quick test_pass_manager;
          Alcotest.test_case "dialect registry" `Quick test_dialect_registry;
          Alcotest.test_case "metrics" `Quick test_metrics;
        ] );
    ]
