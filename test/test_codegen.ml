(* End-to-end backend tests: every kernel is lowered to Verilog, the
   generated design is elaborated and simulated cycle-by-cycle with
   external memory agents, and the outputs must match the software
   reference model.  The automatically inserted UB assertions (§4.5)
   must stay silent on correct designs.

   Both the unoptimized and the fully optimized (canonicalize +
   precision + delay-elimination) pipelines are exercised. *)

open Hir_ir
open Hir_dialect
module Emit = Hir_codegen.Emit
module Harness = Hir_rtl.Harness

let () = Ops.register ()

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let compare_tensors ~name ?(valid = fun _ -> true) expected actual =
  if Array.length expected <> Array.length actual then
    Alcotest.failf "%s: tensor size mismatch" name;
  Array.iteri
    (fun i e ->
      if valid i then
        match actual.(i) with
        | Some got when Bitvec.equal got e -> ()
        | Some got ->
          Alcotest.failf "%s[%d]: expected %s, got %s" name i (Bitvec.to_string e)
            (Bitvec.to_string got)
        | None -> Alcotest.failf "%s[%d]: never written" name i)
    expected

let no_failures (result : Harness.run_result) =
  match result.failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "assertion failed at cycle %d: %s" f.Hir_rtl.Sim.at_cycle
      f.Hir_rtl.Sim.message

(* What a compile must leave as it was: the module's ops (their
   canonical print, which ignores value names), and the interpreter's
   result on them, with every memref argument's final contents. *)
let module_state ~m ~f inputs =
  let result, tensors = Interp.run ~module_op:m ~func:f (List.map Harness.interp_input inputs) in
  ( Printer.op_to_canonical_string m,
    result,
    List.concat
      (List.mapi
         (fun i -> function
           | Harness.Scalar _ -> []
           | _ -> [ Interp.tensor_snapshot (tensors i) ~cycle:max_int ])
         inputs) )

(* The interpreter gives the cycle budget for the RTL run, and runs
   again on the module after the compile. *)
let run_kernel_rtl ~optimize ~build inputs =
  let m, f = build () in
  let ((_, interp, _) as before) = module_state ~m ~f inputs in
  let cycles = interp.Interp.cycles in
  let emitted = Emit.compile ~optimize ~module_op:m ~top:f () in
  check_bool "compile leaves the module as it was" true (module_state ~m ~f inputs = before);
  let result, agents = Harness.run ~emitted ~inputs ~cycles () in
  no_failures result;
  (result, agents)

let rtl_case ~optimize kernel_name build inputs ~expected ?valid ~out_arg () =
  let _result, agents = run_kernel_rtl ~optimize ~build inputs in
  let actual = Harness.nth_tensor agents out_arg in
  compare_tensors ~name:kernel_name ?valid expected actual

(* ------------------------------------------------------------------ *)
(* Per-kernel cases                                                    *)

let transpose_case ~optimize () =
  let input = Hir_kernels.Transpose.make_input ~seed:31 in
  rtl_case ~optimize "transpose" Hir_kernels.Transpose.build
    [ Harness.Tensor input; Harness.Out_tensor ]
    ~expected:(Hir_kernels.Transpose.reference input)
    ~out_arg:1 ()

let stencil_case ~optimize () =
  let input = Hir_kernels.Stencil1d.make_input ~seed:32 in
  let lo, hi = Hir_kernels.Stencil1d.valid_range in
  rtl_case ~optimize "stencil" Hir_kernels.Stencil1d.build
    [ Harness.Tensor input; Harness.Out_tensor ]
    ~expected:(Hir_kernels.Stencil1d.reference input)
    ~valid:(fun i -> i >= lo && i <= hi)
    ~out_arg:1 ()

let histogram_case ~optimize () =
  let input = Hir_kernels.Histogram.make_input ~seed:33 in
  rtl_case ~optimize "histogram" Hir_kernels.Histogram.build
    [ Harness.Tensor input; Harness.Out_tensor ]
    ~expected:(Hir_kernels.Histogram.reference input)
    ~out_arg:1 ()

let gemm_case ~optimize () =
  let a, b = Hir_kernels.Gemm.make_inputs ~seed:34 in
  rtl_case ~optimize "gemm" (fun () -> Hir_kernels.Gemm.build ())
    [ Harness.Tensor a; Harness.Tensor b; Harness.Out_tensor ]
    ~expected:(Hir_kernels.Gemm.reference a b)
    ~out_arg:2 ()

let convolution_case ~optimize () =
  let input = Hir_kernels.Convolution.make_input ~seed:35 in
  rtl_case ~optimize "convolution" Hir_kernels.Convolution.build
    [ Harness.Tensor input; Harness.Out_tensor ]
    ~expected:(Hir_kernels.Convolution.reference input)
    ~valid:Hir_kernels.Convolution.is_valid_index ~out_arg:1 ()

let fifo_case ~optimize () =
  let input = Hir_kernels.Fifo.make_input ~seed:36 in
  rtl_case ~optimize "fifo" Hir_kernels.Fifo.build
    [ Harness.Tensor input; Harness.Out_tensor ]
    ~expected:(Hir_kernels.Fifo.reference input)
    ~out_arg:1 ()

let elementwise_max_case ~optimize () =
  let a, b = Hir_kernels.Elementwise_max.make_inputs ~seed:38 in
  rtl_case ~optimize "elementwise_max" Hir_kernels.Elementwise_max.build
    [ Harness.Tensor a; Harness.Tensor b; Harness.Out_tensor ]
    ~expected:(Hir_kernels.Elementwise_max.reference a b)
    ~out_arg:2 ()

let task_parallel_case ~optimize () =
  let input = Hir_kernels.Taskparallel.make_input ~seed:37 in
  let lo, hi = Hir_kernels.Taskparallel.valid_range in
  rtl_case ~optimize "task_parallel" Hir_kernels.Taskparallel.build
    [ Harness.Tensor input; Harness.Out_tensor ]
    ~expected:(Hir_kernels.Taskparallel.reference input)
    ~valid:(fun i -> i >= lo && i <= hi)
    ~out_arg:1 ()

(* ------------------------------------------------------------------ *)
(* Structure and assertion behaviour                                   *)

let test_verilog_text () =
  let m, f = Hir_kernels.Transpose.build () in
  let emitted = Emit.compile ~module_op:m ~top:f () in
  let text = Hir_verilog.Pretty.design_to_string emitted.Emit.design in
  let contains needle =
    let n = String.length needle and mlen = String.length text in
    let rec go i = i + n <= mlen && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "module declared" true (contains "module transpose");
  check_bool "has clock" true (contains "posedge clk");
  check_bool "memref bank buses" true (contains "Ai_rd_en_0");
  check_bool "location comments present" true (contains "//");
  check_bool "instantiable text nonempty" true (String.length text > 500)

let test_assertion_fires_on_conflict () =
  (* Two reads on the same port, same cycle, different addresses: the
     generated assertion must fire in simulation.  (The schedule
     verifier would reject this; we bypass it deliberately, as a
     designer using raw Verilog would.) *)
  let m = Builder.create_module () in
  let f =
    Builder.func m ~name:"conflict"
      ~args:
        [
          Builder.arg "A" (Types.memref ~dims:[ 8 ] ~elem:Typ.i32 ~port:Types.Read ());
          Builder.arg "O" (Types.memref ~dims:[ 8 ] ~elem:Typ.i32 ~port:Types.Write ());
        ]
      (fun b args t ->
        match args with
        | [ a; o ] ->
          let c0 = Builder.constant b 0 in
          let c1 = Builder.constant b 1 in
          let x = Builder.mem_read b a [ c0 ] ~at:Builder.(t @>> 0) in
          let y = Builder.mem_read b a [ c1 ] ~at:Builder.(t @>> 0) in
          let s = Builder.add b x y in
          Builder.mem_write b s o [ c0 ] ~at:Builder.(t @>> 1);
          Builder.return_ b []
        | _ -> assert false)
  in
  let emitted = Emit.compile ~module_op:m ~top:f () in
  let input = Hir_kernels.Util.test_data ~seed:1 ~n:8 ~width:32 in
  let result, _ =
    Harness.run ~emitted
      ~inputs:[ Harness.Tensor input; Harness.Out_tensor ]
      ~cycles:4 ()
  in
  check_bool "assertion fired" true (result.Harness.failures <> []);
  let msg = (List.hd result.Harness.failures).Hir_rtl.Sim.message in
  check_bool "mentions conflicting reads" true
    (let n = String.length "conflicting reads" in
     let rec go i =
       i + n <= String.length msg && (String.sub msg i n = "conflicting reads" || go (i + 1))
     in
     go 0)

let test_scalar_results () =
  (* A function with scalar results: the MAC from Figure 2 with
     balanced delays, checked against direct evaluation. *)
  let build () =
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
        (fun bld args t ->
          match args with
          | [ a; b; c ] ->
            let p = List.hd (Builder.call bld ~callee:mult [ a; b ] ~at:Builder.(t @>> 0)) in
            let c2 = Builder.delay bld c ~by:2 ~at:Builder.(t @>> 0) in
            let r = Builder.add bld p c2 in
            Builder.return_ bld [ r ]
          | _ -> assert false)
    in
    (m, f)
  in
  let m, f = build () in
  let emitted = Emit.compile ~module_op:m ~top:f () in
  let bv = Bitvec.of_int ~width:32 in
  let result, _ =
    Harness.run ~emitted
      ~inputs:[ Harness.Scalar (bv 7); Harness.Scalar (bv 6); Harness.Scalar (bv 100) ]
      ~cycles:4 ()
  in
  no_failures result;
  (match result.Harness.output_values with
  | [ (_, v) ] -> check_int "7*6+100" 142 (Bitvec.to_int v)
  | _ -> Alcotest.fail "expected one result")

(* A call cycle has no finite hardware: a module would have to
   instantiate itself.  The emitter rejects it instead of emitting a
   self-instantiating module, both when the top calls itself and when
   the cycle sits below the top.  Its cone walk is the one a driver job
   runs, so a job fails with "codegen: " and the same text
   (test_driver's call-cycle case). *)
let test_call_cycle_rejected () =
  (* An i32 -> i32 function returning the result of one call. *)
  let func name callee =
    Printf.sprintf
      {|  "hir.func"() ({
    ^bb(%%%s_x: i32, %%%s_t: !hir.time):
    %%%s_r = "hir.call"(%%%s_x, %%%s_t) {arg_delays = [0], callee = @%s, offset = 0, result_delays = [1]} : (i32, !hir.time) -> (i32)
    "hir.return"(%%%s_r) : (i32) -> ()
  }) {arg_delays = [0], arg_names = ["x"], arg_types = [!ty<i32>], result_delays = [1], result_types = [!ty<i32>], sym_name = @%s} : () -> ()
|}
      name name name name name callee name name
  in
  let expect_cycle label funcs ~top =
    let text =
      "\"builtin.module\"() ({\n  ^bb():\n"
      ^ String.concat "" (List.map (fun (f, callee) -> func f callee) funcs)
      ^ "}) : () -> ()\n"
    in
    let module_op = Parser.parse_string ~file:"cycle.hir" text in
    let top = Option.get (Ops.lookup_func module_op top) in
    match Emit.compile ~module_op ~top () with
    | _ -> Alcotest.failf "%s: emitted a design with a call cycle" label
    | exception Emit.Codegen_error msg -> msg
  in
  Alcotest.(check string) "top calls itself" "call cycle through @f"
    (expect_cycle "top calls itself" [ ("f", "f") ] ~top:"f");
  Alcotest.(check string) "cycle below the top" "call cycle through @g"
    (expect_cycle "cycle below the top"
       [ ("g", "h"); ("h", "g"); ("top", "g") ]
       ~top:"top")

(* The cone walk's other two rejections, with the texts a driver job
   prints after "codegen: " (test_driver's unknown-callee and
   extern-top cases). *)
let test_cone_errors () =
  let rejects label expected ~module_op ~top =
    match Emit.compile ~module_op ~top () with
    | _ -> Alcotest.failf "%s: compiled" label
    | exception Emit.Codegen_error msg -> Alcotest.(check string) label expected msg
  in
  let m = Builder.create_module () in
  let mult =
    Builder.extern_func m ~name:"mult"
      ~args:[ Builder.arg "a" Typ.i32; Builder.arg "b" Typ.i32 ]
      ~results:[ (Typ.i32, 2) ]
  in
  rejects "extern top" "top function @mult is extern (it has no body to emit)" ~module_op:m
    ~top:mult;
  let f =
    Builder.func m ~name:"f" ~args:[ Builder.arg "x" Typ.i32 ] ~results:[ (Typ.i32, 2) ]
      (fun b args t ->
        let x = List.hd args in
        Builder.return_ b (Builder.call b ~callee:mult [ x; x ] ~at:Builder.(t @>> 0)))
  in
  Ir.Op.set_attr
    (List.hd (Ir.Walk.find_all f "hir.call"))
    "callee" (Attribute.Symbol "nope");
  rejects "unknown callee" "call to unknown function @nope" ~module_op:m ~top:f

(* ------------------------------------------------------------------ *)
(* Names: the IR printer and the Verilog namer pick the same suffixes  *)

(* Name a sequence of hints through both namers; they must agree with
   each other and with [expected]. *)
let check_naming label hints expected =
  let block =
    Ir.Block.create ~arg_hints:(List.map Option.some hints) (List.map (fun _ -> Typ.i32) hints)
  in
  let namer = Printer.create_namer () in
  let printed = List.map (Printer.name_value namer) (Ir.Block.args block) in
  let names = Hir_codegen.Names.create () in
  let fresh = List.map (Hir_codegen.Names.fresh names) hints in
  Alcotest.(check (list string)) (label ^ " (printer)") expected printed;
  Alcotest.(check (list string)) (label ^ " (Names.fresh)") expected fresh

let test_naming () =
  check_naming "repeats" [ "x"; "x_1"; "x"; "x" ] [ "x"; "x_1"; "x_2"; "x_3" ];
  check_naming "suffixed hint first" [ "x_1"; "x"; "x" ] [ "x_1"; "x"; "x_2" ];
  check_naming "suffix of a suffix" [ "x"; "x"; "x_1" ] [ "x"; "x_1"; "x_1_1" ];
  check_naming "2000 copies"
    (List.init 2000 (fun _ -> "h"))
    (List.init 2000 (fun i -> if i = 0 then "h" else Printf.sprintf "h_%d" i))

(* ------------------------------------------------------------------ *)
(* Legal Verilog from hostile names                                    *)

let compile_text text =
  let m = Parser.parse_string ~file:"test.hir" text in
  let top = List.nth (Ops.module_funcs m) (List.length (Ops.module_funcs m) - 1) in
  (Emit.compile ~module_op:m ~top ()).Emit.design

(* fifo.hir with a location whose file name ends the comment it is
   printed in and starts a module of its own. *)
let fifo_with_newline_loc =
  {|"builtin.module"() ({
  ^bb():
  "hir.func"() ({
    ^bb(%in_stream: !hir.memref<64*i32, r>, %out_stream: !hir.memref<64*i32, w>, %t: !hir.time):
    %c0 = "hir.constant"() {value = 0} : () -> (!hir.const)
    %c1 = "hir.constant"() {value = 1} : () -> (!hir.const)
    %c64 = "hir.constant"() {value = 64} : () -> (!hir.const)
    %v124, %v125 = "hir.alloc"() {mem_kind = "bram"} : () -> (!hir.memref<256*i32, r>, !hir.memref<256*i32, w>)
    %tf_i = "hir.for"(%c0, %c64, %c1, %t) ({
      ^bb(%i: i32, %ti: !hir.time):
      "hir.yield"(%ti) {offset = 1} : (!hir.time) -> ()
      %v134 = "hir.mem_read"(%in_stream, %i, %ti) {latency = 1, offset = 0} : (!hir.memref<64*i32, r>, i32, !hir.time) -> (i32)
      %v136 = "hir.delay"(%i, %ti) {by = 1, offset = 0} : (i32, !hir.time) -> (i32)
      "hir.mem_write"(%v134, %v125, %v136, %ti) {offset = 1} : (i32, !hir.memref<256*i32, w>, i32, !hir.time) -> () loc("x\nendmodule\nmodule injected (input wire q);":3:4)
      %v139 = "hir.delay"(%v136, %ti) {by = 1, offset = 1} : (i32, !hir.time) -> (i32)
      %v141 = "hir.mem_read"(%v124, %v139, %ti) {latency = 1, offset = 2} : (!hir.memref<256*i32, r>, i32, !hir.time) -> (i32)
      %v143 = "hir.delay"(%v139, %ti) {by = 1, offset = 2} : (i32, !hir.time) -> (i32)
      "hir.mem_write"(%v141, %out_stream, %v143, %ti) {offset = 3} : (i32, !hir.memref<64*i32, w>, i32, !hir.time) -> ()
    }) {offset = 1} : (!hir.const, !hir.const, !hir.const, !hir.time) -> (!hir.time)
    "hir.return"() : () -> ()
  }) {arg_delays = [0, 0], arg_names = ["in_stream", "out_stream"], arg_types = [!ty<!hir.memref<64*i32, r>>, !ty<!hir.memref<64*i32, w>>], result_delays = [], result_types = [], sym_name = @fifo} : () -> ()
}) : () -> ()|}

let test_comment_injection () =
  let text = Hir_verilog.Pretty.design_to_string (compile_text fifo_with_newline_loc) in
  let injected =
    List.filter
      (fun l -> String.starts_with ~prefix:"module injected" l)
      (String.split_on_char '\n' text)
  in
  Alcotest.(check (list string)) "no line starts a module from a comment" [] injected

(* stencil_1d.hir with Verilog keywords for two wires (%and, %initial),
   a scalar port ("reg") and the callee's module name (@task). *)
let stencil_with_keywords =
  {|"builtin.module"() ({
  ^bb():
  "hir.func"() ({
    ^bb(%v0: i32, %v1: i32, %t: !hir.time):
    %c3 = "hir.constant"() {value = 3} : () -> (!hir.const)
    %c5 = "hir.constant"() {value = 5} : () -> (!hir.const)
    %initial = "hir.mult"(%v0, %c3) : (i32, !hir.const) -> (i32)
    %v52 = "hir.mult"(%v1, %c5) : (i32, !hir.const) -> (i32)
    %and = "hir.add"(%initial, %v52) : (i32, i32) -> (i32)
    %v56 = "hir.delay"(%and, %t) {by = 1, offset = 0} : (i32, !hir.time) -> (i32)
    "hir.return"(%v56) : (i32) -> ()
  }) {arg_delays = [0, 0], arg_names = ["reg", "v1"], arg_types = [!ty<i32>, !ty<i32>], result_delays = [1], result_types = [!ty<i32>], sym_name = @task} : () -> ()
  "hir.func"() ({
    ^bb(%Ai: !hir.memref<64*i32, r>, %Bw: !hir.memref<64*i32, w>, %t_1: !hir.time):
    %c0 = "hir.constant"() {value = 0} : () -> (!hir.const)
    %c1 = "hir.constant"() {value = 1} : () -> (!hir.const)
    %c0_1 = "hir.constant"() {value = 0} : () -> (!hir.const)
    %c1_1 = "hir.constant"() {value = 1} : () -> (!hir.const)
    %c63 = "hir.constant"() {value = 63} : () -> (!hir.const)
    %v75, %v76 = "hir.alloc"() {mem_kind = "reg"} : () -> (!hir.memref<2*i32, packing=[], r>, !hir.memref<2*i32, packing=[], w>)
    %v78 = "hir.mem_read"(%Ai, %c0_1, %t_1) {latency = 1, offset = 0} : (!hir.memref<64*i32, r>, !hir.const, !hir.time) -> (i32)
    %v80 = "hir.delay"(%v78, %t_1) {by = 1, offset = 1} : (i32, !hir.time) -> (i32)
    %v82 = "hir.mem_read"(%Ai, %c1_1, %t_1) {latency = 1, offset = 1} : (!hir.memref<64*i32, r>, !hir.const, !hir.time) -> (i32)
    "hir.mem_write"(%v80, %v76, %c0, %t_1) {offset = 2} : (i32, !hir.memref<2*i32, packing=[], w>, !hir.const, !hir.time) -> ()
    "hir.mem_write"(%v82, %v76, %c1, %t_1) {offset = 2} : (i32, !hir.memref<2*i32, packing=[], w>, !hir.const, !hir.time) -> ()
    %tf_i = "hir.for"(%c1_1, %c63, %c1, %t_1) ({
      ^bb(%i: i32, %ti: !hir.time):
      "hir.yield"(%ti) {offset = 1} : (!hir.time) -> ()
      %v93 = "hir.mem_read"(%v75, %c0, %ti) {latency = 0, offset = 1} : (!hir.memref<2*i32, packing=[], r>, !hir.const, !hir.time) -> (i32)
      %v95 = "hir.mem_read"(%v75, %c1, %ti) {latency = 0, offset = 1} : (!hir.memref<2*i32, packing=[], r>, !hir.const, !hir.time) -> (i32)
      %v97 = "hir.add"(%i, %c1) : (i32, !hir.const) -> (i32)
      %v99 = "hir.mem_read"(%Ai, %v97, %ti) {latency = 1, offset = 0} : (!hir.memref<64*i32, r>, i32, !hir.time) -> (i32)
      "hir.mem_write"(%v95, %v76, %c0, %ti) {offset = 1} : (i32, !hir.memref<2*i32, packing=[], w>, !hir.const, !hir.time) -> ()
      "hir.mem_write"(%v99, %v76, %c1, %ti) {offset = 1} : (i32, !hir.memref<2*i32, packing=[], w>, !hir.const, !hir.time) -> ()
      %v103 = "hir.call"(%v93, %v95, %ti) {arg_delays = [0, 0], callee = @task, offset = 1, result_delays = [1]} : (i32, i32, !hir.time) -> (i32)
      %v105 = "hir.delay"(%i, %ti) {by = 2, offset = 0} : (i32, !hir.time) -> (i32)
      "hir.mem_write"(%v103, %Bw, %v105, %ti) {offset = 2} : (i32, !hir.memref<64*i32, w>, i32, !hir.time) -> ()
    }) {offset = 3} : (!hir.const, !hir.const, !hir.const, !hir.time) -> (!hir.time)
    "hir.return"() : () -> ()
  }) {arg_delays = [0, 0], arg_names = ["Ai", "Bw"], arg_types = [!ty<!hir.memref<64*i32, r>>, !ty<!hir.memref<64*i32, w>>], result_delays = [], result_types = [], sym_name = @stencil_1d} : () -> ()
}) : () -> ()|}

(* IEEE 1364-2005 reserved words (Annex B). *)
let verilog_keywords =
  String.split_on_char ' '
    "always and assign automatic begin buf bufif0 bufif1 case casex casez cell cmos \
     config deassign default defparam design disable edge else end endcase endconfig \
     endfunction endgenerate endmodule endprimitive endspecify endtable endtask event \
     for force forever fork function generate genvar highz0 highz1 if ifnone incdir \
     include initial inout input instance integer join large liblist library localparam \
     macromodule medium module nand negedge nmos nor noshowcancelled not notif0 notif1 or \
     output parameter pmos posedge primitive pull0 pull1 pulldown pullup \
     pulsestyle_ondetect pulsestyle_onevent rcmos real realtime reg release repeat rnmos \
     rpmos rtran rtranif0 rtranif1 scalared showcancelled signed small specify specparam \
     strong0 strong1 supply0 supply1 table task time tran tranif0 tranif1 tri tri0 tri1 \
     triand trior trireg unsigned use uwire vectored wait wand weak0 weak1 while wire wor \
     xnor xor"

let test_keyword_identifiers () =
  let design = compile_text stencil_with_keywords in
  let declared =
    List.concat_map
      (fun (m : Hir_verilog.Ast.module_def) ->
        (m.mod_name :: List.map (fun p -> p.Hir_verilog.Ast.port_name) m.ports)
        @ List.filter_map
            (function
              | Hir_verilog.Ast.Wire_decl { name; _ }
              | Hir_verilog.Ast.Reg_decl { name; _ }
              | Hir_verilog.Ast.Mem_decl { name; _ } -> Some name
              | Hir_verilog.Ast.Instance { module_name; instance_name; _ } ->
                Some (module_name ^ " " ^ instance_name)
              | _ -> None)
            m.items)
      design.Hir_verilog.Ast.modules
    |> List.concat_map (String.split_on_char ' ')
  in
  Alcotest.(check (list string)) "no keyword declared" []
    (List.filter (fun n -> List.mem n verilog_keywords) declared)

(* The outliner's work on the two large designs, read from the
   [Metrics] scope around an optimized compile: each class is
   canonicalized and printed once, however many sites join it. *)
let test_outline_counts () =
  List.iter
    (fun (what, build, expected) ->
      let _, counters =
        Metrics.with_scope (fun () ->
            let m, f = build () in
            ignore (Emit.compile ~optimize:true ~module_op:m ~top:f ()))
      in
      Alcotest.(check (list (pair string int)))
        what expected
        (List.filter (fun (k, _) -> String.starts_with ~prefix:"outline." k) counters))
    [
      ( "gemm 16x16",
        (fun () -> Hir_kernels.Gemm.build ~n:16 ()),
        [
          ("outline.classes", 2);
          ("outline.instances", 256);
          ("outline.prints", 2);
          ("outline.sites", 257);
        ] );
      ( "systolic 16x16",
        (fun () -> Hir_kernels.Systolic.build ~n:16 ()),
        [
          ("outline.classes", 4);
          ("outline.instances", 255);
          ("outline.prints", 4);
          ("outline.sites", 256);
        ] );
    ]

let suite ~optimize =
  let tag name = if optimize then name ^ " (optimized)" else name in
  [
    Alcotest.test_case (tag "transpose") `Quick (transpose_case ~optimize);
    Alcotest.test_case (tag "stencil") `Quick (stencil_case ~optimize);
    Alcotest.test_case (tag "histogram") `Quick (histogram_case ~optimize);
    Alcotest.test_case (tag "gemm") `Slow (gemm_case ~optimize);
    Alcotest.test_case (tag "convolution") `Quick (convolution_case ~optimize);
    Alcotest.test_case (tag "fifo") `Quick (fifo_case ~optimize);
    Alcotest.test_case (tag "task parallel") `Quick (task_parallel_case ~optimize);
    Alcotest.test_case (tag "elementwise max") `Quick (elementwise_max_case ~optimize);
  ]

let () =
  Alcotest.run "codegen"
    [
      ("rtl equivalence", suite ~optimize:false);
      ("rtl equivalence optimized", suite ~optimize:true);
      ( "structure",
        [
          Alcotest.test_case "verilog text" `Quick test_verilog_text;
          Alcotest.test_case "UB assertion fires" `Quick test_assertion_fires_on_conflict;
          Alcotest.test_case "scalar results (MAC)" `Quick test_scalar_results;
          Alcotest.test_case "call cycle rejected" `Quick test_call_cycle_rejected;
          Alcotest.test_case "unknown callee, extern top rejected" `Quick test_cone_errors;
          Alcotest.test_case "newline in a location comment" `Quick test_comment_injection;
          Alcotest.test_case "keywords as identifiers" `Quick test_keyword_identifiers;
        ] );
      ("naming", [ Alcotest.test_case "printer and Names suffixes" `Quick test_naming ]);
      ("outline", [ Alcotest.test_case "sites, classes, prints, instances" `Quick test_outline_counts ]);
    ]
