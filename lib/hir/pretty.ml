(* Paper-style custom assembly format for HIR (the syntax of Listings
   1-4), used for human consumption; the generic form printed by
   [Hir_ir.Printer] remains the parseable round-trip format.

     hir.func @transpose at %t (%Ai : !hir.memref<16*16*i32, r>, ...) {
       %c0 = hir.constant 0
       hir.for %i : i32 = %c0 to %c16 step %c1 iter_time(%ti = %t offset 1) {
         %v = hir.mem_read %Ai[%i, %j] at %tj : i32
         hir.mem_write %v to %Co[%j1, %i] at %tj offset 1
         hir.yield at %tj offset 1
       }
       hir.return
     } *)

open Hir_ir

let buf_add = Buffer.add_string

let value_name namer v = "%" ^ Printer.name_value namer v
let type_name namer v = Printer.type_text namer (Ir.Value.typ v)

let pp_at namer buf ~time ~offset =
  buf_add buf (Printf.sprintf " at %s" (value_name namer time));
  if offset <> 0 then buf_add buf (Printf.sprintf " offset %d" offset)

let pp_indices namer buf indices =
  buf_add buf "[";
  buf_add buf (String.concat ", " (List.map (value_name namer) indices));
  buf_add buf "]"

let rec pp_op namer buf ~indent op =
  let pad = String.make indent ' ' in
  buf_add buf pad;
  let name v = value_name namer v in
  (match Ir.Op.name op with
  | "hir.constant" ->
    buf_add buf
      (Printf.sprintf "%s = hir.constant %d" (name (Ir.Op.result op 0))
         (Ops.constant_value op))
  | "hir.for" ->
    let iv = Ops.loop_induction_var op in
    let ti = Ops.loop_iter_time op in
    buf_add buf
      (Printf.sprintf "%s = hir.for %s : %s = %s to %s step %s iter_time(%s = %s offset %d) {"
         (name (Ir.Op.result op 0))
         (name iv)
         (type_name namer iv)
         (name (Ops.for_lb op)) (name (Ops.for_ub op)) (name (Ops.for_step op))
         (name ti) (name (Ops.for_time op)) (Ops.for_offset op));
    buf_add buf "\n";
    List.iter (pp_op namer buf ~indent:(indent + 2)) (Ir.Block.ops (Ops.loop_body op));
    buf_add buf (pad ^ "}")
  | "hir.unroll_for" ->
    let body = Ops.loop_body op in
    buf_add buf
      (Printf.sprintf "%s = hir.unroll_for %s = %d to %d step %d iter_time(%s = %s offset %d) {"
         (name (Ir.Op.result op 0))
         (name (Ir.Block.arg body 0))
         (Ops.unroll_for_lb op) (Ops.unroll_for_ub op) (Ops.unroll_for_step op)
         (name (Ir.Block.arg body 1))
         (name (Ops.unroll_for_time op))
         (Ops.unroll_for_offset op));
    buf_add buf "\n";
    List.iter (pp_op namer buf ~indent:(indent + 2)) (Ir.Block.ops body);
    buf_add buf (pad ^ "}")
  | "hir.yield" ->
    buf_add buf "hir.yield";
    pp_at namer buf ~time:(Ops.yield_time op) ~offset:(Ops.yield_offset op)
  | "hir.return" ->
    buf_add buf "hir.return";
    (match Ir.Op.operands op with
    | [] -> ()
    | vs -> buf_add buf (" " ^ String.concat ", " (List.map name vs)))
  | "hir.mem_read" ->
    buf_add buf (Printf.sprintf "%s = hir.mem_read %s" (name (Ir.Op.result op 0))
                   (name (Ops.mem_read_mem op)));
    pp_indices namer buf (Ops.mem_read_indices op);
    pp_at namer buf ~time:(Ops.mem_read_time op) ~offset:(Ops.mem_read_offset op);
    buf_add buf
      (Printf.sprintf " : %s" (type_name namer (Ir.Op.result op 0)))
  | "hir.mem_write" ->
    buf_add buf
      (Printf.sprintf "hir.mem_write %s to %s" (name (Ops.mem_write_value op))
         (name (Ops.mem_write_mem op)));
    pp_indices namer buf (Ops.mem_write_indices op);
    pp_at namer buf ~time:(Ops.mem_write_time op) ~offset:(Ops.mem_write_offset op)
  | "hir.delay" ->
    buf_add buf
      (Printf.sprintf "%s = hir.delay %s by %d" (name (Ir.Op.result op 0))
         (name (Ops.delay_input op)) (Ops.delay_by op));
    pp_at namer buf ~time:(Ops.delay_time op) ~offset:(Ops.delay_offset op);
    buf_add buf
      (Printf.sprintf " : %s" (type_name namer (Ir.Op.result op 0)))
  | "hir.call" ->
    (match Ir.Op.results op with
    | [] -> ()
    | rs ->
      buf_add buf (String.concat ", " (List.map name rs));
      buf_add buf " = ");
    buf_add buf (Printf.sprintf "hir.call @%s(" (Ops.call_callee op));
    buf_add buf (String.concat ", " (List.map name (Ops.call_args op)));
    buf_add buf ")";
    pp_at namer buf ~time:(Ops.call_time op) ~offset:(Ops.call_offset op);
    let delays = Ops.call_result_delays op in
    (match (Ir.Op.results op, delays) with
    | [ r ], [ d ] ->
      buf_add buf
        (Printf.sprintf " : (%s delay %d)" (type_name namer r) d)
    | _ -> ())
  | "hir.alloc" ->
    buf_add buf
      (String.concat ", " (List.map name (Ir.Op.results op)));
    buf_add buf
      (Printf.sprintf " = hir.alloc() {%s} : %s"
         (Ops.mem_kind_to_string (Ops.alloc_kind op))
         (String.concat ", "
            (List.map (type_name namer) (Ir.Op.results op))))
  | "hir.select" ->
    buf_add buf
      (Printf.sprintf "%s = hir.select %s, %s, %s" (name (Ir.Op.result op 0))
         (name (Ir.Op.operand op 0)) (name (Ir.Op.operand op 1))
         (name (Ir.Op.operand op 2)))
  | op_name
    when List.mem op_name Ops.binary_compute_ops || List.mem op_name Ops.comparison_ops
    ->
    buf_add buf
      (Printf.sprintf "%s = %s (%s, %s) : (%s, %s) -> (%s)"
         (name (Ir.Op.result op 0))
         op_name
         (name (Ir.Op.operand op 0))
         (name (Ir.Op.operand op 1))
         (type_name namer (Ir.Op.operand op 0))
         (type_name namer (Ir.Op.operand op 1))
         (type_name namer (Ir.Op.result op 0)))
  | _ ->
    (* Fallback: generic syntax for anything without a custom form. *)
    Printer.add_op ~indent namer buf op);
  buf_add buf "\n"

let pp_func namer buf func =
  if Ops.is_extern_func func then begin
    buf_add buf (Printf.sprintf "hir.func extern @%s" (Ops.func_name func));
    buf_add buf "\n"
  end
  else begin
    let time = Ops.func_time_arg func in
    buf_add buf
      (Printf.sprintf "hir.func @%s at %s (" (Ops.func_name func)
         (value_name namer time));
    buf_add buf
      (String.concat ", "
         (List.map
            (fun a ->
              Printf.sprintf "%s : %s" (value_name namer a)
                (type_name namer a))
            (Ops.func_data_args func)));
    buf_add buf ") {\n";
    List.iter (pp_op namer buf ~indent:2) (Ir.Block.ops (Ops.func_body func));
    buf_add buf "}\n"
  end

let module_to_string module_op =
  let namer = Printer.create_namer () in
  let buf = Buffer.create 4096 in
  List.iteri
    (fun i f ->
      if i > 0 then buf_add buf "\n";
      pp_func namer buf f)
    (Ops.module_funcs module_op);
  Buffer.contents buf
