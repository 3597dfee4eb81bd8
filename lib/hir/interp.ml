(* Cycle-accurate interpreter for verified HIR designs.

   Execution follows the textual (SSA) order but tracks the absolute
   clock cycle of every event, so latencies, initiation intervals and
   lock-step task parallelism are all observable.  Memory cells keep
   their full write history ((commit_cycle, value) pairs); a read at
   cycle T returns the latest value committed at or before T, and a
   write issued at cycle T commits at T+1 — exactly the RAM semantics
   the code generator lowers to.

   The interpreter requires IR that passed both the structural and the
   schedule verifier; on such IR the textual order is consistent with
   the data flow, including cross-task lock-step pipelines where the
   producing task appears before the consuming task. *)

open Hir_ir

exception Runtime_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Values                                                              *)

type data =
  | Bits of Bitvec.t
  | Const_int of int  (* a !hir.const: width-polymorphic *)

let data_to_int = function
  | Bits b -> Bitvec.to_signed_int b
  | Const_int n -> n

let data_to_unsigned = function
  | Bits b -> Bitvec.to_int b
  | Const_int n ->
    if n < 0 then fail "negative constant used as unsigned" else n

let data_to_bits ~width = function
  | Bits b ->
    if Bitvec.width b = width then b
    else fail "width mismatch: value has %d bits, expected %d" (Bitvec.width b) width
  | Const_int n -> Bitvec.of_int ~width n

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)

type cell = { mutable history : (int * Bitvec.t) list (* newest first *) }

type tensor = {
  cells : cell array;  (* linearized over all dims, row-major *)
  info : Types.memref_info;
  elem_width : int;
}

let tensor_create info =
  let elem_width =
    match Typ.bit_width info.Types.elem with
    | Some w -> w
    | None -> fail "memref element type has no bit width"
  in
  {
    cells = Array.init (Types.num_elements info) (fun _ -> { history = [] });
    info;
    elem_width;
  }

let linear_index info indices =
  let rec go dims indices acc =
    match (dims, indices) with
    | [], [] -> acc
    | d :: dims, i :: indices ->
      if i < 0 || i >= d.Types.size then
        fail "memory access out of bounds: index %d exceeds dimension of size %d" i
          d.Types.size
      else go dims indices ((acc * d.Types.size) + i)
    | _ -> fail "memory access rank mismatch"
  in
  go info.Types.dims indices 0

let tensor_read tensor indices ~cycle =
  let cell = tensor.cells.(linear_index tensor.info indices) in
  let rec find = function
    | [] ->
      fail "read of uninitialized memory at cycle %d (undefined behaviour per §4.5)"
        cycle
    | (commit, v) :: rest -> if commit <= cycle then v else find rest
  in
  find cell.history

let tensor_write tensor indices value ~cycle =
  let cell = tensor.cells.(linear_index tensor.info indices) in
  (* Commit one cycle after issue. *)
  cell.history <- (cycle + 1, value) :: cell.history

let tensor_init tensor values =
  Array.iteri
    (fun i v -> tensor.cells.(i).history <- [ (min_int, v) ])
    values

let tensor_snapshot tensor ~cycle =
  Array.map
    (fun cell ->
      let rec find = function
        | [] -> None
        | (commit, v) :: rest -> if commit <= cycle then Some v else find rest
      in
      find cell.history)
    tensor.cells

(* ------------------------------------------------------------------ *)
(* Environment                                                         *)

type env = {
  values : (int, data) Hashtbl.t;  (* SSA value id -> data *)
  times : (int, int) Hashtbl.t;  (* time value id -> absolute cycle *)
  memrefs : (int, tensor) Hashtbl.t;  (* memref value id -> storage *)
  module_op : Ir.op;
  mutable max_cycle : int;
  mutable read_count : int;
  mutable write_count : int;
}

let observe env cycle = if cycle > env.max_cycle then env.max_cycle <- cycle

let bind_data env v d = Hashtbl.replace env.values (Ir.Value.id v) d
let bind_time env v t = Hashtbl.replace env.times (Ir.Value.id v) t
let bind_memref env v tensor = Hashtbl.replace env.memrefs (Ir.Value.id v) tensor

let eval_data env v =
  match Hashtbl.find_opt env.values (Ir.Value.id v) with
  | Some d -> d
  | None -> fail "value %%%s has no runtime binding"
              (Option.value ~default:"?" (Ir.Value.hint v))

let eval_time env v =
  match Hashtbl.find_opt env.times (Ir.Value.id v) with
  | Some t -> t
  | None -> fail "time variable has no runtime binding"

let eval_memref env v =
  match Hashtbl.find_opt env.memrefs (Ir.Value.id v) with
  | Some t -> t
  | None -> fail "memref has no runtime storage"

let value_bits env v =
  match Ir.Value.typ v with
  | Typ.Int w -> data_to_bits ~width:w (eval_data env v)
  | Types.Const -> (
    match eval_data env v with
    | Const_int n -> Bitvec.of_int ~width:64 n
    | Bits b -> b)
  | t -> fail "expected an integer value, got %s" (Typ.to_string t)

(* ------------------------------------------------------------------ *)
(* Compute op semantics                                                *)

let apply_binary name a b =
  let module B = Bitvec in
  match name with
  | "hir.add" -> B.add a b
  | "hir.sub" -> B.sub a b
  | "hir.mult" -> B.mul a b
  | "hir.and" -> B.logand a b
  | "hir.or" -> B.logor a b
  | "hir.xor" -> B.logxor a b
  | "hir.shl" -> B.shift_left a (B.to_int b)
  | "hir.shrl" -> B.shift_right_logical a (B.to_int b)
  | "hir.shra" -> B.shift_right_arith a (B.to_int b)
  | _ -> fail "unknown binary op %s" name

(* HIR comparisons are unsigned, like default Verilog reg/wire
   comparisons — this is what lets the precision optimizer narrow
   non-negative values without changing comparison results. *)
let apply_comparison name a b =
  let c = Bitvec.compare a b in
  let r =
    match name with
    | "hir.lt" -> c < 0
    | "hir.le" -> c <= 0
    | "hir.gt" -> c > 0
    | "hir.ge" -> c >= 0
    | "hir.eq" -> c = 0
    | "hir.ne" -> c <> 0
    | _ -> fail "unknown comparison %s" name
  in
  Bitvec.of_bool r

(* Operand value zero-extended (or const-materialized) at [width] —
   the Verilog-like mixed-width semantics of HIR compute ops. *)
let operand_bits_at env ~width v =
  match Ir.Value.typ v with
  | Typ.Int w -> Bitvec.resize ~width (data_to_bits ~width:w (eval_data env v))
  | _ -> (
    match eval_data env v with
    | Const_int n -> Bitvec.of_int ~width n
    | Bits b -> Bitvec.resize ~width b)

(* Evaluate a binary op whose operands may mix iN and !hir.const, at
   the given common width. *)
let binary_operand_bits env ?result_width x y =
  let width =
    match result_width with
    | Some w -> Some w
    | None -> (
      (* Comparisons: widest operand wins. *)
      match (Ir.Value.typ x, Ir.Value.typ y) with
      | Typ.Int a, Typ.Int b -> Some (max a b)
      | Typ.Int a, _ | _, Typ.Int a -> Some a
      | _ -> None)
  in
  match width with
  | Some w -> Some (operand_bits_at env ~width:w x, operand_bits_at env ~width:w y)
  | None -> None  (* both const: do exact integer arithmetic *)

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)

type result = {
  return_values : Bitvec.t list;
  cycles : int;  (* last cycle at which anything happened *)
  reads : int;
  writes : int;
}

let rec exec_block env block =
  List.iter (exec_op env) (Ir.Block.ops block)

and exec_op env op =
  match Ir.Op.name op with
  | "hir.constant" -> bind_data env (Ir.Op.result op 0) (Const_int (Ops.constant_value op))
  | "hir.alloc" ->
    let first = Ir.Op.result op 0 in
    let tensor = tensor_create (Types.memref_info (Ir.Value.typ first)) in
    List.iter (fun r -> bind_memref env r tensor) (Ir.Op.results op)
  | "hir.delay" ->
    (* Identity on data; the schedule verifier has already checked the
       timing. *)
    bind_data env (Ir.Op.result op 0) (eval_data env (Ops.delay_input op))
  | "hir.mem_read" ->
    let cycle = eval_time env (Ops.mem_read_time op) + Ops.mem_read_offset op in
    observe env (cycle + Ops.mem_read_latency op);
    let tensor = eval_memref env (Ops.mem_read_mem op) in
    let indices = List.map (fun i -> data_to_unsigned (eval_data env i)) (Ops.mem_read_indices op) in
    env.read_count <- env.read_count + 1;
    bind_data env (Ir.Op.result op 0) (Bits (tensor_read tensor indices ~cycle))
  | "hir.mem_write" ->
    let cycle = eval_time env (Ops.mem_write_time op) + Ops.mem_write_offset op in
    observe env (cycle + 1);
    let tensor = eval_memref env (Ops.mem_write_mem op) in
    let indices =
      List.map (fun i -> data_to_unsigned (eval_data env i)) (Ops.mem_write_indices op)
    in
    let value = data_to_bits ~width:tensor.elem_width (eval_data env (Ops.mem_write_value op)) in
    env.write_count <- env.write_count + 1;
    tensor_write tensor indices value ~cycle
  | "hir.for" -> exec_for env op
  | "hir.unroll_for" -> exec_unroll_for env op
  | "hir.call" -> exec_call env op
  | "hir.yield" | "hir.return" -> ()  (* handled by the enclosing construct *)
  | "hir.select" ->
    let cond = value_bits env (Ir.Op.operand op 0) in
    let chosen = if Bitvec.is_zero cond then Ir.Op.operand op 2 else Ir.Op.operand op 1 in
    bind_data env (Ir.Op.result op 0) (eval_data env chosen)
  | "hir.not" ->
    let x = Ir.Op.operand op 0 in
    (match Ir.Value.typ x with
    | Typ.Int w ->
      bind_data env (Ir.Op.result op 0)
        (Bits (Bitvec.lognot (data_to_bits ~width:w (eval_data env x))))
    | _ ->
      bind_data env (Ir.Op.result op 0) (Const_int (lnot (data_to_int (eval_data env x)))))
  | ("hir.zext" | "hir.sext" | "hir.trunc") as name ->
    let x = Ir.Op.operand op 0 in
    let width =
      match Ir.Value.typ (Ir.Op.result op 0) with
      | Typ.Int w -> w
      | _ -> fail "resize result must be integer"
    in
    let bits =
      match Ir.Value.typ x with
      | Typ.Int w -> data_to_bits ~width:w (eval_data env x)
      | _ -> Bitvec.of_int ~width (data_to_int (eval_data env x))
    in
    let r =
      match name with
      | "hir.zext" -> Bitvec.resize ~width bits
      | "hir.sext" -> Bitvec.resize_signed ~width bits
      | _ -> Bitvec.resize ~width bits
    in
    bind_data env (Ir.Op.result op 0) (Bits r)
  | name when List.mem name Ops.binary_compute_ops ->
    let x = Ir.Op.operand op 0 and y = Ir.Op.operand op 1 in
    let result_width =
      match Ir.Value.typ (Ir.Op.result op 0) with Typ.Int w -> Some w | _ -> None
    in
    (match binary_operand_bits env ?result_width x y with
    | Some (a, b) -> bind_data env (Ir.Op.result op 0) (Bits (apply_binary name a b))
    | None ->
      let a = data_to_int (eval_data env x) and b = data_to_int (eval_data env y) in
      let r =
        match name with
        | "hir.add" -> a + b
        | "hir.sub" -> a - b
        | "hir.mult" -> a * b
        | "hir.and" -> a land b
        | "hir.or" -> a lor b
        | "hir.xor" -> a lxor b
        | "hir.shl" -> a lsl b
        | "hir.shrl" -> a lsr b
        | "hir.shra" -> a asr b
        | _ -> fail "unknown const op %s" name
      in
      bind_data env (Ir.Op.result op 0) (Const_int r))
  | name when List.mem name Ops.comparison_ops ->
    let x = Ir.Op.operand op 0 and y = Ir.Op.operand op 1 in
    (match binary_operand_bits env x y with
    | Some (a, b) -> bind_data env (Ir.Op.result op 0) (Bits (apply_comparison name a b))
    | None ->
      let a = data_to_int (eval_data env x) and b = data_to_int (eval_data env y) in
      let r =
        match name with
        | "hir.lt" -> a < b
        | "hir.le" -> a <= b
        | "hir.gt" -> a > b
        | "hir.ge" -> a >= b
        | "hir.eq" -> a = b
        | "hir.ne" -> a <> b
        | _ -> fail "unknown const comparison %s" name
      in
      bind_data env (Ir.Op.result op 0) (Bits (Bitvec.of_bool r)))
  | name -> fail "interpreter: unsupported op %s" name

and exec_for env op =
  let lb = data_to_int (eval_data env (Ops.for_lb op)) in
  let ub = data_to_int (eval_data env (Ops.for_ub op)) in
  let step = data_to_int (eval_data env (Ops.for_step op)) in
  if step <= 0 then fail "hir.for requires a positive step";
  if lb > ub then fail "hir.for lower bound exceeds upper bound (UB per §4.5)";
  let start = eval_time env (Ops.for_time op) + Ops.for_offset op in
  let body = Ops.loop_body op in
  let iv = Ops.loop_induction_var op in
  let ti = Ops.loop_iter_time op in
  let iv_width = match Ir.Value.typ iv with Typ.Int w -> w | _ -> 32 in
  let yield_op = Ops.loop_yield op in
  let rec iterate i t =
    if i >= ub then t
    else begin
      bind_data env iv (Bits (Bitvec.of_int ~width:iv_width i));
      bind_time env ti t;
      observe env t;
      exec_block env body;
      let next_t = eval_time env (Ops.yield_time yield_op) + Ops.yield_offset yield_op in
      iterate (i + step) next_t
    end
  in
  let tf = iterate lb start in
  bind_time env (Ir.Op.result op 0) tf;
  observe env tf

and exec_unroll_for env op =
  let lb = Ops.unroll_for_lb op in
  let ub = Ops.unroll_for_ub op in
  let step = Ops.unroll_for_step op in
  let start = eval_time env (Ops.unroll_for_time op) + Ops.unroll_for_offset op in
  let body = Ops.loop_body op in
  let iv = Ir.Block.arg body 0 in
  let ti = Ir.Block.arg body 1 in
  let yield_op = Ops.loop_yield op in
  let rec iterate i t =
    if i >= ub then t
    else begin
      bind_data env iv (Const_int i);
      bind_time env ti t;
      observe env t;
      exec_block env body;
      let next_t = eval_time env (Ops.yield_time yield_op) + Ops.yield_offset yield_op in
      iterate (i + step) next_t
    end
  in
  let tf = iterate lb start in
  bind_time env (Ir.Op.result op 0) tf;
  observe env tf

and exec_call env op =
  let cycle = eval_time env (Ops.call_time op) + Ops.call_offset op in
  observe env cycle;
  let callee_name = Ops.call_callee op in
  match Ops.lookup_func env.module_op callee_name with
  | None -> fail "call to unknown function @%s" callee_name
  | Some callee when Ops.is_extern_func callee ->
    let impl = Extern.lookup_exn callee_name in
    let args =
      List.map2
        (fun v w -> data_to_bits ~width:w (eval_data env v))
        (Ops.call_args op) impl.Extern.arg_widths
    in
    let r = impl.Extern.eval args in
    observe env (cycle + impl.Extern.latency);
    (match Ir.Op.results op with
    | [ res ] -> bind_data env res (Bits r)
    | _ -> fail "extern calls must produce exactly one result")
  | Some callee ->
    (* Execute the callee body in the same global environment: SSA ids
       are globally unique, and memref args alias the caller's
       storage.  Note: each call re-binds the callee's values, so
       overlapped invocations of the SAME callee rely on the lock-step
       textual-order discipline described in the header comment. *)
    let body = Ops.func_body callee in
    let data_args = Ops.func_data_args callee in
    List.iter2
      (fun formal actual ->
        match Ir.Value.typ formal with
        | Types.Memref _ -> bind_memref env formal (eval_memref env actual)
        | _ -> bind_data env formal (eval_data env actual))
      data_args (Ops.call_args op);
    bind_time env (Ops.func_time_arg callee) cycle;
    exec_block env body;
    (* Bind call results from the callee's return. *)
    let return_op =
      match List.find_opt (fun o -> Ir.Op.name o = "hir.return") (Ir.Block.ops body) with
      | Some r -> r
      | None -> fail "callee @%s has no return" callee_name
    in
    List.iteri
      (fun i res -> bind_data env res (eval_data env (Ir.Op.operand return_op i)))
      (Ir.Op.results op);
    let result_delays = Ops.call_result_delays op in
    List.iter (fun d -> observe env (cycle + d)) result_delays

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

type input =
  | Scalar of Bitvec.t
  | Tensor of Bitvec.t array  (* initial contents, row-major *)
  | Out_tensor  (* uninitialized output buffer *)
  | Shared of int  (* alias the tensor passed at the given arg index *)

let run ?(start_cycle = 0) ~module_op ~func inputs =
  let env =
    {
      values = Hashtbl.create 256;
      times = Hashtbl.create 64;
      memrefs = Hashtbl.create 16;
      module_op;
      max_cycle = start_cycle;
      read_count = 0;
      write_count = 0;
    }
  in
  let data_args = Ops.func_data_args func in
  if List.length data_args <> List.length inputs then
    fail "expected %d inputs, got %d" (List.length data_args) (List.length inputs);
  let arg_array = Array.of_list data_args in
  List.iteri
    (fun i input ->
      let formal = arg_array.(i) in
      match (input, Ir.Value.typ formal) with
      | Scalar b, _ -> bind_data env formal (Bits b)
      | Tensor init, Types.Memref info ->
        let tensor = tensor_create info in
        tensor_init tensor init;
        bind_memref env formal tensor
      | Out_tensor, Types.Memref info -> bind_memref env formal (tensor_create info)
      | Shared j, Types.Memref _ ->
        bind_memref env formal (eval_memref env arg_array.(j))
      | _ -> fail "input %d does not match the argument type" i)
    inputs;
  bind_time env (Ops.func_time_arg func) start_cycle;
  exec_block env (Ops.func_body func);
  let return_op =
    List.find (fun o -> Ir.Op.name o = "hir.return") (Ir.Block.ops (Ops.func_body func))
  in
  let return_values =
    List.map (fun v -> value_bits env v) (Ir.Op.operands return_op)
  in
  let arg_tensor i =
    let formal = arg_array.(i) in
    eval_memref env formal
  in
  ( {
      return_values;
      cycles = env.max_cycle - start_cycle;
      reads = env.read_count;
      writes = env.write_count;
    },
    arg_tensor )
