(* HIR → Verilog code generation (paper Section 4.6, Table 3).

   Mapping:
     hir.func        -> Verilog module (clk + t_start pulse + data ports)
     schedules       -> pulse networks: one wire per time root, shift
                        registers for constant offsets
     hir.for         -> a small controller (counter + pulse logic)
     hir.delay       -> shift registers
     hir.memref      -> per-bank address/enable/data buses; local
                        allocs instantiate block/distributed RAM or
                        registers, argument memrefs become module ports
     hir.call        -> module instantiation wired by the caller pulse
     UB rules (§4.5) -> automatically inserted $error assertions

   Designs must pass the structural and schedule verifiers and have
   unroll_for expanded (Unroll pass) before code generation. *)

open Hir_ir
open Hir_dialect
module V = Hir_verilog.Ast

exception Codegen_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Codegen_error s)) fmt

let clog2 n =
  if n <= 1 then 0
  else
    let rec go k v = if v >= n then k else go (k + 1) (v * 2) in
    go 0 1

let bits_for n = if n <= 0 then 1 else max 1 (clog2 (n + 1))

(* ------------------------------------------------------------------ *)
(* Module interfaces                                                   *)

type bank_names = {
  bn_rd : (string * string * string) option;  (* en, addr, data *)
  bn_wr : (string * string * string) option;  (* en, addr, data *)
}

type mem_iface = {
  mi_base : string;
  mi_info : Types.memref_info;
  mi_banks : bank_names array;
  mi_addr_width : int;
  mi_elem_width : int;
}

type arg_iface = Ifc_scalar of string * int * int  (* name, width, delay *)
               | Ifc_mem of mem_iface

type iface = {
  ifc_module : string;
  ifc_args : arg_iface list;
  ifc_results : (string * int * int) list;  (* name, width, delay *)
}

let elem_width info =
  match Typ.bit_width info.Types.elem with
  | Some w when w > 0 -> w
  | _ -> fail "memref element type has no width"

let mem_iface_of ~base info =
  let banks = Types.num_banks info in
  let depth = Types.bank_depth info in
  let aw = max 1 (clog2 depth) in
  let ew = elem_width info in
  let bank b =
    let readable = info.Types.port <> Types.Write in
    let writable = info.Types.port <> Types.Read in
    {
      bn_rd =
        (if readable then
           Some
             ( Printf.sprintf "%s_rd_en_%d" base b,
               Printf.sprintf "%s_rd_addr_%d" base b,
               Printf.sprintf "%s_rd_data_%d" base b )
         else None);
      bn_wr =
        (if writable then
           Some
             ( Printf.sprintf "%s_wr_en_%d" base b,
               Printf.sprintf "%s_wr_addr_%d" base b,
               Printf.sprintf "%s_wr_data_%d" base b )
         else None);
    }
  in
  {
    mi_base = base;
    mi_info = info;
    mi_banks = Array.init banks bank;
    mi_addr_width = aw;
    mi_elem_width = ew;
  }

(* The deterministic external interface of a function, used both when
   emitting the function's own module and when instantiating it at call
   sites. *)
let interface_of func =
  let name = Names.sanitize (Ops.func_name func) in
  let arg_names =
    match Ir.Op.attr func "arg_names" with
    | Some (Attribute.Array l) -> List.map Attribute.as_string l
    | _ -> List.mapi (fun i _ -> Printf.sprintf "arg%d" i) (Ops.func_arg_types func)
  in
  let arg_delays = Ops.func_arg_delays func in
  let args =
    List.mapi
      (fun i t ->
        let base =
          (* Default positionally if arg_names is shorter than the
             signature (the verifier flags this, but interfaces are
             also built for extern declarations it may not have seen). *)
          match List.nth_opt arg_names i with
          | Some n -> Names.sanitize n
          | None -> Printf.sprintf "arg%d" i
        in
        let delay = List.nth_opt arg_delays i |> Option.value ~default:0 in
        match t with
        | Types.Memref info -> Ifc_mem (mem_iface_of ~base info)
        | t -> (
          match Typ.bit_width t with
          | Some w when w > 0 -> Ifc_scalar (base, w, delay)
          | _ -> fail "unsupported argument type %s" (Typ.to_string t)))
      (Ops.func_arg_types func)
  in
  let results =
    List.mapi
      (fun i t ->
        let delay = List.nth_opt (Ops.func_result_delays func) i |> Option.value ~default:0 in
        match Typ.bit_width t with
        | Some w when w > 0 -> (Printf.sprintf "result_%d" i, w, delay)
        | _ -> fail "unsupported result type %s" (Typ.to_string t))
      (Ops.func_result_types func)
  in
  { ifc_module = name; ifc_args = args; ifc_results = results }

(* ------------------------------------------------------------------ *)
(* Per-module emission context                                         *)

type mem_binding = {
  mb_iface : mem_iface;
  mb_latency : int;
  mb_external : bool;
  mutable mb_call_bound : bool;  (* passed to a hir.call *)
  mutable mb_readers : (int * V.expr * V.expr) list;  (* bank, pulse, addr *)
  mutable mb_writers : (int * V.expr * V.expr * V.expr) list;  (* bank, pulse, addr, data *)
  mb_read_result : string option;  (* shared data wire per bank: see finalize *)
}

type vbind =
  | Vconst of int
  | Vwire of string * int
  | Vmem of mem_binding
  | Vtime of string  (* delta-0 pulse wire *)

(* A pulse wire's shift register: stage [d] (delta [d] >= 1) is
   [ch_regs.(d - 1)], for [d <= ch_len]. *)
type chain = {
  ch_base : string;
  mutable ch_regs : string array;  (* grows by doubling *)
  mutable ch_len : int;
}

type ctx = {
  names : Names.t;
  module_op : Ir.op;
  hier : bool;  (* hierarchy-preserving emission (outlining + arbiter chains) *)
  registry : Outline.registry;  (* shared module definitions of this emission *)
  mutable ports : V.port list;  (* reverse *)
  mutable items : (int option * V.item) list;  (* reverse; tagged by emission group *)
  mutable ff : (int option * V.stmt) list;  (* reverse; body of the single always block *)
  mutable group_stack : int list;  (* innermost emission group first *)
  mutable force_shared : bool;  (* route items to the shared (None) group *)
  binds : (int, vbind) Hashtbl.t;
  chains : (int, chain) Hashtbl.t;
  mutable instance_count : int;
  mutable emitted_callees : string list;
}

let cur_group ctx =
  if ctx.force_shared then None
  else match ctx.group_stack with [] -> None | g :: _ -> Some g

let add_port ctx p = ctx.ports <- p :: ctx.ports
let add_item ctx i = ctx.items <- (cur_group ctx, i) :: ctx.items
let add_ff ctx s = ctx.ff <- (cur_group ctx, s) :: ctx.ff

(* Run [f] with items routed to the shared group: infrastructure that
   is lazily extended across group boundaries (pulse chains) or cannot
   move into a definition (storage arrays) must not be captured by the
   group being emitted. *)
let shared ctx f =
  let saved = ctx.force_shared in
  ctx.force_shared <- true;
  Fun.protect ~finally:(fun () -> ctx.force_shared <- saved) f

let bind ctx v b = Hashtbl.replace ctx.binds (Ir.Value.id v) b

let lookup ctx v =
  match Hashtbl.find_opt ctx.binds (Ir.Value.id v) with
  | Some b -> b
  | None ->
    fail "value %%%s has no codegen binding"
      (Option.value ~default:(string_of_int (Ir.Value.id v)) (Ir.Value.hint v))

let value_width v =
  match Typ.bit_width (Ir.Value.typ v) with
  | Some w when w > 0 -> w
  | _ -> fail "value has no bit width: %s" (Typ.to_string (Ir.Value.typ v))

(* Data operand as an expression; constants are sized at [width]. *)
let operand ctx ~width v =
  match lookup ctx v with
  | Vconst n -> V.Const (Bitvec.of_int ~width n)
  | Vwire (name, _) -> V.Ref name
  | Vmem _ -> fail "memref used as data"
  | Vtime _ -> fail "time variable used as data"

(* For self-determined contexts (comparisons): constants sized at their
   own minimum width, at least [at_least] bits. *)
let operand_self ctx ~at_least v =
  match lookup ctx v with
  | Vconst n ->
    let w = max at_least (bits_for (abs n) + if n < 0 then 1 else 0) in
    V.Const (Bitvec.of_int ~width:w n)
  | Vwire (name, _) -> V.Ref name
  | _ -> fail "bad operand"

let operand_natural_width ctx v =
  match lookup ctx v with
  | Vconst n -> bits_for (abs n)
  | Vwire (_, w) -> w
  | _ -> 0

(* ------------------------------------------------------------------ *)
(* Pulse networks                                                      *)

(* The pulse wire for time value [tv] at constant delta [d]; creates
   the shift-register chain on demand. *)
let max_pulse_stages = 1 lsl 16

let pulse ctx tv d =
  let chain =
    match Hashtbl.find_opt ctx.chains (Ir.Value.id tv) with
    | Some c -> c
    | None ->
      (match lookup ctx tv with
      | Vtime base ->
        let c = { ch_base = base; ch_regs = [||]; ch_len = 0 } in
        Hashtbl.replace ctx.chains (Ir.Value.id tv) c;
        c
      | _ -> fail "expected a time value")
  in
  if d < 0 then fail "negative pulse delta";
  (* Each delta stage is one register; the verifier bounds per-op
     offsets, but unrolling accumulates them, so re-check the total
     here or a mutated schedule can demand millions of registers. *)
  if d > max_pulse_stages then
    fail "schedule offset of %d stages exceeds the limit of %d" d max_pulse_stages;
  if d = 0 then V.Ref chain.ch_base
  else begin
    let extend () =
      if chain.ch_len < d then begin
        if Array.length chain.ch_regs < d then begin
          let regs = Array.make (max d (2 * Array.length chain.ch_regs)) "" in
          Array.blit chain.ch_regs 0 regs 0 chain.ch_len;
          chain.ch_regs <- regs
        end;
        for have = chain.ch_len to d - 1 do
          let prev = if have = 0 then chain.ch_base else chain.ch_regs.(have - 1) in
          let name = Names.fresh ctx.names (Printf.sprintf "%s_d%d" chain.ch_base (have + 1)) in
          add_item ctx (V.Reg_decl { name; width = 1 });
          add_ff ctx (V.Nonblocking (V.Lref name, V.Ref prev));
          chain.ch_regs.(have) <- name;
          chain.ch_len <- have + 1
        done
      end
    in
    (* Chains are extended lazily by whichever op first demands a
       stage and reused by every later one, so their registers belong
       to the shared group, never to the group that happened to demand
       them first. *)
    shared ctx extend;
    V.Ref chain.ch_regs.(d - 1)
  end

(* Start pulse of a scheduled op: time operand's root + offset. *)
let sched_pulse ctx ~time ~offset = pulse ctx time offset

(* ------------------------------------------------------------------ *)
(* Memory helpers                                                      *)

let static_indices info indices =
  (* Split indices into (bank, packed address expr builder input). *)
  List.map2 (fun d idx -> (d, idx)) info.Types.dims indices

let bank_of ctx info indices =
  let dist =
    List.filter_map
      (fun (d, idx) ->
        if d.Types.packed then None
        else
          match lookup ctx idx with
          | Vconst n ->
            (* Unrolling can materialize any constant (e.g. from a
               negative loop bound); an out-of-range one must be a
               codegen diagnostic, not an array-index crash below. *)
            if n < 0 || n >= d.Types.size then
              fail "constant index %d out of range for distributed dimension of size %d"
                n d.Types.size
            else Some (d.Types.size, n)
          | _ -> fail "distributed dimension indexed by a non-constant")
      (static_indices info indices)
  in
  List.fold_left (fun acc (size, n) -> (acc * size) + n) 0 dist

(* Packed linear address expression at [aw] bits; strides of the
   row-major packed layout are powers of two in all our designs, but
   general strides fall back to shifts+adds via multiply-by-constant
   decomposition (here: a plain constant multiply, strength-reduced
   when the stride is a power of two). *)
let packed_addr ctx ~aw info indices =
  let packed =
    List.filter_map
      (fun (d, idx) -> if d.Types.packed then Some (d.Types.size, idx) else None)
      (static_indices info indices)
  in
  let expr =
    List.fold_left
      (fun acc (size, idx) ->
        let idx_e = operand ctx ~width:aw idx in
        let term =
          match acc with
          | None -> idx_e
          | Some acc ->
            let scaled =
              match clog2 size with
              | k when 1 lsl k = size ->
                V.Binop (V.Shl, acc, V.const_int ~width:(max 1 (bits_for k)) k)
              | _ -> V.Binop (V.Mul, acc, V.const_int ~width:aw size)
            in
            V.Binop (V.Add, scaled, idx_e)
        in
        Some term)
      None packed
  in
  match expr with None -> V.const_int ~width:aw 0 | Some e -> e

(* ------------------------------------------------------------------ *)
(* Op emission                                                         *)

let binop_table =
  [
    ("hir.add", V.Add); ("hir.sub", V.Sub); ("hir.mult", V.Mul);
    ("hir.and", V.And); ("hir.or", V.Or); ("hir.xor", V.Xor);
    ("hir.shl", V.Shl); ("hir.shrl", V.Shr);
  ]

let cmp_table =
  [
    ("hir.lt", V.Lt); ("hir.le", V.Le); ("hir.gt", V.Gt);
    ("hir.ge", V.Ge); ("hir.eq", V.Eq); ("hir.ne", V.Ne);
  ]

let fresh_wire ctx base width =
  let name = Names.fresh ctx.names base in
  add_item ctx (V.Wire_decl { name; width });
  name

let loc_comment ctx op =
  let loc = Ir.Op.loc op in
  if not (Location.is_unknown loc) then
    add_item ctx (V.Comment (Printf.sprintf "%s from %s" (Ir.Op.name op) (Location.to_string loc)))

let rec emit_block ctx block = List.iter (emit_op ctx) (Ir.Block.ops block)

(* Ops tagged with an emission group (by [Unroll] or [Builder.group])
   push it for the duration of their emission, so nested untagged ops
   (loop bodies, generator helpers) inherit the innermost group. *)
and emit_op ctx op =
  match Ir.Op.int_attr_opt op Unroll.group_attr with
  | Some g when cur_group ctx <> Some g && not ctx.force_shared ->
    ctx.group_stack <- g :: ctx.group_stack;
    Fun.protect
      ~finally:(fun () -> ctx.group_stack <- List.tl ctx.group_stack)
      (fun () -> emit_op_inner ctx op)
  | _ -> emit_op_inner ctx op

and emit_op_inner ctx op =
  match Ir.Op.name op with
  | "hir.constant" -> bind ctx (Ir.Op.result op 0) (Vconst (Ops.constant_value op))
  | "hir.alloc" -> emit_alloc ctx op
  | "hir.delay" -> emit_delay ctx op
  | "hir.mem_read" -> emit_mem_read ctx op
  | "hir.mem_write" -> emit_mem_write ctx op
  | "hir.for" -> emit_for ctx op
  | "hir.call" -> emit_call ctx op
  | "hir.yield" -> ()  (* folded into the loop controller *)
  | "hir.return" -> ()  (* handled at module level *)
  | "hir.select" ->
    let res = Ir.Op.result op 0 in
    let w = value_width res in
    let name = fresh_wire ctx (Names.value_base res) w in
    let cond = operand ctx ~width:1 (Ir.Op.operand op 0) in
    let a = operand ctx ~width:w (Ir.Op.operand op 1) in
    let b = operand ctx ~width:w (Ir.Op.operand op 2) in
    add_item ctx (V.Assign { target = name; expr = V.Ternary (cond, a, b) });
    bind ctx res (Vwire (name, w))
  | "hir.not" ->
    let res = Ir.Op.result op 0 in
    let w = value_width res in
    let name = fresh_wire ctx (Names.value_base res) w in
    add_item ctx
      (V.Assign { target = name; expr = V.Unop (V.Not, operand ctx ~width:w (Ir.Op.operand op 0)) });
    bind ctx res (Vwire (name, w))
  | "hir.zext" | "hir.trunc" ->
    let res = Ir.Op.result op 0 in
    let w = value_width res in
    let name = fresh_wire ctx (Names.value_base res) w in
    add_item ctx (V.Assign { target = name; expr = operand ctx ~width:w (Ir.Op.operand op 0) });
    bind ctx res (Vwire (name, w))
  | "hir.sext" ->
    let res = Ir.Op.result op 0 in
    let w = value_width res in
    let x = Ir.Op.operand op 0 in
    let xw = operand_natural_width ctx x in
    let name = fresh_wire ctx (Names.value_base res) w in
    let xe = operand ctx ~width:xw x in
    let expr =
      if xw >= w then xe
      else
        let sign = V.Slice (xe, xw - 1, xw - 1) in
        let fill =
          V.Ternary (sign, V.Const (Bitvec.ones (w - xw)), V.Const (Bitvec.zero (w - xw)))
        in
        V.Concat [ fill; xe ]
    in
    add_item ctx (V.Assign { target = name; expr });
    bind ctx res (Vwire (name, w))
  | "hir.shra" ->
    (* Arithmetic shift of an unsigned-typed wire: sign-extend manually
       then shift. *)
    let res = Ir.Op.result op 0 in
    let w = value_width res in
    let name = fresh_wire ctx (Names.value_base res) w in
    let a = operand ctx ~width:w (Ir.Op.operand op 0) in
    let b = operand ctx ~width:w (Ir.Op.operand op 1) in
    (* Emulate via: (a >> b) | (sign ? ~(~0 >> b) : 0) *)
    let sign = V.Slice (a, w - 1, w - 1) in
    let ones = V.Const (Bitvec.ones w) in
    let fill = V.Ternary (sign, V.Unop (V.Not, V.Binop (V.Shr, ones, b)), V.Const (Bitvec.zero w)) in
    add_item ctx
      (V.Assign { target = name; expr = V.Binop (V.Or, V.Binop (V.Shr, a, b), fill) });
    bind ctx res (Vwire (name, w))
  | name when List.mem_assoc name binop_table ->
    let res = Ir.Op.result op 0 in
    let w = value_width res in
    let name_w = fresh_wire ctx (Names.value_base res) w in
    let a = operand ctx ~width:w (Ir.Op.operand op 0) in
    let b = operand ctx ~width:w (Ir.Op.operand op 1) in
    add_item ctx
      (V.Assign { target = name_w; expr = V.Binop (List.assoc name binop_table, a, b) });
    bind ctx res (Vwire (name_w, w))
  | name when List.mem_assoc name cmp_table ->
    let res = Ir.Op.result op 0 in
    let name_w = fresh_wire ctx (Names.value_base res) 1 in
    let wa = operand_natural_width ctx (Ir.Op.operand op 0) in
    let wb = operand_natural_width ctx (Ir.Op.operand op 1) in
    let w = max 1 (max wa wb) in
    let a = operand_self ctx ~at_least:w (Ir.Op.operand op 0) in
    let b = operand_self ctx ~at_least:w (Ir.Op.operand op 1) in
    add_item ctx
      (V.Assign { target = name_w; expr = V.Binop (List.assoc name cmp_table, a, b) });
    bind ctx res (Vwire (name_w, 1))
  | name -> fail "codegen: unsupported op %s (run the unroll pass first?)" name

and emit_delay ctx op =
  let res = Ir.Op.result op 0 in
  let w = value_width res in
  let by = Ops.delay_by op in
  let input = operand ctx ~width:w (Ops.delay_input op) in
  if by = 0 then begin
    (* Pure alias. *)
    let name = fresh_wire ctx (Names.value_base res) w in
    add_item ctx (V.Assign { target = name; expr = input });
    bind ctx res (Vwire (name, w))
  end
  else begin
    loc_comment ctx op;
    let base = Names.value_base res in
    let rec stage k prev =
      if k > by then prev
      else begin
        let name = Names.fresh ctx.names (Printf.sprintf "%s_sr%d" base k) in
        add_item ctx (V.Reg_decl { name; width = w });
        add_ff ctx (V.Nonblocking (V.Lref name, prev));
        stage (k + 1) (V.Ref name)
      end
    in
    let final = stage 1 input in
    match final with
    | V.Ref name -> bind ctx res (Vwire (name, w))
    | _ -> assert false
  end

(* Storage arrays and their port buses stay in the shared group: a
   [Mem_decl] cannot move into an outlined definition, and the bus
   wires are driven by the shared finalization pass. *)
and emit_alloc ctx op = shared ctx (fun () -> emit_alloc_inner ctx op)

and emit_alloc_inner ctx op =
  let kind = Ops.alloc_kind op in
  let latency = Ops.mem_kind_latency kind in
  let first_info = Types.memref_info (Ir.Value.typ (Ir.Op.result op 0)) in
  let banks = Types.num_banks first_info in
  let depth = Types.bank_depth first_info in
  let ew = elem_width first_info in
  let style =
    match kind with
    | Ops.Block_ram -> V.Style_bram
    | Ops.Lut_ram -> V.Style_lutram
    | Ops.Reg -> V.Style_reg
  in
  (* One storage array per bank, shared by all ports. *)
  let mem_names =
    Array.init banks (fun b ->
        let name = Names.fresh ctx.names (Printf.sprintf "mem%d_bank%d" op.Ir.op_id b) in
        add_item ctx (V.Mem_decl { name; width = ew; depth; style });
        name)
  in
  (* Per port: buses + binding. *)
  List.iter
    (fun port_v ->
      let info = Types.memref_info (Ir.Value.typ port_v) in
      let base = Names.fresh ctx.names (Names.value_base port_v) in
      let iface = mem_iface_of ~base info in
      let mb =
        {
          mb_iface = iface;
          mb_latency = latency;
          mb_external = false;
          mb_call_bound = false;
          mb_readers = [];
          mb_writers = [];
          mb_read_result = None;
        }
      in
      bind ctx port_v (Vmem mb);
      (* Wire declarations + storage connection per bank. *)
      Array.iteri
        (fun b names ->
          let aw = iface.mi_addr_width in
          let mem = mem_names.(b) in
          (match names.bn_rd with
          | Some (en, addr, data) ->
            add_item ctx (V.Wire_decl { name = en; width = 1 });
            add_item ctx (V.Wire_decl { name = addr; width = aw });
            if latency = 0 then begin
              add_item ctx (V.Wire_decl { name = data; width = ew });
              add_item ctx (V.Assign { target = data; expr = V.Index (mem, V.Ref addr) })
            end
            else begin
              add_item ctx (V.Reg_decl { name = data; width = ew });
              add_ff ctx
                (V.If
                   ( V.Ref en,
                     [ V.Nonblocking (V.Lref data, V.Index (mem, V.Ref addr)) ],
                     [] ))
            end
          | None -> ());
          match names.bn_wr with
          | Some (en, addr, data) ->
            add_item ctx (V.Wire_decl { name = en; width = 1 });
            add_item ctx (V.Wire_decl { name = addr; width = aw });
            add_item ctx (V.Wire_decl { name = data; width = ew });
            add_ff ctx
              (V.If
                 ( V.Ref en,
                   [ V.Nonblocking (V.Lindex (mem, V.Ref addr), V.Ref data) ],
                   [] ))
          | None -> ())
        iface.mi_banks)
    (Ir.Op.results op)

and emit_mem_read ctx op =
  loc_comment ctx op;
  let mem = Ops.mem_read_mem op in
  let mb = match lookup ctx mem with Vmem mb -> mb | _ -> fail "mem_read on non-memref" in
  if mb.mb_call_bound then fail "memref port is both call-bound and locally accessed";
  let info = mb.mb_iface.mi_info in
  let indices = Ops.mem_read_indices op in
  let bank = bank_of ctx info indices in
  let p = sched_pulse ctx ~time:(Ops.mem_read_time op) ~offset:(Ops.mem_read_offset op) in
  let addr = packed_addr ctx ~aw:mb.mb_iface.mi_addr_width info indices in
  mb.mb_readers <- (bank, p, addr) :: mb.mb_readers;
  (* The result value aliases the bank's data bus. *)
  let res = Ir.Op.result op 0 in
  (match mb.mb_iface.mi_banks.(bank).bn_rd with
  | Some (_, _, data) -> bind ctx res (Vwire (data, mb.mb_iface.mi_elem_width))
  | None -> fail "read through a write-only port")

and emit_mem_write ctx op =
  loc_comment ctx op;
  let mem = Ops.mem_write_mem op in
  let mb = match lookup ctx mem with Vmem mb -> mb | _ -> fail "mem_write on non-memref" in
  if mb.mb_call_bound then fail "memref port is both call-bound and locally accessed";
  let info = mb.mb_iface.mi_info in
  let indices = Ops.mem_write_indices op in
  let bank = bank_of ctx info indices in
  let p = sched_pulse ctx ~time:(Ops.mem_write_time op) ~offset:(Ops.mem_write_offset op) in
  let addr = packed_addr ctx ~aw:mb.mb_iface.mi_addr_width info indices in
  let data = operand ctx ~width:mb.mb_iface.mi_elem_width (Ops.mem_write_value op) in
  mb.mb_writers <- (bank, p, addr, data) :: mb.mb_writers

and emit_for ctx op =
  loc_comment ctx op;
  let iv = Ops.loop_induction_var op in
  let ti = Ops.loop_iter_time op in
  let tf = Ir.Op.result op 0 in
  let wiv = value_width iv in
  let offset = Ops.for_offset op in
  if offset < 1 then fail "hir.for requires offset >= 1 for hardware generation";
  let prefix = Printf.sprintf "loop%d" op.Ir.op_id in
  (* One cycle before the first iteration. *)
  let start_m1 = sched_pulse ctx ~time:(Ops.for_time op) ~offset:(offset - 1) in
  let lb = operand ctx ~width:wiv (Ops.for_lb op) in
  let step = operand ctx ~width:(wiv + 1) (Ops.for_step op) in
  (* iv register and wires. *)
  let iv_name = Names.fresh ctx.names (prefix ^ "_" ^ Names.value_base iv) in
  add_item ctx (V.Reg_decl { name = iv_name; width = wiv });
  bind ctx iv (Vwire (iv_name, wiv));
  let next = Names.fresh ctx.names (prefix ^ "_next") in
  add_item ctx (V.Wire_decl { name = next; width = wiv + 1 });
  add_item ctx
    (V.Assign { target = next; expr = V.Binop (V.Add, V.Ref iv_name, step) });
  let last = Names.fresh ctx.names (prefix ^ "_last") in
  add_item ctx (V.Wire_decl { name = last; width = 1 });
  let ub_self = operand_self ctx ~at_least:(wiv + 1) (Ops.for_ub op) in
  add_item ctx
    (V.Assign { target = last; expr = V.Binop (V.Ge, V.Ref next, ub_self) });
  (* first-iteration pulse: registered start. *)
  let first = Names.fresh ctx.names (prefix ^ "_first") in
  add_item ctx (V.Reg_decl { name = first; width = 1 });
  add_ff ctx (V.Nonblocking (V.Lref first, start_m1));
  (* Iteration pulse is the root of the ti chain; its recurrence needs
     the yield pulse one cycle early, so declare then define. *)
  let iter = Names.fresh ctx.names (prefix ^ "_iter") in
  add_item ctx (V.Wire_decl { name = iter; width = 1 });
  bind ctx ti (Vtime iter);
  (* Completion pulse. *)
  let tf_name = Names.fresh ctx.names (prefix ^ "_tf") in
  add_item ctx (V.Reg_decl { name = tf_name; width = 1 });
  bind ctx tf (Vtime tf_name);
  (* Emit the body: defines everything the yield references. *)
  emit_block ctx (Ops.loop_body op);
  (* The yield decides when the next iteration starts. *)
  let yield_op = Ops.loop_yield op in
  let y_off = Ops.yield_offset yield_op in
  if y_off < 1 then
    fail "hir.yield must fire at least one cycle after its time root for hardware generation";
  let yield_pre = sched_pulse ctx ~time:(Ops.yield_time yield_op) ~offset:(y_off - 1) in
  let fire = Names.fresh ctx.names (prefix ^ "_fire") in
  add_item ctx (V.Wire_decl { name = fire; width = 1 });
  add_item ctx
    (V.Assign { target = fire; expr = V.band yield_pre (V.bnot (V.Ref last)) });
  let fire_q = Names.fresh ctx.names (prefix ^ "_fire_q") in
  add_item ctx (V.Reg_decl { name = fire_q; width = 1 });
  add_ff ctx (V.Nonblocking (V.Lref fire_q, V.Ref fire));
  add_item ctx
    (V.Assign { target = iter; expr = V.bor (V.Ref first) (V.Ref fire_q) });
  add_ff ctx (V.Nonblocking (V.Lref tf_name, V.band yield_pre (V.Ref last)));
  (* iv update. *)
  add_ff ctx
    (V.If
       ( start_m1,
         [ V.Nonblocking (V.Lref iv_name, lb) ],
         [
           V.If
             ( V.Ref fire,
               [ V.Nonblocking (V.Lref iv_name, V.Ref next) ],
               [] );
         ] ))

and emit_call ctx op =
  loc_comment ctx op;
  let callee_name = Ops.call_callee op in
  let callee =
    match Ops.lookup_func ctx.module_op callee_name with
    | Some f -> f
    | None -> fail "call to unknown function @%s" callee_name
  in
  let ifc = interface_of callee in
  let p = sched_pulse ctx ~time:(Ops.call_time op) ~offset:(Ops.call_offset op) in
  ctx.instance_count <- ctx.instance_count + 1;
  let inst = Printf.sprintf "call_%s_%d" ifc.ifc_module ctx.instance_count in
  let connections = ref [ ("clk", V.Ref "clk"); ("t_start", p) ] in
  let add_conn c = connections := c :: !connections in
  List.iter2
    (fun arg_ifc actual ->
      match arg_ifc with
      | Ifc_scalar (pname, w, _) -> add_conn (pname, operand ctx ~width:w actual)
      | Ifc_mem callee_mi -> (
        match lookup ctx actual with
        | Vmem mb ->
          if mb.mb_readers <> [] || mb.mb_writers <> [] then
            fail "memref port %s is both call-bound and locally accessed"
              mb.mb_iface.mi_base;
          if mb.mb_call_bound then
            fail "memref port %s passed to more than one call" mb.mb_iface.mi_base;
          if (not mb.mb_external) && mb.mb_latency <> 1 then
            fail "only 1-cycle-latency storage can cross a call boundary";
          mb.mb_call_bound <- true;
          Array.iteri
            (fun b callee_names ->
              let caller_names = mb.mb_iface.mi_banks.(b) in
              (match (callee_names.bn_rd, caller_names.bn_rd) with
              | Some (c_en, c_addr, c_data), Some (p_en, p_addr, p_data) ->
                (* Callee drives en/addr (its outputs), consumes data. *)
                add_conn (c_en, V.Ref p_en);
                add_conn (c_addr, V.Ref p_addr);
                add_conn (c_data, V.Ref p_data)
              | None, None -> ()
              | _ -> fail "call memref port capability mismatch");
              match (callee_names.bn_wr, caller_names.bn_wr) with
              | Some (c_en, c_addr, c_data), Some (p_en, p_addr, p_data) ->
                add_conn (c_en, V.Ref p_en);
                add_conn (c_addr, V.Ref p_addr);
                add_conn (c_data, V.Ref p_data)
              | None, None -> ()
              | _ -> fail "call memref port capability mismatch")
            callee_mi.mi_banks
        | _ -> fail "call memref argument is not a memref"))
    ifc.ifc_args (Ops.call_args op);
  (* Results: fresh wires driven by callee outputs. *)
  List.iteri
    (fun i (pname, w, _) ->
      let res = Ir.Op.result op i in
      let wire = fresh_wire ctx (Names.value_base res) w in
      add_conn (pname, V.Ref wire);
      bind ctx res (Vwire (wire, w)))
    ifc.ifc_results;
  add_item ctx
    (V.Instance
       {
         module_name = ifc.ifc_module;
         instance_name = inst;
         connections = List.rev !connections;
       })

(* ------------------------------------------------------------------ *)
(* Memref finalization: bus muxes, tie-offs, UB assertions             *)

(* Above this many accessors on one bank port, hierarchical emission
   replaces the flat or-tree + priority mux + O(n^2) pairwise conflict
   assertions with a linear chain of structurally identical arbiter
   stages (one shared definition, n instances).  Each stage overrides
   the accumulated grant when its own accessor fires, so the chain is
   folded from the end of the accessor list: the final outputs carry
   the FIRST enabled accessor — exactly the priority-mux semantics of
   the flat form.  Each stage asserts that it agrees with the winner
   among the later accessors; equality is transitive, so any pairwise
   conflict among enabled accessors trips some stage. *)
let arb_threshold = 8

(* The stage definition, shared via the definition registry.  [dw] = 0
   omits the data channel (read ports arbitrate en/addr only). *)
let arb_stage_def ~aw ~dw =
  let inp n w = { V.port_name = n; dir = V.Input; width = w } in
  let outp n w = { V.port_name = n; dir = V.Output; width = w } in
  let data l = if dw > 0 then l else [] in
  let ports =
    [ inp "clk" 1; inp "sel" 1; inp "addr" aw ]
    @ data [ inp "data" dw ]
    @ [ inp "busy_in" 1; inp "addr_in" aw ]
    @ data [ inp "data_in" dw ]
    @ [ outp "busy_out" 1; outp "addr_out" aw ]
    @ data [ outp "data_out" dw ]
  in
  let items =
    [
      V.Assign { target = "busy_out"; expr = V.bor (V.Ref "busy_in") (V.Ref "sel") };
      V.Assign
        { target = "addr_out"; expr = V.Ternary (V.Ref "sel", V.Ref "addr", V.Ref "addr_in") };
    ]
    @ data
        [
          V.Assign
            {
              target = "data_out";
              expr = V.Ternary (V.Ref "sel", V.Ref "data", V.Ref "data_in");
            };
        ]
    @ [
        V.Always_ff
          [
            V.Assert_stmt
              {
                cond =
                  V.bor
                    (V.bnot (V.band (V.Ref "busy_in") (V.Ref "sel")))
                    (V.Binop (V.Eq, V.Ref "addr_in", V.Ref "addr"));
                message = "conflicting accesses on a shared memory port";
              };
          ];
      ]
  in
  { V.mod_name = Outline.placeholder; ports; items }

(* Fold the accessor list (first = highest priority) into a stage
   chain; returns the final (busy, addr, data) grant expressions. *)
let emit_arb_chain ctx ~base ~aw ~dw accessors =
  let def_name = Outline.register ctx.registry (arb_stage_def ~aw ~dw) in
  let rec build = function
    | [] ->
      ( V.zero1,
        V.const_int ~width:aw 0,
        if dw > 0 then V.const_int ~width:dw 0 else V.zero1 )
    | (sel, a, d) :: rest ->
      let b_in, a_in, d_in = build rest in
      let busy = fresh_wire ctx (base ^ "_arb_busy") 1 in
      let addr_w = fresh_wire ctx (base ^ "_arb_addr") aw in
      let data_w = if dw > 0 then fresh_wire ctx (base ^ "_arb_data") dw else "" in
      let dconn l = if dw > 0 then l else [] in
      let connections =
        [ ("clk", V.Ref "clk"); ("sel", sel); ("addr", a) ]
        @ dconn [ ("data", d) ]
        @ [ ("busy_in", b_in); ("addr_in", a_in) ]
        @ dconn [ ("data_in", d_in) ]
        @ [ ("busy_out", V.Ref busy); ("addr_out", V.Ref addr_w) ]
        @ dconn [ ("data_out", V.Ref data_w) ]
      in
      let inst = Names.fresh ctx.names (base ^ "_arb") in
      add_item ctx
        (V.Instance { module_name = def_name; instance_name = inst; connections });
      (V.Ref busy, V.Ref addr_w, if dw > 0 then V.Ref data_w else V.zero1)
  in
  build accessors

let finalize_mem ctx mb =
  let iface = mb.mb_iface in
  let aw = iface.mi_addr_width in
  let depth = Types.bank_depth iface.mi_info in
  (* Each bank's accessors, in the order of the port's lists. *)
  let by_bank bank accessors =
    let banks = Array.make (Array.length iface.mi_banks) [] in
    List.iter (fun a -> banks.(bank a) <- a :: banks.(bank a)) (List.rev accessors);
    banks
  in
  let readers = by_bank (fun (bk, _, _) -> bk) mb.mb_readers in
  let writers = by_bank (fun (bk, _, _, _) -> bk) mb.mb_writers in
  Array.iteri
    (fun b names ->
      let readers = readers.(b) and writers = writers.(b) in
      (match names.bn_rd with
      | Some (en, addr, _data) when not mb.mb_call_bound ->
        if ctx.hier && List.length readers >= arb_threshold then begin
          let busy, grant_addr, _ =
            emit_arb_chain ctx ~base:en ~aw ~dw:0
              (List.map (fun (_, p, a) -> (p, a, V.zero1)) readers)
          in
          add_item ctx (V.Assign { target = en; expr = busy });
          add_item ctx (V.Assign { target = addr; expr = grant_addr })
        end
        else begin
          let pulses = List.map (fun (_, p, _) -> p) readers in
          add_item ctx (V.Assign { target = en; expr = V.or_list pulses });
          add_item ctx
            (V.Assign
               {
                 target = addr;
                 expr =
                   V.priority_mux
                     ~default:(V.const_int ~width:aw 0)
                     (List.map (fun (_, p, a) -> (p, a)) readers);
               });
          (* UB §4.5: concurrent reads on one port must agree on the
             address. *)
          let rec pairs = function
            | [] -> ()
            | (_, p1, a1) :: rest ->
              List.iter
                (fun (_, p2, a2) ->
                  add_ff ctx
                    (V.Assert_stmt
                       {
                         cond =
                           V.bor
                             (V.bnot (V.band p1 p2))
                             (V.Binop (V.Eq, a1, a2));
                         message =
                           Printf.sprintf
                             "conflicting reads on port %s bank %d" iface.mi_base b;
                       }))
                rest;
              pairs rest
          in
          pairs readers
        end;
        (* Bounds assertion when the depth is not a power of two. *)
        if depth < 1 lsl aw then
          add_ff ctx
            (V.Assert_stmt
               {
                 cond =
                   V.bor (V.bnot (V.Ref en))
                     (V.Binop (V.Lt, V.Ref addr, V.const_int ~width:(aw + 1) depth));
                 message = Printf.sprintf "read out of bounds on %s bank %d" iface.mi_base b;
               })
      | _ -> ());
      match names.bn_wr with
      | Some (en, addr, data) when not mb.mb_call_bound ->
        if ctx.hier && List.length writers >= arb_threshold then begin
          let busy, grant_addr, grant_data =
            emit_arb_chain ctx ~base:en ~aw ~dw:iface.mi_elem_width
              (List.map (fun (_, p, a, d) -> (p, a, d)) writers)
          in
          add_item ctx (V.Assign { target = en; expr = busy });
          add_item ctx (V.Assign { target = addr; expr = grant_addr });
          add_item ctx (V.Assign { target = data; expr = grant_data })
        end
        else begin
          let pulses = List.map (fun (_, p, _, _) -> p) writers in
          add_item ctx (V.Assign { target = en; expr = V.or_list pulses });
          add_item ctx
            (V.Assign
               {
                 target = addr;
                 expr =
                   V.priority_mux
                     ~default:(V.const_int ~width:aw 0)
                     (List.map (fun (_, p, a, _) -> (p, a)) writers);
               });
          add_item ctx
            (V.Assign
               {
                 target = data;
                 expr =
                   V.priority_mux
                     ~default:(V.const_int ~width:iface.mi_elem_width 0)
                     (List.map (fun (_, p, _, d) -> (p, d)) writers);
               });
          let rec pairs = function
            | [] -> ()
            | (_, p1, a1, _) :: rest ->
              List.iter
                (fun (_, p2, a2, _) ->
                  add_ff ctx
                    (V.Assert_stmt
                       {
                         cond =
                           V.bor (V.bnot (V.band p1 p2)) (V.Binop (V.Eq, a1, a2));
                         message =
                           Printf.sprintf
                             "conflicting writes on port %s bank %d" iface.mi_base b;
                       }))
                rest;
              pairs rest
          in
          pairs writers
        end;
        if depth < 1 lsl aw then
          add_ff ctx
            (V.Assert_stmt
               {
                 cond =
                   V.bor (V.bnot (V.Ref en))
                     (V.Binop (V.Lt, V.Ref addr, V.const_int ~width:(aw + 1) depth));
                 message = Printf.sprintf "write out of bounds on %s bank %d" iface.mi_base b;
               })
      | _ -> ())
    iface.mi_banks

(* ------------------------------------------------------------------ *)
(* Function-level emission                                             *)

let emit_func ctx func =
  let ifc = interface_of func in
  add_port ctx { V.port_name = "clk"; dir = V.Input; width = 1 };
  add_port ctx { V.port_name = "t_start"; dir = V.Input; width = 1 };
  (* Bind arguments. *)
  let body = Ops.func_body func in
  let data_args = Ops.func_data_args func in
  List.iter2
    (fun arg_ifc formal ->
      match arg_ifc with
      | Ifc_scalar (name, w, _) ->
        add_port ctx { V.port_name = name; dir = V.Input; width = w };
        bind ctx formal (Vwire (name, w))
      | Ifc_mem mi ->
        (* The bank buses are module ports: en/addr(/wr data) are
           outputs, read data is an input. *)
        Array.iter
          (fun names ->
            (match names.bn_rd with
            | Some (en, addr, data) ->
              add_port ctx { V.port_name = en; dir = V.Output; width = 1 };
              add_port ctx { V.port_name = addr; dir = V.Output; width = mi.mi_addr_width };
              add_port ctx { V.port_name = data; dir = V.Input; width = mi.mi_elem_width }
            | None -> ());
            match names.bn_wr with
            | Some (en, addr, data) ->
              add_port ctx { V.port_name = en; dir = V.Output; width = 1 };
              add_port ctx { V.port_name = addr; dir = V.Output; width = mi.mi_addr_width };
              add_port ctx { V.port_name = data; dir = V.Output; width = mi.mi_elem_width }
            | None -> ())
          mi.mi_banks;
        bind ctx formal
          (Vmem
             {
               mb_iface = mi;
               mb_latency = 1;
               mb_external = true;
               mb_call_bound = false;
               mb_readers = [];
               mb_writers = [];
               mb_read_result = None;
             }))
    ifc.ifc_args data_args;
  (* Result ports. *)
  List.iter
    (fun (name, w, _) -> add_port ctx { V.port_name = name; dir = V.Output; width = w })
    ifc.ifc_results;
  (* Time root. *)
  bind ctx (Ops.func_time_arg func) (Vtime "t_start");
  (* Body. *)
  emit_block ctx body;
  (* Returns drive the result ports. *)
  let return_op =
    List.find (fun o -> Ir.Op.name o = "hir.return") (Ir.Block.ops body)
  in
  List.iteri
    (fun i (name, w, _) ->
      add_item ctx
        (V.Assign { target = name; expr = operand ctx ~width:w (Ir.Op.operand return_op i) }))
    ifc.ifc_results;
  (* Finalize memref buses. *)
  Hashtbl.iter
    (fun _ b -> match b with Vmem mb -> finalize_mem ctx mb | _ -> ())
    ctx.binds;
  ifc

(* External modules: a registered pipeline around a combinational
   binary operator, matching the behavioural models in
   [Hir_dialect.Extern]. *)
let extern_binops = [ ("mult", V.Mul); ("mult3", V.Mul) ]

let emit_extern_module func =
  let ifc = interface_of func in
  let name = ifc.ifc_module in
  let op =
    match List.assoc_opt (Ops.func_name func) extern_binops with
    | Some op -> op
    | None -> fail "no Verilog template registered for extern module '%s'" (Ops.func_name func)
  in
  let args =
    List.filter_map
      (function Ifc_scalar (n, w, _) -> Some (n, w) | Ifc_mem _ -> None)
      ifc.ifc_args
  in
  let result_name, rw, latency =
    match ifc.ifc_results with
    | [ (n, w, d) ] -> (n, w, d)
    | _ -> fail "extern modules must have exactly one result"
  in
  let a, b =
    match args with [ (a, _); (b, _) ] -> (a, b) | _ -> fail "extern arity"
  in
  let items = ref [] in
  let stages = ref [] in
  let prev = ref (V.Binop (op, V.Ref a, V.Ref b)) in
  for k = 1 to latency do
    let r = Printf.sprintf "stage%d" k in
    items := V.Reg_decl { name = r; width = rw } :: !items;
    stages := V.Nonblocking (V.Lref r, !prev) :: !stages;
    prev := V.Ref r
  done;
  let items =
    List.rev !items
    @ [ V.Always_ff (List.rev !stages); V.Assign { target = result_name; expr = !prev } ]
  in
  {
    V.mod_name = name;
    ports =
      [
        { V.port_name = "clk"; dir = V.Input; width = 1 };
        { V.port_name = "t_start"; dir = V.Input; width = 1 };
      ]
      @ List.map (fun (n, w) -> { V.port_name = n; dir = V.Input; width = w }) args
      @ [ { V.port_name = result_name; dir = V.Output; width = rw } ];
    items;
  }

(* ------------------------------------------------------------------ *)
(* Design-level driver                                                 *)

type emitted = {
  design : V.design;
  top_iface : iface;
}

(* One function lowered to its ports and tagged item/ff streams,
   before outlining, with the name supply and the definition registry
   (the arbiter stages it already registered) that outlining extends. *)
type lowered = {
  lw_iface : iface;
  lw_ports : V.port list;
  lw_items : (int option * V.item) list;
  lw_ff : (int option * V.stmt) list;
  lw_names : Names.t;
  lw_registry : Outline.registry;
}

let lower ?(hier = true) ~module_op func =
  let ctx =
    {
      names = Names.create ();
      module_op;
      hier;
      registry = Outline.create_registry ();
      ports = [];
      items = [];
      ff = [];
      group_stack = [];
      force_shared = false;
      binds = Hashtbl.create 128;
      chains = Hashtbl.create 32;
      instance_count = 0;
      emitted_callees = [];
    }
  in
  let ifc = emit_func ctx func in
  {
    lw_iface = ifc;
    lw_ports = List.rev ctx.ports;
    lw_items = List.rev ctx.items;
    lw_ff = List.rev ctx.ff;
    lw_names = ctx.names;
    lw_registry = ctx.registry;
  }

(* Emit one function as a Verilog module.  With [hier] (the default)
   the tagged item stream is outlined against a definition cache:
   repeated emission groups become shared [hirdef_*] modules, returned
   in first-use order alongside the function's own module.  With
   [hier = false] the flat item stream is returned byte-for-byte as
   before, and the definition list is empty. *)
let emit_module_for ?(hier = true) ~module_op func =
  let l = lower ~hier ~module_op func in
  let items, ff =
    if hier then
      Outline.run ~names:l.lw_names ~registry:l.lw_registry ~ports:l.lw_ports ~items:l.lw_items
        ~ff:l.lw_ff
    else (List.map snd l.lw_items, List.map snd l.lw_ff)
  in
  let items = items @ (if ff = [] then [] else [ V.Always_ff ff ]) in
  ( { V.mod_name = l.lw_iface.ifc_module; ports = l.lw_ports; items },
    Outline.defs l.lw_registry,
    l.lw_iface )

(* Transitive callees of a function, depth first.  [path] holds the
   functions on the current call chain: a callee already on it is a
   call cycle, which has no finite hardware (a module would have to
   instantiate itself). *)
let rec callees_of ~module_op ~path func acc =
  let calls = Ir.Walk.find_all func "hir.call" in
  List.fold_left
    (fun acc call ->
      let name = Ops.call_callee call in
      if List.mem name path then fail "call cycle through @%s" name
      else if List.mem_assoc name acc then acc
      else
        match Ops.lookup_func module_op name with
        | None -> fail "call to unknown function @%s" name
        | Some callee ->
          let acc = (name, callee) :: acc in
          if Ops.is_extern_func callee then acc
          else callees_of ~module_op ~path:(name :: path) callee acc)
    acc calls

let emit ?(hier = true) ~module_op ~top () =
  if Ops.is_extern_func top then
    fail "top function @%s is extern (it has no body to emit)" (Ops.func_name top);
  let callees = callees_of ~module_op ~path:[ Ops.func_name top ] top [] in
  let modules = ref [] in
  (* Shared definitions are deduplicated design-wide by name (the name
     is content-addressed) and placed before the first module that
     instantiates them. *)
  let seen_defs = Hashtbl.create 16 in
  let add_defs defs =
    List.iter
      (fun (d : V.module_def) ->
        if not (Hashtbl.mem seen_defs d.V.mod_name) then begin
          Hashtbl.replace seen_defs d.V.mod_name ();
          modules := d :: !modules
        end)
      defs
  in
  List.iter
    (fun (_, callee) ->
      if Ops.is_extern_func callee then
        modules := emit_extern_module callee :: !modules
      else begin
        let m, defs, _ = emit_module_for ~hier ~module_op callee in
        add_defs defs;
        modules := m :: !modules
      end)
    (List.rev callees);
  let top_module, top_defs, top_ifc = emit_module_for ~hier ~module_op top in
  add_defs top_defs;
  modules := top_module :: !modules;
  { design = { V.modules = List.rev !modules; top = top_ifc.ifc_module }; top_iface = top_ifc }

(* The default pass pipeline: [compile] runs it, and the driver's
   [Pipeline.default] names it.  The scalar optimizations run before
   unrolling (cheaper on the compact design and inherited by every
   clone); delay elimination runs after, where it can share the shift
   registers of replicated bodies.  Unrolling is the one mandatory
   lowering. *)
let default_passes ~optimize =
  if optimize then [ Passes.canonicalize; Precision_opt.pass; Unroll.pass; Passes.delay_elim ]
  else [ Unroll.pass ]

(* Convenience: run the default pipeline then emit.  Pass diagnostics
   are not reported here; the driver's pipeline reports them. *)
let compile ?(optimize = false) ?(hier = true) ~module_op ~top () =
  let engine = Diagnostic.Engine.create () in
  List.iter (fun (p : Pass.t) -> ignore (p.Pass.run module_op engine)) (default_passes ~optimize);
  emit ~hier ~module_op ~top ()
