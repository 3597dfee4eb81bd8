(* Construction DSL for HIR designs.

   A [t] is an insertion point (a block being appended to).  Scheduled
   ops take an [at:(time, offset)] pair mirroring the paper's
   [at %t offset k] syntax. *)

open Hir_ir

type t = {
  mutable block : Ir.block;
  module_op : Ir.op option;
  (* When set, ops built through [insert] are stamped with this
     "emit_group" id — the same tag [Unroll] puts on expanded loop
     bodies — so generator-style kernels built in plain OCaml (e.g. the
     systolic array's PE grid) can mark their replicated cones for the
     code generator's outliner.  See [group]. *)
  mutable current_group : int option;
}

type time_point = Ir.value * int

let ( @>> ) time offset : time_point = (time, offset)

let insert b op =
  (match b.current_group with
  | Some gid when Ir.Op.int_attr_opt op Unroll.group_attr = None ->
    Ir.Op.set_attr op Unroll.group_attr (Attribute.Int gid)
  | _ -> ());
  Ir.Block.append b.block op

(* Build [f]'s ops as one fresh emission group: structurally identical
   groups are deduplicated into a shared module definition at codegen
   time.  Nested [group] calls stack — the inner group's ops carry the
   inner id (the emitter's group stack restores the nesting). *)
let group b f =
  let saved = b.current_group in
  b.current_group <- Some (Unroll.fresh_group ());
  Fun.protect ~finally:(fun () -> b.current_group <- saved) (fun () -> f ())

(* ------------------------------------------------------------------ *)
(* Module and functions                                                *)

let create_module ?(loc = Location.unknown) () =
  Ops.register ();
  let block = Ir.Block.create [] in
  let region = Ir.Region.create ~blocks:[ block ] () in
  Ir.Op.create ~regions:[ region ] ~loc "builtin.module" ~operands:[]
    ~result_types:[]

let module_block module_op =
  match Ir.Op.regions module_op with
  | [ r ] -> (
    match Ir.Region.blocks r with [ b ] -> b | _ -> failwith "malformed module")
  | _ -> failwith "malformed module"

type arg_spec = { arg_name : string; arg_type : Typ.t; arg_delay : int }

let arg ?(delay = 0) name typ = { arg_name = name; arg_type = typ; arg_delay = delay }

let func ?(loc = Location.unknown) ?(results = []) ~name ~args module_op body =
  let arg_types = List.map (fun a -> a.arg_type) args in
  let block =
    Ir.Block.create
      ~arg_hints:(List.map (fun a -> Some a.arg_name) args @ [ Some "t" ])
      (arg_types @ [ Types.Time ])
  in
  let region = Ir.Region.create ~blocks:[ block ] () in
  let attrs =
    [
      ("sym_name", Attribute.Symbol name);
      ("arg_types", Attribute.Array (List.map (fun a -> Attribute.Type a.arg_type) args));
      ("arg_names", Attribute.Array (List.map (fun a -> Attribute.String a.arg_name) args));
      ("arg_delays", Attribute.Array (List.map (fun a -> Attribute.Int a.arg_delay) args));
      ("result_types", Attribute.Array (List.map (fun (t, _) -> Attribute.Type t) results));
      ("result_delays", Attribute.Array (List.map (fun (_, d) -> Attribute.Int d) results));
    ]
  in
  let func_op =
    Ir.Op.create ~attrs ~regions:[ region ] ~loc "hir.func" ~operands:[]
      ~result_types:[]
  in
  Ir.Block.append (module_block module_op) func_op;
  let builder = { block; module_op = Some module_op; current_group = None } in
  let data_args = List.filteri (fun i _ -> i < List.length args) (Ir.Block.args block) in
  let time = Ir.Block.arg block (List.length args) in
  body builder data_args time;
  func_op

(* An external function: a blackbox Verilog module with a known
   schedule signature (paper Section 5.4).  [verilog_name] is the
   module to instantiate; the RTL behaviour used in simulation is
   registered separately in [Extern]. *)
let extern_func ?(loc = Location.unknown) ?(results = []) ~name ~args module_op =
  let attrs =
    [
      ("sym_name", Attribute.Symbol name);
      ("extern", Attribute.Bool true);
      ("arg_types", Attribute.Array (List.map (fun a -> Attribute.Type a.arg_type) args));
      ("arg_names", Attribute.Array (List.map (fun a -> Attribute.String a.arg_name) args));
      ("arg_delays", Attribute.Array (List.map (fun a -> Attribute.Int a.arg_delay) args));
      ("result_types", Attribute.Array (List.map (fun (t, _) -> Attribute.Type t) results));
      ("result_delays", Attribute.Array (List.map (fun (_, d) -> Attribute.Int d) results));
    ]
  in
  let func_op =
    Ir.Op.create ~attrs ~loc "hir.func" ~operands:[] ~result_types:[]
  in
  Ir.Block.append (module_block module_op) func_op;
  func_op

(* ------------------------------------------------------------------ *)
(* Leaf ops                                                            *)

let constant ?(loc = Location.unknown) ?hint b value =
  let hint = match hint with Some h -> Some h | None -> Some (Printf.sprintf "c%d" (abs value)) in
  let op =
    Ir.Op.create ~loc
      ~attrs:[ ("value", Attribute.Int value) ]
      ~result_hints:[ hint ] "hir.constant" ~operands:[] ~result_types:[ Types.Const ]
  in
  insert b op;
  Ir.Op.result op 0

let value_width v =
  match Ir.Value.typ v with
  | Typ.Int n -> Some n
  | Types.Const -> None
  | t -> failwith ("value_width: not an integer value: " ^ Typ.to_string t)

let binary_result_type a b =
  match (value_width a, value_width b) with
  | Some n, Some m when n = m -> Typ.Int n
  | Some n, None | None, Some n -> Typ.Int n
  | None, None -> Types.Const
  | Some n, Some m ->
    failwith (Printf.sprintf "binary op: operand widths differ (%d vs %d)" n m)

let binop ?(loc = Location.unknown) ?hint name b x y =
  let op =
    Ir.Op.create ~loc ~result_hints:[ hint ] name ~operands:[ x; y ]
      ~result_types:[ binary_result_type x y ]
  in
  insert b op;
  Ir.Op.result op 0

let add ?loc ?hint b x y = binop ?loc ?hint "hir.add" b x y
let sub ?loc ?hint b x y = binop ?loc ?hint "hir.sub" b x y
let mult ?loc ?hint b x y = binop ?loc ?hint "hir.mult" b x y
let logand ?loc ?hint b x y = binop ?loc ?hint "hir.and" b x y
let shl ?loc ?hint b x y = binop ?loc ?hint "hir.shl" b x y
let shrl ?loc ?hint b x y = binop ?loc ?hint "hir.shrl" b x y
let shra ?loc ?hint b x y = binop ?loc ?hint "hir.shra" b x y

let cmp ?(loc = Location.unknown) ?hint name b x y =
  let op =
    Ir.Op.create ~loc ~result_hints:[ hint ] name ~operands:[ x; y ]
      ~result_types:[ Typ.i1 ]
  in
  insert b op;
  Ir.Op.result op 0

let lt ?loc ?hint b x y = cmp ?loc ?hint "hir.lt" b x y
let le ?loc ?hint b x y = cmp ?loc ?hint "hir.le" b x y
let gt ?loc ?hint b x y = cmp ?loc ?hint "hir.gt" b x y
let ge ?loc ?hint b x y = cmp ?loc ?hint "hir.ge" b x y
let eq ?loc ?hint b x y = cmp ?loc ?hint "hir.eq" b x y
let ne ?loc ?hint b x y = cmp ?loc ?hint "hir.ne" b x y

let select ?(loc = Location.unknown) ?hint b cond x y =
  let op =
    Ir.Op.create ~loc ~result_hints:[ hint ] "hir.select" ~operands:[ cond; x; y ]
      ~result_types:[ binary_result_type x y ]
  in
  insert b op;
  Ir.Op.result op 0

let resize_op name ?(loc = Location.unknown) ?hint b x ~width =
  let op =
    Ir.Op.create ~loc ~result_hints:[ hint ] name ~operands:[ x ]
      ~result_types:[ Typ.Int width ]
  in
  insert b op;
  Ir.Op.result op 0

let zext ?loc ?hint b x ~width = resize_op "hir.zext" ?loc ?hint b x ~width
let sext ?loc ?hint b x ~width = resize_op "hir.sext" ?loc ?hint b x ~width
let trunc ?loc ?hint b x ~width = resize_op "hir.trunc" ?loc ?hint b x ~width

let delay ?(loc = Location.unknown) ?hint b x ~by ~at:(time, offset) =
  let op =
    Ir.Op.create ~loc ~result_hints:[ hint ]
      ~attrs:[ ("by", Attribute.Int by); ("offset", Attribute.Int offset) ]
      "hir.delay" ~operands:[ x; time ]
      ~result_types:[ Ir.Value.typ x ]
  in
  insert b op;
  Ir.Op.result op 0

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)

let alloc ?(loc = Location.unknown) ?packing ~kind ~dims ~elem ~ports b =
  let result_types =
    List.map (fun port -> Types.memref ~packing ~dims ~elem ~port ()) ports
  in
  let op =
    Ir.Op.create ~loc
      ~attrs:[ ("mem_kind", Attribute.String (Ops.mem_kind_to_string kind)) ]
      "hir.alloc" ~operands:[] ~result_types
  in
  insert b op;
  Ir.Op.results op

(* Read latency: the storage kind if the port comes from a local alloc,
   otherwise the interface default of 1 cycle. *)
let port_latency mem =
  match Ir.Value.defining_op mem with
  | Some op when Ir.Op.name op = "hir.alloc" ->
    Ops.mem_kind_latency (Ops.alloc_kind op)
  | _ -> 1

let mem_read ?(loc = Location.unknown) ?hint ?latency b mem indices ~at:(time, offset) =
  let info = Types.memref_info (Ir.Value.typ mem) in
  let latency = match latency with Some l -> l | None -> port_latency mem in
  let op =
    Ir.Op.create ~loc ~result_hints:[ hint ]
      ~attrs:[ ("offset", Attribute.Int offset); ("latency", Attribute.Int latency) ]
      "hir.mem_read"
      ~operands:((mem :: indices) @ [ time ])
      ~result_types:[ info.elem ]
  in
  insert b op;
  Ir.Op.result op 0

let mem_write ?(loc = Location.unknown) b value mem indices ~at:(time, offset) =
  let op =
    Ir.Op.create ~loc
      ~attrs:[ ("offset", Attribute.Int offset) ]
      "hir.mem_write"
      ~operands:((value :: mem :: indices) @ [ time ])
      ~result_types:[]
  in
  insert b op

(* ------------------------------------------------------------------ *)
(* Control flow                                                        *)

let yield ?(loc = Location.unknown) b ~at:(time, offset) =
  let op =
    Ir.Op.create ~loc
      ~attrs:[ ("offset", Attribute.Int offset) ]
      "hir.yield" ~operands:[ time ] ~result_types:[]
  in
  insert b op

let return_ ?(loc = Location.unknown) b values =
  let op = Ir.Op.create ~loc "hir.return" ~operands:values ~result_types:[] in
  insert b op

let for_loop ?(loc = Location.unknown) ?(iv_width = 32) ?(iv_hint = "i") b ~lb ~ub
    ~step ~at:(time, offset) body =
  let block =
    Ir.Block.create
      ~arg_hints:[ Some iv_hint; Some ("t" ^ iv_hint) ]
      [ Typ.Int iv_width; Types.Time ]
  in
  let region = Ir.Region.create ~blocks:[ block ] () in
  let op =
    Ir.Op.create ~loc
      ~attrs:[ ("offset", Attribute.Int offset) ]
      ~regions:[ region ] ~result_hints:[ Some ("tf_" ^ iv_hint) ] "hir.for"
      ~operands:[ lb; ub; step; time ]
      ~result_types:[ Types.Time ]
  in
  insert b op;
  let inner = { block; module_op = b.module_op; current_group = b.current_group } in
  body inner ~iv:(Ir.Block.arg block 0) ~ti:(Ir.Block.arg block 1);
  Ir.Op.result op 0

let unroll_for ?(loc = Location.unknown) ?(iv_hint = "u") b ~lb ~ub ~step
    ~at:(time, offset) body =
  let block =
    Ir.Block.create
      ~arg_hints:[ Some iv_hint; Some ("t" ^ iv_hint) ]
      [ Types.Const; Types.Time ]
  in
  let region = Ir.Region.create ~blocks:[ block ] () in
  let op =
    Ir.Op.create ~loc
      ~attrs:
        [
          ("lb", Attribute.Int lb);
          ("ub", Attribute.Int ub);
          ("step", Attribute.Int step);
          ("offset", Attribute.Int offset);
        ]
      ~regions:[ region ]
      ~result_hints:[ Some ("tf_" ^ iv_hint) ]
      "hir.unroll_for" ~operands:[ time ] ~result_types:[ Types.Time ]
  in
  insert b op;
  let inner = { block; module_op = b.module_op; current_group = b.current_group } in
  body inner ~iv:(Ir.Block.arg block 0) ~ti:(Ir.Block.arg block 1);
  Ir.Op.result op 0

(* ------------------------------------------------------------------ *)
(* Calls                                                               *)

let call ?(loc = Location.unknown) b ~callee args ~at:(time, offset) =
  let name = Ops.func_name callee in
  let result_types = Ops.func_result_types callee in
  let attrs =
    [
      ("callee", Attribute.Symbol name);
      ("offset", Attribute.Int offset);
      ( "arg_delays",
        Attribute.Array (List.map (fun d -> Attribute.Int d) (Ops.func_arg_delays callee)) );
      ( "result_delays",
        Attribute.Array
          (List.map (fun d -> Attribute.Int d) (Ops.func_result_delays callee)) );
    ]
  in
  let op =
    Ir.Op.create ~loc ~attrs "hir.call"
      ~operands:(args @ [ time ])
      ~result_types
  in
  insert b op;
  Ir.Op.results op
