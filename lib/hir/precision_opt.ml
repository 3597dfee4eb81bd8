(* Automatic precision (bit-width) optimization — paper Section 6.3 and
   Table 4.

   A forward value-range analysis infers, for every integer SSA value,
   an interval from constant loop bounds and constant operands; any
   value whose interval is non-negative and fits in fewer bits than its
   declared type is narrowed in place.  HIR's Verilog-like mixed-width
   semantics (operands zero-extend to the consumer's width, comparisons
   are unsigned) make the narrowing a pure type change: no coercion ops
   are inserted, and the code generator simply emits narrower wires,
   registers and counters. *)

open Hir_ir

type range = { lo : int; hi : int }

let bits_for n =
  if n <= 0 then 1
  else
    let rec go k v = if v = 0 then k else go (k + 1) (v lsr 1) in
    go 0 n

(* Clamp to avoid OCaml int overflow corrupting the analysis: ranges
   wider than 2^40 are treated as unknown. *)
let big = 1 lsl 40

let valid r = r.lo >= -big && r.hi <= big && r.lo <= r.hi

let combine f a b =
  match (a, b) with
  | Some a, Some b ->
    let candidates = [ f a.lo b.lo; f a.lo b.hi; f a.hi b.lo; f a.hi b.hi ] in
    let r =
      {
        lo = List.fold_left min max_int candidates;
        hi = List.fold_left max min_int candidates;
      }
    in
    if valid r then Some r else None
  | _ -> None

let analyze_ranges func =
  let ranges : (int, range) Hashtbl.t = Hashtbl.create 64 in
  let get v = Hashtbl.find_opt ranges (Ir.Value.id v) in
  let set v r = match r with Some r when valid r -> Hashtbl.replace ranges (Ir.Value.id v) r | _ -> () in
  let const_range v =
    match Ops.as_constant v with Some c -> Some { lo = c; hi = c } | None -> get v
  in
  let rec walk_block block = List.iter walk_op (Ir.Block.ops block)
  and walk_op op =
    (match Ir.Op.name op with
    | "hir.constant" ->
      let c = Ops.constant_value op in
      set (Ir.Op.result op 0) (Some { lo = c; hi = c })
    | "hir.for" -> (
      let iv = Ops.loop_induction_var op in
      match (const_range (Ops.for_lb op), const_range (Ops.for_ub op)) with
      | Some lb, Some ub when lb.lo >= 0 && ub.hi >= lb.lo ->
        set iv (Some { lo = lb.lo; hi = max lb.lo (ub.hi - 1) })
      | _ -> ())
    | "hir.delay" -> set (Ir.Op.result op 0) (const_range (Ops.delay_input op))
    | "hir.add" ->
      set (Ir.Op.result op 0)
        (combine ( + ) (const_range (Ir.Op.operand op 0)) (const_range (Ir.Op.operand op 1)))
    | "hir.sub" ->
      set (Ir.Op.result op 0)
        (combine ( - ) (const_range (Ir.Op.operand op 0)) (const_range (Ir.Op.operand op 1)))
    | "hir.mult" ->
      set (Ir.Op.result op 0)
        (combine ( * ) (const_range (Ir.Op.operand op 0)) (const_range (Ir.Op.operand op 1)))
    | "hir.and" -> (
      (* x & mask is bounded by the mask when the mask is a
         non-negative constant. *)
      let mask a b =
        match const_range b with
        | Some { lo; hi } when lo = hi && lo >= 0 -> Some { lo = 0; hi = lo }
        | _ -> (
          match const_range a with
          | Some { lo; hi } when lo = hi && lo >= 0 -> Some { lo = 0; hi = lo }
          | _ -> None)
      in
      set (Ir.Op.result op 0) (mask (Ir.Op.operand op 0) (Ir.Op.operand op 1)))
    | "hir.shl" -> (
      match (const_range (Ir.Op.operand op 0), const_range (Ir.Op.operand op 1)) with
      | Some a, Some { lo = k; hi = k' } when k = k' && k >= 0 && k < 40 && a.lo >= 0 ->
        let r = { lo = a.lo lsl k; hi = a.hi lsl k } in
        set (Ir.Op.result op 0) (if valid r then Some r else None)
      | _ -> ())
    | "hir.shrl" | "hir.shra" -> (
      match (const_range (Ir.Op.operand op 0), const_range (Ir.Op.operand op 1)) with
      | Some a, Some { lo = k; hi = k' } when k = k' && k >= 0 && a.lo >= 0 ->
        set (Ir.Op.result op 0) (Some { lo = a.lo asr k; hi = a.hi asr k })
      | _ -> ())
    | "hir.select" ->
      (match
         (const_range (Ir.Op.operand op 1), const_range (Ir.Op.operand op 2))
       with
      | Some a, Some b ->
        set (Ir.Op.result op 0) (Some { lo = min a.lo b.lo; hi = max a.hi b.hi })
      | _ -> ())
    | name when List.mem name Ops.comparison_ops ->
      set (Ir.Op.result op 0) (Some { lo = 0; hi = 1 })
    | _ -> ());
    List.iter
      (fun r -> List.iter walk_block (Ir.Region.blocks r))
      (Ir.Op.regions op)
  in
  walk_block (Ops.func_body func);
  ranges

(* ------------------------------------------------------------------ *)
(* Narrowing                                                           *)

let narrow_func rw func =
  let ranges = analyze_ranges func in
  let narrow v =
    match (Ir.Value.typ v, Hashtbl.find_opt ranges (Ir.Value.id v)) with
    | Typ.Int w, Some { lo; hi } when lo >= 0 ->
      let needed = bits_for hi in
      if needed < w then begin
        Rewrite.Rewriter.set_value_type rw v (Typ.Int needed);
        Rewrite.Rewriter.bump rw "precision.narrow"
      end
    | _ -> ()
  in
  let rec walk_block block =
    (* Loop induction variables are block args. *)
    List.iter walk_op (Ir.Block.ops block)
  and walk_op op =
    (match Ir.Op.name op with
    | "hir.for" -> narrow (Ops.loop_induction_var op)
    | "hir.delay" ->
      (* A delay result always mirrors its (possibly narrowed) input
         type: it is the same wires, later. *)
      let input_t = Ir.Value.typ (Ops.delay_input op) in
      if not (Typ.equal (Ir.Value.typ (Ir.Op.result op 0)) input_t) then begin
        Rewrite.Rewriter.set_value_type rw (Ir.Op.result op 0) input_t;
        Rewrite.Rewriter.bump rw "precision.delay-mirror"
      end
    | name
      when List.mem name Ops.binary_compute_ops
           || name = "hir.select" ->
      narrow (Ir.Op.result op 0)
    | _ -> ());
    List.iter (fun r -> List.iter walk_block (Ir.Region.blocks r)) (Ir.Op.regions op)
  in
  walk_block (Ops.func_body func)

let run module_op =
  let rw = Rewrite.Rewriter.create ~root:module_op () in
  List.iter
    (fun f -> if not (Ops.is_extern_func f) then narrow_func rw f)
    (Ops.module_funcs module_op);
  Rewrite.Rewriter.changed rw

let pass =
  Pass.make ~name:"precision-opt"
    ~description:"Narrow integer widths from value ranges (Section 6.3)"
    (fun module_op _engine -> run module_op)
