(* HIR operation definitions: registration with the dialect registry,
   structural verifiers, and typed accessors used by passes, the
   interpreter and the code generator.

   Operand layout conventions:
   - scheduled ops take their time variable as the LAST operand and
     carry an integer "offset" attribute (the paper's [at %t offset k]);
   - compute ops are combinational and carry no schedule of their own.

   (See Table 2 of the paper for the op inventory.) *)

open Hir_ir

let is_time v = Typ.equal (Ir.Value.typ v) Types.Time
let is_const v = Typ.equal (Ir.Value.typ v) Types.Const
let is_memref v = match Ir.Value.typ v with Types.Memref _ -> true | _ -> false
let is_int v = match Ir.Value.typ v with Typ.Int _ -> true | _ -> false
let is_int_or_const v = is_int v || is_const v

let err engine op fmt =
  Diagnostic.Engine.errorf engine (Ir.Op.loc op) fmt

let constant_value op =
  match Ir.Op.attr op "value" with
  | Some (Attribute.Int n) -> n
  | _ -> failwith "hir.constant: missing value"

(* If [v] is produced by hir.constant, its integer value.  Total even
   on a malformed constant (missing or non-integer 'value'): verifiers
   walk sibling ops before the constant's own verifier has rejected
   it, so this must not raise. *)
let as_constant v =
  match Ir.Value.defining_op v with
  | Some op when Ir.Op.name op = "hir.constant" -> (
    match Ir.Op.attr op "value" with Some (Attribute.Int n) -> Some n | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Structural verifiers                                                *)

(* The parser accepts any attribute value for any key, so verifiers must
   pin down attribute *kinds* before the schedule verifier, the passes
   or codegen read them through [Attribute.as_*] — otherwise a textual
   module with, say, [{offset = "x"}] verifies structurally and then
   kills the compiler with an uncaught [Failure]. *)
let verify_attr_kind ?(required = true) ~kind ~describe op key engine =
  match Ir.Op.attr op key with
  | Some a ->
    if not (kind a) then
      err engine op "'%s' attribute '%s' must be %s, got %s" (Ir.Op.name op) key
        describe (Attribute.to_string a)
  | None ->
    if required then
      err engine op "'%s' requires '%s' (%s)" (Ir.Op.name op) key describe

let is_int_a = function Attribute.Int _ -> true | _ -> false
let is_array_of p = function Attribute.Array l -> List.for_all p l | _ -> false

let verify_int_attr ?required op key engine =
  verify_attr_kind ?required ~kind:is_int_a ~describe:"an integer" op key engine

(* Codegen materializes one pulse register per schedule-offset stage,
   so an unbounded "offset" attribute is a resource explosion reachable
   straight from parsed text (and unrolling multiplies it further —
   emit has its own accumulated-stage backstop). *)
let max_schedule_offset = 4096

let verify_offset_attr op key engine =
  verify_int_attr op key engine;
  match Ir.Op.attr op key with
  | Some (Attribute.Int n) when n < 0 || n > max_schedule_offset ->
    err engine op "'%s' attribute '%s' must be in 0..%d, got %d" (Ir.Op.name op)
      key max_schedule_offset n
  | _ -> ()

let verify_symbol_attr ?required op key engine =
  verify_attr_kind ?required
    ~kind:(function Attribute.Symbol _ -> true | _ -> false)
    ~describe:"a @symbol" op key engine

let verify_int_array_attr ?required op key engine =
  verify_attr_kind ?required ~kind:(is_array_of is_int_a)
    ~describe:"an array of integers" op key engine

let verify_type_array_attr ?required op key engine =
  verify_attr_kind ?required
    ~kind:(is_array_of (function Attribute.Type _ -> true | _ -> false))
    ~describe:"an array of !ty<..> types" op key engine

let verify_string_array_attr ?required op key engine =
  verify_attr_kind ?required
    ~kind:(is_array_of (function Attribute.String _ -> true | _ -> false))
    ~describe:"an array of strings" op key engine

let verify_operand_count ~n op engine =
  if Ir.Op.num_operands op <> n then
    err engine op "'%s' expects %d operands, got %d" (Ir.Op.name op) n
      (Ir.Op.num_operands op)

let verify_time_last op engine =
  let n = Ir.Op.num_operands op in
  if n = 0 || not (is_time (Ir.Op.operand op (n - 1))) then
    err engine op "'%s' expects its last operand to be a !hir.time value"
      (Ir.Op.name op)
  else verify_offset_attr op "offset" engine

let single_block_region op engine =
  match Ir.Op.regions op with
  | [ r ] -> (
    match Ir.Region.blocks r with
    | [ b ] -> Some b
    | blocks ->
      err engine op "'%s' expects a single-block region, got %d blocks"
        (Ir.Op.name op) (List.length blocks);
      None)
  | rs ->
    err engine op "'%s' expects exactly one region, got %d" (Ir.Op.name op)
      (List.length rs);
    None

let verify_module op engine =
  verify_operand_count ~n:0 op engine;
  match single_block_region op engine with
  | None -> ()
  | Some b ->
    if Ir.Block.num_args b <> 0 then
      err engine op "module block takes no arguments";
    List.iter
      (fun o ->
        if Ir.Op.name o <> "hir.func" then
          err engine op "module may only contain hir.func ops, found '%s'"
            (Ir.Op.name o))
      (Ir.Block.ops b)

let is_extern_func op =
  match Ir.Op.attr op "extern" with
  | Some (Attribute.Bool true) -> true
  | _ -> false

let func_arg_types op =
  match Ir.Op.attr op "arg_types" with
  | Some (Attribute.Array l) -> List.map Attribute.as_type l
  | _ -> failwith "hir.func: missing arg_types attribute"

let func_result_types op =
  match Ir.Op.attr op "result_types" with
  | Some (Attribute.Array l) -> List.map Attribute.as_type l
  | _ -> []

let func_arg_delays op =
  match Ir.Op.attr op "arg_delays" with
  | Some (Attribute.Array l) -> List.map Attribute.as_int l
  | _ -> List.map (fun _ -> 0) (func_arg_types op)

let func_result_delays op =
  match Ir.Op.attr op "result_delays" with
  | Some (Attribute.Array l) -> List.map Attribute.as_int l
  | _ -> List.map (fun _ -> 0) (func_result_types op)

let func_name op = Ir.Op.symbol_attr op "sym_name"

(* The function body's block: args are the data args followed by the
   function start-time %t. *)
let func_body op =
  match Ir.Op.regions op with
  | [ r ] -> (
    match Ir.Region.blocks r with [ b ] -> b | _ -> failwith "hir.func: malformed body")
  | _ -> failwith "hir.func: malformed body"

let func_time_arg op =
  let b = func_body op in
  Ir.Block.arg b (Ir.Block.num_args b - 1)

let func_data_args op =
  let b = func_body op in
  let n = Ir.Block.num_args b in
  List.filteri (fun i _ -> i < n - 1) (Ir.Block.args b)

let verify_func op engine =
  verify_operand_count ~n:0 op engine;
  verify_symbol_attr op "sym_name" engine;
  verify_type_array_attr op "arg_types" engine;
  verify_type_array_attr ~required:false op "result_types" engine;
  verify_string_array_attr ~required:false op "arg_names" engine;
  verify_int_array_attr ~required:false op "arg_delays" engine;
  verify_int_array_attr ~required:false op "result_delays" engine;
  (* Only read the typed accessors once the kinds above hold — they
     [failwith] on malformed attributes. *)
  let arg_types_ok =
    match Ir.Op.attr op "arg_types" with
    | Some (Attribute.Array l) ->
      List.for_all (function Attribute.Type _ -> true | _ -> false) l
    | _ -> false
  in
  (* Sibling attribute arrays must be as long as the signature they
     annotate — codegen indexes them positionally. *)
  let attr_len key =
    match Ir.Op.attr op key with Some (Attribute.Array l) -> Some (List.length l) | _ -> None
  in
  let check_len key ~against =
    match (attr_len key, attr_len against) with
    | Some n, Some m when n <> m ->
      err engine op "hir.func '%s' has %d entries but '%s' has %d" key n against m
    | _ -> ()
  in
  check_len "arg_names" ~against:"arg_types";
  check_len "arg_delays" ~against:"arg_types";
  check_len "result_delays" ~against:"result_types";
  if is_extern_func op then begin
    if Ir.Op.regions op <> [] && single_block_region op engine <> None then ()
  end
  else
    match single_block_region op engine with
    | None -> ()
    | Some b ->
      let n = Ir.Block.num_args b in
      if n = 0 || not (is_time (Ir.Block.arg b (n - 1))) then
        err engine op "hir.func body's last block argument must be !hir.time";
      if arg_types_ok then begin
        let arg_types = func_arg_types op in
        if List.length arg_types <> n - 1 then
          err engine op "hir.func arg_types length (%d) does not match body args (%d)"
            (List.length arg_types) (n - 1)
        else
          (* Codegen builds the module's ports from [arg_types] and
             binds them to the body arguments positionally. *)
          List.iteri
            (fun i t ->
              let body_t = Ir.Value.typ (Ir.Block.arg b i) in
              if not (Typ.equal t body_t) then
                err engine op "hir.func arg_types entry %d is %s but body argument %d is %s" i
                  (Typ.to_string t) i (Typ.to_string body_t))
            arg_types
      end;
      let returns =
        List.filter (fun o -> Ir.Op.name o = "hir.return") (Ir.Block.ops b)
      in
      if List.length returns <> 1 then
        err engine op "hir.func body must contain exactly one hir.return"

let verify_constant op engine =
  verify_operand_count ~n:0 op engine;
  if Ir.Op.num_results op <> 1 || not (is_const (Ir.Op.result op 0)) then
    err engine op "hir.constant produces a single !hir.const result";
  verify_int_attr op "value" engine

let for_lb op = Ir.Op.operand op 0
let for_ub op = Ir.Op.operand op 1
let for_step op = Ir.Op.operand op 2
let for_time op = Ir.Op.operand op 3
let for_offset op = Ir.Op.int_attr op "offset"

let loop_body op =
  match Ir.Op.regions op with
  | [ r ] -> (
    match Ir.Region.blocks r with [ b ] -> b | _ -> failwith "hir.for: malformed body")
  | _ -> failwith "hir.for: malformed body"

let loop_induction_var op = Ir.Block.arg (loop_body op) 0
let loop_iter_time op = Ir.Block.arg (loop_body op) 1

let loop_yield op =
  match List.filter (fun o -> Ir.Op.name o = "hir.yield") (Ir.Block.ops (loop_body op)) with
  | [ y ] -> y
  | _ -> failwith "loop body must contain exactly one hir.yield"

let verify_for op engine =
  verify_operand_count ~n:4 op engine;
  if Ir.Op.num_operands op = 4 then begin
    List.iteri
      (fun i v ->
        if not (is_int_or_const v) then
          err engine op "hir.for bound/step operand %d must be integer or !hir.const" i)
      [ for_lb op; for_ub op; for_step op ];
    if not (is_time (for_time op)) then
      err engine op "hir.for operand 3 must be the start !hir.time"
  end;
  verify_offset_attr op "offset" engine;
  if Ir.Op.num_results op <> 1 || not (is_time (Ir.Op.result op 0)) then
    err engine op "hir.for produces a single !hir.time result";
  match single_block_region op engine with
  | None -> ()
  | Some b ->
    if Ir.Block.num_args b <> 2 then
      err engine op "hir.for body takes (%%iv, %%t_iter) arguments"
    else begin
      if not (is_int (Ir.Block.arg b 0)) then
        err engine op "hir.for induction variable must have integer type";
      if not (is_time (Ir.Block.arg b 1)) then
        err engine op "hir.for iteration time must be !hir.time"
    end;
    let yields = List.filter (fun o -> Ir.Op.name o = "hir.yield") (Ir.Block.ops b) in
    if List.length yields <> 1 then
      err engine op "hir.for body must contain exactly one hir.yield"

let max_unroll_trips = 4096

let unroll_for_lb op = Ir.Op.int_attr op "lb"
let unroll_for_ub op = Ir.Op.int_attr op "ub"
let unroll_for_step op = Ir.Op.int_attr op "step"
let unroll_for_time op = Ir.Op.operand op 0
let unroll_for_offset op = Ir.Op.int_attr op "offset"

let verify_unroll_for op engine =
  verify_operand_count ~n:1 op engine;
  if Ir.Op.num_operands op = 1 && not (is_time (unroll_for_time op)) then
    err engine op "hir.unroll_for operand must be the start !hir.time";
  List.iter (fun key -> verify_int_attr op key engine) [ "lb"; "ub"; "step" ];
  verify_offset_attr op "offset" engine;
  (* The unroll pass replicates the body per iteration ([while k < ub;
     k += step]), so the verifier must reject bound/step combinations
     that never terminate or that would expand into an absurd number of
     ops.  Trip count is computed in float: [ub - lb] can overflow int
     for fuzzer-supplied extremes. *)
  (match (Ir.Op.attr op "lb", Ir.Op.attr op "ub", Ir.Op.attr op "step") with
  | _, _, Some (Attribute.Int 0) -> err engine op "hir.unroll_for step must be nonzero"
  | Some (Attribute.Int lb), Some (Attribute.Int ub), Some (Attribute.Int step) ->
    if lb < ub && step < 0 then
      err engine op "hir.unroll_for with lb < ub and a negative step never terminates"
    else begin
      let trips = ceil ((float_of_int ub -. float_of_int lb) /. float_of_int step) in
      if trips > float_of_int max_unroll_trips then
        err engine op "hir.unroll_for trip count exceeds the limit of %d"
          max_unroll_trips
    end
  | _ -> ());
  if Ir.Op.num_results op <> 1 || not (is_time (Ir.Op.result op 0)) then
    err engine op "hir.unroll_for produces a single !hir.time result";
  match single_block_region op engine with
  | None -> ()
  | Some b ->
    if Ir.Block.num_args b <> 2
       || not (is_const (Ir.Block.arg b 0))
       || not (is_time (Ir.Block.arg b 1))
    then err engine op "hir.unroll_for body takes (%%iv: !hir.const, %%t: !hir.time)";
    let yields = List.filter (fun o -> Ir.Op.name o = "hir.yield") (Ir.Block.ops b) in
    if List.length yields <> 1 then
      err engine op "hir.unroll_for body must contain exactly one hir.yield"

let yield_time op = Ir.Op.operand op 0
let yield_offset op = Ir.Op.int_attr op "offset"

let verify_yield op engine =
  verify_operand_count ~n:1 op engine;
  if Ir.Op.num_operands op = 1 && not (is_time (yield_time op)) then
    err engine op "hir.yield operand must be a !hir.time value";
  verify_offset_attr op "offset" engine

let verify_return op engine =
  List.iteri
    (fun i v ->
      if is_time v || is_memref v then
        err engine op "hir.return operand %d must be a data value" i)
    (Ir.Op.operands op)

let call_callee op = Ir.Op.symbol_attr op "callee"
let call_offset op = Ir.Op.int_attr op "offset"

let call_time op = Ir.Op.operand op (Ir.Op.num_operands op - 1)

let call_args op =
  let n = Ir.Op.num_operands op in
  List.filteri (fun i _ -> i < n - 1) (Ir.Op.operands op)

let call_arg_delays op =
  match Ir.Op.attr op "arg_delays" with
  | Some (Attribute.Array l) -> List.map Attribute.as_int l
  | _ -> List.map (fun _ -> 0) (call_args op)

let call_result_delays op =
  match Ir.Op.attr op "result_delays" with
  | Some (Attribute.Array l) -> List.map Attribute.as_int l
  | _ -> List.map (fun _ -> 0) (Ir.Op.results op)

let verify_call op engine =
  verify_symbol_attr op "callee" engine;
  verify_int_array_attr ~required:false op "arg_delays" engine;
  verify_int_array_attr ~required:false op "result_delays" engine;
  verify_time_last op engine

let max_delay_stages = 4096

let delay_input op = Ir.Op.operand op 0
let delay_time op = Ir.Op.operand op 1
let delay_by op = Ir.Op.int_attr op "by"
let delay_offset op = Ir.Op.int_attr op "offset"

let verify_delay op engine =
  verify_operand_count ~n:2 op engine;
  verify_time_last op engine;
  verify_int_attr op "by" engine;
  (match Ir.Op.attr op "by" with
  | Some (Attribute.Int n) when n < 0 ->
    err engine op "hir.delay 'by' must be non-negative"
  | Some (Attribute.Int n) when n > max_delay_stages ->
    (* Codegen materializes one register per stage. *)
    err engine op "hir.delay 'by' exceeds the limit of %d stages" max_delay_stages
  | _ -> ());
  if Ir.Op.num_results op = 1 && Ir.Op.num_operands op = 2 then begin
    if not (Typ.equal (Ir.Value.typ (delay_input op)) (Ir.Value.typ (Ir.Op.result op 0)))
    then err engine op "hir.delay result type must match its input"
  end

let mem_read_mem op = Ir.Op.operand op 0
let mem_read_indices op =
  let n = Ir.Op.num_operands op in
  List.filteri (fun i _ -> i > 0 && i < n - 1) (Ir.Op.operands op)
let mem_read_time op = Ir.Op.operand op (Ir.Op.num_operands op - 1)
let mem_read_offset op = Ir.Op.int_attr op "offset"
let mem_read_latency op =
  match Ir.Op.int_attr_opt op "latency" with Some l -> l | None -> 1

let verify_mem_access ~is_read op engine =
  let name = Ir.Op.name op in
  let mem_pos = if is_read then 0 else 1 in
  let min_operands = mem_pos + 2 in
  if Ir.Op.num_operands op < min_operands then
    err engine op "'%s' is missing operands" name
  else begin
    verify_time_last op engine;
    if is_read then verify_int_attr ~required:false op "latency" engine;
    let mem = Ir.Op.operand op mem_pos in
    match Ir.Value.typ mem with
    | Types.Memref info ->
      let n_indices = Ir.Op.num_operands op - min_operands in
      if n_indices <> List.length info.dims then
        err engine op "'%s' has %d indices for a rank-%d memref" name n_indices
          (List.length info.dims);
      (* Distributed dims may only be indexed by compile-time consts.
         When an index is a literal constant, check its range too — a
         mutated or hand-written module indexing bank -1 must die here,
         not inside codegen's bank arrays. *)
      List.iteri
        (fun i d ->
          if i < n_indices then begin
            let idx = Ir.Op.operand op (mem_pos + 1 + i) in
            if (not d.Types.packed) && not (is_const idx) then
              err engine op
                "'%s': distributed dimension %d must be indexed by a !hir.const" name i;
            match as_constant idx with
            | Some v when v < 0 || v >= d.Types.size ->
              err engine op "'%s': constant index %d out of range for dimension %d (size %d)"
                name v i d.Types.size
            | _ -> ()
          end)
        info.dims;
      (match info.port with
      | Types.Read when not is_read ->
        err engine op "'%s' writes through a read-only memref port" name
      | Types.Write when is_read ->
        err engine op "'%s' reads through a write-only memref port" name
      | _ -> ());
      if is_read then begin
        if Ir.Op.num_results op <> 1
           || not (Typ.equal (Ir.Value.typ (Ir.Op.result op 0)) info.elem)
        then err engine op "hir.mem_read result must have the memref element type"
      end
      else if
        (* A !hir.const coerces to any element width, as a constant
           wire does in hardware. *)
        (not (Typ.equal (Ir.Value.typ (Ir.Op.operand op 0)) info.elem))
        && not (is_const (Ir.Op.operand op 0))
      then err engine op "hir.mem_write value must have the memref element type"
    | _ -> err engine op "'%s' operand %d must be a memref" name mem_pos
  end

let mem_write_value op = Ir.Op.operand op 0
let mem_write_mem op = Ir.Op.operand op 1
let mem_write_indices op =
  let n = Ir.Op.num_operands op in
  List.filteri (fun i _ -> i > 1 && i < n - 1) (Ir.Op.operands op)
let mem_write_time op = Ir.Op.operand op (Ir.Op.num_operands op - 1)
let mem_write_offset op = Ir.Op.int_attr op "offset"

type mem_kind = Reg | Lut_ram | Block_ram

let mem_kind_to_string = function
  | Reg -> "reg"
  | Lut_ram -> "lutram"
  | Block_ram -> "bram"

let mem_kind_of_string = function
  | "reg" -> Reg
  | "lutram" -> Lut_ram
  | "bram" -> Block_ram
  | s -> failwith ("unknown mem_kind: " ^ s)

let alloc_kind op = mem_kind_of_string (Ir.Op.string_attr op "mem_kind")

(* Read latency implied by the storage kind (paper §4.1: register reads
   are combinational, RAM reads take one cycle). *)
let mem_kind_latency = function Reg -> 0 | Lut_ram | Block_ram -> 1

let verify_alloc op engine =
  verify_operand_count ~n:0 op engine;
  verify_attr_kind
    ~kind:(function
      | Attribute.String ("reg" | "lutram" | "bram") -> true
      | _ -> false)
    ~describe:"one of \"reg\", \"lutram\", \"bram\"" op "mem_kind" engine;
  let results = Ir.Op.results op in
  if results = [] then err engine op "hir.alloc must produce at least one memref port";
  let infos =
    List.filter_map
      (fun v ->
        match Ir.Value.typ v with
        | Types.Memref i -> Some i
        | _ ->
          err engine op "hir.alloc results must be memrefs";
          None)
      results
  in
  match infos with
  | [] -> ()
  | first :: rest ->
    List.iter
      (fun i ->
        if not (Types.same_tensor_shape first i) then
          err engine op "hir.alloc ports must agree on tensor shape and element type")
      rest

let binary_compute_ops =
  [ "hir.add"; "hir.sub"; "hir.mult"; "hir.and"; "hir.or"; "hir.xor";
    "hir.shl"; "hir.shrl"; "hir.shra" ]

let comparison_ops = [ "hir.lt"; "hir.le"; "hir.gt"; "hir.ge"; "hir.eq"; "hir.ne" ]

(* ------------------------------------------------------------------ *)
(* Folding                                                             *)

(* Evaluate a binary op on constant operands.  Shift counts outside
   [0, Sys.int_size) are unspecified in OCaml (and disagree with the
   interpreter/RTL semantics, which see fixed-width vectors), so those
   shifts are not folded. *)
let fold_binary name a b =
  let shift_ok = 0 <= b && b < Sys.int_size in
  match name with
  | "hir.add" -> Some (a + b)
  | "hir.sub" -> Some (a - b)
  | "hir.mult" -> Some (a * b)
  | "hir.and" -> Some (a land b)
  | "hir.or" -> Some (a lor b)
  | "hir.xor" -> Some (a lxor b)
  | "hir.shl" -> if shift_ok then Some (a lsl b) else None
  | "hir.shrl" -> if shift_ok then Some (a lsr b) else None
  | "hir.shra" -> if shift_ok then Some (a asr b) else None
  | "hir.lt" -> Some (if a < b then 1 else 0)
  | "hir.le" -> Some (if a <= b then 1 else 0)
  | "hir.gt" -> Some (if a > b then 1 else 0)
  | "hir.ge" -> Some (if a >= b then 1 else 0)
  | "hir.eq" -> Some (if a = b then 1 else 0)
  | "hir.ne" -> Some (if a <> b then 1 else 0)
  | _ -> None

(* Fold hook shared by all pure compute ops: with all-constant operands
   the op folds to a constant attribute, which the rewrite driver
   materializes through the dialect's constant materializer.  Folding
   is exact (OCaml int arithmetic): constants are width-polymorphic
   until they meet a typed wire. *)
let fold_compute op =
  let const_operands = List.map as_constant (Ir.Op.operands op) in
  if List.for_all Option.is_some const_operands then begin
    let vals = List.map (Option.value ~default:0) const_operands in
    let folded =
      match (Ir.Op.name op, vals) with
      | name, [ a; b ] -> fold_binary name a b
      | "hir.not", [ a ] -> Some (lnot a)
      | ("hir.zext" | "hir.sext" | "hir.trunc"), [ a ] -> Some a
      | "hir.select", [ c; x; y ] -> Some (if c <> 0 then x else y)
      | _ -> None
    in
    Option.map (fun v -> Dialect.Fold_attr (Attribute.Int v)) folded
  end
  else None

let log2_exact n =
  if n <= 0 then None
  else
    let rec go k v =
      if v = 1 then Some k else if v land 1 = 1 then None else go (k + 1) (v / 2)
    in
    go 0 n

(* ------------------------------------------------------------------ *)
(* Rewrite patterns (strength reduction, Section 6.2)                  *)

let materialize_const rw ~anchor value =
  let c =
    Ir.Op.create ~loc:(Ir.Op.loc anchor)
      ~attrs:[ ("value", Attribute.Int value) ]
      "hir.constant" ~operands:[] ~result_types:[ Types.Const ]
  in
  Rewrite.Rewriter.insert_op_before rw ~anchor c;
  Ir.Op.result c 0

(* Keep the IR typed: only forward a value with the same type as the
   replaced result. *)
let forward_if_typed rw op v =
  if Typ.equal (Ir.Value.typ v) (Ir.Value.typ (Ir.Op.result op 0)) then begin
    Rewrite.Rewriter.replace_op_with_value rw op v;
    true
  end
  else false

(* Multiplications by power-of-two constants become shifts; x*1 -> x;
   x*0 -> 0 (only when the result is itself !hir.const — forwarding a
   width-polymorphic zero into a typed wire would untie the types, and
   materializing a dead constant anyway once kept the legacy fixpoint
   loop spinning forever).  A multiplier costs DSPs or many LUTs, a
   constant shift costs wires. *)
let pat_mult_strength rw op =
  let x = Ir.Op.operand op 0 and y = Ir.Op.operand op 1 in
  let with_const x c =
    match c with
    | 0 ->
      if Typ.equal (Ir.Value.typ (Ir.Op.result op 0)) Types.Const then
        forward_if_typed rw op (materialize_const rw ~anchor:op 0)
      else false
    | 1 -> forward_if_typed rw op x
    | c -> (
      match log2_exact c with
      | Some k when 0 <= k && k < Sys.int_size ->
        let shift = materialize_const rw ~anchor:op k in
        let shl =
          Ir.Op.create ~loc:(Ir.Op.loc op) "hir.shl" ~operands:[ x; shift ]
            ~result_types:[ Ir.Value.typ (Ir.Op.result op 0) ]
        in
        Rewrite.Rewriter.replace_op_with_op rw op shl;
        true
      | _ -> false)
  in
  match (as_constant x, as_constant y) with
  | _, Some c -> with_const x c
  | Some c, _ -> with_const y c
  | None, None -> false

(* x+0 -> x, 0+x -> x, x-0 -> x. *)
let pat_add_sub_identity rw op =
  let x = Ir.Op.operand op 0 and y = Ir.Op.operand op 1 in
  match as_constant y with
  | Some 0 -> forward_if_typed rw op x
  | _ ->
    if Ir.Op.name op = "hir.add" then
      match as_constant x with Some 0 -> forward_if_typed rw op y | _ -> false
    else false

let verify_binary op engine =
  (* Mixed operand widths are legal, as in Verilog: operands are
     implicitly zero-extended to the result width (the precision
     optimization pass of Section 6.3 relies on this). *)
  verify_operand_count ~n:2 op engine;
  if Ir.Op.num_operands op = 2 then
    List.iteri
      (fun i v ->
        if not (is_int_or_const v) then
          err engine op "'%s' operand %d must be integer or !hir.const" (Ir.Op.name op) i)
      (Ir.Op.operands op);
  if Ir.Op.num_results op <> 1 then
    err engine op "'%s' produces a single result" (Ir.Op.name op)

let verify_comparison op engine =
  verify_binary op engine;
  if Ir.Op.num_results op = 1
     && not (Typ.equal (Ir.Value.typ (Ir.Op.result op 0)) Typ.i1)
  then err engine op "'%s' produces an i1 result" (Ir.Op.name op)

let verify_not op engine =
  verify_operand_count ~n:1 op engine

let verify_select op engine =
  verify_operand_count ~n:3 op engine;
  if Ir.Op.num_operands op = 3 then begin
    if not (Typ.equal (Ir.Value.typ (Ir.Op.operand op 0)) Typ.i1) then
      err engine op "hir.select condition must be i1"
  end

let verify_resize op engine = verify_operand_count ~n:1 op engine

(* ------------------------------------------------------------------ *)
(* Registration                                                        *)

let registered = ref false

let register () =
  if not !registered then begin
    registered := true;
    Types.register ();
    let open Dialect in
    register_dialect ~name:"builtin" ~description:"Builtin module container";
    register_dialect ~name:"hir"
      ~description:"Hardware IR with explicitly scheduled operations";
    register_op "builtin.module" ~summary:"Top-level container of hir.func ops"
      ~verify:verify_module;
    register_op "hir.func"
      ~summary:"Hardware function; lowers to a Verilog module" ~verify:verify_func;
    register_op "hir.constant" ~summary:"Compile-time integer constant"
      ~traits:[ Pure ] ~verify:verify_constant;
    register_op "hir.for"
      ~summary:"Sequential/pipelined loop; lowers to a state machine"
      ~traits:[ Scheduled ] ~verify:verify_for;
    register_op "hir.unroll_for"
      ~summary:"Fully unrolled loop; replicates its body in hardware"
      ~traits:[ Scheduled ] ~verify:verify_unroll_for;
    register_op "hir.yield" ~summary:"Schedules the next loop iteration"
      ~traits:[ Terminator; Scheduled ] ~verify:verify_yield;
    register_op "hir.return" ~summary:"Terminates a function body"
      ~traits:[ Terminator ] ~verify:verify_return;
    register_op "hir.call"
      ~summary:"Invoke another HIR function or an external Verilog module"
      ~traits:[ Scheduled ] ~verify:verify_call;
    register_op "hir.delay" ~summary:"Delay a value; lowers to a shift register"
      ~traits:[ Scheduled ] ~verify:verify_delay;
    register_op "hir.mem_read" ~summary:"Read one element through a memref port"
      ~traits:[ Scheduled ] ~verify:(verify_mem_access ~is_read:true);
    register_op "hir.mem_write" ~summary:"Write one element through a memref port"
      ~traits:[ Scheduled ] ~verify:(verify_mem_access ~is_read:false);
    register_op "hir.alloc" ~summary:"Instantiate on-chip storage and its ports"
      ~verify:verify_alloc;
    List.iter
      (fun name ->
        register_op name ~summary:"Combinational arithmetic/logic"
          ~traits:[ Pure ] ~verify:verify_binary ~fold:fold_compute)
      binary_compute_ops;
    List.iter
      (fun name ->
        register_op name ~summary:"Combinational comparison" ~traits:[ Pure ]
          ~verify:verify_comparison ~fold:fold_compute)
      comparison_ops;
    register_op "hir.not" ~summary:"Combinational bitwise negation"
      ~traits:[ Pure ] ~verify:verify_not ~fold:fold_compute;
    register_op "hir.select" ~summary:"Combinational 2:1 multiplexer"
      ~traits:[ Pure ] ~verify:verify_select ~fold:fold_compute;
    register_op "hir.zext" ~summary:"Zero-extend to a wider integer"
      ~traits:[ Pure ] ~verify:verify_resize ~fold:fold_compute;
    register_op "hir.sext" ~summary:"Sign-extend to a wider integer"
      ~traits:[ Pure ] ~verify:verify_resize ~fold:fold_compute;
    register_op "hir.trunc" ~summary:"Truncate to a narrower integer"
      ~traits:[ Pure ] ~verify:verify_resize ~fold:fold_compute;
    (* Constants materialized by the rewrite driver for Fold_attr
       results are always !hir.const: width-polymorphic until they meet
       a typed wire, exactly like hand-written constants. *)
    register_constant_materializer ~dialect:"hir" (fun attr _typ loc ->
        match attr with
        | Attribute.Int _ ->
          Some
            (Ir.Op.create ~loc
               ~attrs:[ ("value", attr) ]
               "hir.constant" ~operands:[] ~result_types:[ Types.Const ])
        | _ -> None);
    (* Strength-reduction rewrite patterns for the greedy driver. *)
    Rewrite.register_pattern ~op:"hir.mult" ~name:"sr.mult-to-shift"
      pat_mult_strength;
    Rewrite.register_pattern ~op:"hir.add" ~name:"sr.add-identity"
      pat_add_sub_identity;
    Rewrite.register_pattern ~op:"hir.sub" ~name:"sr.sub-identity"
      pat_add_sub_identity;
    (* Behavioural models for the stock extern modules (pipelined
       multipliers), so designs using them are interpretable. *)
    Extern.register_standard ()
  end

(* ------------------------------------------------------------------ *)
(* Module-level helpers                                                *)

let module_funcs module_op =
  match Ir.Op.regions module_op with
  | [ r ] -> (
    match Ir.Region.blocks r with
    | [ b ] -> List.filter (fun o -> Ir.Op.name o = "hir.func") (Ir.Block.ops b)
    | _ -> [])
  | _ -> []

let lookup_func module_op name =
  List.find_opt (fun f -> func_name f = name) (module_funcs module_op)

(* Every hir.call against its callee's signature: argument and result
   counts and types.  Codegen instantiates a callee positionally from
   its signature, so a call that disagrees with it must not verify.
   The check reads the whole module, so it is not a pass (the
   compile's per-function mini-modules hold no callees), and it leaves
   a call to an unknown function to codegen, which names it.  The
   module must be structurally sound: signatures are read through the
   typed accessors. *)
let verify_calls engine module_op =
  let funcs = Hashtbl.create 16 in
  List.iter
    (fun f -> if not (Hashtbl.mem funcs (func_name f)) then Hashtbl.add funcs (func_name f) f)
    (module_funcs module_op);
  let check call ~callee what actual expected =
    let n = List.length actual and m = List.length expected in
    if n <> m then
      err engine call "hir.call to @%s has %d %ss but the callee's signature has %d" callee n
        what m
    else
      List.iteri
        (fun i (a, e) ->
          if not (Typ.equal a e) then
            err engine call "hir.call to @%s: %s %d is %s but the callee's signature has %s"
              callee what i (Typ.to_string a) (Typ.to_string e))
        (List.combine actual expected)
  in
  List.iter
    (fun call ->
      let callee = call_callee call in
      match Hashtbl.find_opt funcs callee with
      | None -> ()
      | Some f ->
        check call ~callee "argument" (List.map Ir.Value.typ (call_args call)) (func_arg_types f);
        check call ~callee "result"
          (List.map Ir.Value.typ (Ir.Op.results call))
          (func_result_types f))
    (Ir.Walk.find_all module_op "hir.call")
