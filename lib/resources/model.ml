(* Analytical Xilinx-7-series resource model over the Verilog AST —
   the stand-in for Vivado synthesis in Tables 4 and 5.

   Cost table (per operator, at its natural bit width w):
     add/sub           w LUTs (carry chain)
     and/or/xor        w LUTs
     comparison        ceil(w/2) LUTs
     2:1 mux           ceil(w/2) LUTs
     multiply          DSP48E1s: 1 (w<=18), 2 (w<=25), 3 otherwise
     shift by const    0 (wiring)
     dynamic shift     barrel: w/2 * log2(w) LUTs
     register          w FFs
     block RAM         ceil(bits / 18Kib) BRAM18s
     distributed RAM   width * ceil(depth/64) LUTs (RAM64X1)
     register file     width * depth FFs

   Simulation-only assertions cost nothing.  The absolute numbers are
   a model, not Vivado; what the evaluation reproduces is the relative
   shape between the HIR and HLS compilers, which are both measured by
   this same model. *)

open Hir_verilog.Ast

type usage = { lut : int; ff : int; dsp : int; bram : int }

let zero = { lut = 0; ff = 0; dsp = 0; bram = 0 }

let ( ++ ) a b =
  { lut = a.lut + b.lut; ff = a.ff + b.ff; dsp = a.dsp + b.dsp; bram = a.bram + b.bram }

let luts n = { zero with lut = n }
let ffs n = { zero with ff = n }

let cdiv a b = (a + b - 1) / b

let clog2 n =
  if n <= 1 then 0
  else
    let rec go k v = if v >= n then k else go (k + 1) (v * 2) in
    go 0 1

let dsp_for_mul w = if w <= 18 then 1 else if w <= 25 then 2 else 3

let is_const = function Const _ -> true | _ -> false

let rec expr_cost ~signal_width e =
  let w e' = max 1 (natural_width ~signal_width e') in
  match e with
  | Const _ | Ref _ -> zero
  | Index (_, addr) -> expr_cost ~signal_width addr
  | Slice (e, _, _) -> expr_cost ~signal_width e
  | Unop (Not, e) -> expr_cost ~signal_width e
  | Unop ((Red_or | Red_and), e) -> expr_cost ~signal_width e ++ luts (cdiv (w e) 6)
  | Binop ((Add | Sub), a, b) ->
    expr_cost ~signal_width a ++ expr_cost ~signal_width b ++ luts (max (w a) (w b))
  | Binop ((And | Or | Xor), a, b) ->
    expr_cost ~signal_width a ++ expr_cost ~signal_width b ++ luts (max (w a) (w b))
  | Binop (Mul, a, b) ->
    expr_cost ~signal_width a ++ expr_cost ~signal_width b
    ++ { zero with dsp = dsp_for_mul (max (w a) (w b)) }
  | Binop ((Shl | Shr), a, b) ->
    let shift_cost =
      if is_const b then zero
      else luts (max (w a) 2 * clog2 (max (w a) 2) / 2)
    in
    expr_cost ~signal_width a ++ expr_cost ~signal_width b ++ shift_cost
  | Binop ((Lt | Le | Gt | Ge | Eq | Ne), a, b) ->
    expr_cost ~signal_width a ++ expr_cost ~signal_width b
    ++ luts (cdiv (max (w a) (w b)) 2)
  | Binop ((Log_and | Log_or), a, b) ->
    expr_cost ~signal_width a ++ expr_cost ~signal_width b ++ luts 1
  | Ternary (c, a, b) ->
    expr_cost ~signal_width c ++ expr_cost ~signal_width a ++ expr_cost ~signal_width b
    ++ luts (cdiv (max (w a) (w b)) 2)
  | Concat es -> List.fold_left (fun acc e -> acc ++ expr_cost ~signal_width e) zero es

let rec stmt_cost ~signal_width s =
  match s with
  | Nonblocking (Lref _, e) -> expr_cost ~signal_width e
  | Nonblocking (Lindex (_, a), e) -> expr_cost ~signal_width a ++ expr_cost ~signal_width e
  | If (c, t, f) ->
    expr_cost ~signal_width c
    ++ List.fold_left (fun acc s -> acc ++ stmt_cost ~signal_width s) zero t
    ++ List.fold_left (fun acc s -> acc ++ stmt_cost ~signal_width s) zero f
  | Assert_stmt _ -> zero  (* simulation-only *)

let mem_cost ~width ~depth = function
  | Style_bram -> { zero with bram = max 1 (cdiv (width * depth) 18432) }
  | Style_lutram -> luts (width * max 1 (cdiv depth 64))
  | Style_reg -> ffs (width * depth)

(* Inclusive resource usage of one module, with each instance's cost
   resolved by the caller-supplied [instance_usage] (by instantiated
   module name).  This is the unit the driver's per-function Verilog
   cache stores: a module's usage can be computed bottom-up over the
   call graph without the whole design in hand. *)
let module_usage ~instance_usage m =
  let widths = Hashtbl.create 64 in
  List.iter
    (fun item ->
      match item with
      | Wire_decl { name; width } | Reg_decl { name; width } ->
        Hashtbl.replace widths name width
      | Mem_decl { name; width; _ } -> Hashtbl.replace widths name width
      | _ -> ())
    m.items;
  List.iter (fun p -> Hashtbl.replace widths p.port_name p.width) m.ports;
  let signal_width name =
    match Hashtbl.find_opt widths name with Some w -> w | None -> 1
  in
  List.fold_left
    (fun acc item ->
      match item with
      | Wire_decl _ | Comment _ -> acc
      | Reg_decl { width; _ } -> acc ++ ffs width
      | Mem_decl { width; depth; style; _ } -> acc ++ mem_cost ~width ~depth style
      | Assign { expr; _ } -> acc ++ expr_cost ~signal_width expr
      | Always_ff stmts ->
        List.fold_left (fun acc s -> acc ++ stmt_cost ~signal_width s) acc stmts
      | Instance { module_name; _ } -> acc ++ instance_usage module_name)
    zero m.items

(* Resource usage of the whole design: the top module's inclusive
   usage, with instances resolved in-design (memoized). *)
let design_usage (design : design) =
  let table : (string, usage) Hashtbl.t = Hashtbl.create 8 in
  let module_of name = List.find (fun m -> m.mod_name = name) design.modules in
  let rec usage_of m =
    match Hashtbl.find_opt table m.mod_name with
    | Some u -> u
    | None ->
      let u = module_usage ~instance_usage:(fun name -> usage_of (module_of name)) m in
      Hashtbl.replace table m.mod_name u;
      u
  in
  usage_of (module_of design.top)

(* ------------------------------------------------------------------ *)
(* Hierarchy-aware accounting                                           *)

(* [design_usage] above is *inclusive*: every instance is charged its
   full cost, so N instances of one definition cost N× — the flat
   numbers, what the hardware actually consumes.  The hierarchical
   emitter makes a second view meaningful: per distinct definition, the
   cost of the definition body alone (instances excluded) and how many
   times the elaborated design stamps it out — "one definition + N
   instantiations".  [sr_unique] sums each reachable definition once;
   [sr_total] is the inclusive figure, [design_usage], which ends the
   `hirc demo --stats` report and equals the usage a compile job
   reports. *)

type shared_entry = {
  se_module : string;
  se_count : int;  (* elaborated instantiation count (top counts as 1) *)
  se_exclusive : usage;  (* the definition body, instances excluded *)
}

type shared_report = {
  sr_entries : shared_entry list;  (* in design order, reachable only *)
  sr_unique : usage;  (* Σ exclusive, each definition once *)
  sr_total : usage;  (* inclusive (= design_usage = flat) *)
}

let exclusive_usage m = module_usage ~instance_usage:(fun _ -> zero) m

let shared_report (design : design) =
  (* Elaborated instantiation counts.  Emitted designs list every
     module before its users (definitions before instantiating modules,
     callees before callers), so one reverse sweep propagates each
     module's count into its children. *)
  let counts = Hashtbl.create 16 in
  Hashtbl.replace counts design.top 1;
  List.iter
    (fun m ->
      match Hashtbl.find_opt counts m.mod_name with
      | None | Some 0 -> ()
      | Some c ->
        List.iter
          (fun item ->
            match item with
            | Instance { module_name; _ } ->
              let prev = Option.value ~default:0 (Hashtbl.find_opt counts module_name) in
              Hashtbl.replace counts module_name (prev + c)
            | _ -> ())
          m.items)
    (List.rev design.modules);
  let entries =
    List.filter_map
      (fun m ->
        match Hashtbl.find_opt counts m.mod_name with
        | None | Some 0 -> None
        | Some c ->
          Some { se_module = m.mod_name; se_count = c; se_exclusive = exclusive_usage m })
      design.modules
  in
  {
    sr_entries = entries;
    sr_unique = List.fold_left (fun acc e -> acc ++ e.se_exclusive) zero entries;
    sr_total = design_usage design;
  }

let pp fmt u =
  Format.fprintf fmt "LUT=%d FF=%d DSP=%d BRAM=%d" u.lut u.ff u.dsp u.bram

let pp_shared fmt r =
  List.iter
    (fun e ->
      Format.fprintf fmt "  %-32s x%-4d %a@\n" e.se_module e.se_count pp e.se_exclusive)
    r.sr_entries;
  Format.fprintf fmt "  unique logic: %a@\n" pp r.sr_unique;
  Format.fprintf fmt "  elaborated:   %a" pp r.sr_total
