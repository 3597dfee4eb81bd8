(* The reference RTL simulator: a tree-walking interpreter of the
   flattened netlist, kept as the executable specification of the
   Verilog width semantics documented in [Hir_verilog.Ast].  Every
   settle re-walks each assign's expression tree in topological order;
   a clock edge walks every always statement and commits the
   nonblocking updates it collected.

   No production path runs it.  test_sim_equiv and test_rtl compare
   [Hir_rtl.Sim] (the opcode engine) against it, and
   `bench --sim-scaling` uses it as the baseline of its floors.  It
   satisfies [Hir_rtl.Harness.SIM], so [Hir_rtl.Harness.Make] drives
   it through the same memory agents and VCD writer as the opcode
   engine. *)

open Hir_verilog.Ast
module Flatten = Hir_rtl.Flatten
module Sim = Hir_rtl.Sim

let fail = Sim.fail

type signal = {
  mutable value : Bitvec.t;
  width : int;
  is_reg : bool;
}

type memory = { cells : Bitvec.t array; elem_width : int }

type t = {
  signals : (string, signal) Hashtbl.t;
  memories : (string, memory) Hashtbl.t;
  assigns : (string * expr) list;  (* topologically sorted *)
  always : stmt list;
  flat : Flatten.flat;  (* to rebuild on [fork] *)
  mutable cycle : int;
  mutable failures : Sim.assertion_failure list;
  mutable settles : int;
}

(* ---------------------------------------------------------------- *)
(* Construction                                                      *)

let signal_width t name =
  match Hashtbl.find_opt t.signals name with
  | Some s -> s.width
  | None -> (
    match Hashtbl.find_opt t.memories name with
    | Some m -> m.elem_width
    | None -> fail "unknown signal %s" name)

let create (flat : Flatten.flat) =
  let signals = Hashtbl.create 256 in
  let memories = Hashtbl.create 16 in
  let assigns = ref [] in
  let always_rev = ref [] in
  List.iter
    (fun item ->
      match item with
      | Wire_decl { name; width } ->
        Hashtbl.replace signals name { value = Bitvec.zero width; width; is_reg = false }
      | Reg_decl { name; width } ->
        Hashtbl.replace signals name { value = Bitvec.zero width; width; is_reg = true }
      | Mem_decl { name; width; depth; _ } ->
        Hashtbl.replace memories name
          { cells = Array.make depth (Bitvec.zero width); elem_width = width }
      | Assign { target; expr } -> assigns := (target, expr) :: !assigns
      | Always_ff stmts -> always_rev := stmts :: !always_rev
      | Comment _ -> ()
      | Instance _ -> fail "simulator requires a flattened design")
    flat.Flatten.flat_items;
  let assign_list = List.rev !assigns in
  let is_comb name =
    match Hashtbl.find_opt signals name with
    | Some s -> not s.is_reg
    | None -> false
  in
  {
    signals;
    memories;
    assigns = Sim.topo_sort_assigns ~is_comb assign_list;
    always = List.concat (List.rev !always_rev);
    flat;
    cycle = 0;
    failures = [];
    settles = 0;
  }

(* ---------------------------------------------------------------- *)
(* Expression evaluation                                             *)

let natural t expr = natural_width ~signal_width:(signal_width t) expr

let rec eval t ~width expr : Bitvec.t =
  match expr with
  | Const b -> Bitvec.resize ~width b
  | Ref name -> (
    match Hashtbl.find_opt t.signals name with
    | Some s -> Bitvec.resize ~width s.value
    | None -> fail "read of unknown signal %s" name)
  | Index (name, addr) -> (
    match Hashtbl.find_opt t.memories name with
    | Some m ->
      let a = Bitvec.to_int (eval t ~width:(max 1 (natural t addr)) addr) in
      if a < Array.length m.cells then Bitvec.resize ~width m.cells.(a)
      else Bitvec.zero width
    | None -> fail "indexing non-memory %s" name)
  | Slice (e, hi, lo) ->
    let v = eval t ~width:(max (hi + 1) (natural t e)) e in
    Bitvec.resize ~width (Bitvec.extract ~hi ~lo v)
  | Unop (Not, e) -> Bitvec.lognot (eval t ~width e)
  | Unop (Red_or, e) ->
    let v = eval t ~width:(max 1 (natural t e)) e in
    Bitvec.resize ~width (Bitvec.of_bool (not (Bitvec.is_zero v)))
  | Unop (Red_and, e) ->
    let w = max 1 (natural t e) in
    let v = eval t ~width:w e in
    Bitvec.resize ~width (Bitvec.of_bool (Bitvec.equal v (Bitvec.ones w)))
  | Binop (((Add | Sub | Mul | And | Or | Xor) as op), a, b) ->
    let x = eval t ~width a and y = eval t ~width b in
    let f =
      match op with
      | Add -> Bitvec.add
      | Sub -> Bitvec.sub
      | Mul -> Bitvec.mul
      | And -> Bitvec.logand
      | Or -> Bitvec.logor
      | Xor -> Bitvec.logxor
      | _ -> assert false
    in
    f x y
  | Binop (Shl, a, b) ->
    let shift = Bitvec.to_int (eval t ~width:(max 1 (natural t b)) b) in
    Bitvec.shift_left (eval t ~width a) (min shift width)
  | Binop (Shr, a, b) ->
    let shift = Bitvec.to_int (eval t ~width:(max 1 (natural t b)) b) in
    Bitvec.shift_right_logical (eval t ~width a) (min shift width)
  | Binop (((Lt | Le | Gt | Ge | Eq | Ne) as op), a, b) ->
    let w = max 1 (max (natural t a) (natural t b)) in
    let x = eval t ~width:w a and y = eval t ~width:w b in
    let c = Bitvec.compare x y in
    let r =
      match op with
      | Lt -> c < 0
      | Le -> c <= 0
      | Gt -> c > 0
      | Ge -> c >= 0
      | Eq -> c = 0
      | Ne -> c <> 0
      | _ -> assert false
    in
    Bitvec.resize ~width (Bitvec.of_bool r)
  | Binop (Log_and, a, b) ->
    let x = eval t ~width:(max 1 (natural t a)) a in
    let y = eval t ~width:(max 1 (natural t b)) b in
    Bitvec.resize ~width (Bitvec.of_bool (not (Bitvec.is_zero x) && not (Bitvec.is_zero y)))
  | Binop (Log_or, a, b) ->
    let x = eval t ~width:(max 1 (natural t a)) a in
    let y = eval t ~width:(max 1 (natural t b)) b in
    Bitvec.resize ~width (Bitvec.of_bool (not (Bitvec.is_zero x) || not (Bitvec.is_zero y)))
  | Ternary (c, a, b) ->
    let cond = eval t ~width:(max 1 (natural t c)) c in
    if Bitvec.is_zero cond then eval t ~width b else eval t ~width a
  | Concat [] -> fail "empty concatenation"
  | Concat (e0 :: rest) ->
    let part e = eval t ~width:(max 1 (natural t e)) e in
    let v = List.fold_left (fun acc e -> Bitvec.concat acc (part e)) (part e0) rest in
    Bitvec.resize ~width v

let eval_bool t expr = not (Bitvec.is_zero (eval t ~width:(max 1 (natural t expr)) expr))

(* ---------------------------------------------------------------- *)
(* Cycle execution                                                   *)

type update =
  | Set_reg of string * Bitvec.t
  | Set_mem of string * int * Bitvec.t

let rec run_stmt t acc stmt =
  match stmt with
  | Nonblocking (Lref name, e) ->
    let w = signal_width t name in
    Set_reg (name, eval t ~width:w e) :: acc
  | Nonblocking (Lindex (name, addr), e) -> (
    match Hashtbl.find_opt t.memories name with
    | Some m ->
      let a = Bitvec.to_int (eval t ~width:(max 1 (natural t addr)) addr) in
      Set_mem (name, a, eval t ~width:m.elem_width e) :: acc
    | None -> fail "write to non-memory %s" name)
  | If (c, then_s, else_s) ->
    if eval_bool t c then List.fold_left (run_stmt t) acc then_s
    else List.fold_left (run_stmt t) acc else_s
  | Assert_stmt { cond; message } ->
    if not (eval_bool t cond) then
      t.failures <- { Sim.at_cycle = t.cycle; message } :: t.failures;
    acc

let settle t =
  t.settles <- t.settles + 1;
  List.iter
    (fun (target, expr) ->
      let s = Hashtbl.find t.signals target in
      s.value <- eval t ~width:s.width expr)
    t.assigns

let commit t updates =
  List.iter
    (fun u ->
      match u with
      | Set_reg (name, v) -> (Hashtbl.find t.signals name).value <- v
      | Set_mem (name, a, v) ->
        let m = Hashtbl.find t.memories name in
        if a < Array.length m.cells then m.cells.(a) <- v
        else
          t.failures <-
            { Sim.at_cycle = t.cycle; message = Printf.sprintf "write past end of %s" name }
            :: t.failures)
    updates

(* Drive an input signal (before [step]). *)
let set_input t name v =
  match Hashtbl.find_opt t.signals name with
  | Some s -> s.value <- Bitvec.resize ~width:s.width v
  | None -> fail "unknown input %s" name

let peek t name =
  match Hashtbl.find_opt t.signals name with
  | Some s -> s.value
  | None -> fail "unknown signal %s" name

(* A fresh simulator over the same design: the walker rebuilds. *)
let fork t = create t.flat

(* The pre-resolved accessors of [Hir_rtl.Harness.SIM]; the walker
   resolves the name on every call. *)
let reader t name () = peek t name
let int_reader t name () = Bitvec.to_int (peek t name)
let writer t name v = set_input t name v

(* Clock edge against already-settled combinational state. *)
let clock t =
  let updates = List.fold_left (run_stmt t) [] t.always in
  commit t updates;
  t.cycle <- t.cycle + 1

let step t =
  settle t;
  clock t

let settle_only t = settle t

let failures t = List.rev t.failures

(* All named signals with their widths, for waveform dumping. *)
let signal_names t =
  Hashtbl.fold (fun name s acc -> (name, s.width) :: acc) t.signals []
  |> List.sort compare

let stats t =
  let n_assigns = List.length t.assigns in
  let narrow, wide =
    Hashtbl.fold
      (fun _ s (n, w) -> if s.width <= 63 then (n + 1, w) else (n, w + 1))
      t.signals (0, 0)
  in
  {
    Sim.st_cycles = t.cycle;
    st_settles = t.settles;
    st_assigns_evaluated = t.settles * n_assigns;
    st_assigns_skipped = 0;
    st_fastpath_evaluated = 0;
    st_narrow_signals = narrow;
    st_wide_signals = wide;
  }
