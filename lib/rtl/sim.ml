(* Two-phase cycle-accurate simulator for the flattened synthesizable
   subset:

     phase 1  settle combinational logic (assigns in topological order)
     phase 2  evaluate all always @(posedge clk) statements against the
              settled state, then commit register and memory updates

   Width semantics follow Verilog's context-determined evaluation as
   documented in [Hir_verilog.Ast].

   Two engines share the same interface:

   - [Compiled] (the default): a compile-once, run-many engine.  At
     [create] time every signal name is resolved to an integer slot in
     a dense state array, every expression is compiled to a closure
     with its context width precomputed, and always-blocks are compiled
     with a reusable update buffer.  [settle] is event-driven: the
     assign dependency graph is built once and per cycle only assigns
     whose source slots actually changed are re-evaluated (dirty-set
     propagation in topological order).  Signals of width <= 63 live
     unboxed on native OCaml ints with masking; wider signals fall back
     to [Bitvec].

   - [Reference]: the original tree-walking interpreter, kept as the
     oracle for the compiled engine (see test_sim_equiv) and as the
     executable specification of the width semantics. *)

open Hir_verilog.Ast

exception Sim_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Sim_error s)) fmt

(* Fault-injection hook, called once per settle of the *compiled*
   engine only — the reference walker stays clean because it is the
   fallback the harness degrades to on [Sim_error].  The driver's fault
   subsystem (lib/driver/faults.ml, which this library must not depend
   on) installs a callback that raises [Sim_error] on an injected
   "sim.settle" fault; the default is a no-op closure, so the cost when
   disabled is one ref read per settle. *)
let settle_fault_hook : (unit -> unit) ref = ref (fun () -> ())

type assertion_failure = { at_cycle : int; message : string }

(* ------------------------------------------------------------------ *)
(* Shared netlist analysis                                             *)

(* Wires read by an expression (for the dependency graph); memory reads
   depend on the address expression only — the memory contents are
   state. *)
let rec wire_deps expr acc =
  match expr with
  | Const _ -> acc
  | Ref name -> name :: acc
  | Index (_, a) -> wire_deps a acc
  | Slice (e, _, _) -> wire_deps e acc
  | Unop (_, e) -> wire_deps e acc
  | Binop (_, a, b) -> wire_deps a (wire_deps b acc)
  | Ternary (c, a, b) -> wire_deps c (wire_deps a (wire_deps b acc))
  | Concat es -> List.fold_left (fun acc e -> wire_deps e acc) acc es

(* Memories read by an expression — the state half of the dependency
   story that [wire_deps] deliberately excludes.  The compiled engine
   uses this to re-settle reads of a memory after a write commits. *)
let rec mem_reads expr acc =
  match expr with
  | Const _ | Ref _ -> acc
  | Index (name, a) -> mem_reads a (name :: acc)
  | Slice (e, _, _) -> mem_reads e acc
  | Unop (_, e) -> mem_reads e acc
  | Binop (_, a, b) -> mem_reads a (mem_reads b acc)
  | Ternary (c, a, b) -> mem_reads c (mem_reads a (mem_reads b acc))
  | Concat es -> List.fold_left (fun acc e -> mem_reads e acc) acc es

(* Statement-level variants for always-block statements: every signal
   (resp. memory) read anywhere in the statement — conditions,
   right-hand sides, and write addresses.  The opcode engine uses these
   as the wake-up set of its event-driven clock blocks. *)
let rec stmt_wire_deps stmt acc =
  match stmt with
  | Nonblocking (Lref _, e) -> wire_deps e acc
  | Nonblocking (Lindex (_, addr), e) -> wire_deps addr (wire_deps e acc)
  | If (c, then_s, else_s) ->
    let acc = List.fold_left (fun a s -> stmt_wire_deps s a) acc then_s in
    let acc = List.fold_left (fun a s -> stmt_wire_deps s a) acc else_s in
    wire_deps c acc
  | Assert_stmt { cond; _ } -> wire_deps cond acc

let rec stmt_mem_reads stmt acc =
  match stmt with
  | Nonblocking (Lref _, e) -> mem_reads e acc
  | Nonblocking (Lindex (_, addr), e) -> mem_reads addr (mem_reads e acc)
  | If (c, then_s, else_s) ->
    let acc = List.fold_left (fun a s -> stmt_mem_reads s a) acc then_s in
    let acc = List.fold_left (fun a s -> stmt_mem_reads s a) acc else_s in
    mem_reads c acc
  | Assert_stmt { cond; _ } -> mem_reads cond acc

(* Registers a statement writes (under any condition). *)
let rec stmt_reg_writes stmt acc =
  match stmt with
  | Nonblocking (Lref name, _) -> name :: acc
  | Nonblocking (Lindex _, _) -> acc
  | If (_, then_s, else_s) ->
    let acc = List.fold_left (fun a s -> stmt_reg_writes s a) acc then_s in
    List.fold_left (fun a s -> stmt_reg_writes s a) acc else_s
  | Assert_stmt _ -> acc

(* Memories a statement writes (under any condition), with the address
   expression of each write. *)
let rec stmt_mem_writes stmt acc =
  match stmt with
  | Nonblocking (Lref _, _) -> acc
  | Nonblocking (Lindex (name, addr), _) -> (name, addr) :: acc
  | If (_, then_s, else_s) ->
    let acc = List.fold_left (fun a s -> stmt_mem_writes s a) acc then_s in
    List.fold_left (fun a s -> stmt_mem_writes s a) acc else_s
  | Assert_stmt _ -> acc


(* Topologically sort the assigns (edge from each dependency that is
   itself an assign target).  [is_comb name] says whether [name] is a
   combinational (non-reg) signal; register reads do not create edges.
   On a combinational loop the full cycle path is reported. *)
let topo_sort_assigns ~is_comb assign_list =
  let target_tbl = Hashtbl.create 64 in
  List.iter (fun (t, e) -> Hashtbl.replace target_tbl t e) assign_list;
  let visited = Hashtbl.create 64 in
  let sorted = ref [] in
  let rec visit ~stack target =
    match Hashtbl.find_opt visited target with
    | Some `Done -> ()
    | Some `In_progress ->
      (* [stack] holds the in-progress chain, most recent first; the
         loop is the suffix starting at [target]. *)
      let chain = List.rev stack in
      let rec from_target = function
        | x :: _ as l when x = target -> l
        | _ :: tl -> from_target tl
        | [] -> []
      in
      let path = from_target chain @ [ target ] in
      fail "combinational loop: %s" (String.concat " -> " path)
    | None ->
      Hashtbl.replace visited target `In_progress;
      let expr = Hashtbl.find target_tbl target in
      List.iter
        (fun dep ->
          if is_comb dep && Hashtbl.mem target_tbl dep then
            visit ~stack:(target :: stack) dep)
        (wire_deps expr []);
      Hashtbl.replace visited target `Done;
      sorted := (target, expr) :: !sorted
  in
  List.iter (fun (t, _) -> visit ~stack:[] t) assign_list;
  List.rev !sorted

(* Per-run statistics, surfaced through [Pass.record_counter] so
   [hirc --stats] and the Chrome traces cover simulation too. *)
type stats = {
  st_cycles : int;
  st_settles : int;
  st_assigns_evaluated : int;
  st_assigns_skipped : int;
  st_fastpath_evaluated : int;  (* evaluations whose target is unboxed *)
  st_narrow_signals : int;  (* width <= 63, native-int representation *)
  st_wide_signals : int;
}

(* ------------------------------------------------------------------ *)
(* Runtime pieces shared by the compiled engines                       *)

(* Low [w] bits of a native int; [mask 63] is all 63 OCaml int bits
   (-1), so width-63 values use bit 62 as the OCaml sign bit.  Every
   arithmetic case below stays exact on that representation because
   OCaml ints wrap modulo 2^63 and [land] masks bit patterns. *)
let mask w = if w >= 63 then -1 else (1 lsl w) - 1

(* Unsigned comparison of two masked ints: flipping the sign bit maps
   the unsigned 63-bit order onto the signed order. *)
let ucmp a b = Int.compare (a lxor min_int) (b lxor min_int)

(* Reusable nonblocking-update buffer: parallel growable arrays, so a
   clock edge allocates nothing in steady state.  Kinds: 0 narrow
   reg, 1 wide reg, 2 narrow mem cell, 3 wide mem cell. *)
type ubuf = {
  mutable u_len : int;
  mutable u_kind : int array;
  mutable u_a : int array;  (* reg: value-array index; mem: mem index *)
  mutable u_b : int array;  (* reg: dependency id; mem: cell address *)
  mutable u_iv : int array;
  mutable u_bv : Bitvec.t array;
}

let dummy_bv = Bitvec.zero 1

let push buf kind a b iv bv =
  let n = buf.u_len in
  if n = Array.length buf.u_kind then begin
    let grow ar z =
      let nar = Array.make (2 * n) z in
      Array.blit ar 0 nar 0 n;
      nar
    in
    buf.u_kind <- grow buf.u_kind 0;
    buf.u_a <- grow buf.u_a 0;
    buf.u_b <- grow buf.u_b 0;
    buf.u_iv <- grow buf.u_iv 0;
    buf.u_bv <- grow buf.u_bv dummy_bv
  end;
  buf.u_kind.(n) <- kind;
  buf.u_a.(n) <- a;
  buf.u_b.(n) <- b;
  buf.u_iv.(n) <- iv;
  buf.u_bv.(n) <- bv;
  buf.u_len <- n + 1

let fresh_ubuf () =
  {
    u_len = 0;
    u_kind = Array.make 64 0;
    u_a = Array.make 64 0;
    u_b = Array.make 64 0;
    u_iv = Array.make 64 0;
    u_bv = Array.make 64 dummy_bv;
  }

type rt = {
  mutable cycle : int;
  mutable failures : assertion_failure list;
  mutable settles : int;
  mutable evaluated : int;
  mutable skipped : int;
  mutable fast_evaluated : int;
}

let fresh_rt () =
  { cycle = 0; failures = []; settles = 0; evaluated = 0; skipped = 0; fast_evaluated = 0 }

(* ================================================================== *)
(* Reference engine: the original tree walker                          *)

module Reference = struct
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
    inputs : string list;
    outputs : string list;
    mutable cycle : int;
    mutable failures : assertion_failure list;
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
      flat.flat_items;
    let assign_list = List.rev !assigns in
    let is_comb name =
      match Hashtbl.find_opt signals name with
      | Some s -> not s.is_reg
      | None -> false
    in
    {
      signals;
      memories;
      assigns = topo_sort_assigns ~is_comb assign_list;
      always = List.concat (List.rev !always_rev);
      inputs = flat.flat_inputs;
      outputs = flat.flat_outputs;
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
        t.failures <- { at_cycle = t.cycle; message } :: t.failures;
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
              { at_cycle = t.cycle; message = Printf.sprintf "write past end of %s" name }
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
  let cycle t = t.cycle

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
      st_cycles = t.cycle;
      st_settles = t.settles;
      st_assigns_evaluated = t.settles * n_assigns;
      st_assigns_skipped = 0;
      st_fastpath_evaluated = 0;
      st_narrow_signals = narrow;
      st_wide_signals = wide;
    }
end

(* ================================================================== *)
(* Compiled engine                                                     *)

module Compiled = struct
  type slot = {
    sl_name : string;
    sl_width : int;
    sl_is_reg : bool;
    sl_idx : int;  (* index into the narrow or wide value array *)
    sl_id : int;  (* dense id in the dependency graph *)
  }

  type mem_store = M_narrow of int array | M_wide of Bitvec.t array

  type mem = {
    m_name : string;
    m_elem_width : int;
    m_store : mem_store;
    m_id : int;  (* dependency-graph id: memory contents are a source *)
    m_pos : int;  (* index into the [mems] array, for update records *)
  }

  (* Compilation environment: name resolution plus the live state
     arrays the compiled closures read and write. *)
  type cenv = {
    ce_signals : (string, slot) Hashtbl.t;
    ce_mems : (string, mem) Hashtbl.t;
    ce_narrow : int array;
    ce_wide : Bitvec.t array;
  }

  type t = {
    env : cenv;
    rt : rt;
    buf : ubuf;
    mems : mem array;
    assign_eval : (unit -> unit) array;  (* topo order: eval, store, mark *)
    assign_fast : bool array;  (* target is narrow (unboxed) *)
    dirty : bool array;  (* per assign, same indexing *)
    deps : int array array;  (* slot id -> assign indices reading it *)
    always : (unit -> unit) array;
    inputs : string list;
    outputs : string list;
    n_narrow_signals : int;
    n_wide_signals : int;
  }

  (* ---------------------------------------------------------------- *)
  (* Expression compilation                                            *)

  let sig_width env name =
    match Hashtbl.find_opt env.ce_signals name with
    | Some s -> s.sl_width
    | None -> (
      match Hashtbl.find_opt env.ce_mems name with
      | Some m -> m.m_elem_width
      | None -> fail "unknown signal %s" name)

  let natural env expr = natural_width ~signal_width:(sig_width env) expr

  (* [compile_int env ~width e] compiles [e] to a closure producing its
     value at context [width] (1 <= width <= 63) as a masked native
     int.  [compile_bv] is the general boxed path for any width; each
     evaluation point picks a path by its own evaluation width, so a
     narrow context can still dive into wide subexpressions and vice
     versa. *)
  let rec compile_int env ~width e : unit -> int =
    let mw = mask width in
    match e with
    | Const b ->
      let v = Bitvec.to_int_trunc (Bitvec.resize ~width b) in
      fun () -> v
    | Ref name -> (
      match Hashtbl.find_opt env.ce_signals name with
      | None -> fail "read of unknown signal %s" name
      | Some s ->
        let narrow = env.ce_narrow and wide = env.ce_wide in
        let idx = s.sl_idx in
        if s.sl_width > 63 then fun () -> Bitvec.to_int_trunc wide.(idx) land mw
        else if s.sl_width <= width then fun () -> narrow.(idx)
        else fun () -> narrow.(idx) land mw)
    | Index (name, addr) -> (
      match Hashtbl.find_opt env.ce_mems name with
      | None -> fail "indexing non-memory %s" name
      | Some m ->
        let fa = compile_addr env addr in
        (match m.m_store with
        | M_narrow cells ->
          let depth = Array.length cells in
          if m.m_elem_width <= width then
            fun () ->
              let a = fa () in
              if a >= 0 && a < depth then cells.(a) else 0
          else
            fun () ->
              let a = fa () in
              if a >= 0 && a < depth then cells.(a) land mw else 0
        | M_wide cells ->
          let depth = Array.length cells in
          fun () ->
            let a = fa () in
            if a >= 0 && a < depth then Bitvec.to_int_trunc cells.(a) land mw
            else 0))
    | Slice (e1, hi, lo) ->
      let wi = max (hi + 1) (natural env e1) in
      let m = mask (min (hi - lo + 1) width) in
      if wi <= 63 then
        let f = compile_int env ~width:wi e1 in
        fun () -> (f () lsr lo) land m
      else
        let f = compile_bv env ~width:wi e1 in
        fun () -> Bitvec.to_int_trunc (Bitvec.extract ~hi ~lo (f ())) land m
    | Unop (Not, e1) ->
      let f = compile_int env ~width e1 in
      fun () -> lnot (f ()) land mw
    | Unop (Red_or, e1) ->
      let f = compile_nonzero env e1 in
      fun () -> if f () then 1 else 0
    | Unop (Red_and, e1) -> (
      let wn = max 1 (natural env e1) in
      if wn <= 63 then
        let f = compile_int env ~width:wn e1 in
        let all = mask wn in
        fun () -> if f () = all then 1 else 0
      else
        let f = compile_bv env ~width:wn e1 in
        let all = Bitvec.ones wn in
        fun () -> if Bitvec.equal (f ()) all then 1 else 0)
    | Binop (((Add | Sub | Mul | And | Or | Xor) as op), a, b) -> (
      let fa = compile_int env ~width a and fb = compile_int env ~width b in
      match op with
      | Add -> fun () -> (fa () + fb ()) land mw
      | Sub -> fun () -> (fa () - fb ()) land mw
      | Mul -> fun () -> fa () * fb () land mw
      | And -> fun () -> fa () land fb ()
      | Or -> fun () -> fa () lor fb ()
      | Xor -> fun () -> fa () lxor fb ()
      | _ -> assert false)
    | Binop (Shl, a, b) ->
      let fa = compile_int env ~width a and fk = compile_shift env b in
      fun () ->
        let k = fk () in
        if k < 0 || k >= width then 0 else (fa () lsl k) land mw
    | Binop (Shr, a, b) ->
      let fa = compile_int env ~width a and fk = compile_shift env b in
      fun () ->
        let k = fk () in
        if k < 0 || k >= width then 0 else fa () lsr k
    | Binop (((Lt | Le | Gt | Ge | Eq | Ne) as op), a, b) -> (
      let cmp = compile_compare env a b in
      match op with
      | Lt -> fun () -> if cmp () < 0 then 1 else 0
      | Le -> fun () -> if cmp () <= 0 then 1 else 0
      | Gt -> fun () -> if cmp () > 0 then 1 else 0
      | Ge -> fun () -> if cmp () >= 0 then 1 else 0
      | Eq -> fun () -> if cmp () = 0 then 1 else 0
      | Ne -> fun () -> if cmp () <> 0 then 1 else 0
      | _ -> assert false)
    | Binop (Log_and, a, b) ->
      let fa = compile_nonzero env a and fb = compile_nonzero env b in
      fun () -> if fa () && fb () then 1 else 0
    | Binop (Log_or, a, b) ->
      let fa = compile_nonzero env a and fb = compile_nonzero env b in
      fun () -> if fa () || fb () then 1 else 0
    | Ternary (c, a, b) ->
      let fc = compile_nonzero env c in
      let fa = compile_int env ~width a and fb = compile_int env ~width b in
      fun () -> if fc () then fa () else fb ()
    | Concat [] -> fail "empty concatenation"
    | Concat es ->
      let widths = List.map (fun e -> max 1 (natural env e)) es in
      let total = List.fold_left ( + ) 0 widths in
      if total <= 63 then begin
        (* Part i occupies bits [shift_i, shift_i + w_i); a lone
           width-63 part gets shift 0, so [lsl] stays in range. *)
        let fs = Array.of_list (List.map2 (fun e w -> compile_int env ~width:w e) es widths) in
        let ws = Array.of_list widths in
        let n = Array.length fs in
        let shifts = Array.make n 0 in
        let acc = ref 0 in
        for i = n - 1 downto 0 do
          shifts.(i) <- !acc;
          acc := !acc + ws.(i)
        done;
        let combine () =
          let v = ref 0 in
          for i = 0 to n - 1 do
            v := !v lor (fs.(i) () lsl shifts.(i))
          done;
          !v
        in
        if width >= total then combine else fun () -> combine () land mw
      end
      else
        let f = compile_concat_bv env es widths in
        fun () -> Bitvec.to_int_trunc (f ()) land mw

  and compile_bv env ~width e : unit -> Bitvec.t =
    match e with
    | Const b ->
      let v = Bitvec.resize ~width b in
      fun () -> v
    | Ref name -> (
      match Hashtbl.find_opt env.ce_signals name with
      | None -> fail "read of unknown signal %s" name
      | Some s ->
        let narrow = env.ce_narrow and wide = env.ce_wide in
        let idx = s.sl_idx in
        if s.sl_width > 63 then
          if s.sl_width = width then fun () -> wide.(idx)
          else fun () -> Bitvec.resize ~width wide.(idx)
        else
          let sw = s.sl_width in
          fun () -> Bitvec.resize ~width (Bitvec.of_int ~width:sw narrow.(idx)))
    | Index (name, addr) -> (
      match Hashtbl.find_opt env.ce_mems name with
      | None -> fail "indexing non-memory %s" name
      | Some m ->
        let fa = compile_addr env addr in
        let oob = Bitvec.zero width in
        (match m.m_store with
        | M_narrow cells ->
          let depth = Array.length cells and ew = m.m_elem_width in
          fun () ->
            let a = fa () in
            if a >= 0 && a < depth then
              Bitvec.resize ~width (Bitvec.of_int ~width:ew cells.(a))
            else oob
        | M_wide cells ->
          let depth = Array.length cells in
          fun () ->
            let a = fa () in
            if a >= 0 && a < depth then Bitvec.resize ~width cells.(a) else oob))
    | Slice (e1, hi, lo) ->
      let wi = max (hi + 1) (natural env e1) in
      if wi <= 63 then
        let f = compile_int env ~width:wi e1 in
        let sw = hi - lo + 1 in
        let m = mask sw in
        fun () -> Bitvec.resize ~width (Bitvec.of_int ~width:sw ((f () lsr lo) land m))
      else
        let f = compile_bv env ~width:wi e1 in
        fun () -> Bitvec.resize ~width (Bitvec.extract ~hi ~lo (f ()))
    | Unop (Not, e1) ->
      let f = compile_bv env ~width e1 in
      fun () -> Bitvec.lognot (f ())
    | Unop (Red_or, e1) ->
      let f = compile_nonzero env e1 in
      let tru = Bitvec.resize ~width (Bitvec.of_bool true) and fls = Bitvec.zero width in
      fun () -> if f () then tru else fls
    | Unop (Red_and, e1) -> (
      let wn = max 1 (natural env e1) in
      let tru = Bitvec.resize ~width (Bitvec.of_bool true) and fls = Bitvec.zero width in
      if wn <= 63 then
        let f = compile_int env ~width:wn e1 in
        let all = mask wn in
        fun () -> if f () = all then tru else fls
      else
        let f = compile_bv env ~width:wn e1 in
        let all = Bitvec.ones wn in
        fun () -> if Bitvec.equal (f ()) all then tru else fls)
    | Binop (((Add | Sub | Mul | And | Or | Xor) as op), a, b) ->
      let fa = compile_bv env ~width a and fb = compile_bv env ~width b in
      let g =
        match op with
        | Add -> Bitvec.add
        | Sub -> Bitvec.sub
        | Mul -> Bitvec.mul
        | And -> Bitvec.logand
        | Or -> Bitvec.logor
        | Xor -> Bitvec.logxor
        | _ -> assert false
      in
      fun () -> g (fa ()) (fb ())
    | Binop (Shl, a, b) ->
      let fa = compile_bv env ~width a and fk = compile_shift env b in
      fun () ->
        let k = fk () in
        let k = if k < 0 || k > width then width else k in
        Bitvec.shift_left (fa ()) k
    | Binop (Shr, a, b) ->
      let fa = compile_bv env ~width a and fk = compile_shift env b in
      fun () ->
        let k = fk () in
        let k = if k < 0 || k > width then width else k in
        Bitvec.shift_right_logical (fa ()) k
    | Binop (((Lt | Le | Gt | Ge | Eq | Ne) as op), a, b) ->
      let cmp = compile_compare env a b in
      let tru = Bitvec.resize ~width (Bitvec.of_bool true) and fls = Bitvec.zero width in
      let test =
        match op with
        | Lt -> fun c -> c < 0
        | Le -> fun c -> c <= 0
        | Gt -> fun c -> c > 0
        | Ge -> fun c -> c >= 0
        | Eq -> fun c -> c = 0
        | Ne -> fun c -> c <> 0
        | _ -> assert false
      in
      fun () -> if test (cmp ()) then tru else fls
    | Binop (Log_and, a, b) ->
      let fa = compile_nonzero env a and fb = compile_nonzero env b in
      let tru = Bitvec.resize ~width (Bitvec.of_bool true) and fls = Bitvec.zero width in
      fun () -> if fa () && fb () then tru else fls
    | Binop (Log_or, a, b) ->
      let fa = compile_nonzero env a and fb = compile_nonzero env b in
      let tru = Bitvec.resize ~width (Bitvec.of_bool true) and fls = Bitvec.zero width in
      fun () -> if fa () || fb () then tru else fls
    | Ternary (c, a, b) ->
      let fc = compile_nonzero env c in
      let fa = compile_bv env ~width a and fb = compile_bv env ~width b in
      fun () -> if fc () then fa () else fb ()
    | Concat [] -> fail "empty concatenation"
    | Concat es ->
      let widths = List.map (fun e -> max 1 (natural env e)) es in
      let total = List.fold_left ( + ) 0 widths in
      let f = compile_concat_bv env es widths in
      if total = width then f else fun () -> Bitvec.resize ~width (f ())

  (* Concatenation as a [Bitvec] of width = sum of part widths; the
     first part occupies the high bits. *)
  and compile_concat_bv env es widths =
    let fs =
      List.map2
        (fun e w ->
          if w <= 63 then
            let f = compile_int env ~width:w e in
            fun () -> Bitvec.of_int ~width:w (f ())
          else compile_bv env ~width:w e)
        es widths
    in
    match fs with
    | [] -> fail "empty concatenation"
    | f0 :: rest -> fun () -> List.fold_left (fun acc f -> Bitvec.concat acc (f ())) (f0 ()) rest

  (* Nonzero test at the expression's natural width. *)
  and compile_nonzero env e =
    let wn = max 1 (natural env e) in
    if wn <= 63 then
      let f = compile_int env ~width:wn e in
      fun () -> f () <> 0
    else
      let f = compile_bv env ~width:wn e in
      fun () -> not (Bitvec.is_zero (f ()))

  (* Unsigned comparison at the wider operand's natural width. *)
  and compile_compare env a b =
    let w0 = max 1 (max (natural env a) (natural env b)) in
    if w0 <= 63 then
      let fa = compile_int env ~width:w0 a and fb = compile_int env ~width:w0 b in
      fun () -> ucmp (fa ()) (fb ())
    else
      let fa = compile_bv env ~width:w0 a and fb = compile_bv env ~width:w0 b in
      fun () -> Bitvec.compare (fa ()) (fb ())

  (* Shift amount / memory address as a non-negative int; a negative
     result means "too large to represent" and is treated as
     out-of-range by the callers (the reference walker raises on such
     values instead — they are unreachable from generated designs). *)
  and compile_shift env b =
    let wb = max 1 (natural env b) in
    if wb <= 63 then compile_int env ~width:wb b
    else
      let f = compile_bv env ~width:wb b in
      fun () -> ( match Bitvec.to_int_opt (f ()) with Some k -> k | None -> -1)

  and compile_addr env addr = compile_shift env addr

  (* ---------------------------------------------------------------- *)
  (* Statement compilation (always @(posedge clk) bodies)              *)

  let rec compile_stmt env ~rt ~buf stmt : unit -> unit =
    match stmt with
    | Nonblocking (Lref name, e) -> (
      match Hashtbl.find_opt env.ce_signals name with
      | None -> fail "unknown signal %s" name
      | Some s ->
        let idx = s.sl_idx and id = s.sl_id in
        if s.sl_width <= 63 then
          let f = compile_int env ~width:s.sl_width e in
          fun () -> push buf 0 idx id (f ()) dummy_bv
        else
          let f = compile_bv env ~width:s.sl_width e in
          fun () -> push buf 1 idx id 0 (f ()))
    | Nonblocking (Lindex (name, addr), e) -> (
      match Hashtbl.find_opt env.ce_mems name with
      | None -> fail "write to non-memory %s" name
      | Some m -> (
        let fa = compile_addr env addr in
        let pos = m.m_pos in
        match m.m_store with
        | M_narrow _ ->
          let f = compile_int env ~width:m.m_elem_width e in
          fun () ->
            let a = fa () in
            push buf 2 pos a (f ()) dummy_bv
        | M_wide _ ->
          let f = compile_bv env ~width:m.m_elem_width e in
          fun () ->
            let a = fa () in
            push buf 3 pos a 0 (f ())))
    | If (c, then_s, else_s) ->
      let fc = compile_nonzero env c in
      let ft = Array.of_list (List.map (compile_stmt env ~rt ~buf) then_s) in
      let fe = Array.of_list (List.map (compile_stmt env ~rt ~buf) else_s) in
      fun () ->
        let arm = if fc () then ft else fe in
        for i = 0 to Array.length arm - 1 do
          arm.(i) ()
        done
    | Assert_stmt { cond; message } ->
      let fc = compile_nonzero env cond in
      fun () ->
        if not (fc ()) then
          rt.failures <- { at_cycle = rt.cycle; message } :: rt.failures

  (* ---------------------------------------------------------------- *)
  (* Construction                                                      *)

  let create (flat : Flatten.flat) =
    let sig_tbl = Hashtbl.create 256 in
    let mem_tbl = Hashtbl.create 16 in
    let decls = ref [] in
    let mem_decls = ref [] in
    let assigns_rev = ref [] in
    let always_rev = ref [] in
    List.iter
      (fun item ->
        match item with
        | Wire_decl { name; width } -> decls := (name, width, false) :: !decls
        | Reg_decl { name; width } -> decls := (name, width, true) :: !decls
        | Mem_decl { name; width; depth; _ } -> mem_decls := (name, width, depth) :: !mem_decls
        | Assign { target; expr } -> assigns_rev := (target, expr) :: !assigns_rev
        | Always_ff stmts -> always_rev := stmts :: !always_rev
        | Comment _ -> ()
        | Instance _ -> fail "simulator requires a flattened design")
      flat.flat_items;
    let decls = List.rev !decls in
    let mem_decls = List.rev !mem_decls in
    let assign_list = List.rev !assigns_rev in
    let always_stmts = List.concat (List.rev !always_rev) in
    (* Slot allocation: narrow signals share one int array, wide ones a
       Bitvec array; every signal and memory also gets a dense id in
       the dependency graph. *)
    let n_narrow = ref 0 and n_wide = ref 0 and n_ids = ref 0 in
    let wide_widths = ref [] in
    List.iter
      (fun (name, width, is_reg) ->
        let idx =
          if width <= 63 then (
            let i = !n_narrow in
            incr n_narrow;
            i)
          else (
            let i = !n_wide in
            incr n_wide;
            wide_widths := width :: !wide_widths;
            i)
        in
        let id = !n_ids in
        incr n_ids;
        Hashtbl.replace sig_tbl name
          { sl_name = name; sl_width = width; sl_is_reg = is_reg; sl_idx = idx; sl_id = id })
      decls;
    let mems =
      Array.of_list
        (List.mapi
           (fun pos (name, width, depth) ->
             let id = !n_ids in
             incr n_ids;
             let store =
               if width <= 63 then M_narrow (Array.make depth 0)
               else M_wide (Array.make depth (Bitvec.zero width))
             in
             let m = { m_name = name; m_elem_width = width; m_store = store; m_id = id; m_pos = pos } in
             Hashtbl.replace mem_tbl name m;
             m)
           mem_decls)
    in
    let narrow = Array.make (max 1 !n_narrow) 0 in
    let wide = Array.of_list (List.rev_map (fun w -> Bitvec.zero w) !wide_widths) in
    let env = { ce_signals = sig_tbl; ce_mems = mem_tbl; ce_narrow = narrow; ce_wide = wide } in
    let is_comb name =
      match Hashtbl.find_opt sig_tbl name with
      | Some s -> not s.sl_is_reg
      | None -> false
    in
    let sorted = Array.of_list (topo_sort_assigns ~is_comb assign_list) in
    let n_assigns = Array.length sorted in
    (* Dependency graph: which assigns (by topo index) read each slot.
       Dependents of an assign's own target always sit later in topo
       order, so one forward pass over the dirty set per settle is a
       fixpoint. *)
    let dep_lists = Array.make (max 1 !n_ids) [] in
    Array.iteri
      (fun j (_, expr) ->
        List.iter
          (fun name ->
            match Hashtbl.find_opt sig_tbl name with
            | Some s -> dep_lists.(s.sl_id) <- j :: dep_lists.(s.sl_id)
            | None -> ())
          (wire_deps expr []);
        List.iter
          (fun name ->
            match Hashtbl.find_opt mem_tbl name with
            | Some m -> dep_lists.(m.m_id) <- j :: dep_lists.(m.m_id)
            | None -> ())
          (mem_reads expr []))
      sorted;
    let deps = Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) dep_lists in
    let dirty = Array.make (max 1 n_assigns) true in
    let rt = fresh_rt () in
    let buf = fresh_ubuf () in
    let assign_fast =
      Array.map
        (fun (target, _) ->
          match Hashtbl.find_opt sig_tbl target with
          | Some s -> s.sl_width <= 63
          | None -> false)
        sorted
    in
    let assign_eval =
      Array.map
        (fun (target, expr) ->
          match Hashtbl.find_opt sig_tbl target with
          | None -> fail "assign to undeclared signal %s" target
          | Some s ->
            let succs = deps.(s.sl_id) in
            let idx = s.sl_idx in
            if s.sl_width <= 63 then begin
              let f = compile_int env ~width:s.sl_width expr in
              fun () ->
                let v = f () in
                if narrow.(idx) <> v then begin
                  narrow.(idx) <- v;
                  Array.iter (fun j -> dirty.(j) <- true) succs
                end
            end
            else begin
              let f = compile_bv env ~width:s.sl_width expr in
              fun () ->
                let v = f () in
                if not (Bitvec.equal wide.(idx) v) then begin
                  wide.(idx) <- v;
                  Array.iter (fun j -> dirty.(j) <- true) succs
                end
            end)
        sorted
    in
    let always = Array.of_list (List.map (compile_stmt env ~rt ~buf) always_stmts) in
    {
      env;
      rt;
      buf;
      mems;
      assign_eval;
      assign_fast;
      dirty;
      deps;
      always;
      inputs = flat.flat_inputs;
      outputs = flat.flat_outputs;
      n_narrow_signals = !n_narrow;
      n_wide_signals = !n_wide;
    }

  (* ---------------------------------------------------------------- *)
  (* Cycle execution                                                   *)

  let settle t =
    !settle_fault_hook ();
    let rt = t.rt in
    rt.settles <- rt.settles + 1;
    let dirty = t.dirty and evalf = t.assign_eval and fast = t.assign_fast in
    for i = 0 to Array.length evalf - 1 do
      if dirty.(i) then begin
        dirty.(i) <- false;
        rt.evaluated <- rt.evaluated + 1;
        if fast.(i) then rt.fast_evaluated <- rt.fast_evaluated + 1;
        evalf.(i) ()
      end
      else rt.skipped <- rt.skipped + 1
    done

  let mark_slot t id = Array.iter (fun j -> t.dirty.(j) <- true) t.deps.(id)

  (* Commit in reverse push order, replicating the reference walker's
     list-accumulated semantics exactly: with several updates to one
     target in a cycle, the first statement executed wins, and
     out-of-range memory writes report in that same order. *)
  let commit t =
    let b = t.buf and narrow = t.env.ce_narrow and wide = t.env.ce_wide in
    for i = b.u_len - 1 downto 0 do
      match b.u_kind.(i) with
      | 0 ->
        let idx = b.u_a.(i) and v = b.u_iv.(i) in
        if narrow.(idx) <> v then begin
          narrow.(idx) <- v;
          mark_slot t b.u_b.(i)
        end
      | 1 ->
        let idx = b.u_a.(i) and v = b.u_bv.(i) in
        if not (Bitvec.equal wide.(idx) v) then begin
          wide.(idx) <- v;
          mark_slot t b.u_b.(i)
        end
      | k -> (
        let m = t.mems.(b.u_a.(i)) and a = b.u_b.(i) in
        let oob depth =
          if a >= 0 && a < depth then false
          else begin
            t.rt.failures <-
              { at_cycle = t.rt.cycle; message = Printf.sprintf "write past end of %s" m.m_name }
              :: t.rt.failures;
            true
          end
        in
        match m.m_store with
        | M_narrow cells ->
          assert (k = 2);
          let v = b.u_iv.(i) in
          if (not (oob (Array.length cells))) && cells.(a) <> v then begin
            cells.(a) <- v;
            mark_slot t m.m_id
          end
        | M_wide cells ->
          let v = b.u_bv.(i) in
          if (not (oob (Array.length cells))) && not (Bitvec.equal cells.(a) v) then begin
            cells.(a) <- v;
            mark_slot t m.m_id
          end)
    done;
    b.u_len <- 0

  let clock t =
    t.buf.u_len <- 0;
    let always = t.always in
    for i = 0 to Array.length always - 1 do
      always.(i) ()
    done;
    commit t;
    t.rt.cycle <- t.rt.cycle + 1

  let step t =
    settle t;
    clock t

  let settle_only t = settle t

  let set_input t name v =
    match Hashtbl.find_opt t.env.ce_signals name with
    | None -> fail "unknown input %s" name
    | Some s ->
      if s.sl_width <= 63 then begin
        let v = Bitvec.to_int_trunc (Bitvec.resize ~width:s.sl_width v) in
        if t.env.ce_narrow.(s.sl_idx) <> v then begin
          t.env.ce_narrow.(s.sl_idx) <- v;
          mark_slot t s.sl_id
        end
      end
      else begin
        let v = Bitvec.resize ~width:s.sl_width v in
        if not (Bitvec.equal t.env.ce_wide.(s.sl_idx) v) then begin
          t.env.ce_wide.(s.sl_idx) <- v;
          mark_slot t s.sl_id
        end
      end

  let peek t name =
    match Hashtbl.find_opt t.env.ce_signals name with
    | Some s ->
      if s.sl_width <= 63 then Bitvec.of_int ~width:s.sl_width t.env.ce_narrow.(s.sl_idx)
      else t.env.ce_wide.(s.sl_idx)
    | None -> fail "unknown signal %s" name

  let reader t name =
    match Hashtbl.find_opt t.env.ce_signals name with
    | Some s ->
      if s.sl_width <= 63 then
        let file = t.env.ce_narrow and idx = s.sl_idx and w = s.sl_width in
        fun () -> Bitvec.of_int ~width:w file.(idx)
      else
        let file = t.env.ce_wide and idx = s.sl_idx in
        fun () -> file.(idx)
    | None -> fail "unknown signal %s" name

  let writer t name =
    match Hashtbl.find_opt t.env.ce_signals name with
    | None -> fail "unknown input %s" name
    | Some s ->
      let idx = s.sl_idx and w = s.sl_width and id = s.sl_id in
      if w <= 63 then (fun v ->
        let v = Bitvec.to_int_trunc (Bitvec.resize ~width:w v) in
        if t.env.ce_narrow.(idx) <> v then begin
          t.env.ce_narrow.(idx) <- v;
          mark_slot t id
        end)
      else fun v ->
        let v = Bitvec.resize ~width:w v in
        if not (Bitvec.equal t.env.ce_wide.(idx) v) then begin
          t.env.ce_wide.(idx) <- v;
          mark_slot t id
        end

  let signal_width t name = sig_width t.env name

  let failures t = List.rev t.rt.failures
  let cycle t = t.rt.cycle

  let signal_names t =
    Hashtbl.fold (fun name s acc -> (name, s.sl_width) :: acc) t.env.ce_signals []
    |> List.sort compare

  let eval_bool t expr = compile_nonzero t.env expr ()

  let stats t =
    {
      st_cycles = t.rt.cycle;
      st_settles = t.rt.settles;
      st_assigns_evaluated = t.rt.evaluated;
      st_assigns_skipped = t.rt.skipped;
      st_fastpath_evaluated = t.rt.fast_evaluated;
      st_narrow_signals = t.n_narrow_signals;
      st_wide_signals = t.n_wide_signals;
    }
end

(* ================================================================== *)
(* Opcode engine                                                       *)

(* The next lowering step after [Compiled]: instead of a closure per
   expression node, every assign is compiled once into a flat block of
   integer opcodes over dense register files — narrow values (width <=
   63) in one [int array], wide values in a [Bitvec.t array], with
   constants and scratch temporaries materialized as extra slots of the
   same files.  A settle is then one tight [exec] match loop with no
   closure calls and no tree traversal.

   Width semantics are inherited by construction: the compiler below
   mirrors [Compiled.compile_int]/[compile_bv] case by case, so every
   opcode sequence computes exactly what the corresponding closure
   would have (the qcheck lockstep suite in test_sim_equiv checks this
   against both other engines).  The one intentional difference is that
   a mux evaluates both arms before selecting — safe because
   expressions are pure (memory reads out of range yield 0 and cannot
   fail), and cheaper than a branch per node.

   Dirty tracking uses a bitset (63 assigns per word) instead of the
   compiled engine's [bool array] scan: a settle skips clean regions a
   word at a time, so the per-cycle cost is proportional to the work
   actually done, not to netlist size.

   Because the program is immutable and all mutable state lives in
   [state], [fork] is a deep copy of the register files — batched
   multi-stimulus runs (Harness.run_batch) elaborate and compile once
   and fork per stimulus. *)

module Opcode = struct
  (* Signals resolve to slots exactly as in [Compiled]; [o_id] is the
     dense dependency id shared with memories. *)
  type sslot = {
    o_name : string;
    o_width : int;
    o_is_reg : bool;
    o_idx : int;
    o_id : int;
  }

  type omem = {
    om_name : string;
    om_elem_width : int;
    om_depth : int;
    om_narrow : bool;
    om_idx : int;  (* index into the kind-specific cell-array array *)
    om_id : int;
  }

  (* The compiled program: immutable after [create], shared by forks.

     [p_code] holds one block per assign, entered at
     [p_block_off.(g)] for global assign index [g] and terminated by
     NSTORE/WSTORE; [p_clock_code] holds one HALT-terminated block per
     top-level always statement, entered at [p_clock_off.(b)].
     [p_marks]/[p_mark_off] give, per dependency id, the dirty-bitset
     positions of the readers — comb assigns and clock blocks alike —
     each encoded as [(word lsl 6) lor bit].  Assign [g] (its topo
     index) lives in the comb half of the dirty bitset at word [g / 63],
     bit [g mod 63]; clock block [b] lives after the comb words, at word
     [p_n_words + b / 63], bit [b mod 63]; [p_clock_pinned] masks the
     blocks that must run every cycle regardless of dirtiness. *)
  type prog = {
    p_signals : (string, sslot) Hashtbl.t;
    p_mem_tbl : (string, omem) Hashtbl.t;
    p_nmems : omem array;
    p_wmems : omem array;
    p_code : int array;
    p_block_off : int array;
    p_clock_code : int array;
    p_clock_off : int array;
    p_clock_pinned : int array;
    p_clock_oob : int array;
    p_n_clock_words : int;
    p_marks : int array;
    p_mark_off : int array;
    p_msgs : string array;
    p_n_words : int;
    p_n_assigns : int;
    p_ninit : int array;
    p_winit : Bitvec.t array;
    p_dirty_init : int array;
    p_n_narrow_signals : int;
    p_n_wide_signals : int;
    p_inputs : string list;
    p_outputs : string list;
  }

  (* All mutable run state, so [fork] is an array copy. *)
  type state = {
    s_n : int array;
    s_w : Bitvec.t array;
    s_nmem : int array array;
    s_wmem : Bitvec.t array array;
    s_dirty : int array;
    s_buf : ubuf;
    s_rt : rt;
  }

  type t = { prog : prog; st : state }

  (* ---------------------------------------------------------------- *)
  (* The interpreter                                                   *)

  (* Number of trailing zeros of a nonzero int (bit indices 0..62). *)
  let ntz x =
    let x = ref (x land -x) in
    let n = ref 0 in
    if !x land 0xFFFFFFFF = 0 then begin
      n := !n + 32;
      x := !x lsr 32
    end;
    if !x land 0xFFFF = 0 then begin
      n := !n + 16;
      x := !x lsr 16
    end;
    if !x land 0xFF = 0 then begin
      n := !n + 8;
      x := !x lsr 8
    end;
    if !x land 0xF = 0 then begin
      n := !n + 4;
      x := !x lsr 4
    end;
    if !x land 0x3 = 0 then begin
      n := !n + 2;
      x := !x lsr 2
    end;
    if !x land 0x1 = 0 then incr n;
    !n

  (* The interpreter's hot loops index register files, opcode buffers,
     and mark tables exclusively with compiler-generated offsets, and
     every runtime-valued index (a memory address) is explicitly
     range-checked before use — so the implicit bounds checks only
     cost.  The per-cycle functions below shadow [Array] with these
     unchecked primitives via [let module Array = Unchecked]; the rest
     of the engine keeps the checked operations. *)
  module Unchecked = struct
    include Stdlib.Array

    external get : 'a array -> int -> 'a = "%array_unsafe_get"
    external set : 'a array -> int -> 'a -> unit = "%array_unsafe_set"
  end

  let mark_id p st id =
    let module Array = Unchecked in
    let marks = p.p_marks and dirty = st.s_dirty in
    for k = p.p_mark_off.(id) to p.p_mark_off.(id + 1) - 1 do
      let e = marks.(k) in
      let w = e lsr 6 in
      dirty.(w) <- dirty.(w) lor (1 lsl (e land 63))
    done

  (* Execute [code] from [i] until a terminator: NSTORE/WSTORE end an
     assign block (store with change detection, marking the target's
     readers dirty), HALT ends a clock block.  Returns 1 when the
     terminating store hit a narrow (unboxed) target, else 0.

     Operand conventions: [dst]/[a]/[b]/[c] are register-file indices
     (narrow unless the opcode name says wide), [m] a precomputed mask,
     [w] a width or shift bound, [mem] a kind-specific memory index.
     Comment format: OP dst operands...

     [exec] is itself the dispatch loop, one self tail call per opcode,
     rather than a local loop closing over the register files: without
     flambda such a closure would be allocated on every block
     execution. *)
  let rec exec p st code i =
    let module Array = Unchecked in
    match code.(i) with
    | 0 (* NMASK dst a m *) ->
      st.s_n.(code.(i + 1)) <- st.s_n.(code.(i + 2)) land code.(i + 3);
      exec p st code (i + 4)
    | 1 (* NNOT dst a m *) ->
      st.s_n.(code.(i + 1)) <- lnot st.s_n.(code.(i + 2)) land code.(i + 3);
      exec p st code (i + 4)
    | 2 (* NAND dst a b *) ->
      st.s_n.(code.(i + 1)) <- st.s_n.(code.(i + 2)) land st.s_n.(code.(i + 3));
      exec p st code (i + 4)
    | 3 (* NOR dst a b *) ->
      st.s_n.(code.(i + 1)) <- st.s_n.(code.(i + 2)) lor st.s_n.(code.(i + 3));
      exec p st code (i + 4)
    | 4 (* NXOR dst a b *) ->
      st.s_n.(code.(i + 1)) <- st.s_n.(code.(i + 2)) lxor st.s_n.(code.(i + 3));
      exec p st code (i + 4)
    | 5 (* NADD dst a b m *) ->
      st.s_n.(code.(i + 1)) <- (st.s_n.(code.(i + 2)) + st.s_n.(code.(i + 3))) land code.(i + 4);
      exec p st code (i + 5)
    | 6 (* NSUB dst a b m *) ->
      st.s_n.(code.(i + 1)) <- (st.s_n.(code.(i + 2)) - st.s_n.(code.(i + 3))) land code.(i + 4);
      exec p st code (i + 5)
    | 7 (* NMUL dst a b m *) ->
      st.s_n.(code.(i + 1)) <- st.s_n.(code.(i + 2)) * st.s_n.(code.(i + 3)) land code.(i + 4);
      exec p st code (i + 5)
    | 8 (* NSHL dst a k w m *) ->
      let k = st.s_n.(code.(i + 3)) in
      st.s_n.(code.(i + 1)) <-
        (if k < 0 || k >= code.(i + 4) then 0
         else (st.s_n.(code.(i + 2)) lsl k) land code.(i + 5));
      exec p st code (i + 6)
    | 9 (* NSHR dst a k w *) ->
      let k = st.s_n.(code.(i + 3)) in
      st.s_n.(code.(i + 1)) <-
        (if k < 0 || k >= code.(i + 4) then 0 else st.s_n.(code.(i + 2)) lsr k);
      exec p st code (i + 5)
    | 10 (* NLT dst a b *) ->
      st.s_n.(code.(i + 1)) <-
        (if ucmp st.s_n.(code.(i + 2)) st.s_n.(code.(i + 3)) < 0 then 1 else 0);
      exec p st code (i + 4)
    | 11 (* NLE dst a b *) ->
      st.s_n.(code.(i + 1)) <-
        (if ucmp st.s_n.(code.(i + 2)) st.s_n.(code.(i + 3)) <= 0 then 1 else 0);
      exec p st code (i + 4)
    | 12 (* NGT dst a b *) ->
      st.s_n.(code.(i + 1)) <-
        (if ucmp st.s_n.(code.(i + 2)) st.s_n.(code.(i + 3)) > 0 then 1 else 0);
      exec p st code (i + 4)
    | 13 (* NGE dst a b *) ->
      st.s_n.(code.(i + 1)) <-
        (if ucmp st.s_n.(code.(i + 2)) st.s_n.(code.(i + 3)) >= 0 then 1 else 0);
      exec p st code (i + 4)
    | 14 (* NEQ dst a b *) ->
      st.s_n.(code.(i + 1)) <- (if st.s_n.(code.(i + 2)) = st.s_n.(code.(i + 3)) then 1 else 0);
      exec p st code (i + 4)
    | 15 (* NNE dst a b *) ->
      st.s_n.(code.(i + 1)) <- (if st.s_n.(code.(i + 2)) <> st.s_n.(code.(i + 3)) then 1 else 0);
      exec p st code (i + 4)
    | 16 (* NLOGAND dst a b *) ->
      st.s_n.(code.(i + 1)) <-
        (if st.s_n.(code.(i + 2)) <> 0 && st.s_n.(code.(i + 3)) <> 0 then 1 else 0);
      exec p st code (i + 4)
    | 17 (* NLOGOR dst a b *) ->
      st.s_n.(code.(i + 1)) <-
        (if st.s_n.(code.(i + 2)) <> 0 || st.s_n.(code.(i + 3)) <> 0 then 1 else 0);
      exec p st code (i + 4)
    | 18 (* NNZ dst a *) ->
      st.s_n.(code.(i + 1)) <- (if st.s_n.(code.(i + 2)) <> 0 then 1 else 0);
      exec p st code (i + 3)
    | 19 (* NREDAND dst a all *) ->
      st.s_n.(code.(i + 1)) <- (if st.s_n.(code.(i + 2)) = code.(i + 3) then 1 else 0);
      exec p st code (i + 4)
    | 20 (* NSLICE dst a lo m *) ->
      st.s_n.(code.(i + 1)) <- (st.s_n.(code.(i + 2)) lsr code.(i + 3)) land code.(i + 4);
      exec p st code (i + 5)
    | 21 (* NMUX dst c a b *) ->
      st.s_n.(code.(i + 1)) <-
        (if st.s_n.(code.(i + 2)) <> 0 then st.s_n.(code.(i + 3)) else st.s_n.(code.(i + 4)));
      exec p st code (i + 5)
    | 22 (* NSHLOR dst a k b *) ->
      st.s_n.(code.(i + 1)) <- (st.s_n.(code.(i + 2)) lsl code.(i + 3)) lor st.s_n.(code.(i + 4));
      exec p st code (i + 5)
    | 23 (* NMEMRD dst mem a m *) ->
      let cells = st.s_nmem.(code.(i + 2)) in
      let a = st.s_n.(code.(i + 3)) in
      st.s_n.(code.(i + 1)) <-
        (if a >= 0 && a < Array.length cells then cells.(a) land code.(i + 4) else 0);
      exec p st code (i + 5)
    | 24 (* NMEMRDW dst mem a m — wide memory, narrow context *) ->
      let cells = st.s_wmem.(code.(i + 2)) in
      let a = st.s_n.(code.(i + 3)) in
      st.s_n.(code.(i + 1)) <-
        (if a >= 0 && a < Array.length cells then
           Bitvec.to_int_trunc cells.(a) land code.(i + 4)
         else 0);
      exec p st code (i + 5)
    | 25 (* WRESIZE dst a w *) ->
      st.s_w.(code.(i + 1)) <- Bitvec.resize ~width:code.(i + 3) st.s_w.(code.(i + 2));
      exec p st code (i + 4)
    | 26 (* N2W dst a sw w *) ->
      st.s_w.(code.(i + 1)) <-
        Bitvec.resize ~width:code.(i + 4) (Bitvec.of_int ~width:code.(i + 3) st.s_n.(code.(i + 2)));
      exec p st code (i + 5)
    | 27 (* W2N dst a m *) ->
      st.s_n.(code.(i + 1)) <- Bitvec.to_int_trunc st.s_w.(code.(i + 2)) land code.(i + 3);
      exec p st code (i + 4)
    | 28 (* WNOT dst a *) ->
      st.s_w.(code.(i + 1)) <- Bitvec.lognot st.s_w.(code.(i + 2));
      exec p st code (i + 3)
    | 29 (* WAND dst a b *) ->
      st.s_w.(code.(i + 1)) <- Bitvec.logand st.s_w.(code.(i + 2)) st.s_w.(code.(i + 3));
      exec p st code (i + 4)
    | 30 (* WOR dst a b *) ->
      st.s_w.(code.(i + 1)) <- Bitvec.logor st.s_w.(code.(i + 2)) st.s_w.(code.(i + 3));
      exec p st code (i + 4)
    | 31 (* WXOR dst a b *) ->
      st.s_w.(code.(i + 1)) <- Bitvec.logxor st.s_w.(code.(i + 2)) st.s_w.(code.(i + 3));
      exec p st code (i + 4)
    | 32 (* WADD dst a b *) ->
      st.s_w.(code.(i + 1)) <- Bitvec.add st.s_w.(code.(i + 2)) st.s_w.(code.(i + 3));
      exec p st code (i + 4)
    | 33 (* WSUB dst a b *) ->
      st.s_w.(code.(i + 1)) <- Bitvec.sub st.s_w.(code.(i + 2)) st.s_w.(code.(i + 3));
      exec p st code (i + 4)
    | 34 (* WMUL dst a b *) ->
      st.s_w.(code.(i + 1)) <- Bitvec.mul st.s_w.(code.(i + 2)) st.s_w.(code.(i + 3));
      exec p st code (i + 4)
    | 35 (* WSHL dst a k w *) ->
      let k = st.s_n.(code.(i + 3)) in
      let w = code.(i + 4) in
      let k = if k < 0 || k > w then w else k in
      st.s_w.(code.(i + 1)) <- Bitvec.shift_left st.s_w.(code.(i + 2)) k;
      exec p st code (i + 5)
    | 36 (* WSHR dst a k w *) ->
      let k = st.s_n.(code.(i + 3)) in
      let w = code.(i + 4) in
      let k = if k < 0 || k > w then w else k in
      st.s_w.(code.(i + 1)) <- Bitvec.shift_right_logical st.s_w.(code.(i + 2)) k;
      exec p st code (i + 5)
    | 37 (* WLT dst a b — narrow 0/1 result *) ->
      st.s_n.(code.(i + 1)) <-
        (if Bitvec.compare st.s_w.(code.(i + 2)) st.s_w.(code.(i + 3)) < 0 then 1 else 0);
      exec p st code (i + 4)
    | 38 (* WLE dst a b *) ->
      st.s_n.(code.(i + 1)) <-
        (if Bitvec.compare st.s_w.(code.(i + 2)) st.s_w.(code.(i + 3)) <= 0 then 1 else 0);
      exec p st code (i + 4)
    | 39 (* WGT dst a b *) ->
      st.s_n.(code.(i + 1)) <-
        (if Bitvec.compare st.s_w.(code.(i + 2)) st.s_w.(code.(i + 3)) > 0 then 1 else 0);
      exec p st code (i + 4)
    | 40 (* WGE dst a b *) ->
      st.s_n.(code.(i + 1)) <-
        (if Bitvec.compare st.s_w.(code.(i + 2)) st.s_w.(code.(i + 3)) >= 0 then 1 else 0);
      exec p st code (i + 4)
    | 41 (* WEQ dst a b *) ->
      st.s_n.(code.(i + 1)) <-
        (if Bitvec.equal st.s_w.(code.(i + 2)) st.s_w.(code.(i + 3)) then 1 else 0);
      exec p st code (i + 4)
    | 42 (* WNE dst a b *) ->
      st.s_n.(code.(i + 1)) <-
        (if Bitvec.equal st.s_w.(code.(i + 2)) st.s_w.(code.(i + 3)) then 0 else 1);
      exec p st code (i + 4)
    | 43 (* WNZ dst a *) ->
      st.s_n.(code.(i + 1)) <- (if Bitvec.is_zero st.s_w.(code.(i + 2)) then 0 else 1);
      exec p st code (i + 3)
    | 44 (* WSLICE dst a hi lo w *) ->
      st.s_w.(code.(i + 1)) <-
        Bitvec.resize ~width:code.(i + 5)
          (Bitvec.extract ~hi:code.(i + 3) ~lo:code.(i + 4) st.s_w.(code.(i + 2)));
      exec p st code (i + 6)
    | 45 (* NSLICEW dst a hi lo m — wide source, narrow result *) ->
      st.s_n.(code.(i + 1)) <-
        Bitvec.to_int_trunc
          (Bitvec.extract ~hi:code.(i + 3) ~lo:code.(i + 4) st.s_w.(code.(i + 2)))
        land code.(i + 5);
      exec p st code (i + 6)
    | 46 (* WCONCAT dst a b *) ->
      st.s_w.(code.(i + 1)) <- Bitvec.concat st.s_w.(code.(i + 2)) st.s_w.(code.(i + 3));
      exec p st code (i + 4)
    | 47 (* WMEMRDN dst mem a ew w — narrow memory, wide context *) ->
      let cells = st.s_nmem.(code.(i + 2)) in
      let a = st.s_n.(code.(i + 3)) in
      let w = code.(i + 5) in
      st.s_w.(code.(i + 1)) <-
        (if a >= 0 && a < Array.length cells then
           Bitvec.resize ~width:w (Bitvec.of_int ~width:code.(i + 4) cells.(a))
         else Bitvec.zero w);
      exec p st code (i + 6)
    | 48 (* WMEMRD dst mem a w *) ->
      let cells = st.s_wmem.(code.(i + 2)) in
      let a = st.s_n.(code.(i + 3)) in
      let w = code.(i + 4) in
      st.s_w.(code.(i + 1)) <-
        (if a >= 0 && a < Array.length cells then Bitvec.resize ~width:w cells.(a)
         else Bitvec.zero w);
      exec p st code (i + 5)
    | 49 (* W2INT dst a — unsigned value or -1 if out of int range *) ->
      st.s_n.(code.(i + 1)) <-
        (match Bitvec.to_int_opt st.s_w.(code.(i + 2)) with Some k -> k | None -> -1);
      exec p st code (i + 3)
    | 50 (* NSTORE slot src lo hi — assign-block terminator *) ->
      let dst = code.(i + 1) in
      let v = st.s_n.(code.(i + 2)) in
      if st.s_n.(dst) <> v then begin
        st.s_n.(dst) <- v;
        for k = code.(i + 3) to code.(i + 4) - 1 do
          let e = p.p_marks.(k) in
          let w = e lsr 6 in
          st.s_dirty.(w) <- st.s_dirty.(w) lor (1 lsl (e land 63))
        done
      end;
      1
    | 51 (* WSTORE slot src lo hi *) ->
      let dst = code.(i + 1) in
      let v = st.s_w.(code.(i + 2)) in
      if not (Bitvec.equal st.s_w.(dst) v) then begin
        st.s_w.(dst) <- v;
        for k = code.(i + 3) to code.(i + 4) - 1 do
          let e = p.p_marks.(k) in
          let w = e lsr 6 in
          st.s_dirty.(w) <- st.s_dirty.(w) lor (1 lsl (e land 63))
        done
      end;
      0
    | 52 (* HALT *) -> 0
    | 53 (* JZ c target *) ->
      exec p st code (if st.s_n.(code.(i + 1)) = 0 then code.(i + 2) else i + 3)
    | 54 (* JMP target *) -> exec p st code code.(i + 1)
    | 55 (* PUSHN slot id src *) ->
      push st.s_buf 0 code.(i + 1) code.(i + 2) st.s_n.(code.(i + 3)) dummy_bv;
      exec p st code (i + 4)
    | 56 (* PUSHW slot id src *) ->
      push st.s_buf 1 code.(i + 1) code.(i + 2) 0 st.s_w.(code.(i + 3));
      exec p st code (i + 4)
    | 57 (* PUSHNM mem a v *) ->
      push st.s_buf 2 code.(i + 1) st.s_n.(code.(i + 2)) st.s_n.(code.(i + 3)) dummy_bv;
      exec p st code (i + 4)
    | 58 (* PUSHWM mem a v *) ->
      push st.s_buf 3 code.(i + 1) st.s_n.(code.(i + 2)) 0 st.s_w.(code.(i + 3));
      exec p st code (i + 4)
    | 59 (* ASSERT c msg *) ->
      if st.s_n.(code.(i + 1)) = 0 then
        st.s_rt.failures <-
          { at_cycle = st.s_rt.cycle; message = p.p_msgs.(code.(i + 2)) } :: st.s_rt.failures;
      exec p st code (i + 3)
    | 60 (* WMUX dst c a b — narrow condition *) ->
      st.s_w.(code.(i + 1)) <-
        (if st.s_n.(code.(i + 2)) <> 0 then st.s_w.(code.(i + 3)) else st.s_w.(code.(i + 4)));
      exec p st code (i + 5)
    | 62 (* NSTOREMUX slot c a b lo hi — NSTORE of an NMUX, fused *) ->
      let dst = code.(i + 1) in
      let v = if st.s_n.(code.(i + 2)) <> 0 then st.s_n.(code.(i + 3)) else st.s_n.(code.(i + 4)) in
      if st.s_n.(dst) <> v then begin
        st.s_n.(dst) <- v;
        for k = code.(i + 5) to code.(i + 6) - 1 do
          let e = p.p_marks.(k) in
          let w = e lsr 6 in
          st.s_dirty.(w) <- st.s_dirty.(w) lor (1 lsl (e land 63))
        done
      end;
      1
    | 61 (* ACONFLICT p1 p2 a1 a2 msg — fused port-conflict assert:
            fails iff both enables are up and the addresses differ.
            Arbiter/port-sharing checks are the bulk of woken clock
            blocks, so they get a single-dispatch opcode. *) ->
      if
        st.s_n.(code.(i + 1)) <> 0
        && st.s_n.(code.(i + 2)) <> 0
        && st.s_n.(code.(i + 3)) <> st.s_n.(code.(i + 4))
      then
        st.s_rt.failures <-
          { at_cycle = st.s_rt.cycle; message = p.p_msgs.(code.(i + 5)) } :: st.s_rt.failures;
      exec p st code (i + 6)
    | op -> fail "corrupt opcode program: opcode %d at %d" op i

  (* ---------------------------------------------------------------- *)
  (* Compilation                                                       *)

  type builder = { mutable bb : int array; mutable bl : int; mutable blast : int }
  (* [blast] is the start offset of the last instruction [ins]-ed,
     letting peepholes inspect (and rewind) exactly one instruction. *)

  let new_builder () = { bb = Array.make 256 0; bl = 0; blast = -1 }

  let emit b v =
    if b.bl = Array.length b.bb then begin
      let nb = Array.make (2 * b.bl) 0 in
      Array.blit b.bb 0 nb 0 b.bl;
      b.bb <- nb
    end;
    b.bb.(b.bl) <- v;
    b.bl <- b.bl + 1

  let ins b l =
    b.blast <- b.bl;
    List.iter (emit b) l
  let finish b = Array.sub b.bb 0 b.bl

  (* Compile-time allocation state.  Slot indices below the signal
     counts are signals; constants (deduplicated for narrow values) and
     per-use scratch temporaries are appended after them. *)
  type cstate = {
    cs_signals : (string, sslot) Hashtbl.t;
    cs_mems : (string, omem) Hashtbl.t;
    mutable cs_nn : int;
    mutable cs_nextra : int list;  (* narrow extra inits, reversed *)
    mutable cs_nw : int;
    mutable cs_wextra : Bitvec.t list;
    cs_nconst : (int, int) Hashtbl.t;
    mutable cs_msgs : string list;  (* reversed *)
    mutable cs_nmsgs : int;
  }

  let ntemp cs =
    let i = cs.cs_nn in
    cs.cs_nn <- i + 1;
    cs.cs_nextra <- 0 :: cs.cs_nextra;
    i

  let wtemp cs width =
    let i = cs.cs_nw in
    cs.cs_nw <- i + 1;
    cs.cs_wextra <- Bitvec.zero width :: cs.cs_wextra;
    i

  let nconst cs v =
    match Hashtbl.find_opt cs.cs_nconst v with
    | Some i -> i
    | None ->
      let i = cs.cs_nn in
      cs.cs_nn <- i + 1;
      cs.cs_nextra <- v :: cs.cs_nextra;
      Hashtbl.replace cs.cs_nconst v i;
      i

  let wconst cs bv =
    let i = cs.cs_nw in
    cs.cs_nw <- i + 1;
    cs.cs_wextra <- bv :: cs.cs_wextra;
    i

  let sig_width_c cs name =
    match Hashtbl.find_opt cs.cs_signals name with
    | Some s -> s.o_width
    | None -> (
      match Hashtbl.find_opt cs.cs_mems name with
      | Some m -> m.om_elem_width
      | None -> fail "unknown signal %s" name)

  let natural_c cs expr = natural_width ~signal_width:(sig_width_c cs) expr

  (* [comp_n cs b ~width e] appends opcodes evaluating [e] at narrow
     context [width] to [b] and returns the narrow slot holding the
     result; [comp_w] is the wide/boxed path.  Both mirror
     [Compiled.compile_int]/[compile_bv] case by case — any semantic
     divergence here is a bug, caught by the lockstep suite. *)
  let rec comp_n cs b ~width e : int =
    let mw = mask width in
    match e with
    | Const bv -> nconst cs (Bitvec.to_int_trunc (Bitvec.resize ~width bv))
    | Ref name -> (
      match Hashtbl.find_opt cs.cs_signals name with
      | None -> fail "read of unknown signal %s" name
      | Some s ->
        if s.o_width > 63 then begin
          let d = ntemp cs in
          ins b [ 27; d; s.o_idx; mw ];
          d
        end
        else if s.o_width <= width then s.o_idx
        else begin
          let d = ntemp cs in
          ins b [ 0; d; s.o_idx; mw ];
          d
        end)
    | Index (name, addr) -> (
      match Hashtbl.find_opt cs.cs_mems name with
      | None -> fail "indexing non-memory %s" name
      | Some m ->
        let a = comp_addr cs b addr in
        let d = ntemp cs in
        if m.om_narrow then
          (* land -1 is the identity, so one opcode covers both the
             element-fits and the must-truncate cases. *)
          ins b [ 23; d; m.om_idx; a; (if m.om_elem_width <= width then -1 else mw) ]
        else ins b [ 24; d; m.om_idx; a; mw ];
        d)
    | Slice (e1, hi, lo) ->
      let wi = max (hi + 1) (natural_c cs e1) in
      let m = mask (min (hi - lo + 1) width) in
      let d = ntemp cs in
      if wi <= 63 then begin
        let s = comp_n cs b ~width:wi e1 in
        ins b [ 20; d; s; lo; m ]
      end
      else begin
        let s = comp_w cs b ~width:wi e1 in
        ins b [ 45; d; s; hi; lo; m ]
      end;
      d
    | Unop (Not, e1) ->
      let s = comp_n cs b ~width e1 in
      let d = ntemp cs in
      ins b [ 1; d; s; mw ];
      d
    | Unop (Red_or, e1) -> comp_nz cs b e1
    | Unop (Red_and, e1) ->
      let wn = max 1 (natural_c cs e1) in
      let d = ntemp cs in
      if wn <= 63 then begin
        let s = comp_n cs b ~width:wn e1 in
        ins b [ 19; d; s; mask wn ]
      end
      else begin
        let s = comp_w cs b ~width:wn e1 in
        let allw = wconst cs (Bitvec.ones wn) in
        ins b [ 41; d; s; allw ]
      end;
      d
    | Binop (((Add | Sub | Mul | And | Or | Xor) as op), a, b1) ->
      let sa = comp_n cs b ~width a in
      let sb = comp_n cs b ~width b1 in
      let d = ntemp cs in
      (match op with
      | Add -> ins b [ 5; d; sa; sb; mw ]
      | Sub -> ins b [ 6; d; sa; sb; mw ]
      | Mul -> ins b [ 7; d; sa; sb; mw ]
      | And -> ins b [ 2; d; sa; sb ]
      | Or -> ins b [ 3; d; sa; sb ]
      | Xor -> ins b [ 4; d; sa; sb ]
      | _ -> assert false);
      d
    | Binop (Shl, a, k) ->
      let sa = comp_n cs b ~width a in
      let sk = comp_shift cs b k in
      let d = ntemp cs in
      ins b [ 8; d; sa; sk; width; mw ];
      d
    | Binop (Shr, a, k) ->
      let sa = comp_n cs b ~width a in
      let sk = comp_shift cs b k in
      let d = ntemp cs in
      ins b [ 9; d; sa; sk; width ];
      d
    | Binop (((Lt | Le | Gt | Ge | Eq | Ne) as op), a, b1) -> comp_cmp cs b op a b1
    | Binop (Log_and, a, b1) ->
      let sa = comp_nz cs b a in
      let sb = comp_nz cs b b1 in
      let d = ntemp cs in
      ins b [ 16; d; sa; sb ];
      d
    | Binop (Log_or, a, b1) ->
      let sa = comp_nz cs b a in
      let sb = comp_nz cs b b1 in
      let d = ntemp cs in
      ins b [ 17; d; sa; sb ];
      d
    | Ternary (c, a, b1) ->
      let sc = comp_nz cs b c in
      let sa = comp_n cs b ~width a in
      let sb = comp_n cs b ~width b1 in
      let d = ntemp cs in
      ins b [ 21; d; sc; sa; sb ];
      d
    | Concat [] -> fail "empty concatenation"
    | Concat es -> (
      let widths = List.map (fun e -> max 1 (natural_c cs e)) es in
      let total = List.fold_left ( + ) 0 widths in
      if total <= 63 then begin
        let parts = List.map2 (fun e w -> (comp_n cs b ~width:w e, w)) es widths in
        match parts with
        | [] -> assert false
        | (s0, _) :: rest ->
          let acc =
            List.fold_left
              (fun acc (s, w) ->
                let d = ntemp cs in
                ins b [ 22; d; acc; w; s ];
                d)
              s0 rest
          in
          if width >= total then acc
          else begin
            let d = ntemp cs in
            ins b [ 0; d; acc; mw ];
            d
          end
      end
      else begin
        let s, _ = comp_concat_w cs b es widths in
        let d = ntemp cs in
        ins b [ 27; d; s; mw ];
        d
      end)

  and comp_w cs b ~width e : int =
    match e with
    | Const bv -> wconst cs (Bitvec.resize ~width bv)
    | Ref name -> (
      match Hashtbl.find_opt cs.cs_signals name with
      | None -> fail "read of unknown signal %s" name
      | Some s ->
        if s.o_width > 63 then
          if s.o_width = width then s.o_idx
          else begin
            let d = wtemp cs width in
            ins b [ 25; d; s.o_idx; width ];
            d
          end
        else begin
          let d = wtemp cs width in
          ins b [ 26; d; s.o_idx; s.o_width; width ];
          d
        end)
    | Index (name, addr) -> (
      match Hashtbl.find_opt cs.cs_mems name with
      | None -> fail "indexing non-memory %s" name
      | Some m ->
        let a = comp_addr cs b addr in
        let d = wtemp cs width in
        if m.om_narrow then ins b [ 47; d; m.om_idx; a; m.om_elem_width; width ]
        else ins b [ 48; d; m.om_idx; a; width ];
        d)
    | Slice (e1, hi, lo) ->
      let wi = max (hi + 1) (natural_c cs e1) in
      if wi <= 63 then begin
        let s = comp_n cs b ~width:wi e1 in
        let sw = hi - lo + 1 in
        let t = ntemp cs in
        ins b [ 20; t; s; lo; mask sw ];
        let d = wtemp cs width in
        ins b [ 26; d; t; sw; width ];
        d
      end
      else begin
        let s = comp_w cs b ~width:wi e1 in
        let d = wtemp cs width in
        ins b [ 44; d; s; hi; lo; width ];
        d
      end
    | Unop (Not, e1) ->
      let s = comp_w cs b ~width e1 in
      let d = wtemp cs width in
      ins b [ 28; d; s ];
      d
    | Unop (Red_or, e1) ->
      let t = comp_nz cs b e1 in
      let d = wtemp cs width in
      ins b [ 26; d; t; 1; width ];
      d
    | Unop (Red_and, e1) ->
      let wn = max 1 (natural_c cs e1) in
      let t = ntemp cs in
      (if wn <= 63 then begin
         let s = comp_n cs b ~width:wn e1 in
         ins b [ 19; t; s; mask wn ]
       end
       else begin
         let s = comp_w cs b ~width:wn e1 in
         let allw = wconst cs (Bitvec.ones wn) in
         ins b [ 41; t; s; allw ]
       end);
      let d = wtemp cs width in
      ins b [ 26; d; t; 1; width ];
      d
    | Binop (((Add | Sub | Mul | And | Or | Xor) as op), a, b1) ->
      let sa = comp_w cs b ~width a in
      let sb = comp_w cs b ~width b1 in
      let d = wtemp cs width in
      let opc =
        match op with
        | Add -> 32
        | Sub -> 33
        | Mul -> 34
        | And -> 29
        | Or -> 30
        | Xor -> 31
        | _ -> assert false
      in
      ins b [ opc; d; sa; sb ];
      d
    | Binop (Shl, a, k) ->
      let sa = comp_w cs b ~width a in
      let sk = comp_shift cs b k in
      let d = wtemp cs width in
      ins b [ 35; d; sa; sk; width ];
      d
    | Binop (Shr, a, k) ->
      let sa = comp_w cs b ~width a in
      let sk = comp_shift cs b k in
      let d = wtemp cs width in
      ins b [ 36; d; sa; sk; width ];
      d
    | Binop (((Lt | Le | Gt | Ge | Eq | Ne) as op), a, b1) ->
      let t = comp_cmp cs b op a b1 in
      let d = wtemp cs width in
      ins b [ 26; d; t; 1; width ];
      d
    | Binop (Log_and, a, b1) ->
      let sa = comp_nz cs b a in
      let sb = comp_nz cs b b1 in
      let t = ntemp cs in
      ins b [ 16; t; sa; sb ];
      let d = wtemp cs width in
      ins b [ 26; d; t; 1; width ];
      d
    | Binop (Log_or, a, b1) ->
      let sa = comp_nz cs b a in
      let sb = comp_nz cs b b1 in
      let t = ntemp cs in
      ins b [ 17; t; sa; sb ];
      let d = wtemp cs width in
      ins b [ 26; d; t; 1; width ];
      d
    | Ternary (c, a, b1) ->
      let sc = comp_nz cs b c in
      let sa = comp_w cs b ~width a in
      let sb = comp_w cs b ~width b1 in
      let d = wtemp cs width in
      ins b [ 60; d; sc; sa; sb ];
      d
    | Concat [] -> fail "empty concatenation"
    | Concat es ->
      let widths = List.map (fun e -> max 1 (natural_c cs e)) es in
      let total = List.fold_left ( + ) 0 widths in
      let s, _ = comp_concat_w cs b es widths in
      if total = width then s
      else begin
        let d = wtemp cs width in
        ins b [ 25; d; s; width ];
        d
      end

  (* Concatenation as a wide value of width = sum of part widths (the
     first part highest), returned as (slot, total width). *)
  and comp_concat_w cs b es widths =
    let parts =
      List.map2
        (fun e w ->
          if w <= 63 then begin
            let s = comp_n cs b ~width:w e in
            let d = wtemp cs w in
            ins b [ 26; d; s; w; w ];
            (d, w)
          end
          else (comp_w cs b ~width:w e, w))
        es widths
    in
    match parts with
    | [] -> fail "empty concatenation"
    | p0 :: rest ->
      List.fold_left
        (fun (acc, aw) (s, w) ->
          let d = wtemp cs (aw + w) in
          ins b [ 46; d; acc; s ];
          (d, aw + w))
        p0 rest

  (* Nonzero test at the expression's natural width; returns a narrow
     0/1 slot.  A 1-bit operand is already its own nonzero test, so the
     NNZ is skipped — conditions on enables and comparison results (the
     overwhelming majority) cost no extra opcode. *)
  and comp_nz cs b e =
    let wn = max 1 (natural_c cs e) in
    if wn = 1 then comp_n cs b ~width:1 e
    else begin
      let d = ntemp cs in
      (if wn <= 63 then begin
         let s = comp_n cs b ~width:wn e in
         ins b [ 18; d; s ]
       end
       else begin
         let s = comp_w cs b ~width:wn e in
         ins b [ 43; d; s ]
       end);
      d
    end

  (* Unsigned comparison at the wider operand's natural width; returns
     a narrow 0/1 slot. *)
  and comp_cmp cs b op a b1 =
    let w0 = max 1 (max (natural_c cs a) (natural_c cs b1)) in
    let d = ntemp cs in
    (if w0 <= 63 then begin
       let sa = comp_n cs b ~width:w0 a in
       let sb = comp_n cs b ~width:w0 b1 in
       let opc =
         match op with
         | Lt -> 10
         | Le -> 11
         | Gt -> 12
         | Ge -> 13
         | Eq -> 14
         | Ne -> 15
         | _ -> assert false
       in
       ins b [ opc; d; sa; sb ]
     end
     else begin
       let sa = comp_w cs b ~width:w0 a in
       let sb = comp_w cs b ~width:w0 b1 in
       let opc =
         match op with
         | Lt -> 37
         | Le -> 38
         | Gt -> 39
         | Ge -> 40
         | Eq -> 41
         | Ne -> 42
         | _ -> assert false
       in
       ins b [ opc; d; sa; sb ]
     end);
    d

  (* Shift amount / memory address as a narrow slot; -1 encodes "too
     large for an int", treated as out-of-range by the consumers. *)
  and comp_shift cs b e =
    let wb = max 1 (natural_c cs e) in
    if wb <= 63 then comp_n cs b ~width:wb e
    else begin
      let s = comp_w cs b ~width:wb e in
      let d = ntemp cs in
      ins b [ 49; d; s ];
      d
    end

  and comp_addr cs b e = comp_shift cs b e

  (* Always-block statements compile into the single clock program;
     [If] lowers to JZ/JMP with backpatched targets, so untaken arms
     cost one branch. *)
  let rec comp_stmt cs b stmt =
    match stmt with
    | Nonblocking (Lref name, e) -> (
      match Hashtbl.find_opt cs.cs_signals name with
      | None -> fail "unknown signal %s" name
      | Some s ->
        if s.o_width <= 63 then begin
          let src = comp_n cs b ~width:s.o_width e in
          ins b [ 55; s.o_idx; s.o_id; src ]
        end
        else begin
          let src = comp_w cs b ~width:s.o_width e in
          ins b [ 56; s.o_idx; s.o_id; src ]
        end)
    | Nonblocking (Lindex (name, addr), e) -> (
      match Hashtbl.find_opt cs.cs_mems name with
      | None -> fail "write to non-memory %s" name
      | Some m ->
        let a = comp_addr cs b addr in
        if m.om_narrow then begin
          let v = comp_n cs b ~width:m.om_elem_width e in
          ins b [ 57; m.om_idx; a; v ]
        end
        else begin
          let v = comp_w cs b ~width:m.om_elem_width e in
          ins b [ 58; m.om_idx; a; v ]
        end)
    | If (c, then_s, else_s) ->
      let sc = comp_nz cs b c in
      let jz_at = b.bl in
      ins b [ 53; sc; 0 ];
      List.iter (comp_stmt cs b) then_s;
      let jmp_at = b.bl in
      ins b [ 54; 0 ];
      b.bb.(jz_at + 2) <- b.bl;
      List.iter (comp_stmt cs b) else_s;
      b.bb.(jmp_at + 1) <- b.bl
    | Assert_stmt
        { cond = Binop (Or, Unop (Not, Binop (And, p1, p2)), Binop (Eq, a1, a2)); message }
      when natural_c cs p1 = 1 && natural_c cs p2 = 1
           && max 1 (max (natural_c cs a1) (natural_c cs a2)) <= 63 ->
      (* Port-conflict shape emitted by the memref arbiters; fused into
         one ACONFLICT dispatch instead of not/and/eq/or/assert. *)
      let sp1 = comp_n cs b ~width:1 p1 in
      let sp2 = comp_n cs b ~width:1 p2 in
      let wa = max 1 (max (natural_c cs a1) (natural_c cs a2)) in
      let sa1 = comp_n cs b ~width:wa a1 in
      let sa2 = comp_n cs b ~width:wa a2 in
      let mi = cs.cs_nmsgs in
      cs.cs_nmsgs <- mi + 1;
      cs.cs_msgs <- message :: cs.cs_msgs;
      ins b [ 61; sp1; sp2; sa1; sa2; mi ]
    | Assert_stmt { cond; message } ->
      let sc = comp_nz cs b cond in
      let mi = cs.cs_nmsgs in
      cs.cs_nmsgs <- mi + 1;
      cs.cs_msgs <- message :: cs.cs_msgs;
      ins b [ 59; sc; mi ]

  (* ---------------------------------------------------------------- *)
  (* Construction                                                      *)

  let fresh_state p =
    {
      s_n = Array.copy p.p_ninit;
      s_w = Array.copy p.p_winit;
      s_nmem = Array.map (fun m -> Array.make m.om_depth 0) p.p_nmems;
      s_wmem = Array.map (fun m -> Array.make m.om_depth (Bitvec.zero m.om_elem_width)) p.p_wmems;
      s_dirty = Array.copy p.p_dirty_init;
      s_buf = fresh_ubuf ();
      s_rt = fresh_rt ();
    }

  let create (flat : Flatten.flat) =
    let decls = ref [] in
    let mem_decls = ref [] in
    let assigns_rev = ref [] in
    let always_rev = ref [] in
    List.iter
      (fun item ->
        match item with
        | Wire_decl { name; width } -> decls := (name, width, false) :: !decls
        | Reg_decl { name; width } -> decls := (name, width, true) :: !decls
        | Mem_decl { name; width; depth; _ } -> mem_decls := (name, width, depth) :: !mem_decls
        | Assign { target; expr } -> assigns_rev := (target, expr) :: !assigns_rev
        | Always_ff stmts -> always_rev := stmts :: !always_rev
        | Comment _ -> ()
        | Instance _ -> fail "simulator requires a flattened design")
      flat.flat_items;
    let decls = List.rev !decls in
    let mem_decls = List.rev !mem_decls in
    let assign_list = List.rev !assigns_rev in
    let always_stmts = List.concat (List.rev !always_rev) in
    (* Slot and dependency-id allocation, as in [Compiled]. *)
    let sig_tbl = Hashtbl.create 256 in
    let mem_tbl = Hashtbl.create 16 in
    let n_narrow = ref 0 and n_wide = ref 0 and n_ids = ref 0 in
    let wide_widths = ref [] in
    List.iter
      (fun (name, width, is_reg) ->
        let idx =
          if width <= 63 then (
            let i = !n_narrow in
            incr n_narrow;
            i)
          else (
            let i = !n_wide in
            incr n_wide;
            wide_widths := width :: !wide_widths;
            i)
        in
        let id = !n_ids in
        incr n_ids;
        Hashtbl.replace sig_tbl name
          { o_name = name; o_width = width; o_is_reg = is_reg; o_idx = idx; o_id = id })
      decls;
    let nmems_rev = ref [] and wmems_rev = ref [] in
    let nn_mem = ref 0 and nw_mem = ref 0 in
    List.iter
      (fun (name, width, depth) ->
        let id = !n_ids in
        incr n_ids;
        let narrowp = width <= 63 in
        let idx =
          if narrowp then (
            let i = !nn_mem in
            incr nn_mem;
            i)
          else (
            let i = !nw_mem in
            incr nw_mem;
            i)
        in
        let m =
          { om_name = name; om_elem_width = width; om_depth = depth; om_narrow = narrowp;
            om_idx = idx; om_id = id }
        in
        if narrowp then nmems_rev := m :: !nmems_rev else wmems_rev := m :: !wmems_rev;
        Hashtbl.replace mem_tbl name m)
      mem_decls;
    let nmems = Array.of_list (List.rev !nmems_rev) in
    let wmems = Array.of_list (List.rev !wmems_rev) in
    let is_comb name =
      match Hashtbl.find_opt sig_tbl name with
      | Some s -> not s.o_is_reg
      | None -> false
    in
    let sorted = Array.of_list (topo_sort_assigns ~is_comb assign_list) in
    let n_assigns = Array.length sorted in
    let n_words = (n_assigns + 62) / 63 in
    (* Readers of each dependency id, as dirty-bitset positions. *)
    let dep_lists = Array.make (max 1 !n_ids) [] in
    Array.iteri
      (fun g (_, expr) ->
        List.iter
          (fun name ->
            match Hashtbl.find_opt sig_tbl name with
            | Some s -> dep_lists.(s.o_id) <- g :: dep_lists.(s.o_id)
            | None -> ())
          (wire_deps expr []);
        List.iter
          (fun name ->
            match Hashtbl.find_opt mem_tbl name with
            | Some m -> dep_lists.(m.om_id) <- g :: dep_lists.(m.om_id)
            | None -> ())
          (mem_reads expr []))
      sorted;
    (* Event-driven clock blocks: each top-level always statement is a
       block and a pseudo-reader of everything it reads anywhere —
       conditions, right-hand sides, write addresses.  Block [b] lives
       in the dirty bitset after the comb words (word [n_words + b/63],
       bit [b mod 63]), so value changes wake it through the same CSR
       as comb readers, and [clock] only executes woken blocks.  A
       block whose inputs did not change since its last run would
       re-push exactly the values its targets already hold, so skipping
       it is a no-op — except where ordering or side effects matter:
       blocks containing assertions (must re-fire every failing cycle),
       memory writes (out-of-range reporting, multi-writer commits), or
       a register also written by another block (first-statement-wins
       needs every competing push present) are pinned and always run. *)
    let always_blocks = Array.of_list always_stmts in
    let n_blocks = Array.length always_blocks in
    let n_clock_words = (n_blocks + 62) / 63 in
    Array.iteri
      (fun bi stmt ->
        let g = (n_words * 63) + bi in
        List.iter
          (fun name ->
            match Hashtbl.find_opt sig_tbl name with
            | Some s -> dep_lists.(s.o_id) <- g :: dep_lists.(s.o_id)
            | None -> ())
          (stmt_wire_deps stmt []);
        List.iter
          (fun name ->
            match Hashtbl.find_opt mem_tbl name with
            | Some m -> dep_lists.(m.om_id) <- g :: dep_lists.(m.om_id)
            | None -> ())
          (stmt_mem_reads stmt []))
      always_blocks;
    let write_sites = Hashtbl.create 64 in
    let count_site name =
      Hashtbl.replace write_sites name
        (1 + Option.value ~default:0 (Hashtbl.find_opt write_sites name))
    in
    Array.iter
      (fun stmt ->
        List.iter count_site (List.sort_uniq compare (stmt_reg_writes stmt []));
        List.iter count_site
          (List.sort_uniq compare (List.map fst (stmt_mem_writes stmt []))))
      always_blocks;
    let multi_writer name =
      Option.value ~default:0 (Hashtbl.find_opt write_sites name) > 1
    in
    (* Assertions need no pin: a block whose run records a failure
       re-marks itself (see [clock]), so it re-fires every failing
       cycle, and a skipped block's assertions all passed last run with
       the same inputs — they would pass again.  Likewise memory
       writes: a skipped write would re-push the same (address, value)
       the cell already holds — a commit no-op — unless the address is
       out of range, where commit must record a fresh failure every
       cycle; commit recording any failure wakes every block in
       [p_oob_mask] (the blocks whose write address can exceed its
       memory: natural width [wa] is masked nonnegative, so depth >=
       2^wa cannot be missed), so out-of-range writers re-fire while
       they misbehave.  Only first-statement-wins races — a register or
       memory written by more than one block — need a pin, since a
       winning push must out-rank the losers every cycle. *)
    let sig_width name =
      match Hashtbl.find_opt sig_tbl name with
      | Some s -> s.o_width
      | None -> (
        match Hashtbl.find_opt mem_tbl name with
        | Some m -> m.om_elem_width
        | None -> fail "unknown signal %s" name)
    in
    let mem_write_can_miss (name, addr) =
      match Hashtbl.find_opt mem_tbl name with
      | None -> true
      | Some m ->
        let wa = max 1 (natural_width ~signal_width:sig_width addr) in
        wa > 62 || 1 lsl wa > m.om_depth
    in
    let clock_pinned = Array.make (max 1 n_clock_words) 0 in
    let oob_mask = Array.make (max 1 n_clock_words) 0 in
    Array.iteri
      (fun bi stmt ->
        let mws = stmt_mem_writes stmt [] in
        let pinned =
          List.exists (fun (name, _) -> multi_writer name) mws
          || List.exists multi_writer (stmt_reg_writes stmt [])
        in
        let bit = 1 lsl (bi mod 63) in
        if pinned then clock_pinned.(bi / 63) <- clock_pinned.(bi / 63) lor bit
        else if List.exists mem_write_can_miss mws then
          oob_mask.(bi / 63) <- oob_mask.(bi / 63) lor bit)
      always_blocks;
    let marks_b = new_builder () in
    let mark_off = Array.make (!n_ids + 1) 0 in
    for id = 0 to !n_ids - 1 do
      mark_off.(id) <- marks_b.bl;
      List.iter
        (fun g -> emit marks_b (((g / 63) lsl 6) lor (g mod 63)))
        (List.sort_uniq compare dep_lists.(id))
    done;
    mark_off.(!n_ids) <- marks_b.bl;
    (* Compile every assign block and the clock program. *)
    let cs =
      {
        cs_signals = sig_tbl;
        cs_mems = mem_tbl;
        cs_nn = !n_narrow;
        cs_nextra = [];
        cs_nw = !n_wide;
        cs_wextra = [];
        cs_nconst = Hashtbl.create 64;
        cs_msgs = [];
        cs_nmsgs = 0;
      }
    in
    let code = new_builder () in
    let block_off = Array.make (max 1 n_assigns) 0 in
    Array.iteri
      (fun g (target, expr) ->
        match Hashtbl.find_opt sig_tbl target with
        | None -> fail "assign to undeclared signal %s" target
        | Some s ->
          block_off.(g) <- code.bl;
          let lo = mark_off.(s.o_id) and hi = mark_off.(s.o_id + 1) in
          if s.o_width <= 63 then begin
            let src = comp_n cs code ~width:s.o_width expr in
            (* Peephole: an assign whose value is a freshly-computed
               mux (the dominant comb shape — stall/enable muxes)
               fuses mux and change-detecting store into one
               dispatch.  The mux temp is dead after the store. *)
            if
              code.blast >= 0
              && code.bl - code.blast = 5
              && code.bb.(code.blast) = 21
              && code.bb.(code.blast + 1) = src
            then begin
              let c = code.bb.(code.blast + 2)
              and a = code.bb.(code.blast + 3)
              and b = code.bb.(code.blast + 4) in
              code.bl <- code.blast;
              ins code [ 62; s.o_idx; c; a; b; lo; hi ]
            end
            else ins code [ 50; s.o_idx; src; lo; hi ]
          end
          else begin
            let src = comp_w cs code ~width:s.o_width expr in
            ins code [ 51; s.o_idx; src; lo; hi ]
          end)
      sorted;
    let clock_b = new_builder () in
    let clock_off = Array.make (max 1 n_blocks) (-1) in
    Array.iteri
      (fun bi stmt ->
        clock_off.(bi) <- clock_b.bl;
        comp_stmt cs clock_b stmt;
        ins clock_b [ 52 ])
      always_blocks;
    (* Initial register files: signals first (zero), then constants and
       temporaries in allocation order. *)
    let ninit = Array.make (max 1 cs.cs_nn) 0 in
    ignore (List.fold_left (fun i v -> ninit.(i) <- v; i - 1) (cs.cs_nn - 1) cs.cs_nextra : int);
    let winit = Array.make (max 1 cs.cs_nw) dummy_bv in
    ignore
      (List.fold_left (fun i w -> winit.(i) <- Bitvec.zero w; i - 1) (!n_wide - 1) !wide_widths
        : int);
    ignore (List.fold_left (fun i v -> winit.(i) <- v; i - 1) (cs.cs_nw - 1) cs.cs_wextra : int);
    (* Every assign and every clock block starts dirty; for the clock
       blocks, the first cycle establishes the "targets hold this
       block's last pushes" invariant. *)
    let dirty_init = Array.make (max 1 (n_words + n_clock_words)) 0 in
    let fill base words count =
      for k = 0 to words - 1 do
        let remaining = count - (k * 63) in
        dirty_init.(base + k) <- (if remaining >= 63 then -1 else mask remaining)
      done
    in
    fill 0 n_words n_assigns;
    fill n_words n_clock_words n_blocks;
    let prog =
      {
        p_signals = sig_tbl;
        p_mem_tbl = mem_tbl;
        p_nmems = nmems;
        p_wmems = wmems;
        p_code = finish code;
        p_block_off = block_off;
        p_clock_code = finish clock_b;
        p_clock_off = clock_off;
        p_clock_pinned = clock_pinned;
        p_clock_oob = oob_mask;
        p_n_clock_words = n_clock_words;
        p_marks = finish marks_b;
        p_mark_off = mark_off;
        p_msgs = Array.of_list (List.rev cs.cs_msgs);
        p_n_words = n_words;
        p_n_assigns = n_assigns;
        p_ninit = ninit;
        p_winit = winit;
        p_dirty_init = dirty_init;
        p_n_narrow_signals = !n_narrow;
        p_n_wide_signals = !n_wide;
        p_inputs = flat.flat_inputs;
        p_outputs = flat.flat_outputs;
      }
    in
    { prog; st = fresh_state prog }

  (* A new simulator sharing the compiled program, with fresh state —
     elaborate/compile once, run many stimuli. *)
  let fork t = { prog = t.prog; st = fresh_state t.prog }

  (* ---------------------------------------------------------------- *)
  (* Cycle execution                                                   *)

  (* Drain the comb half of the dirty bitset in ascending order.  A
     block execution only marks readers later in topo order — later
     bits of the word being drained or later words — so the word is
     re-read after every block and the lowest set bit processed next:
     blocks always run in ascending index order with fully-updated
     predecessors, at most once per settle — the same guarantee as the
     compiled engine's linear scan.  Stores that wake clock blocks mark
     the clock half directly; [clock] drains it. *)
  let settle t =
    !settle_fault_hook ();
    let module Array = Unchecked in
    let p = t.prog and st = t.st in
    let rt = st.s_rt in
    rt.settles <- rt.settles + 1;
    let dirty = st.s_dirty in
    let code = p.p_code and block_off = p.p_block_off in
    let ev = ref 0 and fe = ref 0 in
    for w = 0 to p.p_n_words - 1 do
      let gbase = w * 63 in
      while dirty.(w) <> 0 do
        let tz = ntz dirty.(w) in
        dirty.(w) <- dirty.(w) land lnot (1 lsl tz);
        incr ev;
        fe := !fe + exec p st code block_off.(gbase + tz)
      done
    done;
    rt.evaluated <- rt.evaluated + !ev;
    rt.fast_evaluated <- rt.fast_evaluated + !fe;
    rt.skipped <- rt.skipped + (p.p_n_assigns - !ev)

  (* Commit in reverse push order — same first-statement-wins and
     out-of-range reporting semantics as the other engines. *)
  let commit t =
    (* Drain indices come from the update buffer and memory addresses
       are range-checked below, so unchecked indexing is safe here
       too. *)
    let module Array = Unchecked in
    let p = t.prog and st = t.st in
    let b = st.s_buf in
    let nf = st.s_n and wf = st.s_w in
    for i = b.u_len - 1 downto 0 do
      match b.u_kind.(i) with
      | 0 ->
        let idx = b.u_a.(i) and v = b.u_iv.(i) in
        if nf.(idx) <> v then begin
          nf.(idx) <- v;
            mark_id p st b.u_b.(i)
        end
      | 1 ->
        let idx = b.u_a.(i) and v = b.u_bv.(i) in
        if not (Bitvec.equal wf.(idx) v) then begin
          wf.(idx) <- v;
          mark_id p st b.u_b.(i)
        end
      | 2 ->
        let mi = b.u_a.(i) and a = b.u_b.(i) in
        let cells = st.s_nmem.(mi) in
        if a >= 0 && a < Array.length cells then begin
          let v = b.u_iv.(i) in
          if cells.(a) <> v then begin
            cells.(a) <- v;
            mark_id p st p.p_nmems.(mi).om_id
          end
        end
        else
          st.s_rt.failures <-
            { at_cycle = st.s_rt.cycle;
              message = Printf.sprintf "write past end of %s" p.p_nmems.(mi).om_name }
            :: st.s_rt.failures
      | _ ->
        let mi = b.u_a.(i) and a = b.u_b.(i) in
        let cells = st.s_wmem.(mi) in
        if a >= 0 && a < Array.length cells then begin
          let v = b.u_bv.(i) in
          if not (Bitvec.equal cells.(a) v) then begin
            cells.(a) <- v;
            mark_id p st p.p_wmems.(mi).om_id
          end
        end
        else
          st.s_rt.failures <-
            { at_cycle = st.s_rt.cycle;
              message = Printf.sprintf "write past end of %s" p.p_wmems.(mi).om_name }
            :: st.s_rt.failures
    done;
    b.u_len <- 0

  (* Drain the clock half of the dirty bitset in ascending block order
     (= original statement order, preserving push order for commit's
     first-statement-wins), always including the pinned mask.  Nothing
     marks clock words during the drain itself — clock code has no
     NSTORE/WSTORE, pushes don't mark — so snapshotting each word is
     safe; marks from [commit] land in the already-cleared words and
     wake blocks for the next cycle. *)
  let clock t =
    let module Array = Unchecked in
    let p = t.prog and st = t.st in
    st.s_buf.u_len <- 0;
    let dirty = st.s_dirty in
    let base = p.p_n_words in
    let code = p.p_clock_code and off = p.p_clock_off in
    let pinned = p.p_clock_pinned in
    for k = 0 to p.p_n_clock_words - 1 do
      let d = ref (dirty.(base + k) lor pinned.(k)) in
      dirty.(base + k) <- 0;
      let bbase = k * 63 in
      while !d <> 0 do
        let tz = ntz !d in
        d := !d land lnot (1 lsl tz);
        let before = st.s_rt.failures in
        ignore (exec p st code off.(bbase + tz) : int);
        (* A failing assertion must re-fire every cycle it fails: a
           block that just recorded a failure re-marks itself. *)
        if st.s_rt.failures != before then
          dirty.(base + k) <- dirty.(base + k) lor (1 lsl tz)
      done
    done;
    let before_commit = st.s_rt.failures in
    commit t;
    (* Commit only records out-of-range write failures; if one fired,
       wake every block that can write out of range so it re-records
       next cycle, like the reference engine re-walking it would. *)
    if st.s_rt.failures != before_commit then begin
      let om = p.p_clock_oob in
      for k = 0 to p.p_n_clock_words - 1 do
        if om.(k) <> 0 then dirty.(base + k) <- dirty.(base + k) lor om.(k)
      done
    end;
    st.s_rt.cycle <- st.s_rt.cycle + 1

  let step t =
    settle t;
    clock t

  let settle_only t = settle t

  let set_input t name v =
    match Hashtbl.find_opt t.prog.p_signals name with
    | None -> fail "unknown input %s" name
    | Some s ->
      if s.o_width <= 63 then begin
        let v = Bitvec.to_int_trunc (Bitvec.resize ~width:s.o_width v) in
        if t.st.s_n.(s.o_idx) <> v then begin
          t.st.s_n.(s.o_idx) <- v;
          mark_id t.prog t.st s.o_id
        end
      end
      else begin
        let v = Bitvec.resize ~width:s.o_width v in
        if not (Bitvec.equal t.st.s_w.(s.o_idx) v) then begin
          t.st.s_w.(s.o_idx) <- v;
          mark_id t.prog t.st s.o_id
        end
      end

  let peek t name =
    match Hashtbl.find_opt t.prog.p_signals name with
    | Some s ->
      if s.o_width <= 63 then Bitvec.of_int ~width:s.o_width t.st.s_n.(s.o_idx)
      else t.st.s_w.(s.o_idx)
    | None -> fail "unknown signal %s" name

  (* Pre-resolved [peek]: the name lookup happens once, the returned
     closure reads the register file directly — for samplers that read
     every signal every cycle. *)
  let reader t name =
    match Hashtbl.find_opt t.prog.p_signals name with
    | Some s ->
      if s.o_width <= 63 then
        let file = t.st.s_n and idx = s.o_idx and w = s.o_width in
        fun () -> Bitvec.of_int ~width:w file.(idx)
      else
        let file = t.st.s_w and idx = s.o_idx in
        fun () -> file.(idx)
    | None -> fail "unknown signal %s" name

  let int_reader t name =
    match Hashtbl.find_opt t.prog.p_signals name with
    | Some s when s.o_width <= 62 ->
      let file = t.st.s_n and idx = s.o_idx in
      fun () -> file.(idx)
    | _ ->
      let r = reader t name in
      fun () -> Bitvec.to_int (r ())

  (* Pre-resolved [set_input], same motivation. *)
  let writer t name =
    match Hashtbl.find_opt t.prog.p_signals name with
    | None -> fail "unknown input %s" name
    | Some s ->
      let prog = t.prog and st = t.st in
      let idx = s.o_idx and w = s.o_width and id = s.o_id in
      if w <= 63 then (fun v ->
        let v = Bitvec.to_int_trunc (Bitvec.resize ~width:w v) in
        if st.s_n.(idx) <> v then begin
          st.s_n.(idx) <- v;
          mark_id prog st id
        end)
      else fun v ->
        let v = Bitvec.resize ~width:w v in
        if not (Bitvec.equal st.s_w.(idx) v) then begin
          st.s_w.(idx) <- v;
          mark_id prog st id
        end

  let signal_width t name =
    match Hashtbl.find_opt t.prog.p_signals name with
    | Some s -> s.o_width
    | None -> (
      match Hashtbl.find_opt t.prog.p_mem_tbl name with
      | Some m -> m.om_elem_width
      | None -> fail "unknown signal %s" name)

  let failures t = List.rev t.st.s_rt.failures
  let cycle t = t.st.s_rt.cycle

  let signal_names t =
    Hashtbl.fold (fun name s acc -> (name, s.o_width) :: acc) t.prog.p_signals []
    |> List.sort compare

  (* Cold path (assertion probes from tests): a tree walk mirroring
     [Reference.eval] against the opcode state. *)
  let eval_bool t expr =
    let natural e = natural_width ~signal_width:(signal_width t) e in
    let rec eval ~width e : Bitvec.t =
      match e with
      | Const b -> Bitvec.resize ~width b
      | Ref name -> Bitvec.resize ~width (peek t name)
      | Index (name, addr) -> (
        match Hashtbl.find_opt t.prog.p_mem_tbl name with
        | Some m -> (
          let a = Bitvec.to_int (eval ~width:(max 1 (natural addr)) addr) in
          if a >= m.om_depth then Bitvec.zero width
          else if m.om_narrow then
            Bitvec.resize ~width (Bitvec.of_int ~width:m.om_elem_width t.st.s_nmem.(m.om_idx).(a))
          else Bitvec.resize ~width t.st.s_wmem.(m.om_idx).(a))
        | None -> fail "indexing non-memory %s" name)
      | Slice (e1, hi, lo) ->
        let v = eval ~width:(max (hi + 1) (natural e1)) e1 in
        Bitvec.resize ~width (Bitvec.extract ~hi ~lo v)
      | Unop (Not, e1) -> Bitvec.lognot (eval ~width e1)
      | Unop (Red_or, e1) ->
        let v = eval ~width:(max 1 (natural e1)) e1 in
        Bitvec.resize ~width (Bitvec.of_bool (not (Bitvec.is_zero v)))
      | Unop (Red_and, e1) ->
        let w = max 1 (natural e1) in
        let v = eval ~width:w e1 in
        Bitvec.resize ~width (Bitvec.of_bool (Bitvec.equal v (Bitvec.ones w)))
      | Binop (((Add | Sub | Mul | And | Or | Xor) as op), a, b) ->
        let x = eval ~width a and y = eval ~width b in
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
        let shift = Bitvec.to_int (eval ~width:(max 1 (natural b)) b) in
        Bitvec.shift_left (eval ~width a) (min shift width)
      | Binop (Shr, a, b) ->
        let shift = Bitvec.to_int (eval ~width:(max 1 (natural b)) b) in
        Bitvec.shift_right_logical (eval ~width a) (min shift width)
      | Binop (((Lt | Le | Gt | Ge | Eq | Ne) as op), a, b) ->
        let w = max 1 (max (natural a) (natural b)) in
        let c = Bitvec.compare (eval ~width:w a) (eval ~width:w b) in
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
        let x = eval ~width:(max 1 (natural a)) a in
        let y = eval ~width:(max 1 (natural b)) b in
        Bitvec.resize ~width (Bitvec.of_bool (not (Bitvec.is_zero x) && not (Bitvec.is_zero y)))
      | Binop (Log_or, a, b) ->
        let x = eval ~width:(max 1 (natural a)) a in
        let y = eval ~width:(max 1 (natural b)) b in
        Bitvec.resize ~width (Bitvec.of_bool (not (Bitvec.is_zero x) || not (Bitvec.is_zero y)))
      | Ternary (c, a, b) ->
        if Bitvec.is_zero (eval ~width:(max 1 (natural c)) c) then eval ~width b
        else eval ~width a
      | Concat [] -> fail "empty concatenation"
      | Concat (e0 :: rest) ->
        let part e = eval ~width:(max 1 (natural e)) e in
        let v = List.fold_left (fun acc e -> Bitvec.concat acc (part e)) (part e0) rest in
        Bitvec.resize ~width v
    in
    not (Bitvec.is_zero (eval ~width:(max 1 (natural expr)) expr))

  let stats t =
    {
      st_cycles = t.st.s_rt.cycle;
      st_settles = t.st.s_rt.settles;
      st_assigns_evaluated = t.st.s_rt.evaluated;
      st_assigns_skipped = t.st.s_rt.skipped;
      st_fastpath_evaluated = t.st.s_rt.fast_evaluated;
      st_narrow_signals = t.prog.p_n_narrow_signals;
      st_wide_signals = t.prog.p_n_wide_signals;
    }
end

(* ================================================================== *)
(* Engine dispatch: the opcode engine is the default; callers pick the  *)
(* closure-based engine with [create ~engine:`Compiled] or the          *)
(* reference walker with [create ~engine:`Reference].                   *)

type engine = [ `Opcode | `Compiled | `Reference ]

let engine_name : engine -> string = function
  | `Opcode -> "opcode"
  | `Compiled -> "compiled"
  | `Reference -> "reference"

let engine_names = [ "opcode"; "compiled"; "reference" ]

let engine_of_string : string -> engine option = function
  | "opcode" -> Some `Opcode
  | "compiled" -> Some `Compiled
  | "reference" -> Some `Reference
  | _ -> None

type impl = O of Opcode.t | C of Compiled.t | R of Reference.t

(* [fresh] builds another simulator over the same design for [fork]:
   the opcode engine shares its compiled program, the others rebuild
   from the flattened design — only their closures keep it alive, so a
   long-lived opcode simulator does not hold the netlist. *)
type t = { impl : impl; fresh : unit -> impl; engine : engine }

let create ?(engine = `Opcode) flat =
  let impl, fresh =
    match engine with
    | `Opcode ->
      let o = Opcode.create flat in
      (O o, fun () -> O (Opcode.fork o))
    | `Compiled -> (C (Compiled.create flat), fun () -> C (Compiled.create flat))
    | `Reference -> (R (Reference.create flat), fun () -> R (Reference.create flat))
  in
  { impl; fresh; engine }

let engine t = t.engine

(* Every engine settles on the calling domain, so this is always 1; it
   remains because perfbench/sim_batch.ml reports it. *)
let partitions (_ : t) = 1

(* A fresh simulator over the same design: the opcode engine forks its
   state and shares the compiled program; the others recompile. *)
let fork t = { t with impl = t.fresh () }

let signal_width t name =
  match t.impl with
  | O o -> Opcode.signal_width o name
  | C c -> Compiled.signal_width c name
  | R r -> Reference.signal_width r name

let set_input t name v =
  match t.impl with
  | O o -> Opcode.set_input o name v
  | C c -> Compiled.set_input c name v
  | R r -> Reference.set_input r name v

let peek t name =
  match t.impl with
  | O o -> Opcode.peek o name
  | C c -> Compiled.peek c name
  | R r -> Reference.peek r name

(* A pre-resolved [peek]: the name lookup happens once, the returned
   closure reads the current value directly.  The VCD sampler uses this
   to avoid a hashtable probe per signal per cycle. *)
let reader t name =
  match t.impl with
  | O o -> Opcode.reader o name
  | C c -> Compiled.reader c name
  | R r -> fun () -> Reference.peek r name

(* [reader] as [Bitvec.to_int] of the value, for narrow control signals
   sampled every cycle (memory-port enables and addresses): on the
   opcode engine a read allocates nothing. *)
let int_reader t name =
  match t.impl with
  | O o -> Opcode.int_reader o name
  | C _ | R _ ->
    let r = reader t name in
    fun () -> Bitvec.to_int (r ())

(* A pre-resolved [set_input]; same contract as [reader]. *)
let writer t name =
  match t.impl with
  | O o -> Opcode.writer o name
  | C c -> Compiled.writer c name
  | R r -> fun v -> Reference.set_input r name v

let clock t =
  match t.impl with O o -> Opcode.clock o | C c -> Compiled.clock c | R r -> Reference.clock r

let step t =
  match t.impl with O o -> Opcode.step o | C c -> Compiled.step c | R r -> Reference.step r

let settle_only t =
  match t.impl with
  | O o -> Opcode.settle_only o
  | C c -> Compiled.settle_only c
  | R r -> Reference.settle_only r

let failures t =
  match t.impl with
  | O o -> Opcode.failures o
  | C c -> Compiled.failures c
  | R r -> Reference.failures r

let cycle t =
  match t.impl with O o -> Opcode.cycle o | C c -> Compiled.cycle c | R r -> Reference.cycle r

let signal_names t =
  match t.impl with
  | O o -> Opcode.signal_names o
  | C c -> Compiled.signal_names c
  | R r -> Reference.signal_names r

let eval_bool t expr =
  match t.impl with
  | O o -> Opcode.eval_bool o expr
  | C c -> Compiled.eval_bool c expr
  | R r -> Reference.eval_bool r expr

let stats t =
  match t.impl with
  | O o -> Opcode.stats o
  | C c -> Compiled.stats c
  | R r -> Reference.stats r

(* Report this run's statistics into the innermost [Pass.with_counters]
   collector (a no-op outside one), so `hirc --stats` and the Chrome
   traces cover simulation alongside the compiler passes. *)
let record_stats t =
  let s = stats t in
  let c n v = Hir_ir.Pass.record_counter ~n:v ("sim." ^ n) in
  c "cycles" s.st_cycles;
  c "settles" s.st_settles;
  c "assigns_evaluated" s.st_assigns_evaluated;
  c "assigns_skipped" s.st_assigns_skipped;
  c "fastpath_evaluated" s.st_fastpath_evaluated;
  c "narrow_signals" s.st_narrow_signals;
  c "wide_signals" s.st_wide_signals
