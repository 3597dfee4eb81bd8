(* Two-phase cycle-accurate simulator for the flattened synthesizable
   subset:

     phase 1  settle combinational logic (assigns in topological order)
     phase 2  evaluate all always @(posedge clk) statements against the
              settled state, then commit register and memory updates

   Width semantics follow Verilog's context-determined evaluation as
   documented in [Hir_verilog.Ast].

   The engine is compile-once, run-many ([Opcode], included below so
   every name is [Sim.*]).  At [create] time every signal name is
   resolved to a slot in a dense register file, and every assign and
   always block is compiled to a flat block of integer opcodes with
   its context widths precomputed.  Both phases are event-driven: per
   cycle only assigns whose sources actually changed are re-evaluated,
   in topological order, and a clock edge skips the always blocks
   whose inputs did not change (see [Opcode.create] for the
   exceptions).  Signals of width <= 63 live unboxed on native OCaml
   ints with masking; wider signals fall back to [Bitvec].

   Its oracle is the tree-walking reference simulator in
   test/sim_reference.ml, the executable specification of the width
   semantics; test_sim_equiv and test_rtl compare the two. *)

open Hir_verilog.Ast

exception Sim_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Sim_error s)) fmt

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
   story that [wire_deps] deliberately excludes.  The opcode engine
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

(* Per-run statistics, surfaced through [Metrics.record] so
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
(* Runtime pieces of the opcode engine                                 *)

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
(* Opcode engine                                                       *)

(* Every assign is compiled once into a flat block of integer opcodes
   over dense register files — narrow values (width <= 63) in one
   [int array], wide values in a [Bitvec.t array], with constants and
   scratch temporaries materialized as extra slots of the same files.
   A settle is then one tight [exec] match loop with no closure calls
   and no tree traversal.

   Width semantics are those of the reference walker's [eval],
   resolved at compile time: every evaluation point gets its context
   width (assignment at the target's width, comparisons at the wider
   operand's natural width, self-determined shifts, slices and
   concatenations) and picks the narrow or the wide opcode family by
   that width, so a narrow context can still dive into wide
   subexpressions and vice versa.
   The qcheck lockstep suite in test_sim_equiv checks the result
   against the reference walker.  Two intentional differences: a mux
   evaluates both arms before selecting — safe because expressions are
   pure (memory reads out of range yield 0 and cannot fail), and
   cheaper than a branch per node — and a shift amount or memory
   address too large for an int, where the reference walker fails in
   [Bitvec.to_int], zero-fills the shift and reads or writes out of
   range.

   Dirty tracking uses a bitset (63 assigns per word): a settle skips
   clean regions a word at a time, so the per-cycle cost is
   proportional to the work actually done, not to netlist size.

   Because the program is immutable and all mutable state lives in
   [state], [fork] is a deep copy of the register files — callers
   that run many stimuli elaborate and compile once and fork per
   stimulus. *)

module Opcode = struct
  (* A signal's slot: [o_idx] indexes the narrow or the wide register
     file by width; [o_id] is the dense dependency id shared with
     memories. *)
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
     result; [comp_w] is the wide/boxed path.  Both follow
     the reference walker's width rules case by case — any semantic
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
    (* Slot allocation: narrow signals share one int register file,
       wide ones a Bitvec file; every signal and memory also gets a
       dense id in the dependency graph. *)
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
     predecessors, at most once per settle, so one pass is a
     fixpoint.  Stores that wake clock blocks mark the clock half
     directly; [clock] drains it. *)
  let settle t =
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

  (* Commit in reverse push order, replicating the reference walker's
     list-accumulated semantics exactly: with several updates to one
     target in a cycle, the first statement executed wins, and
     out-of-range memory writes report in that same order. *)
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

  (* [reader] as [Bitvec.to_int] of the value, for narrow control
     signals sampled every cycle (memory-port enables and addresses):
     a read allocates nothing. *)
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

  let failures t = List.rev t.st.s_rt.failures

  let signal_names t =
    Hashtbl.fold (fun name s acc -> (name, s.o_width) :: acc) t.prog.p_signals []
    |> List.sort compare

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

include Opcode

(* Every settle runs on the calling domain, so this is always 1; it
   remains because perfbench/sim_batch.ml reports it. *)
let partitions (_ : t) = 1

(* Report this run's statistics into the innermost [Metrics] scope (a
   no-op outside one), so `hirc --stats` and the Chrome traces cover
   simulation alongside the compiler passes. *)
let record_stats s =
  let c n v = Hir_ir.Metrics.record ~n:v ("sim." ^ n) in
  c "cycles" s.st_cycles;
  c "settles" s.st_settles;
  c "assigns_evaluated" s.st_assigns_evaluated;
  c "assigns_skipped" s.st_assigns_skipped;
  c "fastpath_evaluated" s.st_fastpath_evaluated;
  c "narrow_signals" s.st_narrow_signals;
  c "wide_signals" s.st_wide_signals
