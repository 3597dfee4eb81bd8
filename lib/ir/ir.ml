(* The structural core of the IR: SSA values, operations, blocks and
   regions, with the same containment model as MLIR:

     op -> regions -> blocks -> ops

   Everything is mutable so that passes can rewrite in place; the
   [Builder] module provides the safe construction API and [Verify]
   checks structural invariants after surgery.

   Use-def chains: every operand slot of an op is a [use] node linked
   into the defining value's intrusive doubly-linked use list, exactly
   as in MLIR's IROperand.  [Value.replace_all_uses], [Value.has_uses]
   and [Value.users] are therefore O(uses of the value), not O(module)
   — the property the worklist rewrite driver ([Rewrite]) is built on.

   Linking discipline: an op's operand slots are linked while the op is
   *live* — from [Op.create] until it is erased.  [Block.remove]
   detaches an op and unlinks its slots; re-inserting it links them
   again.  Moving ops wholesale between blocks ([Block.transfer_before])
   keeps the links, since a use node does not care which block its
   owner sits in. *)

type value = {
  v_id : int;
  mutable v_type : Typ.t;
  mutable v_hint : string option;  (* preferred printed name, e.g. "ti" *)
  mutable v_def : def;
  mutable v_first_use : use option;  (* head of the intrusive use list *)
}

and def =
  | Op_result of op * int
  | Block_arg of block * int

(* One operand slot of [u_owner]: slot [u_index] currently reads
   [u_owner.operands.(u_index)], and when linked this node sits in that
   value's use chain. *)
and use = {
  u_owner : op;
  u_index : int;
  mutable u_prev : use option;  (* None: head of the chain *)
  mutable u_next : use option;
}

and op = {
  op_id : int;
  mutable op_name : string;  (* fully qualified, e.g. "hir.mem_read" *)
  mutable operands : value array;
  mutable op_slots : use array;  (* parallel to [operands] *)
  mutable op_linked : bool;  (* are the slots in their values' chains? *)
  mutable results : value array;
  mutable attrs : (string * Attribute.t) list;
  mutable regions : region list;
  mutable loc : Location.t;
  mutable op_parent : block option;
}

(* Blocks keep their ops as a normalized prefix plus a reversed suffix
   of recent appends, so [append] is O(1) amortized (block construction
   by the parser, the builder and [Clone] used to be quadratic).  Any
   operation that needs the full program order first folds the suffix
   back in. *)
and block = {
  b_id : int;
  mutable b_args : value array;
  mutable b_front : op list;  (* program-order prefix *)
  mutable b_back_rev : op list;  (* appended suffix, most recent first *)
  mutable b_parent : region option;
}

and region = {
  r_id : int;
  mutable blocks : block list;
  mutable r_parent : op option;
}

(* Id allocation is domain-local: each OCaml 5 domain owns an
   independent counter, so concurrent compilation jobs (lib/driver's
   batch scheduler) never race on it.  Ids are only required to be
   unique within one IR tree — every compile job builds its module from
   scratch inside [with_isolated_ids], which also makes the id stream
   (and therefore the id-derived names in the emitted Verilog)
   deterministic per job regardless of what ran before or concurrently. *)
let next_id = Domain.DLS.new_key (fun () -> 0)

let fresh_id () =
  let v = Domain.DLS.get next_id + 1 in
  Domain.DLS.set next_id v;
  v

(* Run [f] with a fresh id counter, restoring the previous counter
   afterwards.  IR created inside the scope must not be mixed into IR
   trees created outside it (ids could collide). *)
let with_isolated_ids f =
  let saved = Domain.DLS.get next_id in
  Domain.DLS.set next_id 0;
  Fun.protect ~finally:(fun () -> Domain.DLS.set next_id saved) f

(* ------------------------------------------------------------------ *)
(* Use-list plumbing.  All comparisons on use nodes are physical: the
   structure is cyclic, so structural equality must never be used. *)

let link_slot node =
  let v = node.u_owner.operands.(node.u_index) in
  node.u_prev <- None;
  node.u_next <- v.v_first_use;
  (match v.v_first_use with Some h -> h.u_prev <- Some node | None -> ());
  v.v_first_use <- Some node

let unlink_slot node =
  let v = node.u_owner.operands.(node.u_index) in
  (match node.u_prev with
  | Some p -> p.u_next <- node.u_next
  | None -> v.v_first_use <- node.u_next);
  (match node.u_next with Some n -> n.u_prev <- node.u_prev | None -> ());
  node.u_prev <- None;
  node.u_next <- None

let link_op op =
  if not op.op_linked then begin
    op.op_linked <- true;
    Array.iter link_slot op.op_slots
  end

let unlink_op op =
  if op.op_linked then begin
    Array.iter unlink_slot op.op_slots;
    op.op_linked <- false
  end

(* ------------------------------------------------------------------ *)
(* Values                                                              *)

module Value = struct
  type t = value

  let create ?hint typ def =
    { v_id = fresh_id (); v_type = typ; v_hint = hint; v_def = def; v_first_use = None }

  let typ v = v.v_type
  let set_type v t = v.v_type <- t
  let hint v = v.v_hint
  let set_hint v h = v.v_hint <- Some h
  let id v = v.v_id
  let equal a b = a.v_id = b.v_id
  let compare a b = Int.compare a.v_id b.v_id
  let hash v = v.v_id

  let defining_op v =
    match v.v_def with Op_result (op, _) -> Some op | Block_arg _ -> None

  let result_index v =
    match v.v_def with Op_result (_, i) -> Some i | Block_arg _ -> None

  let defining_block v =
    match v.v_def with Block_arg (b, _) -> Some b | Op_result _ -> None

  let is_block_arg v =
    match v.v_def with Block_arg _ -> true | Op_result _ -> false

  (* O(uses) queries over the intrusive chain.  The (op, operand index)
     pairs are live slots of live ops; a detached-but-not-erased op
     (mid-splice) is not in any chain. *)

  let fold_uses v ~init ~f =
    let rec go acc = function
      | None -> acc
      | Some node -> go (f acc node.u_owner node.u_index) node.u_next
    in
    go init v.v_first_use

  (* Snapshot of the use slots, in chain order (most recently linked
     first).  Safe to mutate the IR while iterating the snapshot. *)
  let uses v = List.rev (fold_uses v ~init:[] ~f:(fun acc op i -> (op, i) :: acc))

  (* Distinct ops reading [v], deduplicated. *)
  let users v =
    let seen = Hashtbl.create 8 in
    List.filter_map
      (fun (op, _) ->
        if Hashtbl.mem seen op.op_id then None
        else begin
          Hashtbl.add seen op.op_id ();
          Some op
        end)
      (uses v)

  let num_uses v = fold_uses v ~init:0 ~f:(fun n _ _ -> n + 1)
  let has_uses v = match v.v_first_use with Some _ -> true | None -> false

  let has_one_use v =
    match v.v_first_use with
    | Some node -> node.u_next = None
    | None -> false

  (* The single use slot of [v], if there is exactly one. *)
  let single_use v =
    match v.v_first_use with
    | Some node when node.u_next = None -> Some (node.u_owner, node.u_index)
    | _ -> None

  (* Redirect every linked use of [old_v] to [new_v]: O(uses of old_v).
     The whole chain is spliced onto [new_v]'s in one pass. *)
  let replace_all_uses old_v new_v =
    if not (equal old_v new_v) then begin
      match old_v.v_first_use with
      | None -> ()
      | Some first ->
        let rec retarget node =
          node.u_owner.operands.(node.u_index) <- new_v;
          match node.u_next with None -> node | Some next -> retarget next
        in
        let last = retarget first in
        last.u_next <- new_v.v_first_use;
        (match new_v.v_first_use with Some h -> h.u_prev <- Some last | None -> ());
        new_v.v_first_use <- Some first;
        old_v.v_first_use <- None
    end
end

module Value_map = Map.Make (struct
  type t = value

  let compare = Value.compare
end)

module Value_set = Set.Make (struct
  type t = value

  let compare = Value.compare
end)

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)

module Op = struct
  type t = op

  let name op = op.op_name
  let operands op = Array.to_list op.operands
  let operand op i = op.operands.(i)
  let num_operands op = Array.length op.operands
  let results op = Array.to_list op.results
  let result op i = op.results.(i)
  let num_results op = Array.length op.results
  let regions op = op.regions
  let region op i = List.nth op.regions i
  let loc op = op.loc
  let parent op = op.op_parent
  let equal a b = a.op_id = b.op_id

  let attr op key = List.assoc_opt key op.attrs
  let has_attr op key = List.mem_assoc key op.attrs

  let set_attr op key value =
    op.attrs <- (key, value) :: List.remove_assoc key op.attrs

  let remove_attr op key = op.attrs <- List.remove_assoc key op.attrs

  let int_attr op key =
    match attr op key with Some a -> Attribute.as_int a | None -> failwith (op.op_name ^ ": missing attr " ^ key)

  let int_attr_opt op key = Option.map Attribute.as_int (attr op key)

  let string_attr op key =
    match attr op key with Some a -> Attribute.as_string a | None -> failwith (op.op_name ^ ": missing attr " ^ key)

  let symbol_attr op key =
    match attr op key with Some a -> Attribute.as_symbol a | None -> failwith (op.op_name ^ ": missing attr " ^ key)

  let set_operand op i v =
    if op.op_linked then begin
      unlink_slot op.op_slots.(i);
      op.operands.(i) <- v;
      link_slot op.op_slots.(i)
    end
    else op.operands.(i) <- v

  let make_slots op =
    Array.init (Array.length op.operands) (fun i ->
        { u_owner = op; u_index = i; u_prev = None; u_next = None })

  let set_operands op vs =
    let was_linked = op.op_linked in
    unlink_op op;
    op.operands <- Array.of_list vs;
    op.op_slots <- make_slots op;
    if was_linked then link_op op

  (* Create a detached op.  Result values are created from the given
     result types; operand slots are linked into their values' use
     chains immediately (a detached-but-live op is still a user). *)
  let create ?(attrs = []) ?(regions = []) ?(loc = Location.unknown)
      ?(result_hints = []) name ~operands ~result_types =
    let rec hint_at i = function
      | [] -> None
      | h :: _ when i = 0 -> h
      | _ :: rest -> hint_at (i - 1) rest
    in
    let op =
      {
        op_id = fresh_id ();
        op_name = name;
        operands = Array.of_list operands;
        op_slots = [||];
        op_linked = false;
        results = [||];
        attrs;
        regions;
        loc;
        op_parent = None;
      }
    in
    op.op_slots <- make_slots op;
    link_op op;
    op.results <-
      Array.of_list
        (List.mapi
           (fun i ty -> Value.create ?hint:(hint_at i result_hints) ty (Op_result (op, i)))
           result_types);
    List.iter (fun r -> r.r_parent <- Some op) regions;
    op

  (* The region (if any) that encloses this op transitively at the
     given nesting distance of 1. *)
  let parent_region op = Option.bind op.op_parent (fun b -> b.b_parent)
  let parent_op op = Option.bind (parent_region op) (fun r -> r.r_parent)

  let rec ancestors op =
    match parent_op op with None -> [] | Some p -> p :: ancestors p
end

(* ------------------------------------------------------------------ *)
(* Blocks                                                              *)

module Block = struct
  type t = block

  let create ?(arg_hints = []) arg_types =
    let b =
      { b_id = fresh_id (); b_args = [||]; b_front = []; b_back_rev = []; b_parent = None }
    in
    let rec hint_at i = function
      | [] -> None
      | h :: _ when i = 0 -> h
      | _ :: rest -> hint_at (i - 1) rest
    in
    b.b_args <-
      Array.of_list
        (List.mapi
           (fun i ty -> Value.create ?hint:(hint_at i arg_hints) ty (Block_arg (b, i)))
           arg_types);
    b

  let args b = Array.to_list b.b_args
  let arg b i = b.b_args.(i)
  let num_args b = Array.length b.b_args

  (* Fold the append suffix back into the program-order prefix. *)
  let normalize b =
    match b.b_back_rev with
    | [] -> ()
    | back ->
      b.b_front <- b.b_front @ List.rev back;
      b.b_back_rev <- []

  let ops b =
    normalize b;
    b.b_front

  let parent b = b.b_parent
  let equal a b = a.b_id = b.b_id

  let append b op =
    assert (op.op_parent = None);
    op.op_parent <- Some b;
    link_op op;
    b.b_back_rev <- op :: b.b_back_rev

  let insert_before b ~anchor op =
    assert (op.op_parent = None);
    op.op_parent <- Some b;
    link_op op;
    normalize b;
    let rec go = function
      | [] -> [ op ]  (* anchor not found: append *)
      | o :: rest when Op.equal o anchor -> op :: o :: rest
      | o :: rest -> o :: go rest
    in
    b.b_front <- go b.b_front

  let insert_after b ~anchor op =
    assert (op.op_parent = None);
    op.op_parent <- Some b;
    link_op op;
    normalize b;
    let rec go = function
      | [] -> [ op ]
      | o :: rest when Op.equal o anchor -> o :: op :: rest
      | o :: rest -> o :: go rest
    in
    b.b_front <- go b.b_front

  (* Detach [op]: its operand slots leave their use chains (an erased
     or parked op must not hold other values alive).  Re-inserting the
     op links them again. *)
  let remove b op =
    normalize b;
    b.b_front <- List.filter (fun o -> not (Op.equal o op)) b.b_front;
    op.op_parent <- None;
    unlink_op op

  (* Move every op of [src] into [dst] before [anchor], preserving
     order, in one splice (O(dst + src), not O(dst * src)).  The moved
     ops keep their use links — only their parent changes.  Returns the
     moved ops in order. *)
  let transfer_before dst ~anchor src =
    normalize src;
    let moved = src.b_front in
    src.b_front <- [];
    src.b_back_rev <- [];
    List.iter (fun o -> o.op_parent <- Some dst) moved;
    normalize dst;
    let rec go = function
      | [] -> moved
      | o :: rest when Op.equal o anchor -> moved @ (o :: rest)
      | o :: rest -> o :: go rest
    in
    dst.b_front <- go dst.b_front;
    moved
end

(* Erase [op] for good: detach it from its block and unlink every
   operand slot in its whole subtree (ops nested in its regions would
   otherwise leave stale use nodes on live values). *)
let erase_op op =
  let rec unlink_tree o =
    unlink_op o;
    List.iter
      (fun r -> List.iter (fun b -> List.iter unlink_tree (Block.ops b)) r.blocks)
      o.regions
  in
  (match op.op_parent with Some b -> Block.remove b op | None -> ());
  unlink_tree op

(* ------------------------------------------------------------------ *)
(* Regions                                                             *)

module Region = struct
  type t = region

  let create ?(blocks = []) () =
    let r = { r_id = fresh_id (); blocks; r_parent = None } in
    List.iter (fun b -> b.b_parent <- Some r) blocks;
    r

  let blocks r = r.blocks
  let parent r = r.r_parent
  let equal a b = a.r_id = b.r_id

  let append_block r b =
    assert (b.b_parent = None);
    b.b_parent <- Some r;
    r.blocks <- r.blocks @ [ b ]

  let entry_block r =
    match r.blocks with [] -> None | b :: _ -> Some b

  let rec ancestor_ops r =
    match r.r_parent with
    | None -> []
    | Some op -> (
      op :: (match Op.parent_region op with None -> [] | Some r' -> ancestor_ops r'))

  (* Is [inner] nested within (or equal to) [outer]? *)
  let rec is_nested_in ~outer inner =
    if equal inner outer then true
    else
      match inner.r_parent with
      | None -> false
      | Some op -> (
        match Op.parent_region op with
        | None -> false
        | Some r -> is_nested_in ~outer r)
end

(* ------------------------------------------------------------------ *)
(* Traversal utilities                                                 *)

module Walk = struct
  (* Pre-order walk over every op nested under [op], including [op]. *)
  let rec ops_pre op ~f =
    f op;
    List.iter
      (fun r -> List.iter (fun b -> List.iter (fun o -> ops_pre o ~f) (Block.ops b)) r.blocks)
      op.regions

  (* Post-order: children first. *)
  let rec ops_post op ~f =
    List.iter
      (fun r -> List.iter (fun b -> List.iter (fun o -> ops_post o ~f) (Block.ops b)) r.blocks)
      op.regions;
    f op

  let collect op ~pred =
    let acc = ref [] in
    ops_pre op ~f:(fun o -> if pred o then acc := o :: !acc);
    List.rev !acc

  let find_all op name = collect op ~pred:(fun o -> o.op_name = name)
end

(* ------------------------------------------------------------------ *)
(* Cloning                                                             *)

module Clone = struct
  (* Deep-clone an op.  [mapping] seeds value substitutions (e.g. to
     substitute a block arg with a constant when unrolling); the
     returned table includes mappings for all cloned results and block
     args.  An operand with no mapping yet — defined outside [op], or
     later in program order — becomes [unmapped v], by default [v]
     itself.  Cloned ops link their operand slots as they are created,
     so the clone's use lists are consistent from the start.

     Ids are allocated in the order [Parser] allocates them for the
     printed form of [op]: a block, then its arguments, then its ops;
     an op's regions before the op and its results; a region after its
     blocks. *)
  let rec clone_op ?(mapping = Hashtbl.create 16) ?(unmapped = Fun.id) op =
    let map_value v =
      match Hashtbl.find_opt mapping v.v_id with Some v' -> v' | None -> unmapped v
    in
    let operands = Array.to_list (Array.map map_value op.operands) in
    let regions = List.map (clone_region ~mapping ~unmapped) op.regions in
    let cloned =
      Op.create ~attrs:op.attrs ~regions ~loc:op.loc op.op_name ~operands
        ~result_types:(List.map (fun r -> r.v_type) (Array.to_list op.results))
    in
    Array.iteri
      (fun i r ->
        cloned.results.(i).v_hint <- r.v_hint;
        Hashtbl.replace mapping r.v_id cloned.results.(i))
      op.results;
    cloned

  and clone_region ~mapping ~unmapped r =
    let blocks = List.map (clone_block ~mapping ~unmapped) r.blocks in
    Region.create ~blocks ()

  and clone_block ~mapping ?(unmapped = Fun.id) b =
    let nb = Block.create (List.map (fun a -> a.v_type) (Block.args b)) in
    Array.iteri
      (fun i a ->
        nb.b_args.(i).v_hint <- a.v_hint;
        (* Respect substitutions seeded by the caller (e.g. an unroll
           pass mapping the induction variable to a constant). *)
        if not (Hashtbl.mem mapping a.v_id) then
          Hashtbl.replace mapping a.v_id nb.b_args.(i))
      b.b_args;
    List.iter (fun op -> Block.append nb (clone_op ~mapping ~unmapped op)) (Block.ops b);
    nb
end
