(* Structural IR verification:

   - every operand is defined before use: either by an earlier op in the
     same block, by an enclosing block's arguments, or by an op that
     strictly encloses the use (SSA dominance for nested regions);
   - result/operand arrays carry types consistent with the value;
   - registered per-op dialect verifiers hold.

   Schedule verification (the paper's Section 6.1) is a separate,
   HIR-specific pass in [Hir_dialect.Verify_schedule]. *)

open Ir

(* Use-list ↔ operand consistency.  For the tree rooted at [root]:

   - every operand slot of every op in the tree appears exactly once in
     the use list of the value it currently reads;
   - every node in a tree value's use list is owned by an op inside the
     tree (no stale uses from erased or foreign ops), and reads back
     that same value.

   Rewrites that forget to link/unlink (or erase an op without its
   nested region ops) corrupt these chains silently — the worklist
   driver would then miss or resurrect work — so this runs as part of
   structural verification. *)
let check_use_lists ~engine root =
  (* Each op in the tree by id, with one counter per operand slot: the
     number of chain occurrences of that slot.  Also each value in the
     tree (results + block args). *)
  let no_slots = [||] in
  let tree_ops : (int, op * int array) Hashtbl.t = Hashtbl.create 256 in
  let values = ref [] in
  Walk.ops_pre root ~f:(fun op ->
      let n = Array.length op.operands in
      Hashtbl.replace tree_ops op.op_id (op, if n = 0 then no_slots else Array.make n 0);
      Array.iter (fun v -> values := v :: !values) op.results;
      List.iter
        (fun r ->
          List.iter
            (fun b -> Array.iter (fun a -> values := a :: !values) b.b_args)
            (Region.blocks r))
        op.regions);
  let tree_values : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  List.iter (fun v -> Hashtbl.replace tree_values v.v_id ()) !values;
  List.iter
    (fun v ->
      Value.fold_uses v ~init:() ~f:(fun () owner idx ->
          match Hashtbl.find_opt tree_ops owner.op_id with
          | None ->
            Diagnostic.Engine.errorf engine owner.loc
              "stale use: value %%%d has a use-list entry owned by '%s' (op %d), which is not in the IR tree"
              v.v_id owner.op_name owner.op_id
          | Some (_, counts) ->
            if not (Value.equal owner.operands.(idx) v) then
              Diagnostic.Engine.errorf engine owner.loc
                "use-list corruption: operand %d of '%s' reads %%%d but sits in the use list of %%%d"
                idx owner.op_name (Value.id owner.operands.(idx)) v.v_id
            else counts.(idx) <- counts.(idx) + 1))
    !values;
  Hashtbl.iter
    (fun _ (op, counts) ->
      Array.iteri
        (fun i v ->
          match counts.(i) with
          | 1 -> ()
          | 0 ->
            (* Values defined outside the tree (verifying a detached
               fragment) have chains we never scanned; only slots whose
               value we did scan can be declared missing. *)
            if Hashtbl.mem tree_values v.v_id then
              Diagnostic.Engine.errorf engine op.loc
                "use-list corruption: operand %d of '%s' is missing from the use list of %%%d"
                i op.op_name v.v_id
          | n ->
            Diagnostic.Engine.errorf engine op.loc
              "use-list corruption: operand %d of '%s' appears %d times in its value's use list"
              i op.op_name n)
        op.operands)
    tree_ops

let verify_op ?(engine = Diagnostic.Engine.create ()) root =
  let visible : (int, unit) Hashtbl.t = Hashtbl.create 256 in
  let add v = Hashtbl.replace visible v.v_id () in
  let remove v = Hashtbl.remove visible v.v_id in
  let rec check_op op =
    Array.iteri
      (fun i v ->
        if not (Hashtbl.mem visible v.v_id) then
          Diagnostic.Engine.errorf engine op.loc
            "operand %d of '%s' does not dominate its use" i op.op_name)
      op.operands;
    (match Dialect.lookup_op op.op_name with
    | Some def -> def.od_verify op engine
    | None ->
      Diagnostic.Engine.errorf engine op.loc "unregistered operation '%s'"
        op.op_name);
    (* Results become visible to subsequent ops in this block, and we
       also make them visible before walking nested regions so regions
       can refer to enclosing defs textually before them?  No: MLIR
       semantics are that results are NOT visible inside the op's own
       regions; only prior defs and block args are.  We follow MLIR. *)
    List.iter
      (fun r ->
        List.iter
          (fun b ->
            let ops = Block.ops b in
            Array.iter add b.b_args;
            List.iter check_op ops;
            (* leaving scope: region-local defs go out of scope *)
            List.iter (fun o -> Array.iter remove o.results) ops;
            Array.iter remove b.b_args)
          r.blocks)
      op.regions;
    Array.iter add op.results
  in
  check_op root;
  check_use_lists ~engine root;
  engine

let verify root =
  let engine = verify_op root in
  if Diagnostic.Engine.has_errors engine then Error engine else Ok ()
