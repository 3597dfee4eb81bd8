(* The pre-use-list canonicalizer: every query and rewrite re-walks the
   whole module, and canonicalize loops const-fold, strength reduction,
   DCE and CSE to a fixpoint.  It is an independent implementation of
   the normal form [Passes.canonicalize] reaches with the greedy
   worklist driver, kept as the oracle for the differential tests.
   Mutations route through [Ir.Op.set_operand] / [Ir.erase_op], so use
   lists stay consistent; only the query complexity is quadratic. *)

open Hir_ir
open Hir_dialect

let replace_uses ~root ~old_v ~new_v =
  Ir.Walk.ops_pre root ~f:(fun op ->
      Array.iteri
        (fun i v -> if Ir.Value.equal v old_v then Ir.Op.set_operand op i new_v)
        op.Ir.operands)

let count_uses ~root v =
  let n = ref 0 in
  Ir.Walk.ops_pre root ~f:(fun op ->
      Array.iter (fun u -> if Ir.Value.equal u v then incr n) op.Ir.operands);
  !n

let has_uses ~root v = count_uses ~root v > 0

let run_dce module_op =
  let changed = ref false in
  let rec fixpoint () =
    let removed = ref false in
    let candidates = ref [] in
    Ir.Walk.ops_post module_op ~f:(fun op ->
        if Passes.dce_removable op then candidates := op :: !candidates);
    List.iter
      (fun op ->
        let used =
          List.exists (fun r -> has_uses ~root:module_op r) (Ir.Op.results op)
        in
        if not used then begin
          Ir.erase_op op;
          removed := true;
          changed := true
        end)
      !candidates;
    if !removed then fixpoint ()
  in
  fixpoint ();
  !changed

let run_const_fold module_op =
  let changed = ref false in
  let worklist = ref [] in
  Ir.Walk.ops_pre module_op ~f:(fun op ->
      if Passes.is_pure op && Ir.Op.name op <> "hir.constant" then
        worklist := op :: !worklist);
  (* Program order, so a folded def feeds folds of its users in the
     same pass. *)
  let worklist = ref (List.rev !worklist) in
  List.iter
    (fun op ->
      let const_operands = List.map Ops.as_constant (Ir.Op.operands op) in
      if List.for_all Option.is_some const_operands then begin
        let vals = List.map (Option.value ~default:0) const_operands in
        let folded =
          match (Ir.Op.name op, vals) with
          | name, [ a; b ] -> Ops.fold_binary name a b
          | "hir.not", [ a ] -> Some (lnot a)
          | ("hir.zext" | "hir.sext" | "hir.trunc"), [ a ] -> Some a
          | "hir.select", [ c; x; y ] -> Some (if c <> 0 then x else y)
          | _ -> None
        in
        match folded with
        | None -> ()
        | Some value ->
          (match Ir.Op.parent op with
          | None -> ()
          | Some block ->
            let new_const =
              Ir.Op.create ~loc:(Ir.Op.loc op)
                ~attrs:[ ("value", Attribute.Int value) ]
                "hir.constant" ~operands:[] ~result_types:[ Types.Const ]
            in
            Ir.Block.insert_before block ~anchor:op new_const;
            replace_uses ~root:module_op
              ~old_v:(Ir.Op.result op 0)
              ~new_v:(Ir.Op.result new_const 0);
            Ir.erase_op op;
            changed := true)
      end)
    !worklist;
  !changed

let run_cse module_op =
  let changed = ref false in
  let table : (string * int list * (string * Attribute.t) list, Ir.value) Hashtbl.t =
    Hashtbl.create 64
  in
  let rec walk_block block =
    let added = ref [] in
    List.iter
      (fun op ->
        if Passes.is_pure op && Ir.Op.num_results op = 1 then begin
          let key = Passes.cse_key op in
          match Hashtbl.find_opt table key with
          | Some existing ->
            replace_uses ~root:module_op ~old_v:(Ir.Op.result op 0)
              ~new_v:existing;
            (* The op itself is now dead; leave removal to DCE so we
               don't mutate the list we are iterating. *)
            changed := true
          | None ->
            Hashtbl.add table key (Ir.Op.result op 0);
            added := key :: !added
        end;
        List.iter
          (fun r -> List.iter (fun b -> walk_block b) (Ir.Region.blocks r))
          (Ir.Op.regions op))
      (Ir.Block.ops block);
    List.iter (Hashtbl.remove table) !added
  in
  (match Ir.Op.regions module_op with
  | [ r ] -> List.iter walk_block (Ir.Region.blocks r)
  | _ -> ());
  if !changed then ignore (run_dce module_op);
  !changed

let run_strength_reduction module_op =
  let changed = ref false in
  let worklist = ref [] in
  Ir.Walk.ops_pre module_op ~f:(fun op -> worklist := op :: !worklist);
  List.iter
    (fun op ->
      let replace_with_value v =
        (* Keep the IR typed: only forward a value that has the same
           type as the result. *)
        let type_ok =
          Typ.equal (Ir.Value.typ v) (Ir.Value.typ (Ir.Op.result op 0))
        in
        match Ir.Op.parent op with
        | Some _ when type_ok ->
          replace_uses ~root:module_op ~old_v:(Ir.Op.result op 0) ~new_v:v;
          Ir.erase_op op;
          changed := true
        | _ -> ()
      in
      let rewrite_to name operands =
        match Ir.Op.parent op with
        | None -> ()
        | Some block ->
          let new_op =
            Ir.Op.create ~loc:(Ir.Op.loc op) name ~operands
              ~result_types:[ Ir.Value.typ (Ir.Op.result op 0) ]
          in
          Ir.Block.insert_before block ~anchor:op new_op;
          replace_uses ~root:module_op ~old_v:(Ir.Op.result op 0)
            ~new_v:(Ir.Op.result new_op 0);
          Ir.erase_op op;
          changed := true
      in
      let mk_const value =
        match Ir.Op.parent op with
        | None -> None
        | Some block ->
          let c =
            Ir.Op.create ~loc:(Ir.Op.loc op)
              ~attrs:[ ("value", Attribute.Int value) ]
              "hir.constant" ~operands:[] ~result_types:[ Types.Const ]
          in
          Ir.Block.insert_before block ~anchor:op c;
          Some (Ir.Op.result c 0)
      in
      match Ir.Op.name op with
      | "hir.mult" -> (
        let x = Ir.Op.operand op 0 and y = Ir.Op.operand op 1 in
        let with_const x c =
          match c with
          | 0 ->
            (* x*0 -> 0 only when the result is itself !hir.const;
               see [Ops.pat_mult_strength]. *)
            if Typ.equal (Ir.Value.typ (Ir.Op.result op 0)) Types.Const then (
              match mk_const 0 with Some z -> replace_with_value z | None -> ())
          | 1 -> replace_with_value x
          | c -> (
            match Ops.log2_exact c with
            | Some k when 0 <= k && k < Sys.int_size -> (
              match mk_const k with
              | Some shift -> rewrite_to "hir.shl" [ x; shift ]
              | None -> ())
            | _ -> ())
        in
        match (Ops.as_constant x, Ops.as_constant y) with
        | _, Some c -> with_const x c
        | Some c, _ -> with_const y c
        | None, None -> ())
      | "hir.add" | "hir.sub" -> (
        let x = Ir.Op.operand op 0 and y = Ir.Op.operand op 1 in
        match Ops.as_constant y with
        | Some 0 -> replace_with_value x
        | _ ->
          if Ir.Op.name op = "hir.add" then
            match Ops.as_constant x with
            | Some 0 -> replace_with_value y
            | _ -> ())
      | _ -> ())
    !worklist;
  if !changed then ignore (run_dce module_op);
  !changed

let run_canonicalize module_op =
  let changed = ref false in
  (* DCE runs before CSE within a round (matching the driver, which
     erases trivially-dead ops as it drains, before its CSE sweep):
     otherwise a dead op's operand could be chosen as a CSE
     representative and survive at its early position, yielding a
     different — though semantically equal — normal form. *)
  let step () =
    let c1 = run_const_fold module_op in
    let c2 = run_strength_reduction module_op in
    let c3 = run_dce module_op in
    let c4 = run_cse module_op in
    c1 || c2 || c3 || c4
  in
  let rounds = ref 0 in
  while !rounds < Passes.max_canonicalize_rounds && step () do
    incr rounds;
    changed := true
  done;
  !changed
