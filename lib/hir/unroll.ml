(* Full expansion of hir.unroll_for (paper Section 7.3): the body is
   cloned once per iteration, the !hir.const induction variable is
   substituted with a constant, and every schedule reference to the
   iteration time variable is retargeted to the parent time domain with
   a constant offset bump.  After this pass a design contains only
   hir.for loops and straight-line ops, which is what the code
   generator consumes. *)

open Hir_ir

(* Retarget every use of [old_time] as a time operand to [new_time],
   adding [delta] to the using op's offset attribute.  Time operands
   are always of !hir.time type, and each scheduled op has exactly one,
   so walking [old_time]'s use list visits exactly the scheduled ops to
   bump — no module scan. *)
let retarget_time_uses ~old_time ~new_time ~delta =
  List.iter
    (fun (op, i) ->
      Ir.Op.set_operand op i new_time;
      match Ir.Op.int_attr_opt op "offset" with
      | Some off -> Ir.Op.set_attr op "offset" (Attribute.Int (off + delta))
      | None -> ())
    (Ir.Value.uses old_time)

(* ------------------------------------------------------------------ *)
(* Emission groups.

   Each expanded iteration tags its ops with a fresh "emit_group" Int
   attribute so the code generator can recognize the N structurally
   identical clones of one body and outline them into a shared module
   definition.  The ids themselves are arbitrary (they never reach the
   emitted Verilog — the outliner's canonical form is id-independent);
   all that matters is that ops from the same clone share an id and ops
   from different clones never do.  When an outer unroll clones a body
   that already carries tags (from an inner unroll expanded earlier —
   expansion is innermost-first), each clone remaps every pre-existing
   id to a fresh one, consistently within the clone, so the inner
   groups stay distinct across outer iterations instead of merging.

   Ids are drawn from [Ir.fresh_id]: the counter is domain-local (no
   races between parallel compile jobs) and reset by
   [Ir.with_isolated_ids], so the printed IR of a freshly built module
   — which the driver's cache key is computed from — comes out
   byte-identical on every build. *)

let fresh_group () = Ir.fresh_id ()

let group_attr = "emit_group"

(* Tag one freshly spliced clone: top-level ops that carry no tag get
   [gid]; already tagged ops (at any depth) get their old id remapped
   through a per-clone table.  Nested untagged ops are left alone — the
   emitter's group stack makes them inherit their innermost enclosing
   group at emission time. *)
let tag_clone ~gid cloned_ops =
  let remap = Hashtbl.create 8 in
  List.iter
    (fun top ->
      Ir.Walk.ops_pre top ~f:(fun o ->
          match Ir.Op.int_attr_opt o group_attr with
          | Some old ->
            let fresh =
              match Hashtbl.find_opt remap old with
              | Some g -> g
              | None ->
                let g = fresh_group () in
                Hashtbl.replace remap old g;
                g
            in
            Ir.Op.set_attr o group_attr (Attribute.Int fresh)
          | None -> ());
      if Ir.Op.int_attr_opt top group_attr = None && Ir.Op.name top <> "hir.yield" then
        Ir.Op.set_attr top group_attr (Attribute.Int gid))
    cloned_ops

let expand_one _module_op op =
  let parent_block =
    match Ir.Op.parent op with Some b -> b | None -> failwith "detached unroll_for"
  in
  let lb = Ops.unroll_for_lb op in
  let ub = Ops.unroll_for_ub op in
  let step = Ops.unroll_for_step op in
  let body = Ops.loop_body op in
  let iv = Ir.Block.arg body 0 in
  let ti = Ir.Block.arg body 1 in
  (* Current start point: (time value, offset delta). *)
  let current = ref (Ops.unroll_for_time op, Ops.unroll_for_offset op) in
  let k = ref lb in
  while !k < ub do
    let time_v, delta = !current in
    (* Constant for this iteration's induction variable. *)
    let const_op =
      Ir.Op.create ~loc:(Ir.Op.loc op)
        ~attrs:[ ("value", Attribute.Int !k) ]
        ~result_hints:[ Some (Printf.sprintf "u%d" !k) ]
        "hir.constant" ~operands:[] ~result_types:[ Types.Const ]
    in
    Ir.Block.insert_before parent_block ~anchor:op const_op;
    (* Clone the body with iv substituted. *)
    let mapping = Hashtbl.create 16 in
    Hashtbl.replace mapping (Ir.Value.id iv) (Ir.Op.result const_op 0);
    let cloned_block = Ir.Clone.clone_block ~mapping body in
    let cloned_ti =
      match Hashtbl.find_opt mapping (Ir.Value.id ti) with
      | Some v -> v
      | None -> failwith "unroll: iteration time not cloned"
    in
    (* Splice the whole cloned body before the unroll op in one move
       (the ops keep their use links; only their parent changes). *)
    let cloned_ops = Ir.Block.transfer_before parent_block ~anchor:op cloned_block in
    (* The body-level yield is the only hir.yield at the top level of
       the splice (nested loops keep theirs inside their regions). *)
    let body_yield = List.find (fun o -> Ir.Op.name o = "hir.yield") cloned_ops in
    (* Mark this iteration's ops as one emission group (see above). *)
    tag_clone ~gid:(fresh_group ()) cloned_ops;
    (* Retarget schedule references from the cloned ti: its uses are
       exactly the scheduled ops of this clone. *)
    retarget_time_uses ~old_time:cloned_ti ~new_time:time_v ~delta;
    (* Next iteration starts where this clone's yield pointed. *)
    let next_time = Ops.yield_time body_yield in
    let next_off = Ops.yield_offset body_yield in
    current := (next_time, next_off);
    (* The yield itself is control metadata; drop it. *)
    Ir.Block.remove parent_block body_yield;
    k := !k + step
  done;
  (* Uses of the unroll's completion time continue from the final
     start point. *)
  let final_time, final_delta = !current in
  retarget_time_uses ~old_time:(Ir.Op.result op 0) ~new_time:final_time
    ~delta:final_delta;
  (* Deep-erase the unroll op: the original (un-cloned) body still
     hangs off it, and its ops' use links must be dropped with it. *)
  Ir.erase_op op

let run module_op =
  let changed = ref false in
  let rec fixpoint () =
    (* Innermost first: collect in post-order and expand the first
       unroll that contains no nested unroll. *)
    let candidates = ref [] in
    Ir.Walk.ops_post module_op ~f:(fun op ->
        if Ir.Op.name op = "hir.unroll_for" then candidates := !candidates @ [ op ]);
    match !candidates with
    | [] -> ()
    | op :: _ ->
      expand_one module_op op;
      changed := true;
      fixpoint ()
  in
  fixpoint ();
  !changed

let pass =
  Pass.make ~name:"unroll"
    ~description:"Fully expand hir.unroll_for bodies (Section 7.3)"
    (fun module_op _engine -> run module_op)
