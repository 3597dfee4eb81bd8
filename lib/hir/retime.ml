(* Retiming (paper Section 7.4): move registers across combinational
   operations without changing observable behaviour.

   The implemented rewrite sinks delays through pure ops:

       op (hir.delay x by k at (t,o), hir.delay y by k at (t,o))
     ==>
       hir.delay (op (x, y)) by k at (t,o)

   which halves the register bits when the op has more input bits than
   output bits (two 32-bit shift registers become one), and moves the
   combinational logic to the early side of the register — the classic
   retiming step for timing closure.  Constants pass through freely.
   The schedule verifier remains the safety net for the transformation,
   as the paper prescribes. *)

open Hir_ir

let is_pure op = Dialect.op_has_trait (Ir.Op.name op) Dialect.Pure

(* The delay feeding [v], if it is single-use and v is not a constant. *)
let feeding_delay v =
  match Ir.Value.defining_op v with
  | Some d when Ir.Op.name d = "hir.delay" && Ir.Value.has_one_use v -> Some d
  | _ -> None

let delay_key d =
  ( Ir.Value.id (Ops.delay_time d),
    Ops.delay_offset d,
    Ops.delay_by d )

let run module_op =
  let rw = Rewrite.Rewriter.create ~root:module_op () in
  let candidates = ref [] in
  Ir.Walk.ops_pre module_op ~f:(fun op ->
      if is_pure op && Ir.Op.name op <> "hir.constant" && Ir.Op.num_results op = 1 then
        candidates := op :: !candidates);
  List.iter
    (fun op ->
      let operands = Ir.Op.operands op in
      let classified =
        List.map
          (fun v ->
            if Ops.is_const v then `Const v
            else
              match feeding_delay v with
              | Some d -> `Delayed (v, d)
              | None -> `Other)
          operands
      in
      let delays =
        List.filter_map (function `Delayed (_, d) -> Some d | _ -> None) classified
      in
      let all_ok =
        (match delays with [] -> false | _ :: _ -> true)
        && List.for_all (function `Other -> false | _ -> true) classified
        &&
        match delays with
        | first :: rest -> List.for_all (fun d -> delay_key d = delay_key first) rest
        | [] -> false
      in
      if all_ok then begin
        match (Ir.Op.parent op, delays) with
        | Some _block, first_delay :: _ ->
          let by = Ops.delay_by first_delay in
          let time = Ops.delay_time first_delay in
          let offset = Ops.delay_offset first_delay in
          (* Rewire the op to consume the delay inputs directly. *)
          List.iteri
            (fun i c ->
              match c with
              | `Delayed (_, d) -> Rewrite.Rewriter.set_operand rw op i (Ops.delay_input d)
              | `Const _ | `Other -> ())
            classified;
          (* Snapshot the op's consumers now — the new delay is about
             to become one more, and must keep reading the raw value. *)
          let result = Ir.Op.result op 0 in
          let consumers = Ir.Value.uses result in
          (* A single delay now registers the op's (narrower) result. *)
          let new_delay =
            Ir.Op.create ~loc:(Ir.Op.loc op)
              ~attrs:
                [ ("by", Attribute.Int by); ("offset", Attribute.Int offset) ]
              ~result_hints:[ Option.map (fun h -> h ^ "_q") (Ir.Value.hint result) ]
              "hir.delay"
              ~operands:[ result; time ]
              ~result_types:[ Ir.Value.typ result ]
          in
          Rewrite.Rewriter.insert_op_after rw ~anchor:op new_delay;
          (* All previous consumers of the op now read the registered
             value; the delay itself keeps the raw one. *)
          List.iter
            (fun (user, i) ->
              Rewrite.Rewriter.set_operand rw user i (Ir.Op.result new_delay 0))
            consumers;
          (* The original input delays are dead now. *)
          List.iter
            (fun d ->
              if not (Ir.Value.has_uses (Ir.Op.result d 0)) then
                Rewrite.Rewriter.erase_op rw d)
            delays;
          Rewrite.Rewriter.bump rw "retime.sink"
        | _ -> ()
      end)
    !candidates;
  Rewrite.Rewriter.changed rw

let pass =
  Pass.make ~name:"retime"
    ~description:"Sink registers through combinational ops (Section 7.4)"
    (fun module_op _engine -> run module_op)
