(* Standard optimization passes (paper Section 6.2 and 6.4):
   dead-code elimination, constant folding/propagation, common
   sub-expression elimination, strength reduction of constant
   multiplies, and delay (shift-register) elimination.

   All passes operate on a module op and report whether they changed
   anything.  The precision optimization of Section 6.3 lives in
   [Precision_opt].

   Since the use-def refactor, the passes are thin configurations of
   the greedy worklist driver in [Hir_ir.Rewrite]: constant folding is
   the registered fold hooks, strength reduction is the registered
   rewrite patterns (see [Ops.register]), DCE is use-list-driven
   erasure, and CSE is a scoped-table sweep.  [canonicalize] is one
   driver invocation that runs all four to a worklist fixpoint. *)

open Hir_ir

let is_pure op = Dialect.op_has_trait (Ir.Op.name op) Dialect.Pure

(* ------------------------------------------------------------------ *)
(* Dead code elimination                                               *)

(* Pure ops (and delays) whose results are unused.  hir.delay is not
   Pure (it is scheduled), but an unused delay drives nothing and can
   go. *)
let dce_removable op =
  (is_pure op || Ir.Op.name op = "hir.delay") && Ir.Op.num_results op > 0

(* Use-list-driven erasure: seed with every removable op, erase the
   unused ones, and re-enqueue the defining ops of erased operands —
   they may just have lost their last use.  O(ops + erasures), no
   whole-module rescans. *)
let run_dce module_op =
  let changed = ref false in
  let worklist = ref [] in
  Ir.Walk.ops_post module_op ~f:(fun op ->
      if dce_removable op then worklist := op :: !worklist);
  let rec go () =
    match !worklist with
    | [] -> ()
    | op :: rest ->
      worklist := rest;
      (if Option.is_some (Ir.Op.parent op)
          && List.for_all (fun r -> not (Ir.Value.has_uses r)) (Ir.Op.results op)
       then begin
         let feeders = Ir.Op.operands op in
         Ir.erase_op op;
         changed := true;
         Metrics.record "dce";
         List.iter
           (fun v ->
             match Ir.Value.defining_op v with
             | Some d when dce_removable d -> worklist := d :: !worklist
             | _ -> ())
           feeders
       end);
      go ()
  in
  go ();
  !changed

let dce =
  Pass.make ~name:"dce" ~description:"Remove unused pure operations"
    (fun module_op _engine -> run_dce module_op)

(* ------------------------------------------------------------------ *)
(* Constant folding / propagation                                      *)

(* One driver drain over the fold hooks only (no patterns, no DCE):
   folded defs re-enqueue their users, so folds cascade in one pass. *)
let run_const_fold_stats module_op =
  Rewrite.run_greedy
    ~config:{ Rewrite.default_config with patterns = Some [] }
    module_op

let run_const_fold module_op = (run_const_fold_stats module_op).Rewrite.ds_changed

(* The driver's applications are already in the pass's table (its
   rewriter writes there); add how long it took to converge. *)
let record_driver_stats (stats : Rewrite.driver_stats) =
  Metrics.record ~n:stats.Rewrite.ds_rounds "driver.rounds";
  Metrics.record ~n:stats.Rewrite.ds_processed "driver.ops-processed"

let const_fold =
  Pass.make ~name:"const-fold"
    ~description:"Fold compute ops with constant operands (Section 6.2)"
    (fun module_op _engine ->
      let stats = run_const_fold_stats module_op in
      record_driver_stats stats;
      stats.Rewrite.ds_changed)

(* ------------------------------------------------------------------ *)
(* Common sub-expression elimination                                   *)

(* Two pure ops with the same name, operands and attributes compute the
   same value.  Scoped per block region-tree: an op can only be
   replaced by an equivalent one from the same or an enclosing block,
   which the single-pass scope table guarantees. *)
let cse_key op =
  ( Ir.Op.name op,
    List.map Ir.Value.id (Ir.Op.operands op),
    List.sort compare op.Ir.attrs )

(* The CSE sweep used both standalone and inside the canonicalize
   driver.  Duplicates forward their uses to the textually-first
   equivalent op (the only one guaranteed to dominate them) and are
   left in place, dead, for DCE — [Rewriter.replace_value] re-enqueues
   the dead def, so the driver erases it in the next drain. *)
let cse_sweep rw =
  let changed = ref false in
  let table : (string * int list * (string * Attribute.t) list, Ir.value) Hashtbl.t =
    Hashtbl.create 64
  in
  let rec walk_block block =
    let added = ref [] in
    List.iter
      (fun op ->
        if is_pure op && Ir.Op.num_results op = 1 then begin
          let key = cse_key op in
          match Hashtbl.find_opt table key with
          | Some existing ->
            if Ir.Value.has_uses (Ir.Op.result op 0) then begin
              Rewrite.Rewriter.replace_value rw (Ir.Op.result op 0) existing;
              Rewrite.Rewriter.bump rw "cse";
              changed := true
            end
          | None ->
            Hashtbl.add table key (Ir.Op.result op 0);
            added := key :: !added
        end;
        List.iter
          (fun r -> List.iter (fun b -> walk_block b) (Ir.Region.blocks r))
          (Ir.Op.regions op))
      (Ir.Block.ops block);
    (* Leaving the scope: entries from this block are no longer valid
       dominators for siblings. *)
    List.iter (Hashtbl.remove table) !added
  in
  (match Ir.Op.regions (Rewrite.Rewriter.root rw) with
  | [ r ] -> List.iter walk_block (Ir.Region.blocks r)
  | _ -> ());
  !changed

let run_cse module_op =
  let changed = cse_sweep (Rewrite.Rewriter.create ~root:module_op ()) in
  if changed then ignore (run_dce module_op);
  changed

let cse =
  Pass.make ~name:"cse"
    ~description:"Common sub-expression elimination (Section 6.2)"
    (fun module_op _engine -> run_cse module_op)

(* ------------------------------------------------------------------ *)
(* Strength reduction                                                  *)

(* The rewrite patterns themselves are registered against the op names
   in [Ops.register]; this pass is a driver drain over just those
   patterns (folds off). *)
let run_strength_reduction_stats module_op =
  Rewrite.run_greedy
    ~config:{ Rewrite.default_config with use_folds = false }
    module_op

let run_strength_reduction module_op =
  let stats = run_strength_reduction_stats module_op in
  if stats.Rewrite.ds_changed then ignore (run_dce module_op);
  stats.Rewrite.ds_changed

let strength_reduction =
  Pass.make ~name:"strength-reduction"
    ~description:"Rewrite constant multiplies into shifts (Section 6.2)"
    (fun module_op _engine ->
      let stats = run_strength_reduction_stats module_op in
      record_driver_stats stats;
      if stats.Rewrite.ds_changed then ignore (run_dce module_op);
      stats.Rewrite.ds_changed)

(* ------------------------------------------------------------------ *)
(* Delay elimination                                                   *)

(* Shift registers are shared (Section 6.4):
   - duplicate delays (same input, same time variable, same offset,
     same depth) collapse to one;
   - a deeper delay of the same (input, time, offset) reuses the
     shallower one as its input:  delay(x, m) = delay(delay(x, k), m-k)
     for the largest available k < m.
   Either way the survivor must come earlier in the same block, so
   that its result is defined before the delay that now reads it. *)
let run_delay_elim module_op =
  let rw = Rewrite.Rewriter.create ~root:module_op () in
  (* Group delays by (input value, time value, offset); each entry
     carries its pre-order position, which orders ops of one block. *)
  let groups : (int * int * int, (int * int * Ir.op) list ref) Hashtbl.t =
    Hashtbl.create 32
  in
  let pos = ref 0 in
  Ir.Walk.ops_pre module_op ~f:(fun op ->
      incr pos;
      if Ir.Op.name op = "hir.delay" then begin
        let key =
          ( Ir.Value.id (Ops.delay_input op),
            Ir.Value.id (Ops.delay_time op),
            Ops.delay_offset op )
        in
        let cell =
          match Hashtbl.find_opt groups key with
          | Some c -> c
          | None ->
            let c = ref [] in
            Hashtbl.add groups key c;
            c
        in
        cell := (Ops.delay_by op, !pos, op) :: !cell
      end);
  Hashtbl.iter
    (fun _ cell ->
      (* Restore textual order (the walk prepended) so that the stable
         sort keeps the textually-first delay as the survivor: only it
         dominates every user of its duplicates. *)
      let sorted = List.sort (fun (a, _, _) (b, _, _) -> compare a b) (List.rev !cell) in
      (* Walk shallow to deep; collapse duplicates, re-root deeper ones
         onto the previous stage.  Only a delay earlier in the same
         block may be reused (same time domain is guaranteed by the
         key, but a delay in a nested block cannot feed an outer one,
         and a later one is not yet defined); otherwise a new chain
         starts at this delay. *)
      let rec go prev = function
        | [] -> ()
        | (by, at, op) :: rest -> (
          match prev with
          | Some (prev_by, prev_at, prev_op)
            when prev_at < at
                 && Option.equal Ir.Block.equal (Ir.Op.parent op) (Ir.Op.parent prev_op) ->
            if by = prev_by then begin
              (* Exact duplicate: forward all uses to the survivor. *)
              Rewrite.Rewriter.replace_op_with_value rw op (Ir.Op.result prev_op 0);
              Rewrite.Rewriter.bump rw "delay-elim.dedup";
              go prev rest
            end
            else begin
              (* Chain: this delay only needs (by - prev_by) more
                 stages on top of the survivor's output, starting when
                 the survivor's output is valid. *)
              Rewrite.Rewriter.set_operand rw op 0 (Ir.Op.result prev_op 0);
              Rewrite.Rewriter.set_attr rw op "by" (Attribute.Int (by - prev_by));
              Rewrite.Rewriter.set_attr rw op "offset"
                (Attribute.Int (Ops.delay_offset op + prev_by));
              Rewrite.Rewriter.bump rw "delay-elim.chain";
              go (Some (by, at, op)) rest
            end
          | _ -> go (Some (by, at, op)) rest)
      in
      go None sorted)
    groups;
  Rewrite.Rewriter.changed rw

let delay_elim =
  Pass.make ~name:"delay-elim"
    ~description:"Share and chain shift registers (Section 6.4)"
    (fun module_op _engine -> run_delay_elim module_op)

(* ------------------------------------------------------------------ *)
(* Canonicalization                                                    *)

(* Backstop against a non-convergent rewrite combination: real modules
   converge by worklist exhaustion, so hitting the bound means a
   rewrite bug — stop rather than hang.  The driver reports it through
   [ds_backstop] and a "backstop" counter, and the [canonicalize] pass
   turns it into an error (see [make_canonicalize]). *)
let max_canonicalize_rounds = 64

(* One greedy driver invocation: fold hooks + strength-reduction
   patterns + trivial-DCE on the worklist, with the scoped CSE sweep
   between drains.  The differential tests check its normal form
   against the whole-module fixpoint in test/legacy_canon.ml. *)
let canonicalize_config ~max_rounds =
  {
    Rewrite.default_config with
    is_trivially_dead = Some dce_removable;
    sweeps = [ cse_sweep ];
    max_rounds;
  }

let run_canonicalize_stats module_op =
  Rewrite.run_greedy ~config:(canonicalize_config ~max_rounds:max_canonicalize_rounds) module_op

let run_canonicalize module_op =
  (run_canonicalize_stats module_op).Rewrite.ds_changed

(* A backstop trip means the greedy driver did not converge: a rewrite
   bug, not an input property (real modules converge by worklist
   exhaustion).  Rather than ship a half-rewritten module, the pass
   fails with a located error, and the job with it.  [max_rounds] is
   the backstop's budget; a test trips it on a well-behaved module
   with a budget of 0, which gives up before the first drain. *)
let make_canonicalize ~max_rounds =
  Pass.make ~name:"canonicalize"
    ~description:"Fold, reduce, CSE and DCE to a worklist fixpoint"
    (fun module_op engine ->
      let stats = Rewrite.run_greedy ~config:(canonicalize_config ~max_rounds) module_op in
      record_driver_stats stats;
      if stats.Rewrite.ds_backstop then
        Diagnostic.Engine.errorf engine (Ir.Op.loc module_op)
          "canonicalize did not converge within %d rounds (rewrite backstop)" max_rounds;
      stats.Rewrite.ds_changed)

let canonicalize = make_canonicalize ~max_rounds:max_canonicalize_rounds
