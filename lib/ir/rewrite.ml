(* Worklist-driven rewriting, modelled on MLIR's PatternRewriter and
   GreedyPatternRewriteDriver (Lattner et al., CGO 2021).

   A [Rewriter.t] is the mutation capability handed to rewrite patterns
   and sweeps: every change to the IR goes through it, so the driver
   can (a) re-enqueue exactly the ops whose inputs changed instead of
   re-scanning the module, (b) count pattern applications for the pass
   statistics and Chrome traces, and (c) optionally keep a full
   mutation log for debugging.

   The greedy driver seeds a worklist from the region tree and drains
   it: per op it tries trivial-DCE, then the op's registered fold hook
   (see [Dialect.register_op ?fold]), then the rewrite patterns
   registered against the op name, re-feeding the worklist from the
   users of changed values.  Convergence is detected by the worklist
   draining; the round backstop exists only to catch non-converging
   pattern sets (the class of bug PR 2's x*0 loop was). *)

(* ------------------------------------------------------------------ *)
(* Rewriter                                                            *)

type mutation =
  | Op_created of Ir.op
  | Op_erased of Ir.op
  | Op_modified of Ir.op
  | Value_replaced of { old_v : Ir.value; new_v : Ir.value }
  | Type_changed of Ir.value

type t = {
  rw_root : Ir.op;
  mutable rw_changed : bool;
  rw_metrics : Metrics.t;  (* the enclosing pass's table, else its own *)
  rw_log : mutation list ref option;  (* full log only when requested *)
  mutable rw_worklist : Ir.op list;  (* LIFO *)
  rw_on_list : (int, unit) Hashtbl.t;  (* op ids currently enqueued *)
}

module Rewriter = struct
  type nonrec t = t

  let create ?(log = false) ~root () =
    {
      rw_root = root;
      rw_changed = false;
      rw_metrics =
        (match Metrics.scope () with Some m -> m | None -> Metrics.create ());
      rw_log = (if log then Some (ref []) else None);
      rw_worklist = [];
      rw_on_list = Hashtbl.create 64;
    }

  let root rw = rw.rw_root
  let changed rw = rw.rw_changed

  let counters rw = Metrics.counters rw.rw_metrics

  let mutations rw = match rw.rw_log with Some l -> List.rev !l | None -> []

  let bump ?(n = 1) rw name = Metrics.incr ~by:n rw.rw_metrics name

  let record rw m =
    rw.rw_changed <- true;
    match rw.rw_log with Some l -> l := m :: !l | None -> ()

  (* -- worklist ---------------------------------------------------- *)

  let enqueue rw op =
    if not (Hashtbl.mem rw.rw_on_list op.Ir.op_id) then begin
      Hashtbl.replace rw.rw_on_list op.Ir.op_id ();
      rw.rw_worklist <- op :: rw.rw_worklist
    end

  let enqueue_def rw v =
    match Ir.Value.defining_op v with Some op -> enqueue rw op | None -> ()

  let enqueue_users_of rw v = List.iter (enqueue rw) (Ir.Value.users v)

  let enqueue_result_users rw op =
    List.iter (enqueue_users_of rw) (Ir.Op.results op)

  let pop rw =
    match rw.rw_worklist with
    | [] -> None
    | op :: rest ->
      rw.rw_worklist <- rest;
      Hashtbl.remove rw.rw_on_list op.Ir.op_id;
      Some op

  (* -- mutations --------------------------------------------------- *)

  let insert_op_before rw ~anchor op =
    (match Ir.Op.parent anchor with
    | Some b -> Ir.Block.insert_before b ~anchor op
    | None -> invalid_arg "Rewriter.insert_op_before: detached anchor");
    record rw (Op_created op);
    enqueue rw op

  let insert_op_after rw ~anchor op =
    (match Ir.Op.parent anchor with
    | Some b -> Ir.Block.insert_after b ~anchor op
    | None -> invalid_arg "Rewriter.insert_op_after: detached anchor");
    record rw (Op_created op);
    enqueue rw op

  let append_op rw block op =
    Ir.Block.append block op;
    record rw (Op_created op);
    enqueue rw op

  (* Erase [op] (and its regions).  The defining ops of its operands
     may have just lost their last use, so they go back on the list. *)
  let erase_op rw op =
    let feeders = Ir.Op.operands op in
    Ir.erase_op op;
    record rw (Op_erased op);
    List.iter (enqueue_def rw) feeders

  (* Redirect every use of [old_v] to [new_v] and re-enqueue the moved
     users; [old_v]'s defining op likely became dead, so it is
     re-enqueued too. *)
  let replace_value rw old_v new_v =
    if not (Ir.Value.equal old_v new_v) then begin
      let moved = Ir.Value.users old_v in
      Ir.Value.replace_all_uses old_v new_v;
      record rw (Value_replaced { old_v; new_v });
      List.iter (enqueue rw) moved;
      enqueue_def rw old_v
    end

  let replace_op_with_value rw op new_v =
    assert (Ir.Op.num_results op = 1);
    replace_value rw (Ir.Op.result op 0) new_v;
    erase_op rw op

  let replace_op_with_op rw op new_op =
    assert (Ir.Op.num_results op = Ir.Op.num_results new_op);
    (match Ir.Op.parent op with
    | Some b -> Ir.Block.insert_before b ~anchor:op new_op
    | None -> invalid_arg "Rewriter.replace_op_with_op: detached op");
    record rw (Op_created new_op);
    enqueue rw new_op;
    List.iteri
      (fun i r -> replace_value rw r (Ir.Op.result new_op i))
      (Ir.Op.results op);
    erase_op rw op

  let set_operand rw op i v =
    let old = Ir.Op.operand op i in
    if not (Ir.Value.equal old v) then begin
      Ir.Op.set_operand op i v;
      record rw (Op_modified op);
      enqueue rw op;
      enqueue_def rw old
    end

  let set_attr rw op key value =
    Ir.Op.set_attr op key value;
    record rw (Op_modified op);
    enqueue rw op;
    enqueue_result_users rw op

  (* For in-place changes made directly on the op (rare; prefer the
     typed mutators above): report them so dependents are revisited. *)
  let notify_op_modified rw op =
    record rw (Op_modified op);
    enqueue rw op;
    enqueue_result_users rw op

  let set_value_type rw v ty =
    if not (Typ.equal (Ir.Value.typ v) ty) then begin
      Ir.Value.set_type v ty;
      record rw (Type_changed v);
      enqueue_users_of rw v;
      enqueue_def rw v
    end
end

(* ------------------------------------------------------------------ *)
(* Pattern registry                                                    *)

(* A rewrite pattern matched against one op name.  [p_apply] performs
   the rewrite through the rewriter and reports whether it fired. *)
type pattern = { p_name : string; p_apply : t -> Ir.op -> bool }

let pattern_registry : (string, pattern list ref) Hashtbl.t = Hashtbl.create 64

(* Patterns apply in registration order (first registered, first
   tried), matching MLIR's benefit-ordered greedy application for the
   single-benefit case. *)
let register_pattern ~op ~name apply =
  let cell =
    match Hashtbl.find_opt pattern_registry op with
    | Some cell -> cell
    | None ->
      let cell = ref [] in
      Hashtbl.add pattern_registry op cell;
      cell
  in
  if not (List.exists (fun p -> p.p_name = name) !cell) then
    cell := !cell @ [ { p_name = name; p_apply = apply } ]

let patterns_for op_name =
  match Hashtbl.find_opt pattern_registry op_name with
  | Some cell -> !cell
  | None -> []

(* ------------------------------------------------------------------ *)
(* Greedy driver                                                       *)

type config = {
  use_folds : bool;  (* apply Dialect fold hooks *)
  patterns : pattern list option;  (* None: use the registry *)
  is_trivially_dead : (Ir.op -> bool) option;  (* None: no DCE *)
  sweeps : (t -> bool) list;
      (* whole-module sweeps (e.g. scoped CSE) run after each drain;
         anything they change re-feeds the worklist *)
  max_rounds : int;  (* backstop only — never the convergence criterion *)
}

let default_config =
  {
    use_folds = true;
    patterns = None;
    is_trivially_dead = None;
    sweeps = [];
    max_rounds = 64;
  }

type driver_stats = {
  ds_changed : bool;
  ds_rounds : int;  (* drain+sweep cycles until convergence *)
  ds_processed : int;  (* ops popped and examined *)
  ds_applications : (string * int) list;
      (* per-pattern/fold/dce counts: the rewriter's table, which inside
         a pass is that pass's [Metrics] scope *)
  ds_backstop : bool;  (* true iff the round backstop fired: a bug *)
}

(* Replace a single-result op via its fold outcome.  [Fold_value]
   forwards an existing value — only when types agree, since uses keep
   their static type.  [Fold_attr] materializes a dialect constant
   before the op and replaces it unconditionally (the materializer
   decides the constant's type, mirroring how constant folding always
   produced constant-typed values). *)
let apply_fold rw op fold =
  if Ir.Op.num_results op <> 1 then false
  else
    match fold op with
    | None -> false
    | Some (Dialect.Fold_value v) ->
      if Typ.equal (Ir.Value.typ (Ir.Op.result op 0)) (Ir.Value.typ v) then begin
        Rewriter.replace_op_with_value rw op v;
        true
      end
      else false
    | Some (Dialect.Fold_attr attr) -> (
      let dialect = Dialect.dialect_of_op_name (Ir.Op.name op) in
      let result = Ir.Op.result op 0 in
      match
        Dialect.materialize_constant ~dialect attr (Ir.Value.typ result) (Ir.Op.loc op)
      with
      | None -> false
      | Some const_op ->
        Rewriter.insert_op_before rw ~anchor:op const_op;
        Rewriter.replace_op_with_value rw op (Ir.Op.result const_op 0);
        true)

let run_greedy ?(config = default_config) ?rewriter root =
  let rw = match rewriter with Some rw -> rw | None -> Rewriter.create ~root () in
  (* With an explicit pattern list, every pattern is offered every op
     (its [p_apply] does its own matching); otherwise consult the
     registry by op name. *)
  let patterns_for_op op_name =
    match config.patterns with None -> patterns_for op_name | Some ps -> ps
  in
  (* Seed: every op nested under the root, enqueued so that pop order
     is roughly program order (defs before uses — folds cascade forward
     in one drain). *)
  let seed () =
    let acc = ref [] in
    List.iter
      (fun r ->
        List.iter
          (fun b -> List.iter (fun o -> Ir.Walk.ops_pre o ~f:(fun o' -> acc := o' :: !acc)) (Ir.Block.ops b))
          (Ir.Region.blocks r))
      (Ir.Op.regions root);
    List.iter (Rewriter.enqueue rw) !acc
  in
  seed ();
  let seed_count = List.length rw.rw_worklist in
  (* Total-application backstop: generous, proportional to module size.
     Only a diverging pattern set can reach it. *)
  let max_applications = config.max_rounds * (seed_count + 16) in
  let processed = ref 0 in
  let applications = ref 0 in
  let backstop = ref false in
  let trivially_dead op =
    match config.is_trivially_dead with
    | None -> false
    | Some pred ->
      Ir.Op.num_results op > 0
      && pred op
      && List.for_all (fun r -> not (Ir.Value.has_uses r)) (Ir.Op.results op)
  in
  let process op =
    incr processed;
    if trivially_dead op then begin
      Rewriter.bump rw "dce";
      incr applications;
      Rewriter.erase_op rw op
    end
    else begin
      let folded =
        config.use_folds
        && (match Dialect.op_fold (Ir.Op.name op) with
           | Some fold when apply_fold rw op fold ->
             Rewriter.bump rw ("fold(" ^ Ir.Op.name op ^ ")");
             incr applications;
             true
           | _ -> false)
      in
      if not folded then
        ignore
          (List.exists
             (fun p ->
               if p.p_apply rw op then begin
                 Rewriter.bump rw p.p_name;
                 incr applications;
                 true
               end
               else false)
             (patterns_for_op (Ir.Op.name op)))
    end
  in
  let rec drain () =
    if !applications > max_applications then backstop := true
    else
      match Rewriter.pop rw with
      | None -> ()
      | Some op ->
        (* Ops erased while enqueued are detached; skip them. *)
        (match Ir.Op.parent op with None -> () | Some _ -> process op);
        drain ()
  in
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ && not !backstop do
    incr rounds;
    if !rounds > config.max_rounds then begin
      backstop := true;
      continue_ := false
    end
    else begin
      drain ();
      if not !backstop then begin
        let sweeps_changed =
          List.fold_left (fun acc sweep -> sweep rw || acc) false config.sweeps
        in
        (* Converged when the sweeps were quiet and produced no new
           worklist entries. *)
        let worklist_empty =
          match rw.rw_worklist with [] -> true | _ :: _ -> false
        in
        if (not sweeps_changed) && worklist_empty then continue_ := false
      end
    end
  done;
  if !backstop then Rewriter.bump rw "backstop";
  {
    ds_changed = rw.rw_changed;
    ds_rounds = !rounds;
    ds_processed = !processed;
    ds_applications = Rewriter.counters rw;
    ds_backstop = !backstop;
  }
