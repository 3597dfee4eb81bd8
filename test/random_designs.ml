(* Random well-scheduled HIR designs for property tests, shared by the
   differential suite and the incremental suite's clone ≡ parse
   property.

   Three generators produce recipes (pure descriptions, so QCheck can
   print and shrink them) and build each into a module:
     - straight-line code: reads, combinational arithmetic, delays and
       writes, with all operand births kept aligned by construction;
     - a scheduled [hir.for] loop pipelined at initiation interval
       1..3, with a random combinational chain and extra pipeline
       stages in the body;
     - an [hir.unroll_for] whose structurally identical clones the
       emitter's outliner shares as one module definition. *)

open Hir_ir
open Hir_dialect

let input_size = 16
let max_outputs = 8

(* A recipe is a pure description of a design, so QCheck can print and
   shrink it. *)
type step =
  | S_read of int * int  (* input index, issue delta *)
  | S_bin of string * int * int  (* op, operand a, operand b (pool indices) *)
  | S_bin_const of string * int * int  (* op, operand, constant *)
  | S_delay of int * int  (* pool index, by *)

type recipe = { steps : step list; outputs : int list (* pool indices *) }

let step_to_string = function
  | S_read (i, d) -> Printf.sprintf "read[%d]@%d" i d
  | S_bin (op, a, b) -> Printf.sprintf "%s(#%d,#%d)" op a b
  | S_bin_const (op, a, c) -> Printf.sprintf "%s(#%d,%d)" op a c
  | S_delay (a, by) -> Printf.sprintf "delay(#%d,by %d)" a by

let recipe_to_string r =
  Printf.sprintf "steps=[%s] outputs=[%s]"
    (String.concat "; " (List.map step_to_string r.steps))
    (String.concat "," (List.map string_of_int r.outputs))

let ops_pool = [ "hir.add"; "hir.sub"; "hir.mult"; "hir.and"; "hir.or"; "hir.xor" ]

let gen_recipe : recipe QCheck.Gen.t =
  let open QCheck.Gen in
  let* n_steps = int_range 2 24 in
  (* Pool entry 0 always exists: a read of input[0] at delta 0. *)
  let rec build k pool_size acc =
    if k = 0 then return (List.rev acc)
    else
      let* choice = int_range 0 99 in
      let* s =
        if choice < 30 || pool_size = 0 then
          let* i = int_range 0 (input_size - 1) in
          let* d = int_range 0 4 in
          return (S_read (i, d))
        else if choice < 60 then
          let* a = int_range 0 (pool_size - 1) in
          let* b = int_range 0 (pool_size - 1) in
          let* op = oneofl ops_pool in
          return (S_bin (op, a, b))
        else if choice < 80 then
          let* a = int_range 0 (pool_size - 1) in
          let* c = int_range (-100) 1000 in
          let* op = oneofl ops_pool in
          return (S_bin_const (op, a, c))
        else
          let* a = int_range 0 (pool_size - 1) in
          let* by = int_range 1 3 in
          return (S_delay (a, by))
      in
      build (k - 1) (pool_size + 1) (s :: acc)
  in
  let* steps = build n_steps 1 [] in
  let pool_size = 1 + List.length steps in
  let* n_out = int_range 1 (min max_outputs pool_size) in
  let* outputs = list_repeat n_out (int_range 0 (pool_size - 1)) in
  return { steps = S_read (0, 0) :: steps; outputs }

(* Build the HIR design from a recipe.  The pool tracks (value, birth
   delta); binary operands are aligned by delaying the earlier one. *)
let build_design recipe =
  let m = Builder.create_module () in
  let f =
    Builder.func m ~name:"fuzz"
      ~args:
        [
          Builder.arg "inp"
            (Types.memref ~dims:[ input_size ] ~elem:Typ.i32 ~port:Types.Read ());
          Builder.arg "out"
            (Types.memref ~packing:(Some []) ~dims:[ max_outputs ] ~elem:Typ.i32
               ~port:Types.Write ());
        ]
      (fun b args t ->
        match args with
        | [ inp; out ] ->
          let pool = ref [] in
          let push v d = pool := !pool @ [ (v, d) ] in
          let nth i = List.nth !pool (i mod List.length !pool) in
          let align (v, d) target =
            if d = target then v
            else Builder.delay b v ~by:(target - d) ~at:Builder.(t @>> d)
          in
          List.iter
            (fun step ->
              match step with
              | S_read (i, d) ->
                let idx = Builder.constant b i in
                let v = Builder.mem_read b inp [ idx ] ~at:Builder.(t @>> d) in
                push v (d + 1)
              | S_bin (op, a_i, b_i) ->
                let va, da = nth a_i and vb, db = nth b_i in
                let target = max da db in
                let va = align (va, da) target and vb = align (vb, db) target in
                push (Builder.binop op b va vb) target
              | S_bin_const (op, a_i, c) ->
                let va, da = nth a_i in
                let vc = Builder.constant b c in
                push (Builder.binop op b va vc) da
              | S_delay (a_i, by) ->
                let va, da = nth a_i in
                push (Builder.delay b va ~by ~at:Builder.(t @>> da)) (da + by))
            recipe.steps;
          List.iteri
            (fun slot pool_idx ->
              let v, d = nth pool_idx in
              let idx = Builder.constant b slot in
              Builder.mem_write b v out [ idx ] ~at:Builder.(t @>> d))
            recipe.outputs;
          Builder.return_ b []
        | _ -> assert false)
  in
  (m, f)

(* The read port sees several reads; reads that share a cycle must
   share an address (§4.5).  The generator does not guarantee that, so
   recipes with read conflicts are filtered out by the verifier — the
   property only requires agreement on *accepted* designs. *)
let verifier_accepts m =
  let e = Diagnostic.Engine.create () in
  (match Verify.verify m with
  | Ok () -> ()
  | Error err -> List.iter (Diagnostic.Engine.emit e) (Diagnostic.Engine.to_list err));
  Verify_schedule.verify_module e m;
  not (Diagnostic.Engine.has_errors e)

let arb_recipe = QCheck.make ~print:recipe_to_string gen_recipe

(* ------------------------------------------------------------------ *)
(* Loop recipes: a pipelined hir.for at a chosen initiation interval.

   Body shape: read inp[i] (1-cycle latency), feed it through a random
   chain of constant binops, optionally add [lr_extra] pipeline stages
   of delay, and write to out[i] at the matching stage.  The yield
   offset IS the initiation interval, so II ∈ 1..3 pipelines iterations
   at different overlaps against the multi-stage body. *)

type loop_recipe = {
  lr_ii : int;  (* initiation interval, 1..3 *)
  lr_chain : (string * int) list;  (* constant binop chain on the read value *)
  lr_extra : int;  (* extra delay stages before the write, 0..2 *)
}

let loop_recipe_to_string r =
  Printf.sprintf "ii=%d chain=[%s] extra=%d" r.lr_ii
    (String.concat "; " (List.map (fun (op, c) -> Printf.sprintf "%s %d" op c) r.lr_chain))
    r.lr_extra

let gen_loop_recipe : loop_recipe QCheck.Gen.t =
  let open QCheck.Gen in
  let* lr_ii = int_range 1 3 in
  let* n_chain = int_range 0 4 in
  let* lr_chain = list_repeat n_chain (pair (oneofl ops_pool) (int_range (-100) 1000)) in
  let* lr_extra = int_range 0 2 in
  return { lr_ii; lr_chain; lr_extra }

let build_loop_design r =
  let m = Builder.create_module () in
  let f =
    Builder.func m ~name:"loopfuzz"
      ~args:
        [
          Builder.arg "inp"
            (Types.memref ~dims:[ input_size ] ~elem:Typ.i32 ~port:Types.Read ());
          Builder.arg "out"
            (Types.memref ~dims:[ input_size ] ~elem:Typ.i32 ~port:Types.Write ());
        ]
      (fun b args t ->
        match args with
        | [ inp; out ] ->
          let c0 = Builder.constant b 0 in
          let c1 = Builder.constant b 1 in
          let cn = Builder.constant b input_size in
          let _tf =
            Builder.for_loop b ~iv_hint:"i" ~lb:c0 ~ub:cn ~step:c1
              ~at:Builder.(t @>> 1)
              (fun b ~iv:i ~ti ->
                Builder.yield b ~at:Builder.(ti @>> r.lr_ii);
                (* The read value is born at ti@1 (1-cycle latency). *)
                let v = Builder.mem_read b inp [ i ] ~at:Builder.(ti @>> 0) in
                let v =
                  List.fold_left
                    (fun v (op, c) -> Builder.binop op b v (Builder.constant b c))
                    v r.lr_chain
                in
                let stage = 1 + r.lr_extra in
                let v =
                  if r.lr_extra = 0 then v
                  else Builder.delay b v ~by:r.lr_extra ~at:Builder.(ti @>> 1)
                in
                let addr = Builder.delay b i ~by:stage ~at:Builder.(ti @>> 0) in
                Builder.mem_write b v out [ addr ] ~at:Builder.(ti @>> stage))
          in
          Builder.return_ b []
        | _ -> assert false)
  in
  (m, f)

let arb_loop_recipe = QCheck.make ~print:loop_recipe_to_string gen_loop_recipe

(* ------------------------------------------------------------------ *)
(* Unroll recipes: [hir.unroll_for] bodies, the outliner's input shape *)

type unroll_recipe = {
  ur_iters : int;  (* unrolled trip count, 2..6 *)
  ur_chain : (string * int) list;  (* per-clone binop chain *)
  ur_stages : int;  (* extra delay stages before the write, 0..2 *)
}

let unroll_recipe_to_string r =
  Printf.sprintf "iters=%d chain=[%s] stages=%d" r.ur_iters
    (String.concat "; " (List.map (fun (op, c) -> Printf.sprintf "%s %d" op c) r.ur_chain))
    r.ur_stages

let gen_unroll_recipe : unroll_recipe QCheck.Gen.t =
  let open QCheck.Gen in
  let* ur_iters = int_range 2 6 in
  let* n_chain = int_range 1 5 in
  let* ur_chain = list_repeat n_chain (pair (oneofl ops_pool) (int_range (-100) 1000)) in
  let* ur_stages = int_range 0 2 in
  return { ur_iters; ur_chain; ur_stages }

(* out[u] = chain(inp[u]), one unroll_for clone per u, iterations
   serialized by the yield offset so the shared memory ports see one
   access per cycle.  Every clone has the same shape, so the emitter's
   grouping marks [ur_iters] structurally identical sites. *)
let build_unroll_design r =
  let m = Builder.create_module () in
  let f =
    Builder.func m ~name:"unrollfuzz"
      ~args:
        [
          Builder.arg "inp"
            (Types.memref ~dims:[ input_size ] ~elem:Typ.i32 ~port:Types.Read ());
          Builder.arg "out"
            (Types.memref ~dims:[ input_size ] ~elem:Typ.i32 ~port:Types.Write ());
        ]
      (fun b args t ->
        match args with
        | [ inp; out ] ->
          let _tf =
            Builder.unroll_for b ~iv_hint:"u" ~lb:0 ~ub:r.ur_iters ~step:1
              ~at:Builder.(t @>> 1)
              (fun b ~iv:u ~ti:tu ->
                Builder.yield b ~at:Builder.(tu @>> 1);
                let v = Builder.mem_read b inp [ u ] ~at:Builder.(tu @>> 0) in
                let v =
                  List.fold_left
                    (fun v (op, c) -> Builder.binop op b v (Builder.constant b c))
                    v r.ur_chain
                in
                let v =
                  if r.ur_stages = 0 then v
                  else Builder.delay b v ~by:r.ur_stages ~at:Builder.(tu @>> 1)
                in
                Builder.mem_write b v out [ u ] ~at:Builder.(tu @>> (1 + r.ur_stages)))
          in
          Builder.return_ b []
        | _ -> assert false)
  in
  (m, f)

let arb_unroll_recipe = QCheck.make ~print:unroll_recipe_to_string gen_unroll_recipe
