(* The schedule verification pass (paper Section 6.1).

   Detects, at compile time:
   - mismatched delays: an operand consumed at a cycle other than the
     one at which it is valid (Figure 1: a pipelined loop's induction
     variable used one cycle late; Figure 2: adder inputs arriving from
     differently-pipelined producers);
   - uses across unrelated time domains;
   - loops whose yield would restart an iteration in the past (II < 1
     for hir.for);
   - memref port conflicts: two accesses statically scheduled on the
     same port in the same cycle (undefined behaviour per Section 4.5)
     unless they target provably distinct banks. *)

open Hir_ir

let verify_loop_iis engine analysis func =
  Ir.Walk.ops_pre func ~f:(fun op ->
      match Ir.Op.name op with
      | "hir.for" -> (
        match Time_analysis.loop_ii analysis op with
        | Some ii when ii < 1 ->
          Diagnostic.Engine.errorf engine (Ir.Op.loc op)
            "Schedule error: loop initiation interval must be at least 1, got %d" ii
        | _ -> ())
      | "hir.unroll_for" -> (
        match Time_analysis.loop_ii analysis op with
        | Some ii when ii < 0 ->
          Diagnostic.Engine.errorf engine (Ir.Op.loc op)
            "Schedule error: unroll_for initiation interval must be non-negative, got %d"
            ii
        | _ -> ())
      | _ -> ())

(* Two accesses on the same memref port at the same (root, delta) are a
   conflict unless their distributed-dimension indices are constants
   that select different banks. *)
let verify_port_conflicts engine analysis func =
  let accesses : (int, (Ir.op * (Ir.value * int)) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  Ir.Walk.ops_pre func ~f:(fun op ->
      let record mem =
        match Time_analysis.op_start analysis op with
        | None -> ()
        | Some start ->
          let key = Ir.Value.id mem in
          let cell =
            match Hashtbl.find_opt accesses key with
            | Some c -> c
            | None ->
              let c = ref [] in
              Hashtbl.add accesses key c;
              c
          in
          cell := (op, start) :: !cell
      in
      match Ir.Op.name op with
      | "hir.mem_read" -> record (Ops.mem_read_mem op)
      | "hir.mem_write" -> record (Ops.mem_write_mem op)
      | _ -> ());
  let static_bank op =
    (* Bank selected by the access, if all distributed indices are
       compile-time constants. *)
    let mem, indices =
      if Ir.Op.name op = "hir.mem_read" then (Ops.mem_read_mem op, Ops.mem_read_indices op)
      else (Ops.mem_write_mem op, Ops.mem_write_indices op)
    in
    let info = Types.memref_info (Ir.Value.typ mem) in
    let dist_consts =
      List.map2
        (fun d idx -> if d.Types.packed then Some 0 else Ops.as_constant idx)
        info.dims indices
    in
    if List.for_all Option.is_some dist_consts then
      Some (Types.bank_of_indices info (List.map (Option.value ~default:0) dist_consts))
    else None
  in
  (* Each access is paired only with the later accesses of its own
     cycle, found by chaining the accesses per (root, delta); each bank
     is computed at most once.  The diagnostics come out in the order a
     scan of every pair would produce them. *)
  Hashtbl.iter
    (fun _ cell ->
      let items = Array.of_list !cell in
      let n = Array.length items in
      let banks = Array.map (fun (op, _) -> lazy (static_bank op)) items in
      (* next.(i): the next access after i in i's cycle, or n. *)
      let next = Array.make n n in
      let later = Hashtbl.create 16 in
      for i = n - 1 downto 0 do
        let root, d = snd items.(i) in
        let key = (Ir.Value.id root, d) in
        Option.iter (fun j -> next.(i) <- j) (Hashtbl.find_opt later key);
        Hashtbl.replace later key i
      done;
      for i = 0 to n - 1 do
        let j = ref next.(i) in
        while !j < n do
          let distinct_banks =
            match (Lazy.force banks.(i), Lazy.force banks.(!j)) with
            | Some x, Some y -> x <> y
            | _ -> false
          in
          if not distinct_banks then
            Diagnostic.Engine.error engine
              (Ir.Op.loc (fst items.(i)))
              ~notes:
                [ Diagnostic.note ~loc:(Ir.Op.loc (fst items.(!j))) "Conflicting access here." ]
              "Schedule error: multiple accesses to the same memref port in the same cycle";
          j := next.(!j)
        done
      done)
    accesses

let verify_func engine func =
  if not (Ops.is_extern_func func) then begin
    let analysis = Time_analysis.analyze ~engine func in
    verify_loop_iis engine analysis func;
    verify_port_conflicts engine analysis func
  end

let verify_module engine module_op =
  List.iter (verify_func engine) (Ops.module_funcs module_op)

let run module_op engine =
  verify_module engine module_op;
  false

let pass =
  Pass.make ~name:"verify-schedule"
    ~description:"Statically check the explicit schedule (Section 6.1)" run
