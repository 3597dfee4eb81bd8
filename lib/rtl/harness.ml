(* Testbench harness: runs a compiled HIR design in the RTL simulator
   with behavioural memory agents standing in for the external memory
   interfaces (the paper's "input/output memory interface").

   Each external memref port is served with 1-cycle read latency:
   addresses presented with rd_en at cycle T return data at T+1; writes
   presented at T are visible to reads from T+1 on — the same semantics
   as the HIR interpreter's memory model, which is what makes the
   codegen-vs-interpreter equivalence tests meaningful.

   The harness is written once against [SIM], the few operations it
   needs of a simulator.  [Make (Sim)] is included below, so
   [Harness.run] drives the opcode engine; the tests build
   [Make (Sim_reference)] to drive the reference walker through the
   same agents and VCD writer. *)

open Hir_dialect
module Emit = Hir_codegen.Emit

type input =
  | Scalar of Bitvec.t
  | Tensor of Bitvec.t array
  | Out_tensor

(* The same input to the HIR interpreter. *)
let interp_input = function
  | Scalar v -> Interp.Scalar v
  | Tensor a -> Interp.Tensor a
  | Out_tensor -> Interp.Out_tensor

(* The interpreter's latency of [func] on [inputs]: the cycle budget a
   run of its compiled design needs. *)
let interp_cycles ~module_op ~func inputs =
  (fst (Interp.run ~module_op ~func (List.map interp_input inputs))).Interp.cycles

(* Per-bank port accessors, resolved against the simulator once at
   agent construction ([int_reader]/[reader]/[writer] of [SIM]) so
   the per-cycle observe/drive loop does no name lookups, and reads
   enables and addresses without building a [Bitvec.t]. *)
type agent_bank = {
  b_rd : ((unit -> int) * (unit -> int) * (Bitvec.t -> unit)) option;
      (* en, addr, drive-data *)
  b_wr : ((unit -> int) * (unit -> int) * (unit -> Bitvec.t)) option;
      (* en, addr, data *)
}

type agent = {
  ag_elem_width : int;
  ag_tensor : Bitvec.t option array;  (* linear row-major; None = uninitialized *)
  ag_depth : int;  (* elements per bank *)
  ag_linear : int array;  (* [bank * depth + addr] -> linear index, -1 = no element *)
  ag_banks : agent_bank array;
  mutable ag_pending : ((Bitvec.t -> unit) * Bitvec.t) list;
      (* data-port writers to drive next cycle *)
}

let agent_tensor ag = ag.ag_tensor

(* Drive data inputs captured last cycle. *)
let agent_drive ag =
  List.iter (fun (drive, v) -> drive v) ag.ag_pending;
  ag.ag_pending <- []

(* Linear tensor index of address [a] on bank [b], or -1.  The address
   port is [clog2 depth] bits wide, so it can carry addresses at or past
   the bank's depth; those hold no element (and must not alias the next
   bank's). *)
let linear_index ag b a =
  if a >= 0 && a < ag.ag_depth then ag.ag_linear.((b * ag.ag_depth) + a) else -1

(* Observe settled outputs: capture reads (respond next cycle), apply
   writes (visible next cycle). *)
let agent_observe ag =
  let tensor = ag.ag_tensor in
  Array.iteri
    (fun b bank ->
      (match bank.b_rd with
      | Some (en, addr, drive) ->
        if en () <> 0 then begin
          let i = linear_index ag b (addr ()) in
          let value =
            match if i < 0 then None else tensor.(i) with
            | Some v -> v
            | None -> Bitvec.zero ag.ag_elem_width
            (* out-of-range or uninitialized read: UB in HIR; the
               interpreter rejects it, the RTL agent returns zeros *)
          in
          ag.ag_pending <- (drive, value) :: ag.ag_pending
        end
      | None -> ());
      match bank.b_wr with
      | Some (en, addr, data) ->
        if en () <> 0 then begin
          let i = linear_index ag b (addr ()) in
          if i >= 0 then tensor.(i) <- Some (data ())
        end
      | None -> ())
    ag.ag_banks

type run_result = {
  failures : Sim.assertion_failure list;
  cycles_run : int;
  output_values : (string * Bitvec.t) list;  (* scalar results at the end *)
  sim_stats : Sim.stats;
}

(* Snapshot of the [i]-th memref argument after a run (memref args
   only, in interface order). *)
let nth_tensor agents i = agent_tensor (List.nth agents i)

(* What the harness needs of a simulator.  [reader], [int_reader] and
   [writer] resolve a signal name once and return an accessor for the
   per-cycle loop; [signal_names] lists every signal with its width,
   for the VCD writer. *)
module type SIM = sig
  type t

  val create : Flatten.flat -> t
  val set_input : t -> string -> Bitvec.t -> unit
  val peek : t -> string -> Bitvec.t
  val reader : t -> string -> unit -> Bitvec.t
  val int_reader : t -> string -> unit -> int
  val writer : t -> string -> Bitvec.t -> unit
  val settle_only : t -> unit
  val clock : t -> unit
  val failures : t -> Sim.assertion_failure list
  val stats : t -> Sim.stats
  val signal_names : t -> (string * int) list
end

module Make (S : SIM) = struct
  let build_agent sim (mi : Emit.mem_iface) init =
    let info = mi.Emit.mi_info in
    let n = Types.num_elements info in
    let depth = Types.bank_depth info in
    let linear = Array.make (Array.length mi.Emit.mi_banks * depth) (-1) in
    List.iter
      (fun (idx, bank, addr) ->
        linear.((bank * depth) + addr) <-
          List.fold_left2 (fun acc d i -> (acc * d.Types.size) + i) 0 info.Types.dims idx)
      (Types.layout info);
    let resolve_bank (names : Emit.bank_names) =
      {
        b_rd =
          Option.map
            (fun (en, addr, data) ->
              (S.int_reader sim en, S.int_reader sim addr, S.writer sim data))
            names.Emit.bn_rd;
        b_wr =
          Option.map
            (fun (en, addr, data) ->
              (S.int_reader sim en, S.int_reader sim addr, S.reader sim data))
            names.Emit.bn_wr;
      }
    in
    {
      ag_elem_width = mi.Emit.mi_elem_width;
      ag_tensor =
        (match init with
        | Some values -> Array.map Option.some values
        | None -> Array.make n None);
      ag_depth = depth;
      ag_linear = linear;
      ag_banks = Array.map resolve_bank mi.Emit.mi_banks;
      ag_pending = [];
    }

  (* Drive scalar arguments and build one memory agent per memref
     argument of [sim]. *)
  let setup_agents sim ~(emitted : Emit.emitted) ~inputs =
    let args = emitted.Emit.top_iface.Emit.ifc_args in
    if List.length args <> List.length inputs then
      failwith "harness: input count mismatch";
    let agents =
      List.map2
        (fun arg input ->
          match (arg, input) with
          | Emit.Ifc_scalar (name, w, _), Scalar v ->
            S.set_input sim name (Bitvec.resize ~width:w v);
            None
          | Emit.Ifc_mem mi, Tensor init -> Some (build_agent sim mi (Some init))
          | Emit.Ifc_mem mi, Out_tensor -> Some (build_agent sim mi None)
          | _ -> failwith "harness: input does not match the interface")
        args inputs
    in
    List.filter_map (fun x -> x) agents

  (* One simulation cycle: drive, settle, optionally sample the VCD,
     observe memory traffic against the settled state, clock.  [start]
     is the pre-resolved writer for the t_start pulse. *)
  let cycle_once sim ~start agents vcd ~is_first =
    start (Bitvec.of_bool is_first);
    List.iter agent_drive agents;
    S.settle_only sim;
    Option.iter Vcd.sample vcd;
    List.iter agent_observe agents;
    S.clock sim

  (* Final settle, scalar outputs, stats. *)
  let finish_run sim ~(emitted : Emit.emitted) ~total =
    S.settle_only sim;
    let output_values =
      List.map
        (fun (name, _, _) -> (name, S.peek sim name))
        emitted.Emit.top_iface.Emit.ifc_results
    in
    let sim_stats = S.stats sim in
    Sim.record_stats sim_stats;
    { failures = S.failures sim; cycles_run = total; output_values; sim_stats }

  (* A VCD writer over every signal of [sim]. *)
  let open_vcd ~path sim =
    Vcd.create ~path
      (List.map (fun (name, width) -> (name, width, S.reader sim name)) (S.signal_names sim))

  (* One simulation.  A [Sim.Sim_error] (a combinational loop, a
     compilation bug) propagates to the caller. *)
  let run ?(extra_cycles = 8) ?vcd_path ~(emitted : Emit.emitted) ~inputs ~cycles () =
    let sim = S.create (Flatten.flatten emitted.Emit.design) in
    let vcd = Option.map (fun path -> open_vcd ~path sim) vcd_path in
    let agents = setup_agents sim ~emitted ~inputs in
    let start = S.writer sim "t_start" in
    let total = cycles + extra_cycles in
    for c = 0 to total - 1 do
      cycle_once sim ~start agents vcd ~is_first:(c = 0)
    done;
    let result = finish_run sim ~emitted ~total in
    Option.iter Vcd.close vcd;
    (result, agents)
end

include Make (Sim)
