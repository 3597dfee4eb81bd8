(* The whole-module compile flow, kept as the oracle of the staged flow
   [Hir_codegen.Emit.compile] runs.  Here the default pipeline runs once
   over the whole module, in place, and every function of the top's
   cone is emitted from that one module; the staged flow optimizes each
   function alone in a mini-module of its own and emits it beside its
   pre-optimization callees.  test_differential runs the two in
   lockstep on kernels and random designs: the same cycle counts,
   outputs, assertion failures and usage.  The Verilog names differ
   (they derive from op ids and value names, which the two flows
   allocate differently), so the bytes are not compared. *)

open Hir_ir
open Hir_dialect
module Emit = Hir_codegen.Emit
module V = Hir_verilog.Ast

let fail fmt = Format.kasprintf (fun s -> raise (Emit.Codegen_error s)) fmt

(* Transitive callees of a function, depth first.  [path] holds the
   functions on the current call chain: a callee already on it is a
   call cycle. *)
let rec callees_of ~module_op ~path func acc =
  let calls = Ir.Walk.find_all func "hir.call" in
  List.fold_left
    (fun acc call ->
      let name = Ops.call_callee call in
      if List.mem name path then fail "call cycle through @%s" name
      else if List.mem_assoc name acc then acc
      else
        match Ops.lookup_func module_op name with
        | None -> fail "call to unknown function @%s" name
        | Some callee ->
          let acc = (name, callee) :: acc in
          if Ops.is_extern_func callee then acc
          else callees_of ~module_op ~path:(name :: path) callee acc)
    acc calls

(* Emit [top]'s cone from [module_op] as it stands: callees in
   discovery order, then the top, each shared definition placed once
   before the first module that instantiates it. *)
let emit ?(hier = true) ~module_op ~top () =
  if Ops.is_extern_func top then
    fail "top function @%s is extern (it has no body to emit)" (Ops.func_name top);
  let callees = callees_of ~module_op ~path:[ Ops.func_name top ] top [] in
  let modules = ref [] in
  let seen_defs = Hashtbl.create 16 in
  let add_defs defs =
    List.iter
      (fun (d : V.module_def) ->
        if not (Hashtbl.mem seen_defs d.V.mod_name) then begin
          Hashtbl.replace seen_defs d.V.mod_name ();
          modules := d :: !modules
        end)
      defs
  in
  List.iter
    (fun (_, callee) ->
      if Ops.is_extern_func callee then
        modules := Emit.emit_extern_module callee :: !modules
      else begin
        let m, defs, _ = Emit.emit_module_for ~hier ~module_op callee in
        add_defs defs;
        modules := m :: !modules
      end)
    (List.rev callees);
  let top_module, top_defs, top_ifc = Emit.emit_module_for ~hier ~module_op top in
  add_defs top_defs;
  modules := top_module :: !modules;
  {
    Emit.design = { V.modules = List.rev !modules; top = top_ifc.Emit.ifc_module };
    top_iface = top_ifc;
  }

(* The default pipeline over the whole module, in place. *)
let run_passes ~optimize module_op =
  let engine = Diagnostic.Engine.create () in
  List.iter
    (fun (p : Pass.t) -> ignore (p.Pass.run module_op engine))
    (Emit.default_passes ~optimize)

let compile ?(optimize = false) ?(hier = true) ~module_op ~top () =
  run_passes ~optimize module_op;
  emit ~hier ~module_op ~top ()
