(* Per-function incremental compilation: what the driver's staged cache
   chain (see [Cache] for the entry kinds) adds to the compile stages of
   [Hir_codegen.Emit].

   The whole scheme rests on one invariant: every per-function artifact
   is a *pure function of printed text*.  The module is at the
   print∘parse fixed point (a parse is, and a builder module is named
   in place by [Printer.fix_names]); each function's printed form
   (plus the recursive hashes of its callees and the pass-pipeline
   spec) is its *cone hash*; the stages optimize and emit each function
   in fresh mini-modules built under an isolated id counter, holding
   exactly what those texts parse to.  Cold compiles and warm
   recompiles therefore run the exact same construction on the exact
   same IR, which is what makes an incremental recompile byte-identical
   to a cold one — the property the qcheck suite pins.

   The compile path neither prints nor parses per-function text, and a
   job without a cache prints nothing at all: a plan holds the module's
   print, and each function's printed form, its slice of that print
   ([Printer.slice]), as lazy values that only a cache key or a cache
   store forces.  Properties in test_incremental pin slice ≡ print and
   clone ≡ parse on random designs and every kernel: same printed text,
   same id sequences, same Verilog.  The parse side
   ([Emit.Text] members, [module_of_texts]) serves that property and
   the benchmark's staged replay.

   Each compiled function becomes one [compiled] record: its Verilog
   module, the shared definitions that module instantiates, and its
   inclusive usage.  A record is one [Vmod] cache entry ([payload],
   [of_payload]), and [link] concatenates the records of a cone into
   the design. *)

open Hir_ir
open Hir_dialect
module Emit = Hir_codegen.Emit

(* The stages' own exceptions, under the names the benchmark's staged
   replay and the fuzzer catch: a module the stages cannot compile (an
   unknown callee, a call cycle, a function that is not self-contained)
   is a codegen error, and a pass pipeline's rejection carries its
   diagnostics. *)
exception Fallback = Emit.Codegen_error
exception Pass_failed = Emit.Pass_failed

(* A function of a plan with its printed form, as the benchmark's
   staged replay and the tests read it. *)
type fn_info = {
  fi_func : Ir.op;  (* the function inside [pl_module] *)
  fi_text : string;  (* normalized per-function printed form *)
  fi_callees : string list;  (* direct callees, deduped, discovery order *)
  fi_extern : bool;
}

type plan = {
  pl_module : Ir.op;  (* the module, at the print∘parse fixed point *)
  pl_text : string Lazy.t;  (* its printed form, printed when forced *)
  pl_fns : Emit.functions;  (* the first function of each name *)
  pl_texts : (string, string Lazy.t) Hashtbl.t;  (* their slices of [pl_text] *)
}

(* ------------------------------------------------------------------ *)
(* Planning                                                            *)

(* [module_op] must be verified and at the print∘parse fixed point (a
   parse, or a module named by [Printer.fix_names]); [text], when
   given, is its print, and otherwise it is printed when forced.  A
   verified module holds only functions, so its functions and the
   top-level ranges of its print pair up in order, and each function's
   printed form is its slice of the module's print: the plan prints no
   function. *)
let plan_of_module ?text module_op =
  let pl_text =
    match text with Some t -> t | None -> lazy (Printer.op_to_string module_op)
  in
  let ranges = lazy (Array.of_list (Printer.top_level_ranges (Lazy.force pl_text))) in
  let texts = Hashtbl.create 16 in
  List.iteri
    (fun i f ->
      let name = Ops.func_name f in
      if not (Hashtbl.mem texts name) then
        Hashtbl.add texts name
          (lazy (Printer.slice (Lazy.force pl_text) (Lazy.force ranges).(i))))
    (Ops.module_funcs module_op);
  { pl_module = module_op; pl_text; pl_fns = Emit.functions module_op; pl_texts = texts }

(* Plan a parsed, verified module for a job with a cache, whose keys
   hash printed text.  A parse is at the print∘parse fixed point as it
   stands: its hints are its source names, which the parser requires
   to be unique module-wide, so [Printer.fix_names] would rename
   nothing.  The module is therefore compiled as parsed, with or
   without a cache, and only printed here.  A print that differs from
   the source [text] is what the job's Src entry stores and a later hit
   parses, so it must re-parse; that parse is discarded.  If it does
   not re-parse, the printed form is not a faithful serialization of
   this IR and the staged path must not be trusted with it. *)
let normalize ~file ~text module_op =
  let printed = Printer.op_to_string module_op in
  if not (String.equal printed text) then begin
    match Ir.with_isolated_ids (fun () -> Parser.parse_string ~file printed) with
    | _ -> ()
    | exception (Parser.Parse_error _ | Lexer.Lex_error _) ->
      raise (Fallback "module print does not re-parse")
  end;
  plan_of_module ~text:(Lazy.from_val printed) module_op

let text plan name = Lazy.force (Hashtbl.find plan.pl_texts name)

let fn_info plan name =
  let fn = Emit.find plan.pl_fns name in
  {
    fi_func = fn.Emit.fn_func;
    fi_text = text plan name;
    fi_callees = fn.Emit.fn_callees;
    fi_extern = fn.Emit.fn_extern;
  }

(* The cone of [top] in dependency order (every callee before its
   callers) and in the order the design lists its modules. *)
let usage_order plan ~top = (Emit.cone plan.pl_fns ~top).Emit.co_deps
let emit_order plan ~top = (Emit.cone plan.pl_fns ~top).Emit.co_emit

(* The pre-optimization cone of [name]: its transitive callees in
   dependency order, itself last.  No compile stage builds this layout
   ([Emit.optimize_fn] holds the function alone); the frozen
   benchmark's staged replay reads it. *)
let cone_texts plan name = List.map (fun n -> (n, text plan n)) (usage_order plan ~top:name)

let module_of_texts texts f =
  Emit.mini_module (List.map (fun (name, text) -> (name, Emit.Text text)) texts) f

(* ------------------------------------------------------------------ *)
(* Cone hashes                                                         *)

(* h(f) = Digest(pipeline ⊕ text(f) ⊕ sorted (callee, h(callee))):
   changing a function's body, its pipeline, or anything any transitive
   callee's hash covers changes h(f); editing a sibling function does
   not.  The version salt lives in [Cache.stage_key], not here.  Each
   function is hashed once, after its callees, in its cone's dependency
   order, so a call cycle is rejected by the cone walk. *)
let cone_hashes plan ~pipeline =
  let memo = Hashtbl.create 16 in
  let hash name =
    let callee_part =
      (Emit.find plan.pl_fns name).Emit.fn_callees
      |> List.map (fun c -> (c, Hashtbl.find memo c))
      |> List.sort compare
      |> List.map (fun (c, h) -> c ^ "=" ^ h)
      |> String.concat ","
    in
    Digest.to_hex (Digest.string (String.concat "\x00" [ pipeline; text plan name; callee_part ]))
  in
  fun name ->
    if not (Hashtbl.mem memo name) then
      List.iter
        (fun n -> if not (Hashtbl.mem memo n) then Hashtbl.replace memo n (hash n))
        (usage_order plan ~top:name);
    Hashtbl.find memo name

(* The Verilog module name [name] emits as — the key instances use. *)
let emitted_module_name name = Hir_codegen.Names.sanitize name

(* ------------------------------------------------------------------ *)
(* Compiled functions                                                  *)

(* One compiled function: its Verilog module text, the shared
   definitions ([hirdef_*] modules) that module instantiates, as
   (name, text) in registration order, and its inclusive usage.  It is
   what the function's [Vmod] entry holds and what [link] reads. *)
type compiled = {
  c_text : string;
  c_defs : (string * string) list;
  c_usage : Hir_resources.Model.usage;
}

(* Print the module and definitions emitted for [name] and compute the
   usages bottom-up: a definition may instantiate the ones registered
   before it, and the function's module instantiates its definitions
   and its direct callees, whose records [compiled] returns. *)
let print_compiled plan ~compiled name ((vmodule : Hir_verilog.Ast.module_def), defs) =
  let usages = Hashtbl.create 8 in
  List.iter
    (fun c -> Hashtbl.replace usages (emitted_module_name c) (compiled c).c_usage)
    (Emit.find plan.pl_fns name).Emit.fn_callees;
  let usage (m : Hir_verilog.Ast.module_def) =
    Hir_resources.Model.module_usage m ~instance_usage:(fun mname ->
        match Hashtbl.find_opt usages mname with
        | Some u -> u
        | None -> raise (Fallback ("instance of unknown module " ^ mname)))
  in
  let c_defs =
    List.map
      (fun (d : Hir_verilog.Ast.module_def) ->
        Hashtbl.replace usages d.mod_name (usage d);
        (d.mod_name, Hir_verilog.Pretty.module_to_string d))
      defs
  in
  {
    c_text = Hir_verilog.Pretty.module_to_string vmodule;
    c_defs;
    c_usage = usage vmodule;
  }

(* A function's [Vmod] payload.  With definitions it leads with a
   manifest line naming each one with its byte length, followed by
   their texts and then the module text; without, it is the module
   text alone. *)
let manifest_prefix = "//hirdefs:"

let payload c =
  match c.c_defs with
  | [] -> c.c_text
  | defs ->
    let field (name, text) = Printf.sprintf " %s:%d" name (String.length text) in
    String.concat ""
      ((manifest_prefix ^ String.concat "" (List.map field defs) ^ "\n")
       :: List.map snd defs
      @ [ c.c_text ])

(* The record [payload] wrote, given the entry's usage; [None] when the
   manifest does not describe the payload. *)
let of_payload ~usage p =
  let len = String.length p in
  let rec split at defs = function
    | [] ->
      Some { c_text = String.sub p at (len - at); c_defs = List.rev defs; c_usage = usage }
    | field :: fields -> (
      match String.split_on_char ':' field with
      | [ name; n ] -> (
        match int_of_string_opt n with
        | Some n when n >= 0 && n <= len - at ->
          split (at + n) ((name, String.sub p at n) :: defs) fields
        | _ -> None)
      | _ -> None)
  in
  if not (String.starts_with ~prefix:manifest_prefix p) then
    Some { c_text = p; c_defs = []; c_usage = usage }
  else
    match String.index_opt p '\n' with
    | None -> None
    | Some nl ->
      let plen = String.length manifest_prefix in
      String.sub p plen (nl - plen)
      |> String.split_on_char ' '
      |> List.filter (fun f -> f <> "")
      |> split (nl + 1) []

(* Assemble the final design text from per-module texts in emit order,
   byte-identical to [Hir_verilog.Pretty.design_to_string] of the same
   modules (pinned by a unit test). *)
let link_design module_texts =
  "// Generated by the HIR compiler\n\n" ^ String.concat "\n" module_texts

(* The design text of a cone from its functions' records, in [order]
   (the cone's [co_emit]), placed as [Emit.compile] places modules. *)
let link order ~compiled =
  link_design
    (Emit.place order (fun fn ->
         let c = compiled fn in
         (c.c_defs, c.c_text)))
