(* Per-function incremental compilation: the pure machinery behind the
   driver's staged cache chain (see [Cache] for the entry kinds).

   The whole scheme rests on one invariant: every per-function artifact
   is a *pure function of printed text*.  The module is first
   normalized to the print∘parse fixed point; each function's
   normalized printed form (plus the recursive hashes of its callees
   and the pass-pipeline spec) is its *cone hash*; optimizing or
   emitting a function happens in a fresh mini-module built under an
   isolated id counter, holding exactly what those texts parse to.
   Cold compiles and warm recompiles therefore run the exact same
   construction on the exact same IR, which is what makes an
   incremental recompile byte-identical to a cold one — the property
   the qcheck suite pins.

   The compile path never parses per-function text: it builds its
   mini-modules in memory, cloning the functions of the normalized
   module and the optimized function the optimizer has just named with
   [Printer.fix_names].  Both are at the print∘parse fixed point, and
   [Ir.Clone] allocates ids in the parser's order, so a clone is the IR
   its text would parse to, id for id.  A qcheck property in
   test_incremental pins clone ≡ parse on random designs and every
   kernel: same printed text, same id sequences, same Verilog.  The parse side ([Text] members, [module_of_texts]) serves
   that property and the benchmark's staged replay.

   Each compiled function becomes one [compiled] record: its Verilog
   module, the shared definitions that module instantiates, and its
   inclusive usage.  A record is one [Vmod] cache entry ([payload],
   [of_payload]), and [link] concatenates the records of a cone into
   the design.

   Modules that this decomposition cannot compile raise [Fallback]
   with the reason: a call to an unknown function, a call cycle (no
   finite hardware instantiates itself), or a function that is not
   self-contained (its printed form would not re-parse standalone).
   The driver reports the reason as the job's codegen diagnostic. *)

open Hir_ir
open Hir_dialect

(* The staged path cannot compile this module; the driver reports the
   reason. *)
exception Fallback of string

(* A pass pipeline rejected a mini-module: the pass diagnostics are the
   job's error. *)
exception Pass_failed of Diagnostic.t list

type fn_info = {
  fi_func : Ir.op;  (* the function inside [pl_module] *)
  fi_text : string;  (* normalized per-function printed form *)
  fi_callees : string list;  (* direct callees, deduped, discovery order *)
  fi_extern : bool;
}

type plan = {
  pl_module : Ir.op;  (* the normalized module *)
  pl_text : string;  (* its printed form (the print∘parse fixed point) *)
  pl_fns : (string, fn_info Lazy.t) Hashtbl.t;
      (* the first function of each name; built on first use, so a job
         prints only the functions in its top's cone *)
}

(* ------------------------------------------------------------------ *)
(* Normalization                                                       *)

let direct_callees func =
  let seen = Hashtbl.create 8 in
  Ir.Walk.find_all func "hir.call"
  |> List.filter_map (fun call ->
         let name = Ops.call_callee call in
         if Hashtbl.mem seen name then None
         else begin
           Hashtbl.replace seen name ();
           Some name
         end)

(* [module_op] must be at the print∘parse fixed point; [text], when
   given, must be [Printer.op_to_string module_op]. *)
let plan_of_module ?text module_op =
  let fns = Hashtbl.create 16 in
  List.iter
    (fun f ->
      let name = Ops.func_name f in
      if not (Hashtbl.mem fns name) then
        Hashtbl.add fns name
          (lazy
            {
              fi_func = f;
              fi_text = Printer.op_to_string f;
              fi_callees = direct_callees f;
              fi_extern = Ops.is_extern_func f;
            }))
    (Ops.module_funcs module_op);
  let pl_text =
    match text with Some t -> t | None -> Printer.op_to_string module_op
  in
  { pl_module = module_op; pl_text; pl_fns = fns }

(* Normalize a parsed module to the print∘parse fixed point.  Printing
   then re-parsing assigns every value a hint equal to its printed name
   (module-wide uniquified), after which printing is the identity — so
   all per-function texts derived from the result agree with each
   other, whichever parse produced them.  One round suffices; if the
   module's own print fails to re-parse, the printed form is not a
   faithful serialization of this IR and the staged path must not be
   trusted with it. *)
let normalize ~file ~text module_op =
  let printed = Printer.op_to_string module_op in
  if String.equal printed text then plan_of_module ~text module_op
  else
    match Parser.parse_string ~file printed with
    | m -> plan_of_module m
    | exception (Parser.Parse_error _ | Lexer.Lex_error _) ->
      raise (Fallback "module print does not re-parse")

let fn_info plan name =
  match Hashtbl.find_opt plan.pl_fns name with
  | Some fi -> Lazy.force fi
  | None -> raise (Fallback (Printf.sprintf "call to unknown function @%s" name))

(* ------------------------------------------------------------------ *)
(* Cone hashes                                                         *)

(* h(f) = Digest(pipeline ⊕ text(f) ⊕ sorted (callee, h(callee))):
   changing a function's body, its pipeline, or anything any transitive
   callee's hash covers changes h(f); editing a sibling function does
   not.  The version salt lives in [Cache.stage_key], not here.  Call
   cycles cannot be hashed this way (nor emitted); they are rejected. *)
let cone_hashes plan ~pipeline =
  let memo = Hashtbl.create 16 in
  let visiting = Hashtbl.create 8 in
  let rec hash name =
    match Hashtbl.find_opt memo name with
    | Some h -> h
    | None ->
      if Hashtbl.mem visiting name then
        raise (Fallback (Printf.sprintf "call cycle through @%s" name));
      Hashtbl.replace visiting name ();
      let fi = fn_info plan name in
      let callee_part =
        fi.fi_callees
        |> List.map (fun c -> (c, hash c))
        |> List.sort compare
        |> List.map (fun (c, h) -> c ^ "=" ^ h)
        |> String.concat ","
      in
      let h =
        Digest.to_hex
          (Digest.string (String.concat "\x00" [ pipeline; fi.fi_text; callee_part ]))
      in
      Hashtbl.remove visiting name;
      Hashtbl.replace memo name h;
      h
  in
  hash

(* ------------------------------------------------------------------ *)
(* Cone orders                                                         *)

(* Transitive callees of [top] in the discovery order [Emit.callees_of]
   uses, so the staged design concatenates its modules in the same
   order [Emit.emit] lists them: callees first (reverse discovery), top
   last. *)
let emit_order plan ~top =
  let acc = ref [] in
  let rec go name =
    let fi = fn_info plan name in
    List.iter
      (fun callee ->
        if not (List.mem callee !acc) then begin
          acc := callee :: !acc;
          let cfi = fn_info plan callee in
          if not cfi.fi_extern then go callee
        end)
      fi.fi_callees
  in
  go top;
  List.rev !acc @ [ top ]

(* The same cone in dependency order (every callee before its callers),
   so inclusive usages can be computed bottom-up. *)
let usage_order plan ~top =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec go name =
    if not (Hashtbl.mem seen name) then begin
      Hashtbl.replace seen name ();
      let fi = fn_info plan name in
      List.iter go fi.fi_callees;
      acc := name :: !acc
    end
  in
  go top;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Mini-modules                                                        *)

(* One function of a mini-module: an op at the print∘parse fixed point
   to clone, or a printed form to parse. *)
type member = Clone of Ir.op | Text of string

(* Parse one function's printed text back into an op.  Each text is a
   single "hir.func" op, so [Parser.parse_string] consumes it whole;
   a text that does not re-parse (a value captured across function
   boundaries, a printer/parser asymmetry) aborts the staged path. *)
let parse_fn_text ~what text =
  match Parser.parse_string ~file:what text with
  | op when Ir.Op.name op = "hir.func" -> op
  | _ -> raise (Fallback (Printf.sprintf "%s: not a standalone function" what))
  | exception (Parser.Parse_error _ | Lexer.Lex_error _) ->
    raise (Fallback (Printf.sprintf "%s does not re-parse standalone" what))

(* Clone one function with a mapping table of its own: the plan's ids
   and an optimizer mini-module's ids come from different counters, so
   one table shared across functions could confuse them.  An operand
   the function does not define before its use is what the parser would
   reject as an undefined value. *)
let clone_fn ~what f =
  Ir.Clone.clone_op ~mapping:(Hashtbl.create 64)
    ~unmapped:(fun _ ->
      raise
        (Fallback (Printf.sprintf "%s uses a value it does not define first" what)))
    f

(* A fresh module holding the given functions, in order, built under an
   isolated id counter: ids run 0..n in member order, the same whether
   a member is cloned or parsed, so the construction is a pure function
   of the members' printed texts. *)
let mini_module members f =
  Ir.with_isolated_ids (fun () ->
      let m = Builder.create_module () in
      let block = Builder.module_block m in
      List.iter
        (fun (name, member) ->
          let what = "@" ^ name in
          Ir.Block.append block
            (match member with
            | Clone op -> clone_fn ~what op
            | Text text -> parse_fn_text ~what text))
        members;
      f m)

let module_of_texts texts f =
  mini_module (List.map (fun (name, text) -> (name, Text text)) texts) f

(* The pre-optimization cone of [name]: its transitive callees in
   dependency order, itself last.  This is the mini-module layout the
   optimizer builds. *)
let cone_texts plan name =
  List.map (fun n -> (n, (fn_info plan n).fi_text)) (usage_order plan ~top:name)

let cone_members plan name =
  List.map (fun n -> (n, Clone (fn_info plan n).fi_func)) (usage_order plan ~top:name)

let lookup mini name =
  match Ops.lookup_func mini name with Some f -> f | None -> assert false

(* ------------------------------------------------------------------ *)
(* Per-function optimize                                               *)

(* Optimize [name] in a fresh mini-module holding a clone of its
   pre-opt cone.  Returns the optimized function, left at the
   print∘parse fixed point without printing it, and the pass
   statistics.  The result depends only on the cone texts and the
   pipeline — exactly what the cone hash covers. *)
let optimize plan ~passes ~instrument name =
  mini_module (cone_members plan name) (fun mini ->
      let mgr = Pass.Manager.create ~instrument passes in
      let result = Pass.Manager.run mgr mini in
      if not result.Pass.succeeded then begin
        match Diagnostic.Engine.to_list result.Pass.engine with
        | [] ->
          raise
            (Pass_failed [ Diagnostic.error Location.unknown "pass pipeline failed" ])
        | diags -> raise (Pass_failed diags)
      end;
      let f =
        match Ops.lookup_func mini name with
        | Some f -> f
        | None -> raise (Fallback (Printf.sprintf "@%s vanished during optimization" name))
      in
      Printer.fix_names f;
      (f, result.Pass.stats))

(* ------------------------------------------------------------------ *)
(* Per-function emit                                                    *)

(* Emit one function's Verilog module.  The mini-module holds the
   *pre-opt* direct callees (instantiation only reads their interfaces,
   which optimization never changes) and the optimized function
   itself: the op [optimize] returned, or its printed form — the same
   IR either way (clone ≡ parse). *)
let emit_members plan ~opt name =
  List.map (fun c -> (c, Clone (fn_info plan c).fi_func)) (fn_info plan name).fi_callees
  @ [ (name, opt) ]

let emit_fn plan ~opt name =
  mini_module (emit_members plan ~opt name) (fun mini ->
      let vmodule, defs, _iface =
        Hir_codegen.Emit.emit_module_for ~module_op:mini (lookup mini name)
      in
      (vmodule, defs))

(* An extern function has no body to optimize: its module is a black
   box emitted from the declaration itself. *)
let emit_extern plan name =
  mini_module [ (name, Clone (fn_info plan name).fi_func) ] (fun mini ->
      (Hir_codegen.Emit.emit_extern_module (lookup mini name), []))

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

(* Print what [emit_fn] or [emit_extern] returned for [name] and
   compute the usages bottom-up: a definition may instantiate the ones
   registered before it, and the function's module instantiates its
   definitions and its direct callees, whose records [compiled]
   returns. *)
let print_compiled plan ~compiled name ((vmodule : Hir_verilog.Ast.module_def), defs) =
  let usages = Hashtbl.create 8 in
  List.iter
    (fun c -> Hashtbl.replace usages (emitted_module_name c) (compiled c).c_usage)
    (fn_info plan name).fi_callees;
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

(* The design of [top]'s cone from its functions' records, in emit
   order, with each definition placed once, before the first module
   that instantiates it, exactly as [Emit.emit] orders a whole design. *)
let link plan ~top ~compiled =
  let placed = Hashtbl.create 16 in
  link_design
    (List.concat_map
       (fun fn ->
         let c = compiled fn in
         List.filter_map
           (fun (name, text) ->
             if Hashtbl.mem placed name then None
             else begin
               Hashtbl.replace placed name ();
               Some text
             end)
           c.c_defs
         @ [ c.c_text ])
       (emit_order plan ~top))
