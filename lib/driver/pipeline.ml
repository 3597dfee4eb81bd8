(* Textual pass-pipeline specifications: pipelines as data.

   A spec is a comma-separated list of registered pass names; spaces
   around a name are ignored and a pass runs once per mention:

     "canonicalize,precision-opt,unroll,delay-elim"
     "cse,retime,retime,precision-opt"

   Names resolve against the pass registry below at parse time, so a
   typo fails fast instead of silently doing nothing, and a spec prints
   back in normalized form ([parse] o [to_string] is the identity on
   normalized specs). *)

open Hir_ir
open Hir_dialect

(* The passes of a spec, in the order they run. *)
type spec = Pass.t list

(* ------------------------------------------------------------------ *)
(* Pass registry                                                       *)

(* The structural verifier as a pass, so "verify" can appear anywhere
   in a pipeline string. *)
let verify_pass =
  Pass.make ~name:"verify" ~description:"Check structural IR invariants"
    (fun root engine ->
      (match Verify.verify root with
      | Ok () -> ()
      | Error e -> List.iter (Diagnostic.Engine.emit engine) (Diagnostic.Engine.to_list e));
      false)

let registry : (string * Pass.t) list =
  List.map
    (fun p -> (p.Pass.name, p))
    [
      verify_pass;
      Verify_schedule.pass;
      Passes.dce;
      Passes.const_fold;
      Passes.cse;
      Passes.strength_reduction;
      Passes.delay_elim;
      Passes.canonicalize;
      Precision_opt.pass;
      Retime.pass;
      Unroll.pass;
    ]

let available_passes () =
  List.map (fun (name, p) -> (name, p.Pass.description)) registry

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)

(* A parse failure, with the 0-based character offset of the offending
   stage within the spec string — the raw material for the located
   diagnostic [parse_located] returns. *)
type parse_error = { pe_offset : int; pe_msg : string }

let parse_result s =
  (* [offset] is where [part] starts in [s]; the error points at the
     stage's first non-blank character. *)
  let rec stages offset acc = function
    | [] -> Ok (List.rev acc)
    | part :: rest -> (
      let rec lead i =
        if i < String.length part && (part.[i] = ' ' || part.[i] = '\t') then lead (i + 1)
        else i
      in
      let error msg = Error { pe_offset = offset + lead 0; pe_msg = msg } in
      match String.trim part with
      | "" -> error "empty pipeline stage"
      | name -> (
        match List.assoc_opt name registry with
        | Some p -> stages (offset + String.length part + 1) (p :: acc) rest
        | None ->
          error
            (Printf.sprintf "unknown pass '%s' (available: %s)" name
               (String.concat ", " (List.map fst registry)))))
  in
  if String.trim s = "" then
    Error { pe_offset = 0; pe_msg = "empty pipeline specification" }
  else stages 0 [] (String.split_on_char ',' s)

let parse s = Result.map_error (fun e -> e.pe_msg) (parse_result s)

(* The located flavour of [parse], honouring the frontend's error
   contract: a malformed spec yields a [Diagnostic.t] whose location
   points into the (one-line) spec string at the offending stage,
   instead of a bare message — so `hirc --passes 'cse,unrol'` reports
   where in the argument the typo is. *)
let parse_located ?(file = "--passes") s =
  Result.map_error
    (fun e ->
      Diagnostic.error
        (Location.file ~file ~line:1 ~col:(e.pe_offset + 1))
        ("pipeline: " ^ e.pe_msg))
    (parse_result s)

let to_string spec = String.concat "," (List.map (fun p -> p.Pass.name) spec)

let to_passes spec = spec

(* The pipeline [Hir_codegen.Emit.compile] runs, with or without the
   optimizations. *)
let default ~optimize = Hir_codegen.Emit.default_passes ~optimize
