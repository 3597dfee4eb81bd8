(* The fuzzing oracle and run loop.

   The frontend contract under test: for ANY input bytes, the compiler
   either succeeds or reports located diagnostics ([Lex_error],
   [Parse_error], verifier diagnostics, [Codegen_error]).  Any other
   exception — [Failure], [Invalid_argument], [Stack_overflow], … — is
   a crash, and each crash is reported with the input that triggered
   it.

   Full mode compiles each input through [Driver.compile_job_exn], the
   stages `hirc compile`, `batch` and `serve` ship, without
   [Driver.compile_job]'s error mapping: its catch-all backstop exists
   so a service never dies, and here the bugs it would paper over
   surface as crashes. *)

open Hir_ir
module Driver = Hir_driver.Driver
module Incr = Hir_driver.Incr

type mode =
  | Frontend  (* parse + [Driver.verifier_engine] *)
  | Full  (* the driver's whole compile: verify, passes, emit, print *)

type verdict =
  | Reject_lex
  | Reject_parse
  | Reject_verify  (* verifier or pass-pipeline diagnostics *)
  | Reject_backend  (* codegen error, or a module the staged compile rejects *)
  | Compiled_ok

type crash = {
  crash_iteration : int;  (* 1-based fuzz iteration *)
  crash_input : string;
  crash_exn : string;  (* Printexc rendering of the escaped exception *)
}

type stats = {
  iterations : int;
  lex_rejects : int;
  parse_rejects : int;
  verify_rejects : int;
  backend_rejects : int;
  compiled_ok : int;
  crashes : crash list;  (* in discovery order *)
}

let verdict_to_string = function
  | Reject_lex -> "lex-reject"
  | Reject_parse -> "parse-reject"
  | Reject_verify -> "verify-reject"
  | Reject_backend -> "backend-reject"
  | Compiled_ok -> "ok"

let classify ~mode input =
  match mode with
  | Frontend -> (
    match Parser.parse_string ~file:"<fuzz>" input with
    | exception Lexer.Lex_error _ -> Reject_lex
    | exception Parser.Parse_error _ -> Reject_parse
    | module_op ->
      if Diagnostic.Engine.has_errors (Driver.verifier_engine module_op) then Reject_verify
      else Compiled_ok)
  | Full -> (
    let pipeline = Hir_driver.Pipeline.default ~optimize:true in
    match Driver.compile_job_exn (Driver.job_of_text ~pipeline ~name:"<fuzz>" input) with
    | _ -> Compiled_ok
    | exception Lexer.Lex_error _ -> Reject_lex
    | exception Parser.Parse_error _ -> Reject_parse
    | exception (Driver.Compile_failed _ | Incr.Pass_failed _) -> Reject_verify
    | exception Hir_codegen.Emit.Codegen_error _ -> Reject_backend)

(* One oracle call: a verdict, or the crash payload. *)
let run_one ~mode input =
  match Ir.with_isolated_ids (fun () -> classify ~mode input) with
  | verdict -> Ok verdict
  | exception exn -> Error (Printexc.to_string exn)

let empty_stats =
  {
    iterations = 0;
    lex_rejects = 0;
    parse_rejects = 0;
    verify_rejects = 0;
    backend_rejects = 0;
    compiled_ok = 0;
    crashes = [];
  }

let count stats = function
  | Reject_lex -> { stats with lex_rejects = stats.lex_rejects + 1 }
  | Reject_parse -> { stats with parse_rejects = stats.parse_rejects + 1 }
  | Reject_verify -> { stats with verify_rejects = stats.verify_rejects + 1 }
  | Reject_backend -> { stats with backend_rejects = stats.backend_rejects + 1 }
  | Compiled_ok -> { stats with compiled_ok = stats.compiled_ok + 1 }

(* Run [iterations] fuzz cases.  Deterministic: (seed, mode, corpus)
   fully determine every generated input and therefore the stats.
   [on_crash] fires as crashes are found (e.g. to save the input);
   [on_input] fires before each case runs — its main use is persisting
   the current input somewhere so that a *hanging* case (which never
   reaches [on_crash]) can still be recovered. *)
let run ?(mode = Frontend) ?(seed = 1) ?(on_crash = fun _ -> ())
    ?(on_input = fun ~iteration:_ _ -> ()) ~iterations corpus =
  if corpus = [] then invalid_arg "Fuzz.run: empty corpus";
  let corpus = Array.of_list corpus in
  let rng = Rng.create ~seed in
  let stats = ref { empty_stats with iterations } in
  for i = 1 to iterations do
    let input = Mutate.generate rng corpus in
    on_input ~iteration:i input;
    match run_one ~mode input with
    | Ok verdict -> stats := count !stats verdict
    | Error exn_str ->
      let crash = { crash_iteration = i; crash_input = input; crash_exn = exn_str } in
      on_crash crash;
      stats := { !stats with crashes = !stats.crashes @ [ crash ] }
  done;
  !stats

let stats_to_string s =
  Printf.sprintf
    "%d iterations: %d lex-rejects, %d parse-rejects, %d verify-rejects, %d \
     backend-rejects, %d compiled ok, %d crashes"
    s.iterations s.lex_rejects s.parse_rejects s.verify_rejects s.backend_rejects
    s.compiled_ok (List.length s.crashes)
