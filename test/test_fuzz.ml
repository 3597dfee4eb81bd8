(* Bounded, deterministic fuzzing under `dune runtest`: a small slice
   of the `hirc fuzz` campaign runs on every test invocation, so a
   regression in the never-crash contract is caught without anyone
   remembering to run the fuzzer by hand. *)

open Hir_fuzz

let corpus = lazy (Corpus.default ())

let crash_summary stats =
  String.concat "\n"
    (List.map
       (fun c ->
         Printf.sprintf "iteration %d: %s\n--- input ---\n%s" c.Fuzz.crash_iteration
           c.Fuzz.crash_exn c.Fuzz.crash_input)
       stats.Fuzz.crashes)

(* The PRNG is a fixed algorithm (splitmix64), not OCaml's [Random], so
   the same seed must reproduce the same campaign on any OCaml
   version. *)
let test_deterministic () =
  let run () = Fuzz.run ~mode:Fuzz.Frontend ~seed:7 ~iterations:200 (Lazy.force corpus) in
  let a = run () and b = run () in
  Alcotest.(check string)
    "same seed, same stats"
    (Fuzz.stats_to_string a) (Fuzz.stats_to_string b);
  (* Distinct seeds should not trace out an identical campaign. *)
  let c = Fuzz.run ~mode:Fuzz.Frontend ~seed:8 ~iterations:200 (Lazy.force corpus) in
  if Fuzz.stats_to_string a = Fuzz.stats_to_string c then
    Alcotest.fail "seeds 7 and 8 produced identical stats"

let test_frontend_no_crash () =
  let stats =
    Fuzz.run ~mode:Fuzz.Frontend ~seed:1 ~iterations:1500 (Lazy.force corpus)
  in
  Alcotest.(check int) "iterations" 1500 stats.Fuzz.iterations;
  if stats.Fuzz.crashes <> [] then
    Alcotest.failf "frontend fuzzing crashed:\n%s" (crash_summary stats)

let test_full_no_crash () =
  let stats = Fuzz.run ~mode:Fuzz.Full ~seed:1 ~iterations:300 (Lazy.force corpus) in
  if stats.Fuzz.crashes <> [] then
    Alcotest.failf "full-pipeline fuzzing crashed:\n%s" (crash_summary stats)

(* Every corpus seed is a valid module: the oracle must accept it
   unmutated, otherwise the fuzzer starts from rejected inputs and
   never exercises the deeper stages. *)
let test_corpus_seeds_valid () =
  List.iteri
    (fun i text ->
      match Fuzz.run_one ~mode:Fuzz.Frontend text with
      | Ok Fuzz.Compiled_ok -> ()
      | Ok verdict ->
        Alcotest.failf "corpus seed %d rejected: %s" i (Fuzz.verdict_to_string verdict)
      | Error exn_str -> Alcotest.failf "corpus seed %d crashed: %s" i exn_str)
    (Lazy.force corpus)

(* The verdict distribution must show the campaign reaching past the
   lexer: a fuzzer whose every input dies at the first stage proves
   nothing about the rest of the frontend. *)
let test_reaches_all_stages () =
  let stats =
    Fuzz.run ~mode:Fuzz.Frontend ~seed:3 ~iterations:1500 (Lazy.force corpus)
  in
  Alcotest.(check bool) "some parse rejects" true (stats.Fuzz.parse_rejects > 0);
  Alcotest.(check bool) "some verify rejects" true (stats.Fuzz.verify_rejects > 0);
  Alcotest.(check bool) "some inputs survive" true (stats.Fuzz.compiled_ok > 0)

(* The frontend's diagnostics, pinned: every lex and parse reject of a
   fixed mutant campaign, rendered "loc: kind error: message", hashed
   into one digest.  A change to the lexer or parser that moves a
   single line or column, or rewords a single message, changes it. *)
let test_diagnostics_digest () =
  let open Hir_ir in
  let rng = Rng.create ~seed:2024 in
  let corpus = Array.of_list (Lazy.force corpus) in
  let buf = Buffer.create 65536 in
  let lex = ref 0 and parse = ref 0 in
  let add kind loc msg =
    Printf.bprintf buf "%s: %s error: %s\n" (Location.to_string loc) kind msg
  in
  for _ = 1 to 3000 do
    let input = Mutate.generate rng corpus in
    match Ir.with_isolated_ids (fun () -> Parser.parse_string ~file:"<mutant>" input) with
    | _ -> ()
    | exception Lexer.Lex_error (loc, msg) ->
      incr lex;
      add "lex" loc msg
    | exception Parser.Parse_error (loc, msg) ->
      incr parse;
      add "parse" loc msg
  done;
  Alcotest.(check (pair int int)) "lex and parse rejects" (1590, 1312) (!lex, !parse);
  Alcotest.(check string)
    "digest of the rendered diagnostics" "722f8a1e3223a3cf6d933e2667ae2594"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let () =
  Alcotest.run "fuzz"
    [
      ( "fuzz",
        [
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "frontend never crashes" `Quick test_frontend_no_crash;
          Alcotest.test_case "full pipeline never crashes" `Quick test_full_no_crash;
          Alcotest.test_case "corpus seeds are valid" `Quick test_corpus_seeds_valid;
          Alcotest.test_case "campaign reaches all stages" `Quick test_reaches_all_stages;
          Alcotest.test_case "frontend diagnostics digest" `Quick test_diagnostics_digest;
        ] );
    ]
