(* Tests for the lib/driver compilation service: pipeline-spec parsing
   (round-trip and error cases), the content-addressed cache (hit on
   identical input, invalidation on source/pipeline edits), the
   multicore batch scheduler (4-worker output byte-identical to
   sequential), pass-manager instrumentation and the Chrome trace
   exporter. *)

open Hir_ir
open Hir_dialect
open Hir_driver

let () = Ops.register ()

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let parse_ok spec =
  match Pipeline.parse spec with
  | Ok s -> s
  | Error e -> Alcotest.failf "expected %S to parse, got: %s" spec e

let parse_err spec =
  match Pipeline.parse spec with
  | Ok s -> Alcotest.failf "expected %S to be rejected, parsed as %S" spec (Pipeline.to_string s)
  | Error e -> e

(* ------------------------------------------------------------------ *)
(* Pipeline specs                                                      *)

let test_pipeline_roundtrip () =
  List.iter
    (fun spec -> check_string spec spec (Pipeline.to_string (parse_ok spec)))
    [
      "unroll";
      "canonicalize,precision-opt,unroll,delay-elim";
      "cse,retime,retime,precision-opt";
      "verify,verify-schedule,dce";
    ];
  check_string "default pipeline" "canonicalize,precision-opt,unroll,delay-elim"
    (Pipeline.to_string (Pipeline.default ~optimize:true));
  check_string "default pipeline without optimization" "unroll"
    (Pipeline.to_string (Pipeline.default ~optimize:false))

let test_pipeline_normalization () =
  (* Whitespace around the names normalizes away. *)
  check_string "spaces" "cse,delay-elim"
    (Pipeline.to_string (parse_ok " cse , delay-elim "));
  (* Normalized output re-parses to itself (idempotent). *)
  let s = Pipeline.to_string (parse_ok "\tretime ,retime, cse") in
  check_string "fixpoint" s (Pipeline.to_string (parse_ok s))

let test_pipeline_errors () =
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  let expect spec fragment =
    let e = parse_err spec in
    check_bool (Printf.sprintf "%S error mentions %S (got %S)" spec fragment e) true
      (contains e fragment)
  in
  expect "" "empty";
  expect "cse,,dce" "empty";
  expect "frobnicate" "unknown pass";
  (* Stages take no options: a brace is part of an unknown name. *)
  expect "retime{repeat=2}" "unknown pass 'retime{repeat=2}'";
  expect "cse{}" "unknown pass 'cse{}'"

(* Malformed specs surface as located diagnostics: the reported column
   is the 1-based position of the offending stage within the spec
   string, so the CLI can point into the argument itself. *)
let test_pipeline_located_errors () =
  let expect spec col msg =
    match Pipeline.parse_located spec with
    | Ok _ -> Alcotest.failf "expected %S to be rejected" spec
    | Error d -> (
      check_bool
        (Printf.sprintf "%S message starts %S (got %S)" spec msg d.Diagnostic.msg)
        true
        (String.starts_with ~prefix:("pipeline: " ^ msg) d.Diagnostic.msg);
      match d.Diagnostic.loc with
      | Location.File { file; line; col = c } ->
        check_string "located in the spec pseudo-file" "--passes" file;
        check_int "specs are one line" 1 line;
        check_int (Printf.sprintf "%S column" spec) col c
      | _ -> Alcotest.failf "expected a file location for %S" spec)
  in
  (* col points at "bogus", not at the start of the spec *)
  expect "canonicalize,bogus" 14 "unknown pass 'bogus'";
  (* ... at a stage with braces, which is no pass name *)
  expect "canonicalize, unroll{repeat=x}" 15 "unknown pass 'unroll{repeat=x}'";
  expect "cse{ repeat=1, depth=2 }" 1 "unknown pass 'cse{ repeat=1'";
  (* ... and at the empty stage between the commas *)
  expect "cse,,dce" 5 "empty pipeline stage"

(* A pass runs once per mention; the spec lowers to the registered
   passes themselves. *)
let test_pipeline_to_passes () =
  let passes = Pipeline.to_passes (parse_ok "cse,retime,retime,dce") in
  Alcotest.(check (list string))
    "pass order"
    [ "cse"; "retime"; "retime"; "dce" ]
    (List.map (fun p -> p.Pass.name) passes);
  check_bool "the registered passes" true
    (List.for_all2 ( == ) passes [ Passes.cse; Retime.pass; Retime.pass; Passes.dce ])

(* ------------------------------------------------------------------ *)
(* Pass-manager instrumentation                                        *)

let test_instrumentation () =
  let m, _ = Hir_kernels.Transpose.build () in
  let events = ref [] in
  let mgr =
    Pass.Manager.create
      ~instrument:(fun ev -> events := ev :: !events)
      (Pipeline.to_passes (parse_ok "canonicalize,unroll"))
  in
  let result = Pass.Manager.run mgr m in
  check_bool "succeeded" true result.Pass.succeeded;
  let events = List.rev !events in
  check_int "begin/end pairs" 4 (List.length events);
  (* Stats and events report the same passes in the same order. *)
  let ended =
    List.filter_map
      (function
        | Pass.Pass_end { pass_name; seconds; changed; _ } -> Some (pass_name, seconds, changed)
        | Pass.Pass_begin _ -> None)
      events
  in
  List.iter2
    (fun (name, seconds, changed) (s : Pass.stat) ->
      check_string "event/stat name" s.Pass.pass_name name;
      check_bool "event/stat changed" s.Pass.changed changed;
      check_bool "event/stat seconds" true (s.Pass.seconds = seconds))
    ended result.Pass.stats

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)

let fresh_dir = Scratch.fresh_dir

let transpose_text () =
  Ir.with_isolated_ids (fun () ->
      let m, _ = Hir_kernels.Transpose.build () in
      Printer.op_to_string m)

(* Payload files live under 2-hex shard subdirectories; walk the root
   plus one level of shards (skipping the quarantine). *)
let cache_files dir ~suffix =
  Sys.readdir dir |> Array.to_list
  |> List.concat_map (fun f ->
         let path = Filename.concat dir f in
         if Sys.is_directory path then
           if f = "quarantine" then []
           else
             Sys.readdir path |> Array.to_list
             |> List.filter_map (fun g ->
                    if Filename.check_suffix g suffix then
                      Some (Filename.concat path g)
                    else None)
         else if Filename.check_suffix f suffix then [ path ]
         else [])

(* One entry-file extension per cache entry kind (see [Cache.kind_ext]). *)
let payload_suffixes = [ ".v"; ".src"; ".vm" ]

let entry_files dir = List.concat_map (fun suffix -> cache_files dir ~suffix) payload_suffixes

(* An entry file's header line: "<digest> <lut> <ff> <dsp> <bram>
   <top as an OCaml string literal>", then the payload. *)
let entry_top path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> Scanf.sscanf (input_line ic) "%_s %_d %_d %_d %_d %S" Fun.id)

(* Rewrite an entry file's header line, keeping its digest and payload. *)
let rewrite_header path f =
  let text = Io.read_file path in
  let nl = String.index text '\n' in
  let fields = String.split_on_char ' ' (String.sub text 0 nl) in
  Io.write_file path
    (String.concat " " (f fields) ^ String.sub text nl (String.length text - nl))

let compile_text ?cache ~pipeline text =
  match Driver.compile_job ?cache (Driver.job_of_text ~pipeline ~name:"t.hir" text) with
  | Ok o -> o
  | Error e -> Alcotest.failf "compile failed: %s" (Driver.error_to_string e)

let test_cache_hit_and_invalidation () =
  let cache = Cache.create ~dir:(fresh_dir ()) () in
  let pipeline = Pipeline.default ~optimize:true in
  let text = transpose_text () in
  let cold = compile_text ~cache ~pipeline text in
  check_bool "first compile misses" false cold.Driver.from_cache;
  let warm = compile_text ~cache ~pipeline text in
  check_bool "second compile hits" true warm.Driver.from_cache;
  check_string "hit returns identical Verilog" cold.Driver.verilog warm.Driver.verilog;
  check_bool "hit preserves usage" true (cold.Driver.usage = warm.Driver.usage);
  check_string "hit preserves top" cold.Driver.top_name warm.Driver.top_name;
  (* A comment-only edit misses the whole-job key, but every function's
     cone hash is unchanged: the design re-links from the staged chain
     without optimizing or emitting anything. *)
  let relinked = compile_text ~cache ~pipeline (text ^ "\n// edited\n") in
  check_bool "comment edit re-links from cache" true relinked.Driver.from_cache;
  check_string "re-linked Verilog is byte-identical" cold.Driver.verilog
    relinked.Driver.verilog;
  (* A semantic edit (function rename) invalidates the whole chain. *)
  let replace ~needle ~by s =
    let nl = String.length needle and sl = String.length s in
    let b = Buffer.create sl in
    let i = ref 0 in
    while !i < sl do
      if !i + nl <= sl && String.sub s !i nl = needle then begin
        Buffer.add_string b by;
        i := !i + nl
      end
      else begin
        Buffer.add_char b s.[!i];
        incr i
      end
    done;
    Buffer.contents b
  in
  let edited =
    compile_text ~cache ~pipeline (replace ~needle:"@transpose" ~by:"@transposed" text)
  in
  check_bool "semantic edit misses" false edited.Driver.from_cache;
  (* Changing the pipeline invalidates. *)
  let other = compile_text ~cache ~pipeline:(Pipeline.default ~optimize:false) text in
  check_bool "different pipeline misses" false other.Driver.from_cache;
  check_int "cache hits" 1 (Cache.hits cache);
  check_int "cache misses" 4 (Cache.misses cache)

(* Regression: a cache entry whose .v payload is unreadable (here: a
   directory squatting on the path) degraded the whole compile with a
   [Sys_error]; it must instead count as a miss and recompile. *)
let test_cache_damaged_entry_degrades_to_miss () =
  let dir = fresh_dir () in
  let cache = Cache.create ~dir () in
  let pipeline = Pipeline.default ~optimize:true in
  let text = transpose_text () in
  let cold = compile_text ~cache ~pipeline text in
  (* Smash every payload file — of every entry kind — into a directory
     of the same name. *)
  List.iter
    (fun suffix ->
      List.iter
        (fun path ->
          Sys.remove path;
          Unix.mkdir path 0o755)
        (cache_files dir ~suffix))
    payload_suffixes;
  let again = compile_text ~cache ~pipeline text in
  check_bool "damaged entry is a miss" false again.Driver.from_cache;
  check_string "recompile still correct" cold.Driver.verilog again.Driver.verilog

(* Regression: [compile_job] must return [Error] with diagnostics for
   any bad input — exceptions crossing the scheduler's domain boundary
   killed the whole batch. *)
let test_compile_job_errors_are_diagnostics () =
  let pipeline = Pipeline.default ~optimize:true in
  let run text =
    match Driver.compile_job (Driver.job_of_text ~pipeline ~name:"bad.hir" text) with
    | Ok _ -> Alcotest.failf "expected a failure for:\n%s" text
    | Error e ->
      check_string "error names the job" "bad.hir" e.Driver.err_job;
      check_bool "has diagnostics" true (e.Driver.err_diags <> []);
      Driver.error_to_string e
  in
  (* Garbage input: a located parse diagnostic, not an exception. *)
  let msg = run "%%% not hir at all" in
  check_bool "parse error mentions location" true (String.length msg > 0);
  (* A wrong attribute kind ({value = "x"} on a constant) used to crash
     in an [Attribute.as_int] accessor; now it is a verifier error. *)
  let text =
    "\"builtin.module\"() ({\n\
    \  ^bb():\n\
    \  \"hir.func\"() ({\n\
    \    ^bb(%t: !hir.time):\n\
    \    %c = \"hir.constant\"() {value = \"x\"} : () -> (!hir.const)\n\
    \    \"hir.return\"() : () -> ()\n\
    \  }) {sym_name = @f, arg_types = [!ty<!hir.time>]} : () -> ()\n\
     }) : () -> ()"
  in
  ignore (run text);
  (* An empty module has no top function to choose. *)
  let msg = run "\"builtin.module\"() ({\n  ^bb():\n}) : () -> ()" in
  check_bool "no-function error is attributed to the job" true
    (let needle = "bad.hir" in
     let n = String.length needle and l = String.length msg in
     let rec go i = i + n <= l && (String.sub msg i n = needle || go (i + 1)) in
     go 0)

let test_cache_key () =
  let k ?(pipeline = "unroll") ?top ?(source = "src") () = Cache.key ~pipeline ~top ~source in
  check_bool "stable" true (k () = k ());
  check_bool "source-sensitive" false (k () = k ~source:"src2" ());
  check_bool "pipeline-sensitive" false (k () = k ~pipeline:"unroll,dce" ());
  check_bool "top-sensitive" false (k () = k ~top:"f" ())

(* A builder job and a text job of the kernel's printed module share a
   Job cache key, so they must compile to the same Verilog: otherwise
   whichever of them runs first decides what a shared cache serves the
   other.  The flat inclusive usage that ends `hirc demo --stats`
   ([Model.shared_report]'s [sr_total] of [Emit.compile]'s design) is
   the job's usage. *)
let test_builder_matches_text () =
  let pipeline = Pipeline.default ~optimize:true in
  let cache = Cache.create ~dir:(fresh_dir ()) () in
  let compile ?cache job =
    match Driver.compile_job ?cache job with
    | Ok o -> o
    | Error e -> Alcotest.failf "compile failed: %s" (Driver.error_to_string e)
  in
  List.iter
    (fun k ->
      let name = k.Hir_kernels.Kernels.name in
      let text =
        Ir.with_isolated_ids (fun () ->
            Printer.op_to_string (fst (k.Hir_kernels.Kernels.build ())))
      in
      let builder_job = Driver.job_of_builder ~pipeline ~name k.Hir_kernels.Kernels.build in
      let text_job = Driver.job_of_text ~pipeline ~name text in
      let expected = (compile text_job).Driver.verilog in
      let builder = compile builder_job in
      check_string (name ^ ": builder = text") expected builder.Driver.verilog;
      let design =
        Ir.with_isolated_ids (fun () ->
            let module_op, top = k.Hir_kernels.Kernels.build () in
            (Hir_codegen.Emit.compile ~optimize:true ~module_op ~top ()).Hir_codegen.Emit.design)
      in
      check_bool (name ^ ": demo --stats total = usage") true
        ((Hir_resources.Model.shared_report design).Hir_resources.Model.sr_total
        = builder.Driver.usage);
      check_string (name ^ ": builder, shared cache") expected
        (compile ~cache builder_job).Driver.verilog;
      let hit = compile ~cache text_job in
      check_bool (name ^ ": text job hits the builder's entry") true hit.Driver.from_cache;
      check_string (name ^ ": text, shared cache") expected hit.Driver.verilog)
    Hir_kernels.Kernels.all

(* ------------------------------------------------------------------ *)
(* Batch scheduler                                                     *)

let kernel_jobs pipeline =
  Hir_kernels.Kernels.all
  |> List.map (fun k ->
         Driver.job_of_builder ~pipeline ~name:k.Hir_kernels.Kernels.name
           k.Hir_kernels.Kernels.build)
  |> Array.of_list

let verilog_of = function
  | Ok o -> o.Driver.verilog
  | Error e -> Alcotest.failf "batch job failed: %s" (Driver.error_to_string e)

let test_batch_deterministic () =
  let pipeline = Pipeline.default ~optimize:true in
  let sequential = Driver.batch ~workers:1 (kernel_jobs pipeline) in
  let parallel = Driver.batch ~workers:4 (kernel_jobs pipeline) in
  check_int "job count" (List.length Hir_kernels.Kernels.all) (Array.length parallel.Driver.outcomes);
  Array.iteri
    (fun i seq_outcome ->
      let name = (List.nth Hir_kernels.Kernels.all i).Hir_kernels.Kernels.name in
      check_string
        (Printf.sprintf "%s: 4-worker output byte-identical to sequential" name)
        (verilog_of seq_outcome)
        (verilog_of parallel.Driver.outcomes.(i)))
    sequential.Driver.outcomes

let test_batch_warm_cache () =
  let cache = Cache.create ~dir:(fresh_dir ()) () in
  let pipeline = Pipeline.default ~optimize:true in
  let cold = Driver.batch ~cache ~workers:4 (kernel_jobs pipeline) in
  let warm = Driver.batch ~cache ~workers:4 (kernel_jobs pipeline) in
  Array.iter
    (fun o ->
      match o with
      | Ok r -> check_bool "cold run misses" false r.Driver.from_cache
      | Error e -> Alcotest.failf "batch job failed: %s" (Driver.error_to_string e))
    cold.Driver.outcomes;
  Array.iteri
    (fun i o ->
      check_bool "warm run is a hit" true
        (match o with Ok r -> r.Driver.from_cache | Error _ -> false);
      check_string "warm output identical"
        (verilog_of cold.Driver.outcomes.(i))
        (verilog_of o))
    warm.Driver.outcomes;
  check_int "100% hits on the warm run" (Array.length warm.Driver.outcomes)
    (Cache.hits cache)

(* ------------------------------------------------------------------ *)
(* Top-function choice note                                            *)

let test_top_note () =
  (* task_parallel is a multi-function module; compiling its printed
     form without --top must succeed and say which function was chosen. *)
  let text =
    Ir.with_isolated_ids (fun () ->
        let m, _ = Hir_kernels.Taskparallel.build () in
        Printer.op_to_string m)
  in
  let o = compile_text ~pipeline:(Pipeline.default ~optimize:true) text in
  check_bool "note present" true (o.Driver.note <> None);
  check_string "chose the last function" "task_parallel" o.Driver.top_name

(* ------------------------------------------------------------------ *)
(* Tracing                                                             *)

let test_trace_spans_and_json () =
  let trace = Trace.create () in
  let pipeline = Pipeline.default ~optimize:true in
  (match
     Driver.compile_job ~trace
       (Driver.job_of_text ~pipeline ~name:"t.hir" (transpose_text ()))
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "compile failed: %s" (Driver.error_to_string e));
  let names = List.map (fun (s : Trace.span) -> s.Trace.sp_name) (Trace.spans trace) in
  List.iter
    (fun expected ->
      check_bool (Printf.sprintf "span %s present" expected) true (List.mem expected names))
    [
      "parse"; "verify"; "plan"; "optimize"; "pass:canonicalize"; "pass:unroll"; "emit";
      "pretty"; "print";
    ];
  let json = Trace.to_chrome_json [ trace ] in
  let contains needle =
    let lh = String.length json and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub json i ln = needle || go (i + 1)) in
    go 0
  in
  check_bool "has traceEvents" true (contains "\"traceEvents\"");
  check_bool "has complete-span phase" true (contains "\"ph\":\"X\"");
  check_bool "has parse span" true (contains "\"name\":\"parse\"")

(* ------------------------------------------------------------------ *)
(* Fault injection: spec parsing and seeded decisions                  *)

let test_faults_spec_parsing () =
  let ok spec =
    match Faults.parse_spec spec with
    | Ok rules -> rules
    | Error e -> Alcotest.failf "expected %S to parse, got: %s" spec e
  in
  let err spec =
    match Faults.parse_spec spec with
    | Ok rules ->
      Alcotest.failf "expected %S to be rejected, parsed as %S" spec
        (Faults.rules_to_string rules)
    | Error e -> e
  in
  (* Round-trip through the printer. *)
  List.iter
    (fun spec -> check_string spec spec (Faults.rules_to_string (ok spec)))
    [ "cache.read=0.5"; "*=0.1"; "job.compile@2"; "cache.read=0.25,worker.spawn@1" ];
  check_string "whitespace normalizes" "cache.read=0.5,journal.mark@3"
    (Faults.rules_to_string (ok " cache.read = 0.5 , journal.mark @ 3 "));
  ignore (err "");
  ignore (err "bogus=0.5");  (* unknown point *)
  check_bool "the simulator has no injection point" true
    (String.starts_with ~prefix:"unknown injection point 'sim.settle'"
       (err "sim.settle=0.1"));
  ignore (err "cache.read=1.5");  (* probability out of range *)
  ignore (err "cache.read=-0.1");
  ignore (err "job.compile@0");  (* counts are 1-based *)
  ignore (err "cache.read");  (* missing trigger *)
  ignore (err "cache.read=oops")

let test_faults_nth_trigger () =
  let cfg = { Faults.rules = [ ("job.compile", Faults.Nth 3) ]; seed = 0 } in
  Faults.with_config cfg (fun () ->
      Faults.with_scope "job-a" (fun () ->
          let fired = ref [] in
          for i = 1 to 6 do
            match Faults.point "job.compile" with
            | () -> ()
            | exception Faults.Injected "job.compile" -> fired := i :: !fired
          done;
          Alcotest.(check (list int)) "fires on exactly the 3rd hit" [ 3 ] (List.rev !fired);
          (* A rule for one point never fires another. *)
          Faults.point "cache.read"));
  (* Outside with_config the points are inert. *)
  Faults.point "job.compile"

let test_faults_determinism () =
  (* Seeded decisions are a pure function of (seed, scope, point, hit
     index): two installs with the same seed fire on identical hits,
     and a different seed gives a different schedule. *)
  let schedule seed =
    let cfg = { Faults.rules = [ ("cache.read", Faults.Prob 0.3) ]; seed } in
    Faults.with_config cfg (fun () ->
        Faults.with_scope "job-a" (fun () ->
            List.init 200 (fun i ->
                match Faults.point "cache.read" with
                | () -> false
                | exception Faults.Injected _ -> i = i)))
  in
  let s1 = schedule 42 in
  check_bool "same seed, same schedule" true (s1 = schedule 42);
  check_bool "some hits fire" true (List.mem true s1);
  check_bool "some hits pass" true (List.mem false s1);
  check_bool "different seed, different schedule" false (s1 = schedule 43);
  (* The raw uniform stream is reproducible too. *)
  check_bool "uniform is pure" true
    (Faults.uniform ~seed:7 ~key:"k" ~index:3 = Faults.uniform ~seed:7 ~key:"k" ~index:3);
  check_bool "uniform in [0,1)" true
    (List.for_all
       (fun i ->
         let u = Faults.uniform ~seed:1 ~key:"k" ~index:i in
         u >= 0. && u < 1.)
       (List.init 100 Fun.id))

(* ------------------------------------------------------------------ *)
(* Guards: deadlines                                                  *)

let test_deadline_timeout () =
  let pipeline = Pipeline.default ~optimize:true in
  let text = transpose_text () in
  let limits = { Guard.deadline_s = Some 0. } in
  match
    Driver.compile_job ~limits (Driver.job_of_text ~pipeline ~name:"t.hir" text)
  with
  | Ok _ -> Alcotest.fail "expected a zero deadline to time the job out"
  | Error e ->
    check_bool "classified as timeout" true (e.Driver.err_class = Driver.Timeout);
    check_bool "diagnostic mentions the timeout" true
      (let msg = Driver.error_to_string e in
       let needle = "timeout" in
       let n = String.length needle and l = String.length msg in
       let rec go i = i + n <= l && (String.sub msg i n = needle || go (i + 1)) in
       go 0)

(* ------------------------------------------------------------------ *)
(* Cache integrity                                                     *)

let quarantine_files dir =
  let q = Filename.concat dir "quarantine" in
  if Sys.file_exists q then Array.to_list (Sys.readdir q) else []

(* A bit-flipped payload must fail the digest check, be quarantined,
   and recompile to byte-identical Verilog — never serve the damaged
   bytes. *)
let test_cache_bitflip_quarantined () =
  let dir = fresh_dir () in
  let cache = Cache.create ~dir () in
  let pipeline = Pipeline.default ~optimize:true in
  let text = transpose_text () in
  let cold = compile_text ~cache ~pipeline text in
  (* Flip one byte in every payload, of every entry kind. *)
  List.iter
    (fun path ->
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let bytes = really_input_string ic n in
      close_in ic;
      let b = Bytes.of_string bytes in
      Bytes.set b (n / 2) (Char.chr (Char.code (Bytes.get b (n / 2)) lxor 1));
      let oc = open_out_bin path in
      output_bytes oc b;
      close_out oc)
    (List.concat_map (fun suffix -> cache_files dir ~suffix) payload_suffixes);
  let again = compile_text ~cache ~pipeline text in
  check_bool "bit-flipped entry is not served" false again.Driver.from_cache;
  check_string "recompile is bit-identical to the cold compile" cold.Driver.verilog
    again.Driver.verilog;
  check_bool "degradation recorded" true
    (List.exists
       (fun d -> String.length d >= 7 && String.sub d 0 7 = "corrupt")
       again.Driver.degradations);
  (* One corrupt entry per kind: job, src, vmod. *)
  check_int "all three damaged entries counted" 3 (Cache.corrupt_count cache);
  check_bool "damaged files moved to quarantine" true (quarantine_files dir <> [])

(* An entry file cut short inside its header line (its metadata) is
   quarantined and recompiled, whatever kind it is. *)
let test_cache_truncated_meta_quarantined () =
  let dir = fresh_dir () in
  let cache = Cache.create ~dir () in
  let pipeline = Pipeline.default ~optimize:true in
  let text = transpose_text () in
  let cold = compile_text ~cache ~pipeline text in
  List.iter
    (fun path ->
      let text = Io.read_file path in
      Io.write_file path (String.sub text 0 (String.index text ' ' + 3)))
    (entry_files dir);
  let again = compile_text ~cache ~pipeline text in
  check_bool "truncated entry is not served" false again.Driver.from_cache;
  check_string "recompile is bit-identical" cold.Driver.verilog again.Driver.verilog;
  check_int "one corrupt entry per kind" 3 (Cache.corrupt_count cache);
  check_bool "quarantined" true (quarantine_files dir <> [])

(* The header's fields are covered by the digest: an entry whose top or
   resource usage was edited, digest and payload untouched, is
   quarantined and recompiled, never served with the edited fields. *)
let test_cache_header_fields_covered () =
  let dir = fresh_dir () in
  let cache = Cache.create ~dir () in
  let pipeline = Pipeline.default ~optimize:true in
  let text = transpose_text () in
  let cold = compile_text ~cache ~pipeline text in
  List.iter
    (fun path ->
      rewrite_header path (function
        | digest :: _lut :: ff :: dsp :: bram :: _top -> [ digest; "1"; ff; dsp; bram; "\"bogus\"" ]
        | fields -> fields))
    (entry_files dir);
  let again = compile_text ~cache ~pipeline text in
  check_bool "an edited header is not served" false again.Driver.from_cache;
  check_int "one corrupt entry per kind" 3 (Cache.corrupt_count cache);
  check_string "the top is recomputed" cold.Driver.top_name again.Driver.top_name;
  check_bool "the usage is recomputed" true (cold.Driver.usage = again.Driver.usage);
  check_string "recompile is bit-identical" cold.Driver.verilog again.Driver.verilog

(* Every single-byte flip of a stored entry, in its header or its
   payload, and every truncation of its file reads as [Corrupt] or
   [Miss], never as a hit, for each kind of entry. *)
let test_cache_entry_damage_never_served () =
  let dir = fresh_dir () in
  let cache = Cache.create ~dir () in
  let entry =
    {
      Cache.e_top = "f";
      e_verilog = "module f(input clk);\nendmodule\n";
      e_usage = { Hir_resources.Model.lut = 12; ff = 3; dsp = 1; bram = 0 };
    }
  in
  List.iter
    (fun kind ->
      let k = Cache.stage_key ~kind ~parts:[ "damage" ] in
      (match Cache.store ~kind cache k entry with
      | Ok () -> ()
      | Error e -> Alcotest.failf "store failed: %s" e);
      let path = Cache.payload_path cache kind k in
      let stored = Io.read_file path in
      let served bytes =
        Io.write_file path bytes;
        match Cache.probe ~kind cache k with
        | Cache.Hit _ -> true
        | Cache.Miss | Cache.Corrupt _ -> false
        | Cache.Read_fault e -> Alcotest.failf "read fault: %s" e
      in
      check_bool "the undamaged entry is served" true (served stored);
      String.iteri
        (fun i c ->
          List.iter
            (fun mask ->
              let b = Bytes.of_string stored in
              Bytes.set b i (Char.chr (Char.code c lxor mask));
              if served (Bytes.to_string b) then
                Alcotest.failf "%s entry served with byte %d xor %#x" (Cache.kind_to_string kind)
                  i mask)
            [ 0x01; 0x20; 0x80 ])
        stored;
      for len = 0 to String.length stored - 1 do
        if served (String.sub stored 0 len) then
          Alcotest.failf "%s entry served truncated to %d bytes" (Cache.kind_to_string kind) len
      done)
    Cache.kinds

(* [store] must never throw, and a failed atomic write must not leave
   temp files behind.  A directory squatting on the payload path makes
   [Sys.rename] fail reliably. *)
let test_cache_store_failure_is_clean () =
  let dir = fresh_dir () in
  let cache = Cache.create ~dir () in
  let k = Cache.key ~pipeline:"p" ~top:None ~source:"s" in
  let squat = Cache.payload_path cache Cache.Job k in
  if not (Sys.file_exists (Filename.dirname squat)) then
    Unix.mkdir (Filename.dirname squat) 0o755;
  Unix.mkdir squat 0o755;
  let entry =
    {
      Cache.e_top = "f";
      e_verilog = "module f; endmodule\n";
      e_usage = Hir_resources.Model.zero;
    }
  in
  (match Cache.store ~kind:Cache.Job cache k entry with
  | Ok () -> Alcotest.fail "expected store onto a squatted path to fail"
  | Error _ -> ());
  Alcotest.(check (list string)) "no temp files leak from the failed write" []
    (cache_files dir ~suffix:".tmp")

(* Crash-ordering on the durable store path: [store] publishes the
   entry file as temp + fsync + rename, with the "cache.write" fault
   point between the temp write and the rename.  Faulting it models a
   crash before the entry is published: the store reports an error,
   leaves no temp litter and publishes nothing, so the lookup misses
   cleanly.  A clean store then heals the entry, and a faulted
   re-store over it leaves the published entry served. *)
let test_cache_write_fault_ordering () =
  let dir = fresh_dir () in
  let cache = Cache.create ~dir () in
  let k = Cache.key ~pipeline:"p" ~top:None ~source:"s" in
  let entry =
    {
      Cache.e_top = "f";
      e_verilog = "module f; endmodule\n";
      e_usage = Hir_resources.Model.zero;
    }
  in
  let store () = Cache.store ~kind:Cache.Job cache k entry in
  let faulted_store () =
    Faults.with_config
      { Faults.rules = [ ("cache.write", Faults.Nth 1) ]; seed = 1 }
      (fun () ->
        match store () with
        | Ok () -> Alcotest.fail "a cache.write fault must fail the store"
        | Error _ -> ())
  in
  let lookup () =
    match Cache.consult ~kind:Cache.Job cache k with Cache.Hit e -> Some e | _ -> None
  in
  (* Crash before the rename: nothing published. *)
  faulted_store ();
  check_bool "no entry published" true (cache_files dir ~suffix:".v" = []);
  Alcotest.(check (list string)) "no temp litter" [] (cache_files dir ~suffix:".tmp");
  check_bool "lookup misses cleanly" true (lookup () = None);
  (* A clean store heals it. *)
  (match store () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "clean store failed: %s" e);
  (match lookup () with
  | Some e -> check_string "healed entry served" entry.Cache.e_verilog e.Cache.e_verilog
  | None -> Alcotest.fail "healed entry must hit");
  (* A crash re-storing over the published entry leaves it in place. *)
  faulted_store ();
  Alcotest.(check (list string)) "still no temp litter" []
    (cache_files dir ~suffix:".tmp");
  check_int "both faults counted" 2 (Cache.fault_count cache);
  match lookup () with
  | Some e -> check_string "published entry still served" entry.Cache.e_verilog e.Cache.e_verilog
  | None -> Alcotest.fail "the published entry must still hit"

let test_cache_verify_and_prune () =
  let dir = fresh_dir () in
  let cache = Cache.create ~dir () in
  let pipeline = Pipeline.default ~optimize:true in
  ignore (compile_text ~cache ~pipeline (transpose_text ()));
  ignore
    (compile_text ~cache ~pipeline (transpose_text () ^ "\n// second entry\n"));
  (* The first compile stores the full chain (job, src, vmod); the
     comment-suffixed second stores only its own src entry, since a job
     served from its function entries stores nothing: 4 entries in all. *)
  let r = Cache.verify cache in
  check_int "all entries scanned" 4 r.Cache.vr_scanned;
  check_int "all entries ok" 4 r.Cache.vr_ok;
  (* Damage one payload, then verify again. *)
  let victim = List.hd (cache_files dir ~suffix:".v") in
  let oc = open_out_bin victim in
  output_string oc "garbage";
  close_out oc;
  let r = Cache.verify cache in
  check_int "damaged entry found" 1 (List.length r.Cache.vr_quarantined);
  check_int "the other entries still ok" 3 r.Cache.vr_ok;
  check_bool "moved to quarantine" true (quarantine_files dir <> []);
  (* Prune empties the quarantine; a second prune finds nothing. *)
  let p = Cache.prune cache in
  check_bool "prune removed the quarantined files" true (p.Cache.pr_removed > 0);
  check_bool "prune reports bytes" true (p.Cache.pr_bytes > 0);
  Alcotest.(check (list string)) "quarantine empty" [] (quarantine_files dir);
  let p = Cache.prune cache in
  check_int "second prune is a no-op" 0 p.Cache.pr_removed;
  (* A payload of no current kind (an optimized-function entry left by
     an older build) can never hit: verify retires it too. *)
  let stray = Filename.remove_extension victim ^ ".fn" in
  let oc = open_out_bin stray in
  output_string oc "hir.func";
  close_out oc;
  let r = Cache.verify cache in
  Alcotest.(check (list string)) "the stray file is quarantined"
    [ Filename.basename stray ] (List.map fst r.Cache.vr_quarantined);
  check_bool "and gone from its shard" false (Sys.file_exists stray);
  (* So is an entry an older build stored as a payload plus a [.meta]
     sidecar: the payload has no header whose digest checks, and the
     sidecar is a file of no current kind. *)
  let k = Digest.to_hex (Digest.string "an older build's entry") in
  let shard = Filename.concat dir (String.sub k 0 2) in
  Io.mkdir_p shard;
  let design = "module top(input clk);\nendmodule\n" in
  Io.write_file (Filename.concat shard (k ^ ".v")) design;
  Io.write_file (Filename.concat shard (k ^ ".meta"))
    (Printf.sprintf "kind job\ntop top\ndigest %s\nlut 0\nff 0\ndsp 0\nbram 0\n"
       (Digest.to_hex (Digest.string design)));
  let r = Cache.verify cache in
  check_int "the current entries are still ok" 3 r.Cache.vr_ok;
  Alcotest.(check (list (pair string string)))
    "the sidecar has no current kind, the payload fails its digest"
    [ (k ^ ".meta", "file of no current entry kind"); (k, k ^ ".v: content digest mismatch") ]
    r.Cache.vr_quarantined;
  Alcotest.(check (list string)) "both of its files are quarantined"
    [ k ^ ".meta"; k ^ ".v" ]
    (List.filter (String.starts_with ~prefix:k) (quarantine_files dir) |> List.sort compare);
  check_bool "and gone from their shard" false
    (List.exists (fun ext -> Sys.file_exists (Filename.concat shard (k ^ ext))) [ ".v"; ".meta" ])

(* [Cache.verify] is an offline integrity scan: it must not perturb the
   runtime hit/miss/store counters a monitoring endpoint reports, and a
   clean entry must still hit afterwards. *)
let test_cache_verify_preserves_counters () =
  let cache = Cache.create ~dir:(fresh_dir ()) () in
  let pipeline = Pipeline.default ~optimize:true in
  let text = transpose_text () in
  ignore (compile_text ~cache ~pipeline text);
  ignore (compile_text ~cache ~pipeline text);
  let snapshot () =
    ( Cache.hits cache,
      Cache.misses cache,
      Cache.store_count cache,
      Cache.corrupt_count cache,
      Cache.fault_count cache,
      Cache.kind_stats cache )
  in
  let before = snapshot () in
  let r = Cache.verify cache in
  check_bool "verify scanned the population" true (r.Cache.vr_scanned > 0);
  check_bool "verify leaves every counter untouched" true (before = snapshot ());
  let warm = compile_text ~cache ~pipeline text in
  check_bool "the verified entry still hits" true warm.Driver.from_cache

(* Quarantining the same key twice must not clobber the first capture:
   the second file lands beside it under a numbered suffix. *)
let test_cache_quarantine_collision () =
  let dir = fresh_dir () in
  let cache = Cache.create ~dir () in
  let pipeline = Pipeline.default ~optimize:true in
  let text = transpose_text () in
  (* Damage the job and function entries, so that a recompile misses
     both and stores both keys again. *)
  let damage () =
    List.iter
      (fun victim ->
        let oc = open_out_bin victim in
        output_string oc "garbage";
        close_out oc)
      (cache_files dir ~suffix:".v" @ cache_files dir ~suffix:".vm")
  in
  ignore (compile_text ~cache ~pipeline text);
  damage ();
  ignore (Cache.verify cache);
  let first = quarantine_files dir in
  check_bool "first quarantine captured files" true (first <> []);
  (* Recompiling stores the same keys again; damaging them again forces
     a second quarantine of identically-named files. *)
  ignore (compile_text ~cache ~pipeline text);
  damage ();
  ignore (Cache.verify cache);
  let second = quarantine_files dir in
  check_bool "no capture was overwritten" true
    (List.length second > List.length first);
  check_bool "collision resolved with a numbered suffix" true
    (List.exists (fun f -> Filename.check_suffix f ".1") second)

(* Under a byte budget the cache evicts least-recently-used entries at
   store time, where "used" is refreshed by hits: after aging the
   population, a hit entry survives the sweep that claims the rest, and
   an evicted entry is simply a clean miss. *)
let test_cache_budget_eviction () =
  let pipeline = Pipeline.default ~optimize:true in
  let text_a = transpose_text () in
  let text_b =
    Ir.with_isolated_ids (fun () ->
        let m, _ = Hir_kernels.Fifo.build () in
        Printer.op_to_string m)
  in
  let du files =
    List.fold_left (fun a f -> a + (Unix.stat f).Unix.st_size) 0 files
  in
  (* Probe the on-disk footprint of each source's entry chain, so the
     budget below is sized from measurements, not guesses. *)
  let probe text =
    let dir = fresh_dir () in
    ignore (compile_text ~cache:(Cache.create ~dir ()) ~pipeline text);
    du (entry_files dir)
  in
  let bytes_a = probe text_a and bytes_b = probe text_b in
  let job_a =
    let dir = fresh_dir () in
    ignore (compile_text ~cache:(Cache.create ~dir ()) ~pipeline text_a);
    du (cache_files dir ~suffix:".v")
  in
  (* Room for B's whole chain plus A's whole-job entry — but not for
     both chains, so storing B must trigger a sweep. *)
  let budget = bytes_b + (2 * job_a) in
  check_bool "probe: the budget cannot hold both chains" true
    (budget < bytes_a + bytes_b);
  let dir = fresh_dir () in
  let cache = Cache.create ~budget_bytes:budget ~dir () in
  let cold_a = compile_text ~cache ~pipeline text_a in
  (* Age everything on disk, then hit A's whole-job entry: the hit
     refreshes that entry's clock and nothing else's. *)
  let old = Unix.gettimeofday () -. 3600. in
  List.iter (fun f -> Unix.utimes f old old) (entry_files dir);
  let warm_a = compile_text ~cache ~pipeline text_a in
  check_bool "A hits before the sweep" true warm_a.Driver.from_cache;
  let cold_b = compile_text ~cache ~pipeline text_b in
  check_bool "B compiles cold" false cold_b.Driver.from_cache;
  check_bool "storing B over budget evicted the aged entries" true
    (Cache.eviction_count cache > 0);
  let again_a = compile_text ~cache ~pipeline text_a in
  check_bool "A's freshly-hit job entry survived the sweep" true
    again_a.Driver.from_cache;
  check_string "A's cached Verilog is intact" cold_a.Driver.verilog
    again_a.Driver.verilog;
  (* A recompile of anything evicted is just a cold compile. *)
  let again_b = compile_text ~cache ~pipeline text_b in
  check_string "evicted or not, B recompiles to the same bytes"
    cold_b.Driver.verilog again_b.Driver.verilog

(* ------------------------------------------------------------------ *)
(* Input errors through compile_job                                   *)

(* The job failed Permanent (never retried) with exactly this
   diagnostic text. *)
let expect_permanent outcome expected =
  match outcome with
  | Ok _ -> Alcotest.failf "expected the job to fail with %S" expected
  | Error e ->
    check_bool "classified as permanent" true (e.Driver.err_class = Driver.Permanent);
    check_string "diagnostic" expected (Driver.error_to_string e)

(* A file of examples/designs, built into the test executable. *)
let read_design name = List.assoc name Example_designs.designs

let compile_design ?cache ?top ~name text =
  Driver.compile_job ?cache
    (Driver.job_of_text ?top ~pipeline:(Pipeline.default ~optimize:true) ~name text)

(* A job that fails with [expected], a codegen diagnostic, and
   [Emit.compile] of the parse of [text], which rejects it with the
   text the job prints after "codegen: ": both walk the top's cone with
   [Emit.compile_cone]. *)
let expect_codegen_error ?cache ?top ~name text expected =
  expect_permanent (compile_design ?cache ?top ~name text) expected;
  let m = Ir.with_isolated_ids (fun () -> Parser.parse_string ~file:name text) in
  let top = fst (Driver.pick_top m top) in
  match Hir_codegen.Emit.compile ~optimize:true ~module_op:m ~top () with
  | _ -> Alcotest.failf "Emit.compile accepted %s" name
  | exception Hir_codegen.Emit.Codegen_error msg ->
    check_string "Emit.compile's message" expected
      (Printf.sprintf "%S: error: codegen: %s" name msg)

(* On an empty cache the transpose kernel's job is served from the
   function entries the example design's job stored just before it.
   The batch tally counts it, although no whole-job entry hit. *)
let test_batch_tally_counts_served () =
  let pipeline = Pipeline.default ~optimize:true in
  let cache = Cache.create ~dir:(fresh_dir ()) () in
  let jobs =
    [|
      Driver.job_of_text ~pipeline ~name:"transpose.hir" (read_design "transpose.hir");
      Driver.job_of_builder ~pipeline ~name:"transpose" Hir_kernels.Transpose.build;
    |]
  in
  let result = Driver.batch ~cache ~workers:1 jobs in
  let t = Driver.tally result.Driver.reports in
  check_int "both jobs ok" 2 t.Driver.t_ok;
  check_int "one job served from the cache" 1 t.Driver.t_cached;
  check_bool "the kernel's job is the one served" true
    (match result.Driver.outcomes.(1) with Ok o -> o.Driver.from_cache | Error _ -> false);
  check_int "no whole-job entry hit" 0 (Cache.hits cache)

(* stencil_1d.hir with @stencil_1d_op calling itself: it verifies, but a
   module cannot instantiate itself.  A job without a cache hashes
   nothing and rejects the cycle all the same, with the diagnostic a
   job with a cache gives. *)
let test_call_cycle () =
  List.iter
    (fun cache ->
      expect_codegen_error ?cache ~name:"cycle.hir" (read_design "err_call_cycle.hir")
        "\"cycle.hir\": error: codegen: call cycle through @stencil_1d_op")
    [ None; Some (Cache.create ~dir:(fresh_dir ()) ()) ]

(* The MAC of Figure 2 over an extern @mult. *)
let mac_text () =
  Ir.with_isolated_ids (fun () ->
      let m = Builder.create_module () in
      let mult =
        Builder.extern_func m ~name:"mult"
          ~args:[ Builder.arg "a" Typ.i32; Builder.arg "b" Typ.i32 ]
          ~results:[ (Typ.i32, 2) ]
      in
      ignore
        (Builder.func m ~name:"mac"
           ~args:[ Builder.arg "a" Typ.i32; Builder.arg "b" Typ.i32; Builder.arg "c" Typ.i32 ]
           ~results:[ (Typ.i32, 2) ]
           (fun bld args t ->
             match args with
             | [ a; b; c ] ->
               let p =
                 List.hd (Builder.call bld ~callee:mult [ a; b ] ~at:Builder.(t @>> 0))
               in
               let c2 = Builder.delay bld c ~by:2 ~at:Builder.(t @>> 0) in
               Builder.return_ bld [ Builder.add bld p c2 ]
             | _ -> assert false));
      Printer.op_to_string m)

(* The MAC compiled with the extern as its top: there is no body to
   emit. *)
let test_extern_top () =
  expect_codegen_error ~top:"mult" ~name:"mac.hir" (mac_text ())
    "\"mac.hir\": error: codegen: top function @mult is extern (it has no body to emit)"

(* A job is served from the cache only when no function of its cone
   was emitted.  With the extern's function entry gone, a recompile of
   the comment-edited MAC re-emits the extern alone, which optimizes
   nothing: the job is not served and stores its Job entry. *)
let test_extern_miss_stores_job () =
  let dir = fresh_dir () in
  let cache = Cache.create ~dir () in
  let pipeline = Pipeline.default ~optimize:true in
  let compile text =
    match
      Driver.compile_job ~cache (Driver.job_of_text ~top:"mac" ~pipeline ~name:"mac.hir" text)
    with
    | Ok o -> o
    | Error e -> Alcotest.failf "compile failed: %s" (Driver.error_to_string e)
  in
  let text = mac_text () in
  let cold = compile text in
  let extern_entries =
    List.filter (fun path -> entry_top path = "mult") (cache_files dir ~suffix:".vm")
  in
  check_int "the extern has one function entry" 1 (List.length extern_entries);
  List.iter Sys.remove extern_entries;
  let job_stores () = (List.assoc Cache.Job (Cache.kind_stats cache)).Cache.k_stores in
  let before = job_stores () in
  let again = compile (text ^ "\n// edited\n") in
  check_bool "no pass ran" true (again.Driver.pass_stats = []);
  check_bool "not served from the cache" false again.Driver.from_cache;
  check_int "the Job entry is stored" (before + 1) (job_stores ());
  check_string "Verilog byte-identical to the cold compile" cold.Driver.verilog
    again.Driver.verilog

(* stencil_1d.hir with its one call retargeted at a missing function. *)
let test_unknown_callee () =
  let text = read_design "stencil_1d.hir" in
  let needle = "callee = @stencil_1d_op" in
  let n = String.length needle in
  let rec find i = if String.sub text i n = needle then i else find (i + 1) in
  let i = find 0 in
  let text =
    String.sub text 0 i ^ "callee = @nope"
    ^ String.sub text (i + n) (String.length text - i - n)
  in
  expect_codegen_error ~name:"nope.hir" text
    "\"nope.hir\": error: codegen: call to unknown function @nope"

(* err_add.hir's schedule error has no location of its own.  `hirc
   verify` and `hirc compile` attribute it to the input alike: the
   first line each prints is the same. *)
let test_verify_matches_compile () =
  let first_line s = List.hd (String.split_on_char '\n' s) in
  (* The first line `hirc verify` (and `hirc print`) prints for an
     input: a lex or parse error from [Driver.parse_source], as
     [load_module] prints it, or the first verifier diagnostic. *)
  let verified ~name text =
    match Driver.parse_source ~file:name text with
    | Error d -> Diagnostic.to_string d
    | Ok m -> (
      match
        Driver.attribute ~job:name (Diagnostic.Engine.to_list (Driver.verifier_engine m))
      with
      | [] -> Alcotest.failf "%s must fail verification" name
      | d :: _ -> Diagnostic.to_string d)
  in
  List.iter
    (fun (name, text, prefix) ->
      let verified = first_line (verified ~name text) in
      match compile_design ~name text with
      | Ok _ -> Alcotest.failf "%s must fail to compile" name
      | Error e ->
        check_string (name ^ ": first lines match") (first_line (Driver.error_to_string e))
          verified;
        check_bool (name ^ ": " ^ verified) true (String.starts_with ~prefix verified))
    [
      ("err_add.hir", read_design "err_add.hir", "\"err_add.hir\": error: Schedule error");
      ("parseerr.hir", "hir.func\n", "parseerr.hir:1:1: error: parse error: expected op name");
      ( "lexerr.hir",
        "\"builtin.module\"() ({\n  ^bb():\n  \"hir.nop\"() {value = 123abc} : () -> ()\n}) : () -> ()\n",
        "lexerr.hir:3:24: error: lex error: malformed integer literal '123abc'" );
    ]

(* delay_order.hir defines a 3-cycle delay of %a before a 1-cycle one
   and returns both.  delay-elim must not rewire the deeper delay onto
   the shallower one defined after it: the default pipeline compiles
   the design, and the RTL returns what the interpreter returns. *)
let test_delay_order_design () =
  let text = read_design "delay_order.hir" in
  (match compile_design ~name:"delay_order.hir" text with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "default pipeline failed: %s" (Driver.error_to_string e));
  let a = Bitvec.of_int ~width:32 1234 in
  let m = Parser.parse_string ~file:"delay_order.hir" text in
  let f = Option.get (Ops.lookup_func m "f") in
  let expected =
    (fst (Interp.run ~module_op:m ~func:f [ Interp.Scalar a ])).Interp.return_values
  in
  let emitted = Hir_codegen.Emit.compile ~optimize:true ~module_op:m ~top:f () in
  let r, _ =
    Hir_rtl.Harness.run ~emitted ~inputs:[ Hir_rtl.Harness.Scalar a ] ~cycles:8 ()
  in
  let actual = List.map snd r.Hir_rtl.Harness.output_values in
  check_bool "RTL returns what the interpreter returns" true
    (List.length actual = List.length expected
    && List.for_all2 Bitvec.equal expected actual)

(* ------------------------------------------------------------------ *)
(* Degradation                                                         *)

(* A backstop trip means the rewrite driver did not converge (a rewrite
   bug).  The job fails with a located diagnostic; it is not retried and
   no half-rewritten module reaches the emitter. *)
let test_canonicalize_backstop_diagnostic () =
  (* The default pipeline with a budget of zero rounds, which trips the
     greedy driver's backstop before its first drain. *)
  let pipeline =
    List.map
      (fun (p : Pass.t) ->
        if p.Pass.name = "canonicalize" then Passes.make_canonicalize ~max_rounds:0 else p)
      (Pipeline.default ~optimize:true)
  in
  expect_permanent
    (Driver.compile_job (Driver.job_of_text ~pipeline ~name:"t.hir" (transpose_text ())))
    "\"t.hir\": error: canonicalize did not converge within 0 rounds (rewrite backstop)"

(* ------------------------------------------------------------------ *)
(* Batch robustness under injection                                    *)

(* Fast kernels only: the property below compiles them dozens of times. *)
let fast_kernel_jobs pipeline =
  [ "transpose"; "stencil_1d"; "fifo" ]
  |> List.map (fun name ->
         let k = Option.get (Hir_kernels.Kernels.find name) in
         Driver.job_of_builder ~pipeline ~name k.Hir_kernels.Kernels.build)
  |> Array.of_list

(* Every worker spawn fails: the pool has no survivors, so the batch
   drains inline on the calling domain.  No job is lost or degraded,
   and the batch says why it ran on fewer workers. *)
let test_batch_spawn_faults_degrade_inline () =
  let pipeline = Pipeline.default ~optimize:true in
  let cfg = { Faults.rules = [ ("worker.spawn", Faults.Prob 1.) ]; seed = 0 } in
  let result =
    Faults.with_config cfg (fun () -> Driver.batch ~workers:4 (fast_kernel_jobs pipeline))
  in
  Alcotest.(check (list string))
    "statuses" [ "ok"; "ok"; "ok" ]
    (Array.to_list result.Driver.reports
    |> List.map (fun rp -> Driver.status_to_string (Driver.report_status rp)));
  Alcotest.(check (list string))
    "batch note"
    [ "3 of 3 worker spawns failed; batch degraded to the surviving workers" ]
    result.Driver.batch_notes

let test_batch_partial_results () =
  let pipeline = Pipeline.default ~optimize:true in
  let jobs =
    [|
      Driver.job_of_text ~pipeline ~name:"bad.hir" "%%% not hir";
      Driver.job_of_text ~pipeline ~name:"good.hir" (transpose_text ());
    |]
  in
  let result = Driver.batch ~workers:2 jobs in
  check_int "one report per job" 2 (Array.length result.Driver.reports);
  (match result.Driver.reports.(0).Driver.rp_outcome with
  | Error e -> check_string "bad job failed" "bad.hir" e.Driver.err_job
  | Ok _ -> Alcotest.fail "expected bad.hir to fail");
  match result.Driver.reports.(1).Driver.rp_outcome with
  | Ok o ->
    check_bool "good job still compiled" true (String.length o.Driver.verilog > 0)
  | Error e -> Alcotest.failf "good job failed: %s" (Driver.error_to_string e)

(* The central robustness invariant: under ANY injection schedule a
   batch terminates with exactly one report per job; the schedule is a
   deterministic function of the seed (same seed = same statuses and
   attempt counts, whatever the worker count); and every job that
   reports Ok — degraded or not — carries Verilog bit-identical to a
   fault-free compile. *)
let batch_under_injection_prop =
  let pipeline = Pipeline.default ~optimize:true in
  let baseline =
    lazy
      (Driver.batch ~workers:1 (fast_kernel_jobs pipeline)
      |> fun r ->
      Array.to_list r.Driver.reports
      |> List.map (fun (rp : Driver.report) ->
             match rp.Driver.rp_outcome with
             | Ok o -> (rp.Driver.rp_job, o.Driver.verilog)
             | Error e ->
               Alcotest.failf "fault-free baseline failed: %s"
                 (Driver.error_to_string e)))
  in
  let gen =
    QCheck.(
      quad (int_bound 1000)
        (oneofl [ 0.0; 0.1; 0.3; 0.6 ])  (* cache.read *)
        (oneofl [ 0.0; 0.2; 0.5 ])  (* job.compile *)
        (oneofl [ 0.0; 0.5; 1.0 ]) (* worker.spawn *))
  in
  QCheck.Test.make ~count:12 ~name:"batch under injection: no lost jobs, deterministic"
    gen
    (fun (seed, p_read, p_compile, p_spawn) ->
      let spec =
        Printf.sprintf "cache.read=%g,cache.write=%g,job.compile=%g,worker.spawn=%g"
          p_read (p_read /. 2.) p_compile p_spawn
      in
      let rules =
        match Faults.parse_spec spec with
        | Ok r -> r
        | Error e -> QCheck.Test.fail_reportf "spec %S rejected: %s" spec e
      in
      let cfg = { Faults.rules; seed } in
      (* Zero backoff: retries must not sleep inside a property. *)
      let retry =
        { Driver.default_retry with Driver.base_backoff_s = 0.; max_backoff_s = 0. }
      in
      let run workers =
        let cache = Cache.create ~dir:(fresh_dir ()) () in
        Faults.with_config cfg (fun () ->
            Driver.batch ~cache ~workers ~retry (fast_kernel_jobs pipeline))
      in
      let summarize r =
        Array.to_list r.Driver.reports
        |> List.map (fun (rp : Driver.report) ->
               ( rp.Driver.rp_job,
                 Driver.status_to_string (Driver.report_status rp),
                 rp.Driver.rp_attempts ))
      in
      let r1 = run 1 in
      let names = List.map (fun (n, _, _) -> n) (summarize r1) in
      if names <> [ "transpose"; "stencil_1d"; "fifo" ] then
        QCheck.Test.fail_reportf "lost or reordered jobs: %s" (String.concat "," names);
      (* Determinism: same seed, same schedule — sequential rerun and a
         3-worker run must report identical statuses and attempts. *)
      if summarize (run 1) <> summarize r1 then
        QCheck.Test.fail_reportf "same seed, different outcome on rerun";
      if summarize (run 3) <> summarize r1 then
        QCheck.Test.fail_reportf "worker count changed the fault schedule";
      (* Integrity: any Ok output is bit-identical to the fault-free
         baseline, however degraded the path that produced it. *)
      let base = Lazy.force baseline in
      Array.iter
        (fun (rp : Driver.report) ->
          match rp.Driver.rp_outcome with
          | Ok o ->
            if o.Driver.verilog <> List.assoc rp.Driver.rp_job base then
              QCheck.Test.fail_reportf "%s: degraded output differs from baseline"
                rp.Driver.rp_job
          | Error e ->
            (* Failures are legitimate under injection, but must be
               classified — never an anonymous crash. *)
            if e.Driver.err_diags = [] then
              QCheck.Test.fail_reportf "%s: failure without diagnostics" rp.Driver.rp_job)
        r1.Driver.reports;
      true)

let () =
  Alcotest.run "driver"
  @@ Scratch.watch
    [
      ( "pipeline",
        [
          Alcotest.test_case "roundtrip" `Quick test_pipeline_roundtrip;
          Alcotest.test_case "normalization" `Quick test_pipeline_normalization;
          Alcotest.test_case "errors" `Quick test_pipeline_errors;
          Alcotest.test_case "errors-located" `Quick test_pipeline_located_errors;
          Alcotest.test_case "to-passes" `Quick test_pipeline_to_passes;
        ] );
      ( "instrumentation",
        [ Alcotest.test_case "events-match-stats" `Quick test_instrumentation ] );
      ( "cache",
        [
          Alcotest.test_case "hit-and-invalidation" `Quick test_cache_hit_and_invalidation;
          Alcotest.test_case "key" `Quick test_cache_key;
          Alcotest.test_case "builder-matches-text" `Quick test_builder_matches_text;
          Alcotest.test_case "damaged-entry-degrades-to-miss" `Quick
            test_cache_damaged_entry_degrades_to_miss;
          Alcotest.test_case "errors-are-diagnostics" `Quick
            test_compile_job_errors_are_diagnostics;
          Alcotest.test_case "extern-miss-stores-job" `Quick test_extern_miss_stores_job;
        ] );
      ( "batch",
        [
          Alcotest.test_case "deterministic-4-workers" `Quick test_batch_deterministic;
          Alcotest.test_case "warm-cache" `Quick test_batch_warm_cache;
          Alcotest.test_case "tally-counts-served" `Quick test_batch_tally_counts_served;
        ] );
      ("top", [ Alcotest.test_case "implicit-choice-note" `Quick test_top_note ]);
      ("trace", [ Alcotest.test_case "spans-and-json" `Quick test_trace_spans_and_json ]);
      ( "faults",
        [
          Alcotest.test_case "spec-parsing" `Quick test_faults_spec_parsing;
          Alcotest.test_case "nth-trigger" `Quick test_faults_nth_trigger;
          Alcotest.test_case "seeded-determinism" `Quick test_faults_determinism;
        ] );
      ( "guards",
        [
          Alcotest.test_case "deadline-timeout" `Quick test_deadline_timeout;
        ] );
      ( "cache-integrity",
        [
          Alcotest.test_case "bitflip-quarantined" `Quick test_cache_bitflip_quarantined;
          Alcotest.test_case "truncated-meta-quarantined" `Quick
            test_cache_truncated_meta_quarantined;
          Alcotest.test_case "header-fields-covered" `Quick
            test_cache_header_fields_covered;
          Alcotest.test_case "entry-damage-never-served" `Quick
            test_cache_entry_damage_never_served;
          Alcotest.test_case "store-failure-is-clean" `Quick
            test_cache_store_failure_is_clean;
          Alcotest.test_case "write-fault-ordering" `Quick
            test_cache_write_fault_ordering;
          Alcotest.test_case "verify-and-prune" `Quick test_cache_verify_and_prune;
          Alcotest.test_case "verify-preserves-counters" `Quick
            test_cache_verify_preserves_counters;
          Alcotest.test_case "quarantine-collision" `Quick
            test_cache_quarantine_collision;
          Alcotest.test_case "budget-eviction" `Quick test_cache_budget_eviction;
        ] );
      ( "scheduler-faults",
        [
          Alcotest.test_case "spawn-fault-degrades-inline" `Quick
            test_batch_spawn_faults_degrade_inline;
        ] );
      ( "input-errors",
        [
          Alcotest.test_case "call-cycle" `Quick test_call_cycle;
          Alcotest.test_case "extern-top" `Quick test_extern_top;
          Alcotest.test_case "unknown-callee" `Quick test_unknown_callee;
          Alcotest.test_case "delay-order" `Quick test_delay_order_design;
          Alcotest.test_case "verify-matches-compile" `Quick test_verify_matches_compile;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "canonicalize-backstop-diagnostic" `Quick
            test_canonicalize_backstop_diagnostic;
        ] );
      ( "batch-robustness",
        [
          Alcotest.test_case "partial-results" `Quick test_batch_partial_results;
          QCheck_alcotest.to_alcotest ~verbose:false batch_under_injection_prop;
        ] );
    ]
