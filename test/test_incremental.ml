(* Tests for the sub-job incremental compilation chain (lib/driver):
   the correctness bar is byte-identity — a warm recompile after an
   edit must produce exactly the bytes a cold, cache-less compile of
   the edited source produces — plus structural reuse: editing one
   function re-optimizes only the functions whose cone hash changed,
   and every untouched top re-links from its cached entry.

   The scenarios compile several kernels' functions linked into ONE
   module, as one job per top against a shared cache, mirroring
   `bench --incremental` and the DESIGN.md fingerprint chain. *)

open Hir_ir
open Hir_dialect
open Hir_driver

let () = Ops.register ()

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hir-incr-test-%d-%d" (Unix.getpid ()) !counter)

(* ------------------------------------------------------------------ *)
(* Source assembly                                                     *)

(* (top, [function name * printed text]) of one built-in kernel. *)
let kernel_parts name =
  let k = List.find (fun k -> k.Hir_kernels.Kernels.name = name) Hir_kernels.Kernels.all in
  let m, f = k.Hir_kernels.Kernels.build () in
  ( Ops.func_name f,
    List.map
      (fun f -> (Ops.func_name f, Printer.op_to_string f))
      (Ir.Walk.find_all m "hir.func") )

(* One module text holding every listed function, in order. *)
let combined texts = Incr.module_of_texts texts Printer.op_to_string

(* A real semantic edit confined to one function: decrement the
   function's largest constant — a loop bound in every kernel.
   Shrinking a bound keeps the schedule legal (each cycle's access set
   is a subset of the original's), where shifting a lower bound or
   growing an unrolled loop could re-align banked accesses into a port
   conflict. *)
let shrink_largest_constant text =
  let tag = "{value = " in
  let tl = String.length tag in
  let constants = ref [] in
  for i = 0 to String.length text - tl do
    if String.sub text i tl = tag then begin
      let j = ref (i + tl) in
      while !j < String.length text && text.[!j] >= '0' && text.[!j] <= '9' do
        incr j
      done;
      if !j > i + tl then
        constants := (int_of_string (String.sub text (i + tl) (!j - i - tl)), i + tl, !j) :: !constants
    end
  done;
  match List.sort (fun (a, _, _) (b, _, _) -> compare b a) !constants with
  | (n, i, j) :: _ when n >= 2 ->
    String.sub text 0 i ^ string_of_int (n - 1) ^ String.sub text j (String.length text - j)
  | _ -> Alcotest.failf "no constant to edit in %s..." (String.sub text 0 40)

let edit_fn target texts =
  List.map
    (fun (n, t) -> if n = target then (n, shrink_largest_constant t) else (n, t))
    texts

(* ------------------------------------------------------------------ *)
(* Batch plumbing                                                      *)

let pipeline = Pipeline.default ~optimize:true

let jobs_of ~tops src =
  Array.of_list
    (List.map
       (fun top -> Driver.job_of_text ~top ~pipeline ~name:("incr-" ^ top) src)
       tops)

(* (top * verilog) list, failing the test on any job error. *)
let compile_all ?cache ~tops src =
  let result = Driver.batch ?cache ~workers:1 (jobs_of ~tops src) in
  Array.to_list result.Driver.outcomes
  |> List.map (function
       | Ok (o : Driver.output) -> (o.Driver.top_name, o.Driver.verilog)
       | Error e -> Alcotest.failf "compile failed: %s" (Driver.error_to_string e))

let kind_stat cache kind = List.assoc kind (Cache.kind_stats cache)

(* Cold batch, edit [target], warm batch; returns the warm outputs, the
   cache-less baseline of the edited source and the warm-phase deltas
   of (link hits, fn stores). *)
let edit_and_recompile ~kernels ~target =
  let parts = List.map kernel_parts kernels in
  let tops = List.map fst parts in
  let texts = List.concat_map snd parts in
  let cache = Cache.create ~dir:(fresh_dir ()) () in
  ignore (compile_all ~cache ~tops (combined texts));
  let before_link = kind_stat cache Cache.Link in
  let before_fn = kind_stat cache Cache.Fn in
  let edited_src = combined (edit_fn target texts) in
  let warm = compile_all ~cache ~tops edited_src in
  let baseline = compile_all ~tops edited_src in
  let link_hits = (kind_stat cache Cache.Link).Cache.k_hits - before_link.Cache.k_hits in
  let fn_stores = (kind_stat cache Cache.Fn).Cache.k_stores - before_fn.Cache.k_stores in
  (warm, baseline, link_hits, fn_stores)

(* ------------------------------------------------------------------ *)
(* Unit: the staged linker matches the monolithic printer              *)

let test_link_design_matches_pretty () =
  let _, parts = kernel_parts "transpose" in
  let _, parts2 = kernel_parts "elementwise_max" in
  Incr.module_of_texts (parts @ parts2) (fun m ->
      let top =
        match Ops.lookup_func m "transpose" with
        | Some f -> f
        | None -> Alcotest.fail "transpose vanished"
      in
      let emitted = Hir_codegen.Emit.emit ~module_op:m ~top () in
      let design = emitted.Hir_codegen.Emit.design in
      let whole = Hir_verilog.Pretty.design_to_string design in
      let relinked =
        Incr.link_design
          (List.map Hir_verilog.Pretty.module_to_string
             design.Hir_verilog.Ast.modules)
      in
      check_string "link_design = Pretty.design_to_string" whole relinked)

(* ------------------------------------------------------------------ *)
(* Deterministic: leaf edit and call-graph edit                        *)

(* Editing one leaf kernel among three: the two untouched tops re-link,
   exactly one function is re-optimized. *)
let test_leaf_edit_relinks_others () =
  let warm, baseline, link_hits, fn_stores =
    edit_and_recompile
      ~kernels:[ "transpose"; "fifo"; "elementwise_max" ]
      ~target:"elementwise_max"
  in
  check_bool "warm outputs byte-identical to a cache-less compile" true
    (warm = baseline);
  check_int "both untouched tops re-link" 2 link_hits;
  check_int "exactly the edited function re-optimizes" 1 fn_stores

(* Editing a callee inside task_parallel's call graph: the edit
   invalidates the callee's cone AND every caller cone containing it
   (stencilA -> task_parallel), while sibling subtrees (stencilB) and
   unrelated kernels keep their entries. *)
let test_callee_edit_invalidates_cone () =
  let warm, baseline, link_hits, fn_stores =
    edit_and_recompile
      ~kernels:[ "transpose"; "fifo"; "task_parallel" ]
      ~target:"stencilA"
  in
  check_bool "warm outputs byte-identical to a cache-less compile" true
    (warm = baseline);
  check_int "the two kernels outside the cone re-link" 2 link_hits;
  check_int "edited callee + its caller re-optimize, nothing else" 2 fn_stores

(* ------------------------------------------------------------------ *)
(* Golden digests: printed optimized function and compiled Verilog     *)

(* Each design as (name, builder): the built-in kernels ("gemm" is GEMM
   at n = 16, "systolic" the systolic array at n = 8) plus GEMM and the
   systolic array at the other sizes the benchmark compiles. *)
let golden_designs =
  List.map
    (fun k -> (k.Hir_kernels.Kernels.name, k.Hir_kernels.Kernels.build))
    Hir_kernels.Kernels.all
  @ [
      ("gemm4", fun () -> Hir_kernels.Gemm.build ~n:4 ());
      ("systolic4", fun () -> Hir_kernels.Systolic.build ~n:4 ());
      ("systolic16", fun () -> Hir_kernels.Systolic.build ~n:16 ());
    ]

(* (MD5 of the top's optimized printed form, MD5 of the job's Verilog),
   recorded before the IR and Verilog printers moved from Format to
   Buffer: every byte of both printers and both namers is pinned. *)
let golden_digests =
  [
    ("transpose", ("6014ae95d4d880a3928459c8f13d9fb6", "efecdfa09f08085bb8475007eb7450a7"));
    ("stencil_1d", ("61e20fda65572b26288cae214b7bd615", "bb5b75c7efeaa442428dbd1177eafdc0"));
    ("histogram", ("a883ee90d5b5adf360ff26bcfa02873f", "9212238388226530812c6af77828ed54"));
    ("gemm", ("ab9c69c2009f9613e456be80a2b79123", "17bae3ab7160b59fe57e3b9762bc0028"));
    ("systolic", ("b6345954f8086136f0d8a15e9dfc08b2", "0d8e65eac4e00973b843bd1a1b0eb3ce"));
    ("convolution", ("d1674d9e88122d569c164b9fc934bcc7", "71e84d6493f51707eba9a2f20309f63a"));
    ("fifo", ("4fd6fc650e2534f34e46e8037a8b175f", "8b50d85d61a202ae1b0f597ca00c9ad8"));
    ("elementwise_max", ("ed27296dc980489ad72a81d82bc527f4", "6d0b9c9a1f5f49e7671e0d890c9d1511"));
    ("task_parallel", ("54ee8511b8c4db47e24274e2fe8cd643", "3d11a465a8d83fa4f5a3be71fd97c591"));
    ("gemm4", ("7c281298722d353a610c97804efd2dfe", "5fb8a3b4b301d94916cffc34ebdd5510"));
    ("systolic4", ("9c9c59038cd64e3c0073fda2522eb04e", "999a224f22a3d915fa4cac7d715d005a"));
    ("systolic16", ("43388042aa312ca064e4ccd68bc1b5dd", "7c3fc806f8f76633e29067f3a51a7f6a"));
  ]

let test_golden_digests () =
  let actual =
    List.map
      (fun (name, build) ->
        let text, top =
          Ir.with_isolated_ids (fun () ->
              let m, f = build () in
              (Printer.op_to_string m, Ops.func_name f))
        in
        let verilog =
          match Driver.compile_job (Driver.job_of_text ~top ~pipeline ~name text) with
          | Ok o -> o.Driver.verilog
          | Error e -> Alcotest.failf "%s: %s" name (Driver.error_to_string e)
        in
        let opt_text =
          Ir.with_isolated_ids (fun () ->
              let plan = Incr.normalize ~file:name ~text (Parser.parse_string ~file:name text) in
              fst (Incr.optimize_fn plan ~passes:(Pipeline.to_passes pipeline)
                     ~instrument:(fun _ -> ()) top))
        in
        (name, (Digest.to_hex (Digest.string opt_text), Digest.to_hex (Digest.string verilog))))
      golden_designs
  in
  if actual <> golden_digests then
    Alcotest.failf "digests moved; now:\n%s"
      (String.concat "\n"
         (List.map
            (fun (n, (i, v)) -> Printf.sprintf "    (%S, (%S, %S));" n i v)
            actual))

(* ------------------------------------------------------------------ *)
(* Property: byte-identity and minimal recompute on random edits       *)

(* Fast single-function kernels, so the property stays cheap. *)
let property_pool = [ "transpose"; "histogram"; "convolution"; "fifo"; "elementwise_max" ]

let incremental_reuse_prop =
  let gen =
    QCheck.(
      pair
        (int_bound (List.length property_pool - 1))  (* edited kernel *)
        (int_bound ((1 lsl List.length property_pool) - 1)) (* subset mask *))
  in
  QCheck.Test.make ~count:15
    ~name:"random single-function edit: byte-identical warm recompile, minimal recompute"
    gen
    (fun (edit_idx, mask) ->
      (* The chosen subset, forced to include the edited kernel. *)
      let kernels =
        List.filteri
          (fun i _ -> i = edit_idx || (mask lsr i) land 1 = 1)
          property_pool
      in
      let target = List.nth property_pool edit_idx in
      let warm, baseline, link_hits, fn_stores =
        edit_and_recompile ~kernels ~target
      in
      if warm <> baseline then
        QCheck.Test.fail_reportf "warm recompile differs from cold compile";
      if link_hits <> List.length kernels - 1 then
        QCheck.Test.fail_reportf "expected %d link hits, saw %d"
          (List.length kernels - 1) link_hits;
      if fn_stores <> 1 then
        QCheck.Test.fail_reportf "expected 1 fn store, saw %d" fn_stores;
      true)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "incremental"
    [
      ( "link",
        [ Alcotest.test_case "matches-monolithic-printer" `Quick
            test_link_design_matches_pretty ] );
      ( "edit",
        [
          Alcotest.test_case "leaf-edit-relinks-others" `Quick
            test_leaf_edit_relinks_others;
          Alcotest.test_case "callee-edit-invalidates-cone" `Quick
            test_callee_edit_invalidates_cone;
        ] );
      ( "golden",
        [ Alcotest.test_case "kernel digests" `Quick test_golden_digests ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest ~verbose:false incremental_reuse_prop ] );
    ]
