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
module Emit = Hir_codegen.Emit

let () = Ops.register ()

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let fresh_dir = Scratch.fresh_dir

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

(* The outputs of a batch, failing the test on any job error. *)
let compile_all ?cache ~tops src =
  let result = Driver.batch ?cache ~workers:1 (jobs_of ~tops src) in
  Array.to_list result.Driver.outcomes
  |> List.map (function
       | Ok (o : Driver.output) -> o
       | Error e -> Alcotest.failf "compile failed: %s" (Driver.error_to_string e))

let verilogs outputs =
  List.map (fun (o : Driver.output) -> (o.Driver.top_name, o.Driver.verilog)) outputs

(* Functions the outputs re-optimized: each leaves one stat per
   pipeline pass. *)
let reoptimized outputs =
  List.fold_left (fun n (o : Driver.output) -> n + List.length o.Driver.pass_stats) 0 outputs
  / List.length (Pipeline.to_passes pipeline)

(* Cold batch, edit [target], warm batch; returns the warm outputs, the
   cache-less baseline of the edited source, the number of warm jobs
   served from the cache, the number of functions the warm batch
   re-optimized and its stores per kind. *)
let edit_and_recompile ~kernels ~target =
  let parts = List.map kernel_parts kernels in
  let tops = List.map fst parts in
  let texts = List.concat_map snd parts in
  let cache = Cache.create ~dir:(fresh_dir ()) () in
  ignore (compile_all ~cache ~tops (combined texts));
  let before = Cache.kind_stats cache in
  let edited_src = combined (edit_fn target texts) in
  let warm = compile_all ~cache ~tops edited_src in
  let baseline = compile_all ~tops edited_src in
  let delta field =
    List.map
      (fun (kind, s) -> (kind, field s - field (List.assoc kind before)))
      (Cache.kind_stats cache)
  in
  ( verilogs warm,
    verilogs baseline,
    List.length (List.filter (fun (o : Driver.output) -> o.Driver.from_cache) warm),
    reoptimized warm,
    delta (fun s -> s.Cache.k_stores) )

(* The warm batch stores one Src entry (the first job's; the others
   hit it), the edited top's Job entry, and one Vmod entry per
   re-optimized function: a served job stores nothing. *)
let check_stores ~reoptimized stores =
  check_int "one Src store" 1 (List.assoc Cache.Src stores);
  check_int "one Job store" 1 (List.assoc Cache.Job stores);
  check_int "one Vmod store per re-optimized function" reoptimized
    (List.assoc Cache.Vmod stores)

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
      let design = (Emit.compile ~module_op:m ~top ()).Emit.design in
      let whole = Hir_verilog.Pretty.design_to_string design in
      let relinked =
        Incr.link_design
          (List.map Hir_verilog.Pretty.module_to_string
             design.Hir_verilog.Ast.modules)
      in
      check_string "link_design = Pretty.design_to_string" whole relinked)

(* A function's Vmod payload splits back into the record it was built
   from, and a manifest that overruns the payload is refused. *)
let test_payload_round_trip () =
  let c =
    {
      Incr.c_text = "module f(input clk);\n  hirdef_a u0(.clk(clk));\nendmodule\n";
      c_defs = [ ("hirdef_a", "module hirdef_a(input clk);\nendmodule\n"); ("hirdef_b", "") ];
      c_usage = { Hir_resources.Model.zero with lut = 3 };
    }
  in
  let usage = c.Incr.c_usage in
  let p = Incr.payload c in
  check_bool "the record comes back" true (Incr.of_payload ~usage p = Some c);
  check_bool "no manifest without definitions" true
    (Incr.payload { c with Incr.c_defs = [] } = c.Incr.c_text);
  check_bool "a truncated payload is refused" true
    (Incr.of_payload ~usage (String.sub p 0 (String.index p '\n' + 10)) = None)

(* ------------------------------------------------------------------ *)
(* Deterministic: leaf edit and call-graph edit                        *)

(* Editing one leaf kernel among three: the two untouched tops re-link
   from the cache, exactly one function is re-optimized. *)
let test_leaf_edit_relinks_others () =
  let warm, baseline, served, reoptimized, stores =
    edit_and_recompile
      ~kernels:[ "transpose"; "fifo"; "elementwise_max" ]
      ~target:"elementwise_max"
  in
  check_bool "warm outputs byte-identical to a cache-less compile" true
    (warm = baseline);
  check_int "both untouched tops are served" 2 served;
  check_int "exactly the edited function re-optimizes" 1 reoptimized;
  check_stores ~reoptimized stores

(* Editing a callee inside task_parallel's call graph: the edit
   invalidates the callee's cone AND every caller cone containing it
   (stencilA -> task_parallel), while sibling subtrees (stencilB) and
   unrelated kernels keep their entries. *)
let test_callee_edit_invalidates_cone () =
  let warm, baseline, served, reoptimized, stores =
    edit_and_recompile
      ~kernels:[ "transpose"; "fifo"; "task_parallel" ]
      ~target:"stencilA"
  in
  check_bool "warm outputs byte-identical to a cache-less compile" true
    (warm = baseline);
  check_int "the two kernels outside the cone are served" 2 served;
  check_int "edited callee + its caller re-optimize, nothing else" 2 reoptimized;
  check_stores ~reoptimized stores

(* A function's shared definitions ([hirdef_*] modules) travel in its
   own Vmod entry: GEMM 4x4's cache holds one Vmod entry per compiled
   function and none keyed on a definition.  A recompile of the
   comment-edited source links from the function entries alone,
   byte-identical to the cold compile, with each definition printed
   once. *)
let test_definitions_travel_with_function () =
  let dir = fresh_dir () in
  let cache = Cache.create ~dir () in
  let text, functions =
    Ir.with_isolated_ids (fun () ->
        let m, _ = Hir_kernels.Gemm.build ~n:4 () in
        (Printer.op_to_string m, List.length (Ops.module_funcs m)))
  in
  let compile text =
    match Driver.compile_job ~cache (Driver.job_of_text ~pipeline ~name:"gemm4" text) with
    | Ok o -> o
    | Error e -> Alcotest.failf "compile failed: %s" (Driver.error_to_string e)
  in
  let cold = compile text in
  (* (kind extension, top named in the header line) of every entry. *)
  let entries =
    Sys.readdir dir |> Array.to_list
    |> List.concat_map (fun shard ->
           let sdir = Filename.concat dir shard in
           Sys.readdir sdir |> Array.to_list
           |> List.map (fun f ->
                  let text = Io.read_file (Filename.concat sdir f) in
                  let header = String.sub text 0 (String.index text '\n') in
                  (Filename.extension f, Scanf.sscanf header "%_s %_d %_d %_d %_d %S" Fun.id)))
  in
  check_bool "no entry is keyed on a definition" false
    (List.exists (fun (_, top) -> String.starts_with ~prefix:"hirdef_" top) entries);
  check_int "one Vmod entry per compiled function" functions
    (List.length (List.filter (fun (ext, _) -> ext = ".vm") entries));
  let vmod () = List.assoc Cache.Vmod (Cache.kind_stats cache) in
  let before = vmod () in
  let warm = compile (text ^ "\n// edited\n") in
  check_bool "a function entry hit" true ((vmod ()).Cache.k_hits > before.Cache.k_hits);
  check_int "no function re-optimizes" 0 (reoptimized [ warm ]);
  check_string "Verilog byte-identical to the cold compile" cold.Driver.verilog
    warm.Driver.verilog;
  let defs =
    String.split_on_char '\n' warm.Driver.verilog
    |> List.filter (String.starts_with ~prefix:"module hirdef_")
  in
  check_bool "the design has definitions" true (defs <> []);
  check_int "each definition printed once" (List.length defs)
    (List.length (List.sort_uniq compare defs))

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
              let f, _ =
                Emit.optimize_fn ~passes:(Pipeline.to_passes pipeline)
                  (Incr.fn_info plan top).Incr.fi_func
              in
              Printer.op_to_string f)
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

(* [Emit.compile] runs the driver's stages.  Every golden design,
   optimized and not, built under a fresh id counter as a builder job
   builds it, and every example design that compiles, parsed likewise,
   gives the job's Verilog byte for byte and the job's usage. *)
let test_emit_compile_ships () =
  let check ~what ~optimize job build =
    match Driver.compile_job (job (Pipeline.default ~optimize)) with
    | Error _ -> ()
    | Ok o ->
      let what = Printf.sprintf "%s (optimize=%b)" what optimize in
      let design =
        Ir.with_isolated_ids (fun () ->
            let module_op, top = build () in
            (Emit.compile ~optimize ~module_op ~top ()).Emit.design)
      in
      check_string (what ^ ": Verilog") o.Driver.verilog
        (Hir_verilog.Pretty.design_to_string design);
      check_bool (what ^ ": usage") true
        (Hir_resources.Model.design_usage design = o.Driver.usage)
  in
  List.iter
    (fun optimize ->
      List.iter
        (fun (name, build) ->
          check ~what:name ~optimize
            (fun pipeline -> Driver.job_of_builder ~pipeline ~name build)
            build)
        golden_designs;
      List.iter
        (fun (file, text) ->
          check ~what:file ~optimize
            (fun pipeline -> Driver.job_of_text ~pipeline ~name:file text)
            (fun () ->
              let m = Parser.parse_string ~file text in
              (m, fst (Driver.pick_top m None))))
        Example_designs.designs)
    [ false; true ]

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
      let warm, baseline, served, reoptimized, _ =
        edit_and_recompile ~kernels ~target
      in
      if warm <> baseline then
        QCheck.Test.fail_reportf "warm recompile differs from cold compile";
      if served <> List.length kernels - 1 then
        QCheck.Test.fail_reportf "expected %d served jobs, saw %d"
          (List.length kernels - 1) served;
      if reoptimized <> 1 then
        QCheck.Test.fail_reportf "expected 1 re-optimized function, saw %d" reoptimized;
      true)

(* ------------------------------------------------------------------ *)
(* Clone ≡ parse: an in-memory mini-module is what its texts parse to  *)

(* Every id in [root]'s tree, in pre-order and by kind; values carry
   their hints. *)
type id_sequences = {
  op_ids : int list;
  value_ids : (int * string option) list;
  block_ids : int list;
  region_ids : int list;
}

let id_sequences root =
  let ops = ref [] and values = ref [] and blocks = ref [] and regions = ref [] in
  let value v = values := (v.Ir.v_id, v.Ir.v_hint) :: !values in
  let rec op o =
    ops := o.Ir.op_id :: !ops;
    Array.iter value o.Ir.results;
    List.iter
      (fun r ->
        regions := r.Ir.r_id :: !regions;
        List.iter
          (fun b ->
            blocks := b.Ir.b_id :: !blocks;
            Array.iter value b.Ir.b_args;
            List.iter op (Ir.Block.ops b))
          r.Ir.blocks)
      o.Ir.regions
  in
  op root;
  {
    op_ids = List.rev !ops;
    value_ids = List.rev !values;
    block_ids = List.rev !blocks;
    region_ids = List.rev !regions;
  }

let lookup mini name = Option.get (Ops.lookup_func mini name)

(* [Printer.fix_names], then the text: after the walk every hint is a
   unique printed name, so a plain print reproduces it name for name. *)
let print_fixed op =
  Printer.fix_names op;
  Printer.op_to_string op

let verilog_of_modules modules =
  String.concat "\n" (List.map Hir_verilog.Pretty.module_to_string modules)

let emitted mini name =
  let vm, defs, _ = Hir_codegen.Emit.emit_module_for ~module_op:mini (lookup mini name) in
  verilog_of_modules (defs @ [ vm ])

(* What a compile can observe of a mini-module: its text and ids, and
   the Verilog [name] emits from it. *)
let observe_emit name mini = (Printer.op_to_string mini, id_sequences mini, emitted mini name)

(* The optimize layout, run the way [Emit.optimize_fn] runs it: what the
   pipeline saw and left behind, the Verilog emitted in place from the
   result (or the emitter's error, which both sides must then share),
   and the optimized function (at the print∘parse fixed point) with
   its text. *)
let observe_optimize name mini =
  let before = (Printer.op_to_string mini, id_sequences mini) in
  let result = Pass.Manager.run (Pass.Manager.create (Pipeline.to_passes pipeline)) mini in
  if not result.Pass.succeeded then failwith (Printf.sprintf "@%s: pipeline failed" name);
  let after = (Printer.op_to_string mini, id_sequences mini) in
  let verilog =
    match emitted mini name with
    | v -> Ok v
    | exception Hir_codegen.Emit.Codegen_error msg -> Error msg
  in
  let f = lookup mini name in
  ((before, after, verilog, print_fixed f), f)

(* For every function of the module [build] returns, the mini-modules
   a cold compile clones and the ones the parse of the same texts
   builds must be indistinguishable, in the optimize layout and in the
   emit layout.  The clone side plans the built module as a builder job
   does; the text side plans the parse of its printed form as a text
   job does, so a function whose hints collide with another function's
   shows up as a difference. *)
let clone_matches_parse build =
  Ir.with_isolated_ids (fun () ->
      let m, _ = build () in
      let text = print_fixed m in
      let cplan = Incr.plan_of_module ~text:(Lazy.from_val text) m in
      let tplan = Incr.normalize ~file:"t.hir" ~text (Parser.parse_string text) in
      (* A side's result, or [None] when it rejects the function as not
         self-contained: the sides must agree on that too. *)
      let attempt f =
        match f () with v -> Some v | exception Emit.Codegen_error _ -> None
      in
      let expect what name c t =
        if c <> t then failwith (Printf.sprintf "@%s: clone and parse differ in the %s" name what)
      in
      List.iter
        (fun f ->
          let name = Ops.func_name f in
          let fi = Incr.fn_info cplan name and ti = Incr.fn_info tplan name in
          expect "printed function" name fi.Incr.fi_text ti.Incr.fi_text;
          if fi.Incr.fi_extern then begin
            let observe mini =
              ( Printer.op_to_string mini,
                id_sequences mini,
                verilog_of_modules [ Hir_codegen.Emit.emit_extern_module (lookup mini name) ] )
            in
            expect "extern layout" name
              (attempt (fun () -> Emit.mini_module [ (name, Emit.Clone fi.Incr.fi_func) ] observe))
              (attempt (fun () -> Incr.module_of_texts [ (name, ti.Incr.fi_text) ] observe))
          end
          else begin
            let c =
              attempt (fun () ->
                  Emit.mini_module [ (name, Emit.Clone fi.Incr.fi_func) ] (observe_optimize name))
            in
            let t =
              attempt (fun () ->
                  Incr.module_of_texts [ (name, ti.Incr.fi_text) ] (observe_optimize name))
            in
            expect "optimize layout" name (Option.map fst c) (Option.map fst t);
            match (c, t) with
            | Some (_, c_fn), Some ((_, _, _, t_text), _) ->
              let callee_texts =
                List.map (fun c -> (c, (Incr.fn_info tplan c).Incr.fi_text)) ti.Incr.fi_callees
              in
              expect "emit layout" name
                (attempt (fun () ->
                     Emit.mini_module
                       (Emit.emit_members cplan.Incr.pl_fns c_fn)
                       (observe_emit name)))
                (attempt (fun () ->
                     Incr.module_of_texts (callee_texts @ [ (name, t_text) ]) (observe_emit name)))
            | _ -> ()
          end)
        (Ops.module_funcs m))

type random_design =
  | Straight of Random_designs.recipe
  | Loop of Random_designs.loop_recipe
  | Unrolled of Random_designs.unroll_recipe

let build_random = function
  | Straight r -> Random_designs.build_design r
  | Loop r -> Random_designs.build_loop_design r
  | Unrolled r -> Random_designs.build_unroll_design r

let arb_random_design =
  let open Random_designs in
  QCheck.make
    ~print:(function
      | Straight r -> "straight " ^ recipe_to_string r
      | Loop r -> "loop " ^ loop_recipe_to_string r
      | Unrolled r -> "unrolled " ^ unroll_recipe_to_string r)
    QCheck.Gen.(
      oneof
        [
          map (fun r -> Straight r) gen_recipe;
          map (fun r -> Loop r) gen_loop_recipe;
          map (fun r -> Unrolled r) gen_unroll_recipe;
        ])

let clone_parse_prop =
  QCheck.Test.make ~count:60 ~name:"clone == parse on random designs" arb_random_design
    (fun d ->
      QCheck.assume
        (Ir.with_isolated_ids (fun () ->
             Random_designs.verifier_accepts (fst (build_random d))));
      match clone_matches_parse (fun () -> build_random d) with
      | () -> true
      | exception Failure msg -> QCheck.Test.fail_report msg)

(* Does some function of the built module print differently on its own
   than as a slice of the module's print?  Only then does a builder
   job's plan differ from a text job's when the printer stops storing
   hints. *)
let slices_differ build =
  Ir.with_isolated_ids (fun () ->
      let m, _ = build () in
      let own () = List.map Printer.op_to_string (Ops.module_funcs m) in
      let before = own () in
      ignore (print_fixed m);
      before <> own ())

(* Every kernel, and GEMM and the systolic array at n = 4, 8 and 16.
   task_parallel builds stencilA and stencilB with the same builder, so
   its functions reuse hints and stencilB's own print differs from its
   slice of the module's.  One more transpose carries named
   locations with a child, which the text does not print but the
   emitter writes into Verilog comments. *)
let kernel_designs =
  let named_locs () =
    let m, f = Hir_kernels.Transpose.build () in
    let loc = Location.name ~child:(Location.file ~file:"t.c" ~line:3 ~col:7) "site" in
    Ir.Walk.ops_pre f ~f:(fun o -> o.Ir.loc <- loc);
    (m, f)
  in
  List.map
    (fun k -> (k.Hir_kernels.Kernels.name, k.Hir_kernels.Kernels.build))
    Hir_kernels.Kernels.all
  @ List.concat_map
      (fun n ->
        [
          (Printf.sprintf "gemm%d" n, fun () -> Hir_kernels.Gemm.build ~n ());
          (Printf.sprintf "systolic%d" n, fun () -> Hir_kernels.Systolic.build ~n ());
        ])
      [ 4; 8; 16 ]
  @ [ ("transpose with named locations", named_locs) ]

let test_clone_matches_parse_kernels () =
  check_bool "some function prints differently from its slice" true
    (List.exists (fun (_, build) -> slices_differ build) kernel_designs);
  List.iter
    (fun (name, build) ->
      match clone_matches_parse build with
      | () -> ()
      | exception Failure msg -> Alcotest.failf "%s: %s" name msg)
    kernel_designs

(* A function that uses a value it does not define cannot be compiled
   on its own: the clone rejects it as the parse of its text does. *)
let test_clone_rejects_foreign_value () =
  Ir.with_isolated_ids (fun () ->
      let _, f = Hir_kernels.Transpose.build () in
      let foreign =
        Ir.Op.create "hir.constant" ~attrs:[ ("value", Attribute.Int 0) ] ~operands:[]
          ~result_types:[ Typ.i32 ]
      in
      let user = List.hd (Ir.Walk.collect f ~pred:(fun o -> Ir.Op.num_operands o > 0)) in
      Ir.Op.set_operand user 0 (Ir.Op.result foreign 0);
      let rejects what member =
        match Emit.mini_module [ ("transpose", member) ] ignore with
        | () -> Alcotest.failf "the %s accepted a value defined outside the function" what
        | exception Emit.Codegen_error _ -> ()
      in
      rejects "clone" (Emit.Clone f);
      rejects "parse" (Emit.Text (Printer.op_to_string f)))

(* ------------------------------------------------------------------ *)
(* Slice ≡ print: a plan's function texts are its functions' prints    *)

(* Each top-level range of a plan's module print, de-indented, must be
   its function's own print, and so must the plan's text of each
   function.  The plan takes [fi_text] from these slices and prints no
   function, so this is what makes the cone hashes the ones the
   functions' prints give. *)
let check_slices plan =
  let fail name what = failwith (Printf.sprintf "@%s: %s" name what) in
  let funcs = Ops.module_funcs plan.Incr.pl_module in
  let text = Lazy.force plan.Incr.pl_text in
  let ranges = Printer.top_level_ranges text in
  if List.length ranges <> List.length funcs then
    failwith
      (Printf.sprintf "%d ranges for %d functions" (List.length ranges) (List.length funcs));
  List.iter2
    (fun f range ->
      let name = Ops.func_name f in
      let own = Printer.op_to_string f in
      if Printer.slice text range <> own then fail name "slice differs from print";
      let fi = Incr.fn_info plan name in
      if fi.Incr.fi_func == f && fi.Incr.fi_text <> own then
        fail name "plan text differs from print")
    funcs ranges

(* Both kinds of plan of what [build] returns: a builder job's, of the
   module at its fixing print, and a text job's, of the parse of that
   print. *)
let check_slices_of_build build =
  Ir.with_isolated_ids (fun () ->
      let m, _ = build () in
      let text = print_fixed m in
      check_slices (Incr.plan_of_module ~text:(Lazy.from_val text) m);
      check_slices (Incr.normalize ~file:"t.hir" ~text (Parser.parse_string text)))

(* A text job's plan of a source that need not be its own print. *)
let check_slices_of_text ~file text =
  Ir.with_isolated_ids (fun () ->
      check_slices (Incr.normalize ~file ~text (Parser.parse_string ~file text)))

(* Every kernel design, every example design (a file that is not its
   own print is named in place and planned with its print), and a combined
   module of two kernels, as the edit tests compile them. *)
let test_slices_match_prints () =
  List.iter
    (fun (name, build) ->
      match check_slices_of_build build with
      | () -> ()
      | exception Failure msg -> Alcotest.failf "%s: %s" name msg)
    kernel_designs;
  List.iter
    (fun (file, text) ->
      match check_slices_of_text ~file text with
      | () -> ()
      | exception Failure msg -> Alcotest.failf "%s: %s" file msg)
    Example_designs.designs;
  let texts = List.concat_map (fun k -> snd (kernel_parts k)) [ "transpose"; "task_parallel" ] in
  match check_slices_of_text ~file:"combined" (combined texts) with
  | () -> ()
  | exception Failure msg -> Alcotest.failf "combined: %s" msg

let slice_print_prop =
  QCheck.Test.make ~count:60 ~name:"slice == print on random designs" arb_random_design
    (fun d ->
      match check_slices_of_build (fun () -> build_random d) with
      | () -> true
      | exception Failure msg -> QCheck.Test.fail_report msg)

(* ------------------------------------------------------------------ *)
(* One compute path: with or without a cache, the same module          *)

(* Every token of [text] with its offset. *)
let tokens text =
  let lex = Lexer.create text in
  let rec go acc =
    match Lexer.next lex with
    | Lexer.EOF -> Array.of_list (List.rev acc)
    | tok -> go ((tok, Lexer.offset lex) :: acc)
  in
  go []

(* [text] with each op's attribute entries in reverse order.  An op's
   attribute dict opens right after the ')' that closes its operands or
   regions; a dict-valued attribute opens after '=', '[' or ','. *)
let reverse_attributes text =
  let toks = tokens text in
  let buf = Buffer.create (String.length text) in
  let copied = ref 0 in
  let entry_text start stop = String.trim (String.sub text start (stop - start)) in
  Array.iteri
    (fun i (tok, at) ->
      if tok = Lexer.LBRACE && i > 0 && fst toks.(i - 1) = Lexer.RPAREN then begin
        (* Split the dict's entries at the commas of depth 0. *)
        let rec scan j depth start acc =
          let tok, off = toks.(j) in
          match tok with
          | Lexer.LBRACE | Lexer.LBRACKET | Lexer.LANGLE | Lexer.LPAREN ->
            scan (j + 1) (depth + 1) start acc
          | (Lexer.RBRACE | Lexer.RBRACKET | Lexer.RANGLE | Lexer.RPAREN) when depth > 0 ->
            scan (j + 1) (depth - 1) start acc
          | Lexer.RBRACE -> (off, entry_text start off :: acc)
          | Lexer.COMMA when depth = 0 ->
            scan (j + 1) depth (snd toks.(j + 1)) (entry_text start off :: acc)
          | _ -> scan (j + 1) depth start acc
        in
        let close, reversed = scan (i + 1) 0 (snd toks.(i + 1)) [] in
        Buffer.add_substring buf text !copied (at + 1 - !copied);
        Buffer.add_string buf (String.concat ", " reversed);
        copied := close
      end)
    toks;
  Buffer.add_substring buf text !copied (String.length text - !copied);
  Buffer.contents buf

(* A file name that needs every escape the printer writes, and holds
   non-ASCII bytes. *)
let odd_file = {|"café \"q\" \\ \t\n.hir"|}

(* [text] with a location naming [odd_file] on every op that has none:
   after the ')' that closes an op's result types ('->' then '('). *)
let add_locations text =
  let toks = tokens text in
  let buf = Buffer.create (String.length text) in
  let copied = ref 0 in
  Array.iteri
    (fun i (tok, _) ->
      if tok = Lexer.ARROW then begin
        let rec close j depth =
          match fst toks.(j) with
          | Lexer.LPAREN -> close (j + 1) (depth + 1)
          | Lexer.RPAREN when depth = 1 -> j
          | Lexer.RPAREN -> close (j + 1) (depth - 1)
          | _ -> close (j + 1) depth
        in
        let j = close (i + 1) 0 in
        let has_loc = j + 1 < Array.length toks && fst toks.(j + 1) = Lexer.IDENT "loc" in
        if not has_loc then begin
          let after = snd toks.(j) + 1 in
          Buffer.add_substring buf text !copied (after - !copied);
          Printf.bprintf buf " loc(%s:%d:7)" odd_file (i mod 97);
          copied := after
        end
      end)
    toks;
  Buffer.add_substring buf text !copied (String.length text - !copied);
  Buffer.contents buf

(* [text] with a comment line after every line, and more whitespace
   around every colon and before every line break. *)
let add_comments text =
  let buf = Buffer.create (2 * String.length text) in
  Buffer.add_string buf "// perturbed\n";
  String.iter
    (function
      | '\n' -> Buffer.add_string buf " \r\n  // a comment line\n"
      | ':' -> Buffer.add_string buf " \t:  "
      | c -> Buffer.add_char buf c)
    text;
  Buffer.contents buf

(* Comments, whitespace, reversed attributes and escaped strings at
   once. *)
let perturb text = add_comments (add_locations (reverse_attributes text))

(* Every value's hint and every op's location under [root], in walk
   order. *)
let names root =
  let acc = ref [] in
  Ir.Walk.ops_pre root ~f:(fun op ->
      acc := `Loc op.Ir.loc :: !acc;
      Array.iter (fun v -> acc := `Hint v.Ir.v_hint :: !acc) op.Ir.results;
      List.iter
        (fun r ->
          List.iter
            (fun b -> Array.iter (fun v -> acc := `Hint v.Ir.v_hint :: !acc) b.Ir.b_args)
            r.Ir.blocks)
        op.Ir.regions);
  List.rev !acc

(* Compile [text] without a cache, cold with one, warm with it, and
   with a second pipeline, whose job hits only the first job's Src
   entry and so compiles the parse of its normalized print: the same
   Verilog, usage or first diagnostic every time.  A job without a
   cache prints and slices no HIR; with one, it prints the module once.
   The parse a cache-less job plans is at the print∘parse fixed point
   as it stands ([Printer.fix_names] renames nothing in it), and its
   print is [Incr.normalize]'s. *)
let check_one_path ~name ?top text =
  let fail what = failwith (Printf.sprintf "%s: %s" name what) in
  let opt = Pipeline.default ~optimize:true and plain = Pipeline.default ~optimize:false in
  let compile ?cache pipeline =
    let outcome, counters =
      Metrics.with_scope (fun () ->
          Driver.compile_job ?cache (Driver.job_of_text ?top ~pipeline ~name text))
    in
    let printed k = Option.value ~default:0 (List.assoc_opt ("printer." ^ k) counters) in
    ( (match outcome with
      | Ok o -> Ok (o.Driver.verilog, o.Driver.usage)
      | Error e ->
        Error (List.hd (String.split_on_char '\n' (Driver.error_to_string e)))),
      (printed "prints", printed "slices") )
  in
  let bare, bare_printed = compile opt in
  let bare_plain, _ = compile plain in
  if bare_printed <> (0, 0) then fail "a job without a cache printed or sliced HIR";
  let cache = Cache.create ~dir:(fresh_dir ()) () in
  let cold, cold_printed = compile ~cache opt in
  if cold <> bare then fail "cold compile with a cache differs";
  if Result.is_ok cold && fst cold_printed <> 1 then
    fail (Printf.sprintf "cold compile printed %d times" (fst cold_printed));
  if fst (compile ~cache opt) <> bare then fail "warm compile differs";
  let src_hits = Cache.get cache "src.hits" in
  if fst (compile ~cache plain) <> bare_plain then fail "compile from the Src entry differs";
  (match Driver.parse_source ~file:name text with
  | Error _ -> ()
  | Ok m ->
    if Diagnostic.Engine.has_errors (Driver.verifier_engine m) then ()
    else begin
      if Cache.get cache "src.hits" <> src_hits + 1 then fail "the Src entry was not hit";
      let normalized =
        Ir.with_isolated_ids (fun () ->
            let m = Parser.parse_string ~file:name text in
            Lazy.force (Incr.normalize ~file:name ~text m).Incr.pl_text)
      in
      let plan = Incr.plan_of_module m in
      if Printer.op_to_string plan.Incr.pl_module <> normalized then
        fail "the plan's module prints differently from normalize's";
      let parsed = names m in
      Printer.fix_names m;
      if names m <> parsed then fail "fix_names renamed a value of a parse"
    end);
  bare

(* Every example design and kernel, as printed and perturbed. *)
let test_one_path_designs () =
  let kernels =
    List.map
      (fun k ->
        Ir.with_isolated_ids (fun () ->
            let m, f = k.Hir_kernels.Kernels.build () in
            (k.Hir_kernels.Kernels.name, Some (Ops.func_name f), Printer.op_to_string m)))
      Hir_kernels.Kernels.all
  in
  let examples = List.map (fun (file, text) -> (file, None, text)) Example_designs.designs in
  List.iter
    (fun (name, top, text) ->
      match
        ( check_one_path ~name ?top text,
          check_one_path ~name:(name ^ " perturbed") ?top (perturb text) )
      with
      | Ok (_, usage), Ok (_, perturbed) ->
        check_bool (name ^ ": perturbed usage") true (usage = perturbed)
      | Error _, Error _ -> ()
      | _ -> Alcotest.failf "%s: the perturbed text compiles differently" name
      | exception Failure msg -> Alcotest.fail msg)
    (examples @ kernels)

(* The perturbations keep the module: its normalized print is the
   original's, bar the added locations. *)
let test_perturbations_keep_module () =
  let normal text =
    Ir.with_isolated_ids (fun () ->
        let m = Parser.parse_string text in
        Printer.fix_names m;
        Printer.op_to_string m)
  in
  List.iter
    (fun (file, text) ->
      check_bool (file ^ " reversed") true (reverse_attributes text <> text);
      check_string (file ^ " reversed and commented")
        (normal text)
        (normal (add_comments (reverse_attributes text)));
      check_bool (file ^ " gets locations") true
        (String.length (normal (add_locations text)) > String.length (normal text)))
    (List.filter (fun (f, _) -> f <> "err_add.hir") Example_designs.designs)

let one_path_prop =
  QCheck.Test.make ~count:40 ~name:"one compute path on random designs" arb_random_design
    (fun d ->
      QCheck.assume
        (Ir.with_isolated_ids (fun () ->
             Random_designs.verifier_accepts (fst (build_random d))));
      let text =
        Ir.with_isolated_ids (fun () -> Printer.op_to_string (fst (build_random d)))
      in
      match
        (check_one_path ~name:"random" text, check_one_path ~name:"random perturbed" (perturb text))
      with
      | Ok (_, usage), Ok (_, perturbed) -> usage = perturbed
      | _ -> QCheck.Test.fail_report "a random design or its perturbation did not compile"
      | exception Failure msg -> QCheck.Test.fail_report msg)

(* ------------------------------------------------------------------ *)
(* Each function optimized once                                        *)

(* A cache-less compile optimizes each function of the top's cone in a
   mini-module of its own, so canonicalize processes each op once: a
   mini-module holding the function's whole cone would process every
   callee again for each caller. *)
let test_optimize_once () =
  List.iter
    (fun (name, expected) ->
      let top, parts = kernel_parts name in
      let trace = Trace.create () in
      (match
         Driver.compile_job ~trace
           (Driver.job_of_text ~top ~pipeline ~name (combined parts))
       with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" name (Driver.error_to_string e));
      check_int (name ^ ": canonicalize ops processed") expected
        (Metrics.get (Trace.metrics trace) "pass:canonicalize/driver.ops-processed"))
    [ ("task_parallel", 76); ("stencil_1d", 37) ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "incremental"
  @@ Scratch.watch
    [
      ( "link",
        [
          Alcotest.test_case "matches-monolithic-printer" `Quick
            test_link_design_matches_pretty;
          Alcotest.test_case "payload-round-trip" `Quick test_payload_round_trip;
        ] );
      ( "edit",
        [
          Alcotest.test_case "leaf-edit-relinks-others" `Quick
            test_leaf_edit_relinks_others;
          Alcotest.test_case "callee-edit-invalidates-cone" `Quick
            test_callee_edit_invalidates_cone;
          Alcotest.test_case "definitions-travel-with-function" `Quick
            test_definitions_travel_with_function;
        ] );
      ( "golden",
        [
          Alcotest.test_case "kernel digests" `Quick test_golden_digests;
          Alcotest.test_case "emit-compile-ships" `Quick test_emit_compile_ships;
        ] );
      ( "property",
        [ QCheck_alcotest.to_alcotest ~verbose:false incremental_reuse_prop ] );
      ( "clone",
        [
          Alcotest.test_case "kernels" `Quick test_clone_matches_parse_kernels;
          Alcotest.test_case "foreign-value-rejected" `Quick test_clone_rejects_foreign_value;
          QCheck_alcotest.to_alcotest ~verbose:false clone_parse_prop;
        ] );
      ( "slice",
        [
          Alcotest.test_case "kernels and examples" `Quick test_slices_match_prints;
          QCheck_alcotest.to_alcotest ~verbose:false slice_print_prop;
        ] );
      ( "one-path",
        [
          Alcotest.test_case "perturbations keep the module" `Quick
            test_perturbations_keep_module;
          Alcotest.test_case "kernels and examples" `Quick test_one_path_designs;
          QCheck_alcotest.to_alcotest ~verbose:false one_path_prop;
        ] );
      ( "optimize",
        [ Alcotest.test_case "each function once" `Quick test_optimize_once ] );
    ]
