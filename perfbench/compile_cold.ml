(* compile-cold: a closed loop with one caller.  Each job is
   [Driver.compile_job] with no cache on HIR text printed from a kernel
   builder, so the compiler layers do all the work (paper Table 6, the
   `hirc compile`/`batch` path).

   The traced run replays the driver's staged path step by step through
   public functions, with a span around each call into a layer; its
   Verilog must equal [compile_job]'s byte for byte. *)

open Hir_ir
open Hir_dialect
module Driver = Hir_driver.Driver
module Incr = Hir_driver.Incr
module Pipeline = Hir_driver.Pipeline
module Emit = Hir_codegen.Emit
module Pretty = Hir_verilog.Pretty
module Model = Hir_resources.Model
module L = Bench_util.Layers

(* Jobs per 188-job block.  Small kernels (about 1-4 ms each) set the
   median; the n = 16 designs (about 300 ms) are 3.2% of jobs, which
   puts p99 inside GEMM 16x16. *)
let weights =
  [
    ("transpose", 22);
    ("stencil_1d", 22);
    ("histogram", 22);
    ("convolution", 22);
    ("fifo", 22);
    ("elementwise_max", 22);
    ("task_parallel", 22);
    ("gemm4", 8);
    ("systolic4", 8);
    ("gemm8", 6);
    ("systolic8", 6);
    ("gemm16", 3);
    ("systolic16", 3);
  ]

(* ------------------------------------------------------------------ *)
(* The staged path, step by step                                       *)

exception Step_failed of string

let count_ops op =
  let n = ref 0 in
  Ir.Walk.ops_pre op ~f:(fun _ -> incr n);
  !n

let lookup mini name =
  match Ops.lookup_func mini name with
  | Some f -> f
  | None -> raise (Step_failed ("function vanished: @" ^ name))

(* [Incr.module_of_texts], with the parse of the texts charged to
   incr.reparse and the body to whatever [f] charges. *)
let reparse layers texts f =
  let t0 = Bench_util.now () in
  Incr.module_of_texts texts (fun mini ->
      L.add layers "incr.reparse.busy_ms" (Bench_util.now () -. t0);
      f mini)

let pass_instrument layers mini = function
  | Pass.Pass_begin _ -> ()
  | Pass.Pass_end { pass_name; seconds; counters; _ } ->
    L.add layers ("pass." ^ pass_name ^ ".busy_ms") seconds;
    if pass_name = "canonicalize" then
      List.iter
        (fun (k, n) ->
          if not (String.starts_with ~prefix:"driver." k) then
            L.add layers "pass.canonicalize.rewrites" (float_of_int n))
        counters;
    if pass_name = "unroll" then
      L.add layers "pass.unroll.ops_after" (float_of_int (count_ops mini))

(* The driver's staged compile of a text source with no cache (steps
   1-9 of the breakdown).  Returns the linked Verilog and the top's
   inclusive usage. *)
let staged layers ~name text =
  let span name f = L.span layers name f in
  let passes = Pipeline.to_passes Designs.pipeline in
  let pipeline_str = Pipeline.to_string Designs.pipeline in
  Ir.with_isolated_ids (fun () ->
      let m = span "ir.parser.busy_ms" (fun () -> Parser.parse_string ~file:name text) in
      L.add layers "ir.parser.bytes" (float_of_int (String.length text));
      span "ir.verify.busy_ms" (fun () -> Driver.run_verifiers m);
      let plan =
        span "incr.normalize.busy_ms" (fun () ->
            Ir.with_isolated_ids (fun () -> Incr.normalize ~file:name ~text m))
      in
      let top = Ops.func_name (fst (Driver.pick_top plan.Incr.pl_module None)) in
      if (Incr.fn_info plan top).Incr.fi_extern then raise (Step_failed "extern top");
      let order = Incr.usage_order plan ~top in
      let hash = Incr.cone_hashes plan ~pipeline:pipeline_str in
      span "incr.cone_hash.busy_ms" (fun () -> List.iter (fun fn -> ignore (hash fn)) order);
      let texts = Hashtbl.create 16 and usages = Hashtbl.create 16 in
      let def_texts = Hashtbl.create 16 and fn_defs = Hashtbl.create 16 in
      let instance_usage mname =
        match Hashtbl.find_opt usages mname with
        | Some u -> u
        | None -> raise (Step_failed ("instance of unknown module " ^ mname))
      in
      let print_module (vm : Hir_verilog.Ast.module_def) =
        let s = span "verilog.pretty.busy_ms" (fun () -> Pretty.module_to_string vm) in
        L.add layers "verilog.pretty.bytes" (float_of_int (String.length s));
        let u = span "resources.model.busy_ms" (fun () -> Model.module_usage ~instance_usage vm) in
        (s, u)
      in
      List.iter
        (fun fn ->
          let fi = Incr.fn_info plan fn in
          let opt_text =
            if fi.Incr.fi_extern then ""
            else
              reparse layers (Incr.cone_texts plan fn) (fun mini ->
                  let mgr =
                    Pass.Manager.create ~instrument:(pass_instrument layers mini) passes
                  in
                  let result = Pass.Manager.run mgr mini in
                  if not result.Pass.succeeded then
                    raise (Step_failed (Diagnostic.Engine.to_string result.Pass.engine));
                  let s =
                    span "ir.printer.busy_ms" (fun () -> Printer.op_to_string (lookup mini fn))
                  in
                  L.add layers "ir.printer.bytes" (float_of_int (String.length s));
                  s)
          in
          let vmodule, defs =
            if fi.Incr.fi_extern then
              reparse layers [ (fn, fi.Incr.fi_text) ] (fun mini ->
                  (span "codegen.emit.busy_ms" (fun () ->
                       Emit.emit_extern_module (lookup mini fn)), []))
            else
              let callee_texts =
                List.map (fun c -> (c, (Incr.fn_info plan c).Incr.fi_text)) fi.Incr.fi_callees
              in
              reparse layers (callee_texts @ [ (fn, opt_text) ]) (fun mini ->
                  span "codegen.emit.busy_ms" (fun () ->
                      let vm, defs, _ = Emit.emit_module_for ~module_op:mini (lookup mini fn) in
                      (vm, defs)))
          in
          L.add layers "codegen.emit.modules" (float_of_int (1 + List.length defs));
          List.iter
            (fun (d : Hir_verilog.Ast.module_def) ->
              let dn = d.Hir_verilog.Ast.mod_name in
              if not (Hashtbl.mem def_texts dn) then begin
                let s, u = print_module d in
                Hashtbl.replace def_texts dn s;
                Hashtbl.replace usages dn u
              end)
            defs;
          let s, u = print_module vmodule in
          Hashtbl.replace texts fn s;
          Hashtbl.replace fn_defs fn (List.map (fun d -> d.Hir_verilog.Ast.mod_name) defs);
          Hashtbl.replace usages (Incr.emitted_module_name fn) u)
        order;
      let verilog =
        span "incr.link.busy_ms" (fun () ->
            let placed = Hashtbl.create 16 in
            Incr.link_design
              (List.concat_map
                 (fun fn ->
                   let defs =
                     List.filter_map
                       (fun dn ->
                         if Hashtbl.mem placed dn then None
                         else begin
                           Hashtbl.replace placed dn ();
                           Some (Hashtbl.find def_texts dn)
                         end)
                       (Option.value ~default:[] (Hashtbl.find_opt fn_defs fn))
                   in
                   defs @ [ Hashtbl.find texts fn ])
                 (Incr.emit_order plan ~top)))
      in
      (verilog, Hashtbl.find usages (Incr.emitted_module_name top)))

(* The staged breakdown's Verilog and usage, or why it failed. *)
let try_staged layers ~name text =
  match staged layers ~name text with
  | res -> Ok res
  | exception (Step_failed msg | Incr.Fallback msg) -> Error msg
  | exception Driver.Compile_failed diags ->
    Error (String.concat "; " (List.map Diagnostic.to_string diags))

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)

let run (args : Bench_util.args) =
  let setup_s, texts =
    Bench_util.timed_setup ~clock:Bench_util.cpu_now (fun () ->
        List.map (fun d -> (d.Designs.name, Designs.text d)) Designs.catalogue)
  in
  let next, block = Bench_util.deck (Bench_util.rng ~seed:args.seed ~salt:1) weights in
  (* The first output of each design; every repeat must match it. *)
  let first : (string, Driver.output) Hashtbl.t = Hashtbl.create 16 in
  let layers = L.create () in
  let samples = ref [] and attempted = ref 0 and failed = ref 0 in
  let untraced_s = ref 0. and traced_s = ref 0. in
  let problems = ref [] in
  let fail name msg =
    incr failed;
    if List.length !problems < 5 then problems := Printf.sprintf "%s: %s" name msg :: !problems
  in
  let check name (o : Driver.output) =
    if o.Driver.degradations <> [] then (fail name "degraded compile"; false)
    else
      match Hashtbl.find_opt first name with
      | None -> Hashtbl.replace first name o; true
      | Some f when String.equal f.Driver.verilog o.Driver.verilog -> true
      | Some _ -> (fail name "Verilog differs from an earlier compile of the design"; false)
  in
  (* Compare the staged breakdown's Verilog and usage with a compile. *)
  let check_staged name (o : Driver.output) = function
    | Ok (verilog, usage) ->
      if not (String.equal verilog o.Driver.verilog && usage = o.Driver.usage) then
        fail name "staged breakdown differs from compile_job"
    | Error msg -> fail name ("staged: " ^ msg)
  in
  let gc0 = Gc.quick_stat () in
  let b = Bench_util.budget args in
  let t_loop = Bench_util.now () and c_loop = Bench_util.cpu_now () in
  (* Reference samples, and their CPU time, which the blocks leave out. *)
  let refs = ref [] and excluded = ref 0. in
  while Bench_util.more b ~done_ops:!attempted do
    if !attempted mod block = 0 then begin
      let r = Bench_util.reference_work ~clock:Bench_util.cpu_now Bench_util.serial in
      refs := r :: !refs;
      excluded := !excluded +. r
    end;
    let name = next () in
    let text = List.assoc name texts in
    let job = Driver.job_of_text ~pipeline:Designs.pipeline ~name text in
    incr attempted;
    let c0 = Bench_util.cpu_now () and t0 = Bench_util.now () in
    let r = Driver.compile_job job in
    let dt = Bench_util.now () -. t0 and dc = Bench_util.cpu_now () -. c0 in
    (match r with
    | Error e -> fail name (Driver.error_to_string e)
    | Ok o ->
      if check name o && args.trace then begin
        untraced_s := !untraced_s +. dt;
        let t1 = Bench_util.now () in
        let res = try_staged layers ~name text in
        traced_s := !traced_s +. (Bench_util.now () -. t1);
        check_staged name o res
      end);
    samples := (dc, Bench_util.cpu_now () -. !excluded) :: !samples
  done;
  let wall = Bench_util.now () -. t_loop in
  let gc = Bench_util.gc_metrics ~before:gc0 ~ops:!attempted in
  (* Untraced runs check each design's output against the breakdown
     once, after the timed loop. *)
  if not args.trace then
    Hashtbl.iter
      (fun name o ->
        check_staged name o (try_staged (L.create ()) ~name (List.assoc name texts)))
      first;
  let windows = [ Bench_util.window ~block ~start:c_loop !samples ] in
  let n = !attempted in
  let distinct = Hashtbl.fold (fun _ o acc -> o :: acc) first [] in
  let sum f = float_of_int (List.fold_left (fun acc o -> acc + f o) 0 distinct) in
  let speed = Bench_util.speed_factor Bench_util.serial !refs in
  let notes =
    Printf.sprintf "# compile-cold: %d jobs in %.2f s wall, %d distinct designs; %s" n wall
      (List.length distinct) (Bench_util.sample_note windows)
    :: Bench_util.speed_note ~refs:!refs ~scale:speed windows
    :: List.rev !problems
  in
  let metrics =
    if not args.trace then
      [
        ("setup_s", setup_s);
        ("peak_rss_mb", Bench_util.peak_rss_mb "self");
        ("ops_per_s", Bench_util.ops_per_s windows /. speed);
        ("p50_ms", Bench_util.p50 windows *. speed *. 1e3);
        ("p99_ms", Bench_util.p99 windows *. speed *. 1e3);
        ("verilog_bytes", sum (fun o -> String.length o.Driver.verilog));
        ("design_luts", sum (fun o -> o.Driver.usage.Model.lut));
        ("design_ffs", sum (fun o -> o.Driver.usage.Model.ff));
      ]
    else
      let per_op v = Bench_util.mean_of v n in
      (* Every time the staged steps record is a span of one step. *)
      let covered =
        Hashtbl.fold
          (fun name v acc -> if String.ends_with ~suffix:"_ms" name then acc +. v else acc)
          layers 0.
      in
      Hashtbl.fold
        (fun name v acc ->
          (name, if String.ends_with ~suffix:"_ms" name then per_op v *. 1e3 else per_op v)
          :: acc)
        layers []
      @ [
          ("driver.self_ms", per_op (!untraced_s -. covered) *. 1e3);
          ("trace.overhead_ms", per_op (!traced_s -. !untraced_s) *. 1e3);
        ]
      @ gc
  in
  { Bench_util.attempted = n; failed = !failed; metrics; notes }
