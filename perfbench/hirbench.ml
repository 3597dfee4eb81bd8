(* The benchmark driver: one command, three seeded workloads.

     hirbench --workload NAME --seed N --seconds S --trace 0|1

   run from the root of the checkout, prints notes, then as its last
   line one JSON object with the keys correct, attempted, failed and
   metrics: every end-to-end metric BENCHMARK.json lists with --trace 0,
   every per-layer metric with --trace 1. *)

let () =
  Hir_dialect.Ops.register ();
  match (Bench_util.parse_args Sys.argv, Bench_util.read_catalogue "BENCHMARK.json") with
  | exception (Failure msg | Sys_error msg) ->
    prerr_endline msg;
    exit 2
  | args, catalogue ->
    let run =
      match args.Bench_util.workload with
      | "compile-cold" -> Compile_cold.run
      | "sim-batch" -> Sim_batch.run
      | "serve-mixed" -> Serve_mixed.run
      | w ->
        prerr_endline ("unknown workload " ^ w ^ "\n" ^ Bench_util.usage);
        exit 2
    in
    (* An interrupted run ends its loops, still stops serve-mixed's
       server, and prints no result. *)
    List.iter
      (fun signal ->
        Sys.set_signal signal
          (Sys.Signal_handle (fun _ -> Atomic.set Bench_util.interrupted true)))
      [ Sys.sigterm; Sys.sigint ];
    let result = run args in
    if Atomic.get Bench_util.interrupted then begin
      prerr_endline "hirbench: interrupted";
      exit 1
    end;
    Bench_util.print_result catalogue ~trace:args.Bench_util.trace result
