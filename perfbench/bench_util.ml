(* Shared plumbing for the benchmark: arguments, the closed-loop budget,
   the host-speed correction, percentiles, process statistics, per-layer
   accumulators, the metric catalogue and the result line. *)

let now = Unix.gettimeofday

let median_of l =
  let a = Array.of_list l in
  Array.sort compare a;
  if a = [||] then nan else a.((Array.length a - 1) / 2)

(* CPU seconds of this process, all domains, user and system.  For the
   single-threaded compile-cold this is the time its caller waits, less
   what the host of a shared virtual machine gives to other tenants
   (steal).  A multi-domain workload waits on the wall clock instead:
   its CPU time adds the domains' work together and leaves out the
   hand-offs between them. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  ops : int option;
      (* a fixed operation count instead of the time bound: the
         self-test uses it so that count metrics repeat exactly *)
  hirc : string;  (* the hirc binary serve-mixed starts *)
}

let usage =
  "usage: hirbench --workload compile-cold|sim-batch|serve-mixed --seed N --seconds S \
   --trace 0|1 [--ops N] [--hirc PATH]"

let parse_args argv =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref false and ops = ref None and hirc = ref "_build/default/bin/hirc.exe" in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> failwith (Printf.sprintf "%s expects an integer, got %S" flag v)
  in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := Some (int_arg "--seed" v); go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0. -> seconds := Some s
      | _ -> failwith ("--seconds expects a positive number, got " ^ v));
      go rest
    | "--trace" :: v :: rest ->
      (match v with
      | "0" -> trace := false
      | "1" -> trace := true
      | _ -> failwith ("--trace expects 0 or 1, got " ^ v));
      go rest
    | "--ops" :: v :: rest -> ops := Some (max 1 (int_arg "--ops" v)); go rest
    | "--hirc" :: v :: rest -> hirc := v; go rest
    | [] -> ()
    | a :: _ -> failwith ("unknown argument " ^ a)
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds) with
  | Some workload, Some seed, Some seconds ->
    { workload; seed; seconds; trace = !trace; ops = !ops; hirc = !hirc }
  | _ -> failwith usage

(* Set by SIGTERM or SIGINT: every loop stops at its next operation,
   and the run exits without a result.  A flag rather than an
   exception, which Driver.compile_job's own error handling would
   catch. *)
let interrupted = Atomic.make false

(* A closed loop runs until the deadline, or for exactly [ops]
   operations when a count is given. *)
type budget = { deadline : float; max_ops : int option }

let budget args = { deadline = now () +. args.seconds; max_ops = args.ops }

let more b ~done_ops =
  (not (Atomic.get interrupted))
  && match b.max_ops with Some n -> done_ops < n | None -> now () < b.deadline

(* [n] steps of hashing, string building and allocation on [h]. *)
let hash_steps h n =
  let acc = ref 0 in
  for i = 0 to n - 1 do
    Hashtbl.replace h (i land 4095) (string_of_int (i * 7919));
    match Hashtbl.find_opt h ((i * 31) land 4095) with
    | Some s -> acc := !acc + String.length s
    | None -> ()
  done;
  ignore (Sys.opaque_identity !acc)

(* [rounds] rounds of [steps] hashing steps on each of two domains, the
   caller's and a helper's, with a barrier at the end of every round: a
   mutex and two condition variables, the way the partitioned simulator
   hands each settle to its pool and waits for it.  The helper is
   started, cycles once through its fresh minor heap so that the rounds
   do not pay for first touching its pages, and is joined, all outside
   [clock]'s reading. *)
let two_domain_rounds ~clock ~rounds ~steps =
  let m = Mutex.create () and work = Condition.create () and fin = Condition.create () in
  let posted = ref 0 and finished = ref (-1) in
  let helper =
    Domain.spawn (fun () ->
        let h = Hashtbl.create 4096 in
        for _ = 1 to 1 lsl 18 do
          ignore (Sys.opaque_identity (ref 0))
        done;
        Mutex.lock m;
        finished := 0;
        Condition.signal fin;
        Mutex.unlock m;
        for r = 1 to rounds do
          Mutex.lock m;
          while !posted < r do
            Condition.wait work m
          done;
          Mutex.unlock m;
          hash_steps h steps;
          Mutex.lock m;
          finished := r;
          Condition.signal fin;
          Mutex.unlock m
        done)
  in
  let h = Hashtbl.create 4096 in
  Mutex.lock m;
  while !finished < 0 do
    Condition.wait fin m
  done;
  Mutex.unlock m;
  let t0 = clock () in
  for r = 1 to rounds do
    Mutex.lock m;
    posted := r;
    Condition.signal work;
    Mutex.unlock m;
    hash_steps h steps;
    Mutex.lock m;
    while !finished < r do
      Condition.wait fin m
    done;
    Mutex.unlock m
  done;
  let t = clock () -. t0 in
  Domain.join helper;
  t

(* A fixed piece of work that uses none of the repository's code, shaped
   like the work it corrects: no change to the compiler, simulator or
   server can move its time; the host can.  Times are reported as if
   the reference work took [nominal_s] where they were measured, i.e.
   multiplied by [nominal_s] over the reference time sampled there:
   this is the one host-speed correction of every workload. *)
type reference = {
  rounds : int;
      (* 0: [steps] on the calling domain alone; otherwise that many
         rounds of [steps] on each of two domains, with a barrier per
         round *)
  steps : int;
  nominal_s : float;  (* roughly its time on a quiet host *)
}

(* 120,001 steps on one domain, about 30 ms.  Its time follows the
   speed the host gives the machine at that moment, which on a shared
   virtual machine moved compile-cold's CPU time per job by up to 45%
   between runs. *)
let serial = { rounds = 0; steps = 120_001; nominal_s = 0.030 }

let reference_work ~clock r =
  if r.rounds > 0 then two_domain_rounds ~clock ~rounds:r.rounds ~steps:r.steps
  else begin
    let h = Hashtbl.create 4096 in
    let t0 = clock () in
    hash_steps h r.steps;
    clock () -. t0
  end

(* The factor for a whole run: over the median of its samples. *)
let speed_factor r refs = r.nominal_s /. median_of refs

(* The factor for operation [i] of a loop that took the samples [refs]
   of [r] every [every] operations, the first before operation 0: over
   the mean of the samples just before and just after the [every]
   operations [i] is among.  The host's speed changed within runs, and
   a run-wide factor would correct a fast stretch by a slow one's. *)
let bracketing_scale r ~every refs i =
  let k = i / every in
  let after = if k + 1 < Array.length refs then refs.(k + 1) else refs.(k) in
  r.nominal_s /. ((refs.(k) +. after) /. 2.)

(* Seeded generator for one purpose of one workload. *)
let rng ~seed ~salt = Random.State.make [| seed; salt |]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* A weighted draw without drift: each block holds every choice exactly
   its weight times, in a freshly shuffled order, so the mix shares of
   a run do not depend on the seed — only the order does.  Returns the
   draw and the block length. *)
let deck rng weights =
  let block =
    Array.of_list (List.concat_map (fun (x, w) -> List.init w (fun _ -> x)) weights)
  in
  let pos = ref (Array.length block) in
  let next () =
    if !pos >= Array.length block then begin
      shuffle rng block;
      pos := 0
    end;
    let x = block.(!pos) in
    incr pos;
    x
  in
  (next, Array.length block)

(* The measured part of one caller's closed loop: the operations of its
   complete draw blocks, so that every block holds each kind of
   operation in exactly its share whatever the seed.  A run shorter than
   one block counts as one block.  [samples] are (latency, finish time),
   newest first, with [start] the loop's start on the same clock.  The
   latency of operation [i] (from 0) and the time up to its finish are
   multiplied by [scale i], the host-speed correction at that point. *)
type window = {
  latencies : float array;  (* in completion order *)
  block : int;
  block_rates : float list;  (* operations per second of each block *)
}

let window ?(scale = fun _ -> 1.) ~block ~start samples =
  let a = Array.of_list (List.rev samples) in
  let n = Array.length a in
  let block = min block n in
  let blocks = if block = 0 then 0 else n / block in
  let finish i = if i < 0 then start else snd a.(i) in
  let block_time b =
    let t = ref 0. in
    for i = b * block to ((b + 1) * block) - 1 do
      t := !t +. ((finish i -. finish (i - 1)) *. scale i)
    done;
    !t
  in
  {
    latencies = Array.init (blocks * block) (fun i -> fst a.(i) *. scale i);
    block;
    block_rates = List.init blocks (fun b -> float_of_int block /. block_time b);
  }

(* Nearest-rank percentile of an unsorted sample ([q] in [0, 1]). *)
let percentile samples q =
  let a = Array.copy samples in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median = median_of
let mean_of total n = if n = 0 then 0. else total /. float_of_int n

(* Summaries over the windows of a workload's callers.  Throughput is
   the sum over callers of the median block rate, so that a stretch of
   the run slowed by other tenants of the machine does not set it; the
   percentiles are over all measured operations. *)
let ops_per_s windows = List.fold_left (fun acc w -> acc +. median w.block_rates) 0. windows

let all_latencies windows = Array.concat (List.map (fun w -> w.latencies) windows)
let p50 windows = percentile (all_latencies windows) 0.5
let p99 windows = percentile (all_latencies windows) 0.99

(* What the summaries rest on. *)
let sample_note windows =
  let n = Array.length (all_latencies windows) in
  Printf.sprintf "%d operations in %d complete blocks; %d beyond p99" n
    (List.fold_left (fun acc w -> acc + List.length w.block_rates) 0 windows)
    (n / 100)

(* The reference samples, the run's factor and the summaries before
   scaling. *)
let speed_note ~refs ~scale unscaled =
  Printf.sprintf
    "# reference work: median %.2f ms over %d samples (scale %.3f); unscaled: %.2f ops/s, p50 %.3f ms, p99 %.2f ms"
    (median refs *. 1e3) (List.length refs) scale (ops_per_s unscaled)
    (p50 unscaled *. 1e3) (p99 unscaled *. 1e3)

(* VmHWM (peak resident set) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> failwith ("no VmHWM in " ^ path)
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* Time [f] [setup_runs] times on [clock], each after an untimed
   [reset], and keep the median; the result of the last call is
   returned.  Set-up is repeated so that one slow start does not set
   [setup_s].  Each time is scaled by the [serial] reference work,
   sampled on the same clock just before and just after that set-up. *)
let setup_runs = 3

let timed_setup ~clock ?(reset = ignore) f =
  let reference () = reference_work ~clock serial in
  let rec go k times last =
    if k = 0 then (median times, Option.get last)
    else begin
      reset ();
      let r0 = reference () in
      let t0 = clock () in
      let r = f () in
      let t = clock () -. t0 in
      let speed = serial.nominal_s /. ((r0 +. reference ()) /. 2.) in
      go (k - 1) ((t *. speed) :: times) (Some r)
    end
  in
  go setup_runs [] None

(* ------------------------------------------------------------------ *)
(* Per-layer accumulation                                              *)

(* Additive per-layer quantities (seconds or counts), summed over a
   traced run and reported per operation. *)
module Layers = struct
  type t = (string, float) Hashtbl.t

  let create () : t = Hashtbl.create 64
  let add (t : t) name v =
    Hashtbl.replace t name (v +. Option.value ~default:0. (Hashtbl.find_opt t name))
  let get (t : t) name = Option.value ~default:0. (Hashtbl.find_opt t name)

  (* Run [f], charging its wall time to [name]. *)
  let span t name f =
    let t0 = now () in
    let r = f () in
    add t name (now () -. t0);
    r
end

(* Minor-heap words and major collections over a loop, per operation. *)
let gc_metrics ~(before : Gc.stat) ~ops =
  let after = Gc.quick_stat () in
  [
    ("gc.minor_mwords", mean_of ((after.Gc.minor_words -. before.Gc.minor_words) /. 1e6) ops);
    ( "gc.major_collections",
      mean_of (float_of_int (after.Gc.major_collections - before.Gc.major_collections)) ops );
  ]

(* ------------------------------------------------------------------ *)
(* Metric catalogue and the result line                                 *)

(* The metrics every run prints, as (name, unit): BENCHMARK.json's
   end_to_end list with tracing off, its per_layer list with tracing
   on.  Every workload reports every end-to-end metric; a layer a
   workload bypasses reads 0 in its traced run. *)
type catalogue = { end_to_end : (string * string) list; per_layer : (string * string) list }

let read_catalogue path =
  let module Json = Hir_driver.Protocol.Json in
  let j =
    match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let metrics key =
    match Json.mem key j with
    | Some (Json.Arr ms) ->
      List.map
        (fun m ->
          match (Json.field_str m "name", Json.field_str m "unit") with
          | Some name, Some unit_ -> (name, unit_)
          | _ -> failwith (path ^ ": a " ^ key ^ " metric lacks a name or unit"))
        ms
    | _ -> failwith (path ^ ": no " ^ key ^ " list")
  in
  { end_to_end = metrics "end_to_end"; per_layer = metrics "per_layer" }

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
  notes : string list;  (* human-readable lines printed before the result *)
}

let json_number v = if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v else Printf.sprintf "%.17g" v

(* Print the notes, then the one-line JSON result.  A reported name
   outside the catalogue, a missing end-to-end metric or a non-finite
   value is a benchmark bug: fail rather than print a partial result. *)
let print_result catalogue ~trace r =
  let catalogue = if trace then catalogue.per_layer else catalogue.end_to_end in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name catalogue) then
        failwith ("metric not in the catalogue: " ^ name))
    r.metrics;
  let fields =
    List.map
      (fun (name, unit_) ->
        let v =
          match List.assoc_opt name r.metrics with
          | Some v -> v
          | None when trace -> 0.
          | None -> failwith ("end-to-end metric not measured: " ^ name)
        in
        if not (Float.is_finite v) then failwith ("non-finite value for " ^ name);
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_number v) unit_)
      catalogue
  in
  List.iter print_endline r.notes;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failed = 0 && r.attempted > 0)
    r.attempted r.failed (String.concat ", " fields)
