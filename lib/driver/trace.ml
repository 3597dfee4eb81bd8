(* Observability for the compilation service: per-stage timing spans,
   the job's counter table, and a Chrome-trace-format JSON exporter
   (load the file in chrome://tracing or https://ui.perfetto.dev).

   A [t] is a single-threaded collector: the batch scheduler gives each
   compile job its own trace (one Chrome "thread" per job) and exports
   them together from the coordinating domain afterwards, so no locking
   is needed on the hot path.  All timestamps are relative to a shared
   [epoch] so the exported traces share one timeline. *)

type span = {
  sp_name : string;
  sp_cat : string;
  sp_start_us : float;  (* relative to the trace epoch *)
  sp_dur_us : float;
  sp_args : (string * string) list;
}

(* A zero-duration mark on the timeline (Chrome "i"-phase): fault
   injections, degradations and retries are recorded as instants so a
   trace shows *when* the service deviated from the happy path, not
   just that it did. *)
type instant = {
  in_name : string;
  in_cat : string;
  in_ts_us : float;  (* relative to the trace epoch *)
  in_args : (string * string) list;
}

type t = {
  epoch : float;  (* Unix.gettimeofday at timeline origin *)
  mutable tid : int;  (* Chrome trace "thread" id *)
  mutable spans : span list;  (* reverse chronological *)
  mutable instants : instant list;  (* reverse chronological *)
  metrics : Hir_ir.Metrics.t;  (* the job's counters *)
}

let now () = Unix.gettimeofday ()

let create ?epoch () =
  let epoch = match epoch with Some e -> e | None -> now () in
  { epoch; tid = 0; spans = []; instants = []; metrics = Hir_ir.Metrics.create () }

let epoch t = t.epoch
let metrics t = t.metrics
let set_tid t tid = t.tid <- tid

let add_span t ?(cat = "compile") ?(args = []) ~name ~start ~stop () =
  t.spans <-
    {
      sp_name = name;
      sp_cat = cat;
      sp_start_us = (start -. t.epoch) *. 1e6;
      sp_dur_us = (stop -. start) *. 1e6;
      sp_args = args;
    }
    :: t.spans

(* Time [f] and record the span; the span is recorded even when [f]
   raises, so a failing stage still shows up in the trace. *)
let span t ?cat ?args name f =
  let start = now () in
  Fun.protect ~finally:(fun () -> add_span t ?cat ?args ~name ~start ~stop:(now ()) ())
    f

let instant t ?(cat = "fault") ?(args = []) name =
  t.instants <-
    {
      in_name = name;
      in_cat = cat;
      in_ts_us = (now () -. t.epoch) *. 1e6;
      in_args = args;
    }
    :: t.instants

let instants t = List.rev t.instants

let spans t = List.rev t.spans

(* Total duration in seconds of all spans with the given name. *)
let total_seconds t name =
  List.fold_left
    (fun acc s -> if s.sp_name = name then acc +. (s.sp_dur_us /. 1e6) else acc)
    0. (spans t)

(* ------------------------------------------------------------------ *)
(* Chrome trace JSON                                                   *)

let args_json kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) kvs)

(* Export one or more traces as a complete Chrome trace document.  Each
   trace keeps its own tid so concurrent jobs render as parallel rows;
   counters are summed across traces and attached as Chrome counter
   ("C"-phase) events at the end of the timeline.  Events are printed
   one at a time, so a server's lifetime trace is never held as one
   JSON tree. *)
let to_chrome_json traces =
  let buf = Buffer.create 4096 in
  let sep = ref "" in
  let emit fields =
    Buffer.add_string buf !sep;
    sep := ",\n";
    Json.print buf (Json.Obj fields)
  in
  let num v = Json.Num v in
  let end_ts = ref 0. in
  let totals = Hir_ir.Metrics.create () in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iter
    (fun t ->
      Hir_ir.Metrics.merge ~into:totals t.metrics;
      let tid = ("tid", num (float_of_int t.tid)) in
      List.iter
        (fun s ->
          end_ts := Float.max !end_ts (s.sp_start_us +. s.sp_dur_us);
          emit
            [
              ("name", Json.Str s.sp_name); ("cat", Json.Str s.sp_cat); ("ph", Json.Str "X");
              ("ts", num s.sp_start_us); ("dur", num s.sp_dur_us); ("pid", num 1.); tid;
              ("args", args_json s.sp_args);
            ])
        (spans t);
      List.iter
        (fun i ->
          end_ts := Float.max !end_ts i.in_ts_us;
          emit
            [
              ("name", Json.Str i.in_name); ("cat", Json.Str i.in_cat); ("ph", Json.Str "i");
              ("s", Json.Str "t"); ("ts", num i.in_ts_us); ("pid", num 1.); tid;
              ("args", args_json i.in_args);
            ])
        (instants t))
    traces;
  List.iter
    (fun (k, v) ->
      emit
        [
          ("name", Json.Str k); ("ph", Json.Str "C"); ("ts", num !end_ts); ("pid", num 1.);
          ("args", Json.Obj [ ("value", num (float_of_int v)) ]);
        ])
    (Hir_ir.Metrics.counters totals);
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf

let write_chrome_json path traces =
  let oc = open_out path in
  output_string oc (to_chrome_json traces);
  output_char oc '\n';
  close_out oc
