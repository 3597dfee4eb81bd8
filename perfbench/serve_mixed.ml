(* serve-mixed: a closed loop with two connections against a real
   `hirc serve` child, started crash-safe (--cache-dir and --journal)
   with its default worker count.  The seeded mix is mostly cache hits,
   some asking for the Verilog back, plus one-function edits of a
   multi-kernel module: the path a DSL pipeline or an editor takes,
   where cache, service, server, protocol and journal do most of the
   work and the compiler runs one function at a time. *)

open Hir_ir
open Hir_dialect
module Driver = Hir_driver.Driver
module Incr = Hir_driver.Incr
module Json = Hir_driver.Protocol.Json
module K = Hir_kernels
module L = Bench_util.Layers

let connections = 2

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)

(* The multi-kernel module of `bench --incremental`: every kernel but
   the systolic array, one function text each, in one module. *)
type suite = {
  text : string;
  tops : string list;
  edit_points : (string * int) array;
      (* (top, offset of the closing quote of its first argument name) *)
}

let find_from s sub i =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then raise Not_found
    else if String.sub s i n = sub then i
    else go (i + 1)
  in
  go i

let rfind_before s sub i =
  let n = String.length sub in
  let rec go i =
    if i < 0 then raise Not_found else if String.sub s i n = sub then i else go (i - 1)
  in
  go (i - n)

let suite () =
  let kernels = List.filter (fun k -> k.K.Kernels.name <> "systolic") K.Kernels.all in
  let tops, texts =
    List.fold_left
      (fun (tops, texts) k ->
        Ir.with_isolated_ids (fun () ->
            let m, f = k.K.Kernels.build () in
            let fns =
              List.map
                (fun f -> (Ops.func_name f, Printer.op_to_string f))
                (Ir.Walk.find_all m "hir.func")
            in
            (tops @ [ Ops.func_name f ], texts @ fns)))
      ([], []) kernels
  in
  let text = Incr.module_of_texts texts Printer.op_to_string in
  (* Edits rename the first argument of a kernel's top function: a
     one-function change that every kernel accepts and that changes the
     emitted ports, so a stale cached result cannot pass the check.
     GEMM is left out: an edit of it is a cold GEMM 16x16 compile, which
     compile-cold measures. *)
  let edit_point top =
    let sym = find_from text ("sym_name = @" ^ top ^ "}") 0 in
    let names = rfind_before text "arg_names = [\"" sym + String.length "arg_names = [\"" in
    (top, String.index_from text names '"')
  in
  let targets = List.filter (fun t -> t <> K.Gemm.name) tops in
  { text; tops; edit_points = Array.of_list (List.map edit_point targets) }

let edited suite ~point:(top, at) ~tag =
  ( top,
    String.sub suite.text 0 at ^ tag ^ String.sub suite.text at (String.length suite.text - at) )

(* The request kinds and their shares (per 89-request block, drawn
   independently on each connection): 92% hits, 8% edits; GEMM's
   750 KB Verilog reply is 4.5% of requests and the 340 KB systolic
   16x16 source 2.2%. *)
type kind =
  | Kernel_hit of string  (* a built-in kernel by name: rebuilt and printed per request *)
  | Source_hit of string  (* a design's text inline, up to 340 KB *)
  | Verilog_hit of string  (* a kernel by name, asking for its Verilog back *)
  | Edit of int  (* an edit of the suite at this edit point *)

let kind_name = function
  | Kernel_hit _ -> "kernel-hit"
  | Source_hit _ -> "source-hit"
  | Verilog_hit _ -> "verilog-hit"
  | Edit _ -> "edit"

let weights suite =
  let kernels = List.map (fun k -> k.K.Kernels.name) K.Kernels.all in
  List.map (fun k -> (Kernel_hit k, 4)) kernels
  @ List.map (fun d -> (Source_hit d.Designs.name, 2)) Designs.catalogue
  @ List.map (fun k -> (Verilog_hit k, if k = K.Gemm.name then 4 else 2)) kernels
  @ List.init (Array.length suite.edit_points) (fun i -> (Edit i, 1))

(* ------------------------------------------------------------------ *)
(* Wire                                                                *)

let compile_frame ~id ?kernel ?source ?top ?(verilog = false) () =
  let opt k = function Some v -> [ (k, Json.Str v) ] | None -> [] in
  Json.to_line
    (Json.Obj
       ([ ("op", Json.Str "compile"); ("id", Json.Str id) ]
       @ opt "kernel" kernel
       @ (match source with Some (name, text) -> [ ("name", Json.Str name); ("source", Json.Str text) ] | None -> [])
       @ opt "top" top
       @ if verilog then [ ("verilog", Json.Bool true) ] else []))

(* A connection with its own offset-based line reader: each read only
   scans the new bytes for the newline, and the buffer is compacted or
   grown in place, so a 750 KB reply costs one scan and no re-copies. *)
type conn = { fd : Unix.file_descr; mutable buf : Bytes.t; mutable start : int; mutable stop : int }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  { fd; buf = Bytes.create (1 lsl 20); start = 0; stop = 0 }

let send c line =
  let len = String.length line in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write_substring c.fd line !off (len - !off)
  done

(* The next line (without its newline) and the time its newline was
   seen, before any decoding. *)
let read_line c =
  let rec scan i =
    if i >= c.stop then begin
      if c.stop = Bytes.length c.buf then begin
        let live = c.stop - c.start in
        let dst = if live * 2 > Bytes.length c.buf then Bytes.create (2 * Bytes.length c.buf) else c.buf in
        Bytes.blit c.buf c.start dst 0 live;
        c.buf <- dst;
        c.start <- 0;
        c.stop <- live
      end;
      let got = Unix.read c.fd c.buf c.stop (Bytes.length c.buf - c.stop) in
      if got = 0 then raise End_of_file;
      let from = c.stop in
      c.stop <- c.stop + got;
      scan from
    end
    else if Bytes.unsafe_get c.buf i = '\n' then begin
      let stamp = Bench_util.now () in
      let line = Bytes.sub_string c.buf c.start (i - c.start) in
      c.start <- i + 1;
      (line, stamp)
    end
    else scan (i + 1)
  in
  scan c.start

let request c line =
  send c line;
  let reply, _ = read_line c in
  match Json.parse reply with
  | Ok j -> j
  | Error e -> failwith ("bad frame from the server: " ^ e)

(* ------------------------------------------------------------------ *)
(* The server                                                          *)

type server = {
  pid : int;
  dir : string;
  socket : string;
  control : conn;
  mutable running : bool;
}

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Start `hirc serve` in a fresh directory under the checkout and wait
   until it accepts connections.  Paths are relative, which keeps the
   socket path short. *)
let start_server (args : Bench_util.args) ~trace ~index =
  let dir = Printf.sprintf ".bench_build/serve-%d-%d" (Unix.getpid ()) index in
  rm_rf dir;
  mkdir_p dir;
  let socket = Filename.concat dir "s.sock" in
  let log = Unix.openfile (Filename.concat dir "server.log") [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let argv =
    [ args.Bench_util.hirc; "serve"; "--socket"; socket; "--cache-dir"; Filename.concat dir "cache";
      "--journal"; Filename.concat dir "journal" ]
    @ if trace then [ "--trace"; Filename.concat dir "trace.json" ] else []
  in
  let pid = Unix.create_process args.Bench_util.hirc (Array.of_list argv) devnull log log in
  Unix.close devnull;
  Unix.close log;
  let give_up = Bench_util.now () +. 30. in
  let rec wait () =
    match connect socket with
    | c -> c
    | exception Unix.Unix_error _ ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith ("hirc serve exited at start-up; see " ^ dir ^ "/server.log"));
      if Bench_util.now () > give_up then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        failwith "hirc serve did not start within 30 s"
      end;
      Unix.sleepf 0.005;
      wait ()
  in
  let control = wait () in
  { pid; dir; socket; control; running = true }

(* Ask the server to shut down and wait for it; kill it if it hangs. *)
let stop_server s =
  if s.running then begin
    s.running <- false;
    (try send s.control (Json.to_line (Json.Obj [ ("op", Json.Str "shutdown") ]))
     with Unix.Unix_error _ -> ());
    let give_up = Bench_util.now () +. 60. in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] s.pid with
      | 0, _ when Bench_util.now () < give_up ->
        Unix.sleepf 0.01;
        wait ()
      | 0, _ ->
        Unix.kill s.pid Sys.sigkill;
        ignore (Unix.waitpid [] s.pid)
      | _ -> ()
    in
    wait ();
    Unix.close s.control.fd
  end

(* Per-name span time of the server's Chrome trace (written at
   shutdown), over the jobs after the first [skip_jobs] — the warm-up
   jobs, which are admitted first and so carry the lowest ids. *)
let server_spans s ~skip_jobs =
  let spans = L.create () in
  let ic = open_in_bin (Filename.concat s.dir "trace.json") in
  let text = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
  (match Json.parse text with
  | Ok j -> (
    match Json.mem "traceEvents" j with
    | Some (Json.Arr events) ->
      List.iter
        (fun e ->
          match (Json.field_str e "ph", Json.field_str e "name", Json.field_num e "tid") with
          | Some "X", Some name, Some tid when tid > float_of_int skip_jobs ->
            L.add spans name (Option.value ~default:0. (Json.field_num e "dur") /. 1e6)
          | _ -> ())
        events
    | _ -> failwith "server trace has no traceEvents")
  | Error e -> failwith ("server trace: " ^ e));
  spans

let metrics s =
  request s.control (Json.to_line (Json.Obj [ ("op", Json.Str "metrics") ]))

let rec path j = function
  | [] -> j
  | k :: rest -> (match Json.mem k j with Some v -> path v rest | None -> Json.Null)

let num j keys = match path j keys with Json.Num v -> v | _ -> 0.

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)

type expected = {
  tops : (string * string) list;  (* request key -> expected top function *)
  verilog : (string * string) list;  (* kernel -> Verilog of a cache-less compile *)
}

type sample = {
  kind : kind;
  latency : float;  (* send -> newline of the response *)
  job_s : float;  (* the job's own time, as the server reports it *)
  req_bytes : int;
  resp_bytes : int;
  encode_s : float;
  decode_s : float;
  problem : string option;
  finish : float;  (* when the loop was ready to send the next request *)
}

(* Warm the cache with every distinct request a hit or an edit relies
   on, so that hits hit and edits miss only what they edit. *)
let warm s suite =
  let texts = List.map (fun d -> (d.Designs.name, Designs.text d)) Designs.catalogue in
  let frames =
    List.map (fun k -> compile_frame ~id:("w-k-" ^ k.K.Kernels.name) ~kernel:k.K.Kernels.name ())
      K.Kernels.all
    @ List.map (fun (name, text) -> compile_frame ~id:("w-s-" ^ name) ~source:(name, text) ()) texts
    @ List.map
        (fun top -> compile_frame ~id:("w-b-" ^ top) ~source:("suite", suite.text) ~top ())
        suite.tops
  in
  List.iter
    (fun f ->
      let j = request s.control f in
      if Json.field_str j "status" <> Some "ok" then
        failwith ("warm-up compile failed: " ^ Json.to_string j))
    frames;
  (texts, List.length frames)

(* The server's peak RSS is read after this many draw blocks on the
   first connection, not at the end of the run: the server retains up
   to 4,096 finished results, so its footprint grows with the number of
   requests served, which would tie the figure to the run's throughput. *)
let rss_blocks = 5

(* Requests between two samples of the [Bench_util.serial] reference
   on a connection, which take about a seventh of its time.  Each
   connection samples it on its own domain, inside the loop: the same
   work sampled just before and after the loop, on an idle machine, did
   not follow the host's speed while the server and both connections
   were busy. *)
let ref_every = 40

(* One connection's closed loop.  Returns its samples, its edits to
   check, the server's peak RSS (first connection) and its reference
   samples. *)
let client ~socket ~suite ~texts ~expected ~seed ~index ~more ~server_pid =
  let c = connect socket in
  let next, block = Bench_util.deck (Bench_util.rng ~seed ~salt:(100 + index)) (weights suite) in
  let samples = ref [] and edits = ref [] and n = ref 0 and rss = ref None in
  (* Reference samples; the blocks leave their time out. *)
  let refs = ref [] and excluded = ref 0. in
  while more !n do
    if !n mod ref_every = 0 then begin
      let t0 = Bench_util.now () in
      refs := Bench_util.reference_work ~clock:Bench_util.now Bench_util.serial :: !refs;
      excluded := !excluded +. (Bench_util.now () -. t0)
    end;
    let kind = next () in
    let id = Printf.sprintf "c%d-%d" index !n in
    let t0 = Bench_util.now () in
    let frame =
      match kind with
      | Kernel_hit k -> compile_frame ~id ~kernel:k ()
      | Verilog_hit k -> compile_frame ~id ~kernel:k ~verilog:true ()
      | Source_hit d -> compile_frame ~id ~source:(d, List.assoc d texts) ()
      | Edit i ->
        let top, text =
          edited suite ~point:suite.edit_points.(i) ~tag:(Printf.sprintf "_e%dx%d" index !n)
        in
        compile_frame ~id ~source:("suite", text) ~top ~verilog:true ()
    in
    let t_send = Bench_util.now () in
    send c frame;
    let line, t_nl = read_line c in
    let reply = Json.parse line in
    let t_decoded = Bench_util.now () in
    let problem =
      match reply with
      | Error e -> Some ("undecodable reply: " ^ e)
      | Ok j -> (
        match (Json.field_str j "status", Json.mem "degradations" j) with
        | Some "ok", Some (Json.Arr []) -> (
          let top = Json.field_str j "top" in
          match kind with
          | Kernel_hit k | Verilog_hit k when top <> Some (List.assoc ("k:" ^ k) expected.tops) ->
            Some "wrong top"
          | Source_hit d when top <> Some (List.assoc ("s:" ^ d) expected.tops) -> Some "wrong top"
          | Verilog_hit k when Json.field_str j "verilog" <> Some (List.assoc k expected.verilog) ->
            Some "Verilog differs from a cache-less compile"
          | Edit _ -> (
            match Json.field_str j "verilog" with
            | Some v ->
              (* Checked after the loop, against an in-process compile. *)
              edits := (id, frame, v) :: !edits;
              None
            | None -> Some "no Verilog in the reply")
          | _ -> None)
        | Some status, _ -> Some ("status " ^ status)
        | None, _ -> Some ("no status: " ^ Json.to_string j))
    in
    samples :=
      {
        kind;
        latency = t_nl -. t_send;
        job_s = (match reply with Ok j -> Option.value ~default:0. (Json.field_num j "seconds") | Error _ -> 0.);
        req_bytes = String.length frame;
        resp_bytes = String.length line + 1;
        encode_s = t_send -. t0;
        decode_s = t_decoded -. t_nl;
        problem;
        finish = Bench_util.now () -. !excluded;
      }
      :: !samples;
    incr n;
    if index = 0 && !n = rss_blocks * block then rss := Some (Bench_util.peak_rss_mb server_pid)
  done;
  Unix.close c.fd;
  (!samples, !edits, !rss, Array.of_list (List.rev !refs))


(* One pass of the closed loop: [connections] connections to [server],
   each until [seconds] have passed or for its share of [ops] requests.
   [results] holds what each connection's [client] returned. *)
type pass = {
  results : (sample list * (string * string * string) list * float option * float array) list;
  start : float;
  wall : float;
}

let pass server ~suite ~texts ~expected ~seed ~seconds ~ops =
  let quota = Option.map (fun n -> (n + connections - 1) / connections) ops in
  let start = Bench_util.now () in
  let more n =
    (not (Atomic.get Bench_util.interrupted))
    && match quota with Some q -> n < q | None -> Bench_util.now () < start +. seconds
  in
  let results =
    List.init connections (fun index ->
        Domain.spawn (fun () ->
            client ~socket:server.socket ~suite ~texts ~expected ~seed ~index ~more
              ~server_pid:(string_of_int server.pid)))
    |> List.map Domain.join
  in
  { results; start; wall = Bench_util.now () -. start }

let samples p = List.concat_map (fun (l, _, _, _) -> l) p.results

(* Each connection's window, its times corrected by its own reference
   samples, or left as measured ([~scaled:false]). *)
let windows ?(scaled = true) ~block p =
  List.map
    (fun (l, _, _, refs) ->
      let scale =
        if scaled then Bench_util.bracketing_scale Bench_util.serial ~every:ref_every refs
        else fun _ -> 1.
      in
      Bench_util.window ~scale ~block ~start:p.start (List.map (fun s -> (s.latency, s.finish)) l))
    p.results

(* Mean round trip over the complete blocks of a pass, in seconds. *)
let mean_latency windows =
  let a = Bench_util.all_latencies windows in
  Bench_util.mean_of (Array.fold_left ( +. ) 0. a) (Array.length a)

(* Edits: the returned Verilog must equal a cache-less compile of the
   edited source, as the request frame carries it. *)
let edit_problems p =
  List.concat_map
    (fun (_, edits, _, _) ->
      List.filter_map
        (fun (id, frame, got) ->
          let req = Result.get_ok (Json.parse frame) in
          let text = Option.get (Json.field_str req "source") in
          let top = Json.field_str req "top" in
          match
            Driver.compile_job (Driver.job_of_text ?top ~pipeline:Designs.pipeline ~name:"suite" text)
          with
          | Ok o when String.equal o.Driver.verilog got -> None
          | Ok _ -> Some (id ^ ": edited Verilog differs from a cache-less compile")
          | Error e -> Some (id ^ ": " ^ Driver.error_to_string e))
        edits)
    p.results

let run (args : Bench_util.args) =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let suite = suite () in
  mkdir_p ".bench_build";
  (* The server now running, stopped however the run ends. *)
  let live = ref None in
  let retire () =
    Option.iter
      (fun s ->
        stop_server s;
        rm_rf s.dir)
      !live;
    live := None
  in
  Fun.protect ~finally:retire (fun () ->
      let index = ref 0 in
      let launch ~trace =
        let s = start_server args ~trace ~index:!index in
        live := Some s;
        incr index;
        let texts, n = warm s suite in
        (s, texts, n)
      in
      (* Set-up: start the server and warm its cache, three times on fresh
         directories; the last server serves the loop. *)
      let setup_s, (server, texts, _) =
        Bench_util.timed_setup ~clock:Bench_util.now ~reset:retire (fun () -> launch ~trace:false)
      in
      (* Benchmark-only: what each request must return. *)
      let expected =
        let kernel_output k =
          match Driver.compile_job (Driver.job_of_builder ~pipeline:Designs.pipeline ~name:k.K.Kernels.name k.K.Kernels.build) with
          | Ok o -> o
          | Error e -> failwith (Driver.error_to_string e)
        in
        let kernels = List.map (fun k -> (k.K.Kernels.name, kernel_output k)) K.Kernels.all in
        {
          tops =
            List.map (fun (k, o) -> ("k:" ^ k, o.Driver.top_name)) kernels
            @ List.map (fun d -> ("s:" ^ d.Designs.name, Designs.top_name d)) Designs.catalogue;
          verilog = List.map (fun (k, o) -> (k, o.Driver.verilog)) kernels;
        }
      in
      let block = List.fold_left (fun acc (_, w) -> acc + w) 0 (weights suite) in
      let run_pass server ~seconds =
        pass server ~suite ~texts ~expected ~seed:args.Bench_util.seed ~seconds ~ops:args.Bench_util.ops
      in
      (* A traced run splits its time between a pass against this server
         and a pass against one started with --trace, on the same request
         sequence; the difference of their mean round trips is the
         tracing overhead. *)
      let seconds = if args.Bench_util.trace then args.Bench_util.seconds /. 2. else args.Bench_util.seconds in
      let gc0 = Gc.quick_stat () in
      let plain = run_pass server ~seconds in
      let plain_windows = windows ~block plain in
      let peak =
        match List.find_map (fun (_, _, rss, _) -> rss) plain.results with
        | Some mb -> mb
        | None -> Bench_util.peak_rss_mb (string_of_int server.pid)
      in
      let traced =
        if not args.Bench_util.trace then None
        else begin
          retire ();
          let server, _, warm_jobs = launch ~trace:true in
          let m0 = metrics server in
          let p = run_pass server ~seconds in
          let m1 = metrics server in
          stop_server server;
          Some (p, m0, m1, server_spans server ~skip_jobs:warm_jobs)
        end
      in
      let passes = plain :: Option.to_list (Option.map (fun (p, _, _, _) -> p) traced) in
      let n = List.fold_left (fun acc p -> acc + List.length (samples p)) 0 passes in
      let gc = Bench_util.gc_metrics ~before:gc0 ~ops:n in
      let t_check = Bench_util.now () in
      let edit_problems = List.concat_map edit_problems passes in
      let check_s = Bench_util.now () -. t_check in
      let problems =
        List.concat_map (fun p -> List.filter_map (fun s -> s.problem) (samples p)) passes
        @ edit_problems
      in
      let failed = List.length problems in
      let count kind = List.length (List.filter (fun s -> kind_name s.kind = kind) (samples plain)) in
      let notes =
        Printf.sprintf "# serve-mixed: %d requests in %.2f s over %d connections; %s"
          (List.length (samples plain)) plain.wall connections (Bench_util.sample_note plain_windows)
        :: (let refs = List.concat_map (fun (_, _, _, r) -> Array.to_list r) plain.results in
            Bench_util.speed_note ~refs ~scale:(Bench_util.speed_factor Bench_util.serial refs)
              (windows ~scaled:false ~block plain))
        :: Printf.sprintf "#   %d kernel hits, %d source hits, %d Verilog hits, %d edits (checked in %.2f s)"
             (count "kernel-hit") (count "source-hit") (count "verilog-hit") (count "edit") check_s
        :: List.filteri (fun i _ -> i < 5) problems
      in
      let metrics =
        match traced with
        | None ->
          let outputs =
            List.filter_map
              (fun d ->
                match Driver.compile_job (Driver.job_of_text ~pipeline:Designs.pipeline ~name:d.Designs.name (List.assoc d.Designs.name texts)) with
                | Ok o -> Some o
                | Error _ -> None)
              Designs.catalogue
          in
          let sum f = float_of_int (List.fold_left (fun acc o -> acc + f o) 0 outputs) in
          [
            ("setup_s", setup_s);
            ("peak_rss_mb", peak);
            ("ops_per_s", Bench_util.ops_per_s plain_windows);
            ("p50_ms", Bench_util.p50 plain_windows *. 1e3);
            ("p99_ms", Bench_util.p99 plain_windows *. 1e3);
            ("verilog_bytes", sum (fun o -> String.length o.Driver.verilog));
            ("design_luts", sum (fun o -> o.Driver.usage.Hir_resources.Model.lut));
            ("design_ffs", sum (fun o -> o.Driver.usage.Hir_resources.Model.ff));
          ]
        | Some (p, m0, m1, spans) ->
          let samples = samples p in
          let n = List.length samples in
          let delta keys = num m1 keys -. num m0 keys in
          let per_op v = Bench_util.mean_of v n in
          let pct f q = Bench_util.percentile (Array.of_list (List.map f samples)) q *. 1e3 in
          let sum f = List.fold_left (fun acc s -> acc +. f s) 0. samples in
          let hits = delta [ "counters"; "cache-hit" ] and misses = delta [ "counters"; "cache-miss" ] in
          let span_ms name = per_op (L.get spans name) *. 1e3 in
          [
            ("cache.job.hits", per_op hits);
            ("cache.job.misses", per_op misses);
            ("cache.stores", per_op (delta [ "cache"; "stores" ]));
            ("cache.link_hits", per_op (delta [ "counters"; "cache-link-hit" ]));
            ("cache.hit_ratio", if hits +. misses = 0. then 0. else hits /. (hits +. misses));
            ("cache.lookup.busy_ms", span_ms "cache-lookup");
            ("cache.store.busy_ms", span_ms "cache-store");
            ("ir.parser.busy_ms", span_ms "parse");
            ("ir.verify.busy_ms", span_ms "verify");
            ("ir.printer.busy_ms", span_ms "build");
            ("codegen.emit.busy_ms", span_ms "emit");
            ("incr.link.busy_ms", span_ms "print");
            ("pass.canonicalize.busy_ms", span_ms "pass:canonicalize");
            ("pass.precision-opt.busy_ms", span_ms "pass:precision-opt");
            ("pass.unroll.busy_ms", span_ms "pass:unroll");
            ("pass.delay-elim.busy_ms", span_ms "pass:delay-elim");
            ("service.queue_wait_ms.p50", num m1 [ "latency"; "queue"; "p50_s" ] *. 1e3);
            ("service.queue_wait_ms.p99", num m1 [ "latency"; "queue"; "p99_s" ] *. 1e3);
            ("service.retries", per_op (delta [ "counters"; "retries" ]));
            ("server.overhead_ms.p50", pct (fun s -> s.latency -. s.job_s) 0.5);
            ("server.overhead_ms.p99", pct (fun s -> s.latency -. s.job_s) 0.99);
            ("driver.job_ms.p50", pct (fun s -> s.job_s) 0.5);
            ("driver.job_ms.p99", pct (fun s -> s.job_s) 0.99);
            ("protocol.request_bytes", per_op (sum (fun s -> float_of_int s.req_bytes)));
            ("protocol.response_bytes", per_op (sum (fun s -> float_of_int s.resp_bytes)));
            ("protocol.encode.busy_ms", per_op (sum (fun s -> s.encode_s)) *. 1e3);
            ("protocol.decode.busy_ms", per_op (sum (fun s -> s.decode_s)) *. 1e3);
            ("journal.appends", per_op (delta [ "journal"; "appends" ]));
            ("journal.marks", per_op (delta [ "journal"; "marks" ]));
            ( "trace.overhead_ms",
              (mean_latency (windows ~block p) -. mean_latency plain_windows) *. 1e3 );
          ]
          @ gc
      in
      { Bench_util.attempted = n; failed; metrics; notes })
