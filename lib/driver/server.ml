(* `hirc serve` — a persistent compilation server on the service core.

   Architecture: one main-loop thread (the calling domain) owns every
   socket and does all protocol IO; compile work runs on the service
   core's worker domains.  The two meet through a completion queue and
   a self-pipe: [Service]'s on_complete callback (which runs on a
   worker) enqueues the completion and writes one byte into the pipe,
   which wakes the main loop's [select] so it can write the response
   frame from its own thread.  No socket is ever touched from two
   domains.

   Admission is continuous: a compile frame is submitted to the pool
   the moment it parses, and starts the moment a worker frees — there
   are no batch boundaries.  The pool's bounded queue turns saturation
   into an immediate `status:"rejected", reason:"overloaded"` frame
   (the client backs off and retries; nothing is silently queued or
   dropped).  Fair-share scheduling uses the client identity (the
   "client" field, or the connection for anonymous frames) as the
   service client id, so one greedy client cannot starve others.

   Durability ([cfg_journal]): every admitted job is recorded in a
   write-ahead journal before it runs and marked done on completion.
   On startup the journal is replayed — torn/corrupt records
   quarantined, admitted-but-incomplete jobs re-enqueued — so a
   kill -9 loses no admitted work; the content-addressed cache makes
   the redo cheap and [Ir.with_isolated_ids] makes it byte-identical.
   Completed results are retained (bounded by [max_finished]) so
   a finished id resubmitted with the same request digest returns the
   cached result (idempotent resubmission) and a reconnecting client
   can fetch results it missed via the `poll` op.  A resubmission of
   a finished id with a *different* digest is a `duplicate-id`
   rejection — an id is a promise about content.

   Graceful drain: SIGTERM or a `shutdown` frame stops admission
   (`shutting-down` rejections), finishes the in-flight jobs, and
   exits cleanly; jobs still unfinished at [cfg_drain_deadline] are
   cancelled through the cooperative-cancel path, so their journal
   records are marked (status "cancelled") and a replay after drain
   finds zero incomplete jobs.

   Cancellation: an explicit cancel frame or a client disconnect
   cancels that connection's *anonymous* jobs — named-client jobs
   survive the disconnect (that is the point of the name) and their
   results wait in the finished table for a poll.  Every admitted job
   still produces exactly one completion (delivered, or retained if
   its connection is gone), which is the zero-lost-jobs invariant the
   swarm and crash benches pin.

   Probes: line-JSON {"op":"health"} / {"op":"metrics"} frames, or
   plain HTTP `GET /health` / `GET /metrics` on the same socket for
   curl-style monitoring.  Metrics render the server's [Metrics]
   table — job outcomes, journal counters, every completed
   job's counters (cache, retries, "pass:<pass>/<counter>") and
   log-bucket latency histograms — with the pool's queue depth and the
   cache's headline counters.  With [cfg_trace_path] set, a Chrome
   trace of every job's spans over the whole server lifetime (bounded
   by [max_traces]) is written on shutdown; without it no trace is
   kept. *)

type listen = Unix_path of string | Tcp of string * int

type config = {
  cfg_listen : listen;
  cfg_workers : int;
  cfg_max_depth : int;  (* bounded queue: admission limit *)
  cfg_cache : Cache.t option;
  cfg_default_deadline : float option;  (* per-job, unless the frame says *)
  cfg_retry : Driver.retry_policy;
  cfg_trace_path : string option;
  cfg_journal : string option;  (* write-ahead job journal directory *)
  cfg_drain_deadline : float;  (* seconds before a drain cancels stragglers *)
  cfg_tick : float;  (* select timeout: drain scan period *)
  cfg_verbose : bool;
}

let default_config ~listen () =
  {
    cfg_listen = listen;
    cfg_workers = Service.default_workers ();
    cfg_max_depth = 64;
    cfg_cache = None;
    cfg_default_deadline = None;
    cfg_retry = Driver.default_retry;
    cfg_trace_path = None;
    cfg_journal = None;
    cfg_drain_deadline = 30.0;
    cfg_tick = 1.0;
    cfg_verbose = false;
  }

(* Retained results for poll and idempotent resubmission, and retained
   job traces. *)
let max_finished = 4096
let max_traces = 10_000

(* What a worker needs to run one admitted job. *)
type job_ctx = {
  jc_conn : int;  (* submitting connection; -1 for journal replays *)
  jc_client : string;  (* resolved client identity *)
  jc_ephemeral : bool;  (* identity is the connection: dies with it *)
  jc_id : string;  (* the client's correlation id *)
  jc_digest : string;  (* request digest: the idempotency key *)
  jc_want_verilog : bool;
  jc_job : Driver.job;
  jc_limits : Guard.limits;
  jc_trace : Trace.t;
}

type conn = {
  co_id : int;
  co_fd : Unix.file_descr;
  co_buf : Buffer.t;  (* an unterminated frame carried over from earlier reads *)
  co_jobs : (string, job_ctx Service.handle) Hashtbl.t;  (* in flight *)
  mutable co_closed : bool;
}

(* One retained completion, for poll and idempotent resubmission. *)
type finished_job = {
  fj_digest : string;
  fj_status : string;  (* ok | degraded | failed | cancelled *)
  fj_frame : Json.t;  (* the full result frame, as delivered *)
}

type t = {
  cfg : config;
  svc : (job_ctx, Driver.report) Service.t;
  epoch : float;  (* server start; all traces share it *)
  conns : (int, conn) Hashtbl.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  cq_mu : Mutex.t;
  cq : (job_ctx, Driver.report) Service.completion Queue.t;
  client_ids : (string, int) Hashtbl.t;  (* identity -> service client *)
  pending : (string * string, job_ctx Service.handle) Hashtbl.t;  (* (client,id) *)
  finished : (string * string, finished_job) Hashtbl.t;
  finished_order : (string * string) Queue.t;  (* eviction, oldest first *)
  mutable journal : Journal.t option;
  mutable backlog : Protocol.compile_req list;  (* replays awaiting queue space *)
  mutable listen_fd : Unix.file_descr option;
  mutable stopping : bool;
  mutable draining : bool;
  mutable drain_until : float;
  mutable drain_cancelled : bool;  (* stragglers already cancelled *)
  mutable next_conn : int;
  mutable next_tid : int;
  metrics : Hir_ir.Metrics.t;
      (* "jobs.*" and "journal.*" counters, "counters.*" summed over
         completed jobs, and the "latency.queue" (admission -> start)
         and "latency.total" (admission -> completion) histograms *)
  mutable traces : Trace.t list;  (* newest first, capped; traced servers only *)
  mutable n_traces : int;
}

let count t name = Hir_ir.Metrics.incr t.metrics name
let jobs t name = Hir_ir.Metrics.get t.metrics ("jobs." ^ name)

let logf t fmt =
  if t.cfg.cfg_verbose then Printf.eprintf ("serve: " ^^ fmt ^^ "\n%!")
  else Printf.ifprintf stderr fmt

(* SIGTERM lands here (possibly on another domain): the main loop polls
   the flag every tick and starts a graceful drain. *)
let sigterm_drain = Atomic.make false

(* Signals can interrupt any blocking syscall now that a SIGTERM
   handler is installed: retry them all. *)
let rec no_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> no_eintr f

(* ------------------------------------------------------------------ *)
(* Worker-side: runs on pool domains                                   *)

let wake t =
  (* Nonblocking: a full pipe already guarantees a pending wakeup. *)
  try ignore (no_eintr (fun () -> Unix.write t.wake_w (Bytes.make 1 '!') 0 1))
  with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE), _, _) -> ()

let on_complete t c =
  Mutex.lock t.cq_mu;
  Queue.push c t.cq;
  Mutex.unlock t.cq_mu;
  wake t

(* ------------------------------------------------------------------ *)
(* Frame IO (main loop only)                                           *)

let disconnect t conn =
  if not conn.co_closed then begin
    conn.co_closed <- true;
    Hashtbl.remove t.conns conn.co_id;
    (* A gone *anonymous* client no longer wants its jobs: free the
       slots.  Named-client jobs keep running — their results are
       retained for a poll after reconnect.  Completions (synthesized
       or real) still arrive and are counted either way. *)
    let cancelled = ref 0 in
    Hashtbl.iter
      (fun _ h ->
        if (Service.data h).jc_ephemeral then begin
          incr cancelled;
          ignore (Service.cancel t.svc h)
        end)
      conn.co_jobs;
    (try Unix.close conn.co_fd with Unix.Unix_error _ -> ());
    logf t "conn %d closed (%d of %d in-flight jobs cancelled)" conn.co_id
      !cancelled
      (Hashtbl.length conn.co_jobs)
  end

(* SIGPIPE is ignored process-wide, so a hung-up client surfaces here
   as EPIPE/ECONNRESET: a per-connection error, not a dead server. *)
let send_frame t conn j =
  if not conn.co_closed then
    try Io.write_all conn.co_fd (Json.to_line j)
    with Unix.Unix_error _ -> disconnect t conn

(* ------------------------------------------------------------------ *)
(* Probes                                                              *)

let health_json t =
  let s = Service.stats t.svc in
  let status =
    if t.stopping then "stopping" else if t.draining then "draining" else "ok"
  in
  Json.Obj
    [
      ("event", Json.Str "health");
      ("status", Json.Str status);
      ("uptime_seconds", Json.Num (Unix.gettimeofday () -. t.epoch));
      ("workers", Json.Num (float_of_int s.Service.st_workers));
      ("queue_depth", Json.Num (float_of_int s.Service.st_depth));
      ("running", Json.Num (float_of_int s.Service.st_running));
      ("connections", Json.Num (float_of_int (Hashtbl.length t.conns)));
    ]

(* The counters /metrics lists even at zero; completed jobs' counters
   appear as they first occur. *)
let job_counters =
  [ "submitted"; "rejected"; "completed"; "ok"; "degraded"; "failed"; "cancelled";
    "idempotent" ]

let journal_counters = [ "appends"; "marks"; "faults"; "replayed" ]

let metrics_json t =
  let s = Service.stats t.svc in
  let num n = Json.Num (float_of_int n) in
  let nums = List.map (fun (k, n) -> (k, num n)) in
  let group prefix names gauges =
    ( prefix,
      Json.Obj
        (nums (List.map (fun k -> (k, Hir_ir.Metrics.get t.metrics (prefix ^ "." ^ k))) names)
        @ nums gauges) )
  in
  let hist name =
    let h = Hir_ir.Metrics.summary t.metrics ("latency." ^ name) in
    ( name,
      Json.Obj
        [
          ("count", num h.count); ("mean_s", Json.Num h.mean); ("p50_s", Json.Num h.p50);
          ("p90_s", Json.Num h.p90); ("p99_s", Json.Num h.p99); ("max_s", Json.Num h.max);
        ] )
  in
  let cache c =
    [ ("hits", Cache.hits c); ("misses", Cache.misses c); ("stores", Cache.store_count c);
      ("corrupt", Cache.corrupt_count c); ("faults", Cache.fault_count c) ]
  in
  Json.Obj
    ([
       ("event", Json.Str "metrics");
       group "jobs" job_counters
         [
           ("queue_depth", s.Service.st_depth); ("running", s.Service.st_running);
           ("workers", s.Service.st_workers);
           ("spawn_failures", Service.spawn_failure_count t.svc);
         ];
     ]
    @ (match t.cfg.cfg_cache with Some c -> [ ("cache", Json.Obj (nums (cache c))) ] | None -> [])
    @ (match t.journal with
      | Some _ -> [ group "journal" journal_counters [ ("backlog", List.length t.backlog) ] ]
      | None -> [])
    @ [
        ("counters", Json.Obj (nums (Hir_ir.Metrics.counters ~prefix:"counters." t.metrics)));
        ("latency", Json.Obj [ hist "queue"; hist "total" ]);
      ])

(* One-shot HTTP for curl-style probes on the same socket. *)
let http_response t conn path =
  let status, body =
    match path with
    | "/health" -> ("200 OK", Json.to_line (health_json t))
    | "/metrics" -> ("200 OK", Json.to_line (metrics_json t))
    | _ -> ("404 Not Found", Json.to_line (Protocol.error_frame "unknown path"))
  in
  let resp =
    Printf.sprintf
      "HTTP/1.0 %s\r\nContent-Type: application/json\r\nContent-Length: \
       %d\r\nConnection: close\r\n\r\n%s"
      status (String.length body) body
  in
  (try Io.write_all conn.co_fd resp with Unix.Unix_error _ -> ());
  disconnect t conn

(* ------------------------------------------------------------------ *)
(* Compile admission                                                   *)

let next_tid t =
  t.next_tid <- t.next_tid + 1;
  t.next_tid

(* The service core schedules by integer client id; map every distinct
   client identity (named or per-connection) to one. *)
let resolve_client t name =
  match Hashtbl.find_opt t.client_ids name with
  | Some i -> i
  | None ->
    let i = Hashtbl.length t.client_ids in
    Hashtbl.replace t.client_ids name i;
    i

let conn_client_name conn = Printf.sprintf "conn-%d" conn.co_id

(* Resolve a compile frame into a driver job, or the diagnostics that
   explain why it never will be one.  Bad input is a *failed* result
   (the job is at fault), not a rejection (admission was fine). *)
let job_of_req (req : Protocol.compile_req) =
  let pipeline_r =
    match req.Protocol.cr_passes with
    | None -> Ok (Pipeline.default ~optimize:true)
    | Some spec -> (
      match Pipeline.parse_located ~file:"passes" spec with
      | Ok p -> Ok p
      | Error d -> Error (Printf.sprintf "invalid pipeline spec: %s" (Hir_ir.Diagnostic.to_string d)))
  in
  match pipeline_r with
  | Error e -> Error e
  | Ok pipeline -> (
    match (req.Protocol.cr_kernel, req.Protocol.cr_source) with
    | Some k, _ -> (
      match Hir_kernels.Kernels.find k with
      | Some kernel ->
        Ok
          (Driver.job_of_builder ~pipeline ~name:kernel.Hir_kernels.Kernels.name
             kernel.Hir_kernels.Kernels.build)
      | None -> Error (Printf.sprintf "unknown kernel %s" k))
    | None, Some source ->
      let name = Option.value ~default:"<inline>" req.Protocol.cr_name in
      Ok (Driver.job_of_text ?top:req.Protocol.cr_top ~pipeline ~name source)
    | None, None -> Error "compile: needs \"kernel\" or \"source\"")

let failed_frame ~id msg =
  Json.Obj
    [
      ("event", Json.Str "result");
      ("id", Json.Str id);
      ("status", Json.Str "failed");
      ("diagnostics", Json.Arr [ Json.Str msg ]);
    ]

(* Journal IO failure is degraded durability, never a failed job. *)
let journal_admit t req =
  match t.journal with
  | None -> ()
  | Some j -> (
    match Journal.append_admit j req with
    | Ok () -> count t "journal.appends"
    | Error e ->
      count t "journal.faults";
      logf t "journal append failed: %s" e)

let journal_done t ~client ~id ~status =
  match t.journal with
  | None -> ()
  | Some j -> (
    match Journal.append_done j ~client ~id ~status with
    | Ok () -> count t "journal.marks"
    | Error e ->
      count t "journal.faults";
      logf t "journal mark failed: %s" e)

(* Submit one resolved request to the pool.  [journal_new] is false for
   journal replays, whose admit records are already on disk. *)
let admit_request t ~conn_id ~client ~ephemeral ~digest ~journal_new
    (req : Protocol.compile_req) =
  match job_of_req req with
  | Error msg -> `Failed (failed_frame ~id:req.Protocol.cr_id msg)
  | Ok job -> (
    let trace = Trace.create ~epoch:t.epoch () in
    Trace.set_tid trace (next_tid t);
    let limits =
      {
        Guard.deadline_s =
          (match req.Protocol.cr_deadline with
          | Some _ as d -> d
          | None -> t.cfg.cfg_default_deadline);
      }
    in
    let ctx =
      {
        jc_conn = conn_id;
        jc_client = client;
        jc_ephemeral = ephemeral;
        jc_id = req.Protocol.cr_id;
        jc_digest = digest;
        jc_want_verilog = req.Protocol.cr_want_verilog;
        jc_job = job;
        jc_limits = limits;
        jc_trace = trace;
      }
    in
    match
      Service.submit t.svc ~client:(resolve_client t client)
        ~priority:req.Protocol.cr_priority ctx
    with
    | Service.Accepted h ->
      count t "jobs.submitted";
      if journal_new then journal_admit t { req with Protocol.cr_client = Some client };
      Hashtbl.replace t.pending (client, req.Protocol.cr_id) h;
      `Admitted h
    | Service.Overloaded -> `Overloaded
    | Service.Stopped -> `Stopped)

let handle_compile t conn (req : Protocol.compile_req) =
  let id = req.Protocol.cr_id in
  let ephemeral = req.Protocol.cr_client = None in
  let client =
    match req.Protocol.cr_client with Some c -> c | None -> conn_client_name conn
  in
  let digest = Protocol.digest_of_request req in
  let key = (client, id) in
  let reject reason =
    count t "jobs.rejected";
    send_frame t conn (Protocol.rejected_frame ~id reason)
  in
  if t.draining || t.stopping then reject "shutting-down"
  else if Hashtbl.mem t.pending key then reject "duplicate-id"
  else
    let finished_entry = Hashtbl.find_opt t.finished key in
    match finished_entry with
    | Some fj when fj.fj_status <> "cancelled" && fj.fj_digest = digest ->
      (* Idempotent resubmission: same id, same request — replay the
         retained result instead of recompiling or rejecting. *)
      count t "jobs.idempotent";
      logf t "conn %d: idempotent resubmission of %s/%s" conn.co_id client id;
      send_frame t conn fj.fj_frame
    | Some fj when fj.fj_status <> "cancelled" -> reject "duplicate-id"
    | _ -> (
      (* Fresh, or a cancelled result being retried: admit. *)
      if finished_entry <> None then Hashtbl.remove t.finished key;
      match
        admit_request t ~conn_id:conn.co_id ~client ~ephemeral ~digest
          ~journal_new:true req
      with
      | `Failed frame -> send_frame t conn frame
      | `Overloaded -> reject "overloaded"
      | `Stopped -> reject "shutting-down"
      | `Admitted h ->
        Hashtbl.replace conn.co_jobs id h;
        logf t "conn %d: admitted %s/%s (priority %d)" conn.co_id client id
          req.Protocol.cr_priority)

let handle_cancel t conn id =
  match Hashtbl.find_opt conn.co_jobs id with
  | None -> send_frame t conn (Protocol.cancel_frame ~id "unknown")
  | Some h ->
    let state =
      match Service.cancel t.svc h with
      | `Cancelled -> "cancelled"  (* withdrawn from the queue *)
      | `Cancelling -> "cancelling"  (* mid-compile; flag set *)
      | `Finished -> "finished"  (* too late: real result racing in *)
    in
    send_frame t conn (Protocol.cancel_frame ~id state)

(* ------------------------------------------------------------------ *)
(* Poll: reconnecting clients fetch results they missed                 *)

let poll_state_frame ~id state =
  Json.Obj
    [
      ("event", Json.Str "poll");
      ("id", Json.Str id);
      ("state", Json.Str state);
    ]

let handle_poll t conn (p : Protocol.poll_req) =
  let client =
    match p.Protocol.pl_client with Some c -> c | None -> conn_client_name conn
  in
  match p.Protocol.pl_id with
  | Some id -> (
    let key = (client, id) in
    match Hashtbl.find_opt t.finished key with
    | Some fj -> send_frame t conn fj.fj_frame  (* done: resend the result *)
    | None ->
      if Hashtbl.mem t.pending key then
        send_frame t conn (poll_state_frame ~id "pending")
      else send_frame t conn (poll_state_frame ~id "unknown"))
  | None ->
    (* No id: list this client's known jobs and their states. *)
    let jobs = ref [] in
    Hashtbl.iter
      (fun (c, id) _ ->
        if c = client then
          jobs :=
            Json.Obj
              [ ("id", Json.Str id); ("state", Json.Str "pending") ]
            :: !jobs)
      t.pending;
    Hashtbl.iter
      (fun (c, id) fj ->
        if c = client then
          jobs :=
            Json.Obj
              [
                ("id", Json.Str id);
                ("state", Json.Str "done");
                ("status", Json.Str fj.fj_status);
              ]
            :: !jobs)
      t.finished;
    let jobs = List.sort compare !jobs in
    send_frame t conn
      (Json.Obj
         [
           ("event", Json.Str "poll");
           ("client", Json.Str client);
           ("jobs", Json.Arr jobs);
         ])

(* ------------------------------------------------------------------ *)
(* Completion delivery (main loop)                                     *)

let add_finished t key fj =
  Hashtbl.replace t.finished key fj;
  Queue.push key t.finished_order;
  while Hashtbl.length t.finished > max_finished do
    match Queue.take_opt t.finished_order with
    | None -> Hashtbl.reset t.finished  (* unreachable; belt and braces *)
    | Some victim -> Hashtbl.remove t.finished victim
  done

let record_completion t (c : (job_ctx, Driver.report) Service.completion) =
  let ctx = Service.data c.Service.c_handle in
  let r = c.Service.c_result in
  let status = Driver.status_to_string (Driver.report_status r) in
  count t "jobs.completed";
  count t ("jobs." ^ status);
  Hir_ir.Metrics.observe t.metrics "latency.queue" c.Service.c_queue_seconds;
  Hir_ir.Metrics.observe t.metrics "latency.total"
    (c.Service.c_queue_seconds +. c.Service.c_run_seconds);
  Hir_ir.Metrics.merge ~prefix:"counters." ~into:t.metrics (Trace.metrics ctx.jc_trace);
  if t.cfg.cfg_trace_path <> None && t.n_traces < max_traces then begin
    t.traces <- ctx.jc_trace :: t.traces;
    t.n_traces <- t.n_traces + 1
  end;
  (* Durability: the done mark, then the retained result. *)
  let key = (ctx.jc_client, ctx.jc_id) in
  journal_done t ~client:ctx.jc_client ~id:ctx.jc_id ~status;
  Hashtbl.remove t.pending key;
  let frame =
    Protocol.result_frame ~id:ctx.jc_id ~want_verilog:ctx.jc_want_verilog r
  in
  add_finished t key { fj_digest = ctx.jc_digest; fj_status = status; fj_frame = frame };
  (* Deliver, unless the client is gone (a poll will find it). *)
  match Hashtbl.find_opt t.conns ctx.jc_conn with
  | None -> ()
  | Some conn ->
    Hashtbl.remove conn.co_jobs ctx.jc_id;
    send_frame t conn frame

let drain_completions t =
  let rec pop () =
    Mutex.lock t.cq_mu;
    let c = Queue.take_opt t.cq in
    Mutex.unlock t.cq_mu;
    match c with
    | None -> ()
    | Some c ->
      record_completion t c;
      pop ()
  in
  pop ()

(* ------------------------------------------------------------------ *)
(* Journal recovery and drain                                          *)

(* Re-enqueue one journal replay, which names its client.  Replays
   whose request can no longer resolve (a kernel renamed across
   versions, say) are marked done "failed" so they do not haunt every
   future startup. *)
let admit_replayed t (req : Protocol.compile_req) =
  let client = Option.value ~default:"" req.Protocol.cr_client and id = req.Protocol.cr_id in
  let digest = Protocol.digest_of_request req in
  match
    admit_request t ~conn_id:(-1) ~client ~ephemeral:false ~digest ~journal_new:false req
  with
  | `Admitted _ ->
    count t "journal.replayed";
    `Done
  | `Failed frame ->
    journal_done t ~client ~id ~status:"failed";
    add_finished t (client, id) { fj_digest = digest; fj_status = "failed"; fj_frame = frame };
    logf t "replay of %s/%s failed to resolve" client id;
    `Done
  | `Overloaded -> `Overloaded
  | `Stopped -> `Done

(* Admit as much of the replay backlog as the queue will take; the
   rest waits for completions to free depth. *)
let retry_backlog t =
  let rec go = function
    | [] -> []
    | a :: rest -> (
      match admit_replayed t a with
      | `Done -> go rest
      | `Overloaded -> a :: rest)
  in
  if t.backlog <> [] then t.backlog <- go t.backlog

let start_drain t reason =
  if not (t.draining || t.stopping) then begin
    t.draining <- true;
    t.drain_until <- Unix.gettimeofday () +. t.cfg.cfg_drain_deadline;
    logf t "draining (%s): %d in-flight job(s), deadline %.1fs" reason
      (Hashtbl.length t.pending)
      t.cfg.cfg_drain_deadline
  end

(* One drain step per tick: past the deadline, cancel the stragglers
   (cooperatively — their completions arrive journal-marked as
   "cancelled"); once nothing is in flight, stop. *)
let drain_step t =
  if t.draining then begin
    if (not t.drain_cancelled) && Unix.gettimeofday () > t.drain_until then begin
      t.drain_cancelled <- true;
      logf t "drain deadline passed: cancelling %d straggler(s)"
        (Hashtbl.length t.pending);
      Hashtbl.iter (fun _ h -> ignore (Service.cancel t.svc h)) t.pending;
      (* Queued-job cancels synthesize completions synchronously. *)
      drain_completions t
    end;
    if Hashtbl.length t.pending = 0 && t.backlog = [] then t.stopping <- true
  end

(* ------------------------------------------------------------------ *)
(* Socket plumbing                                                     *)

let bind_listener = function
  | Unix_path path ->
    if Sys.file_exists path then Unix.unlink path;
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    (fd, "unix:" ^ path)
  | Tcp (host, port) ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    Unix.listen fd 64;
    let actual =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> port
    in
    (fd, Printf.sprintf "tcp:%s:%d" host actual)

let handle_line t conn line =
  let line = String.trim line in
  if line = "" then ()
  else if String.length line >= 4 && String.sub line 0 4 = "GET " then begin
    (* HTTP probe: "GET /path HTTP/1.x". *)
    let path =
      match String.split_on_char ' ' line with _ :: p :: _ -> p | _ -> "/"
    in
    http_response t conn path
  end
  else
    match Protocol.request_of_line line with
    | Error msg -> send_frame t conn (Protocol.error_frame msg)
    | Ok (Protocol.Compile req) -> handle_compile t conn req
    | Ok (Protocol.Cancel id) -> handle_cancel t conn id
    | Ok (Protocol.Poll p) -> handle_poll t conn p
    | Ok Protocol.Health -> send_frame t conn (health_json t)
    | Ok Protocol.Metrics -> send_frame t conn (metrics_json t)
    | Ok Protocol.Shutdown ->
      send_frame t conn (Json.Obj [ ("event", Json.Str "shutdown") ]);
      start_drain t "shutdown frame"

(* The longest unterminated frame a connection may buffer.  Real
   requests are a few KB of HIR text; a client past this is answered
   with a protocol error and disconnected, so one peer cannot grow
   server memory without bound. *)
let max_frame_bytes = 8 * 1024 * 1024

let handle_readable t conn =
  let chunk = Bytes.create 65536 in
  match no_eintr (fun () -> Unix.read conn.co_fd chunk 0 (Bytes.length chunk)) with
  | 0 -> disconnect t conn
  | got ->
    let data = Bytes.sub_string chunk 0 got in
    (* Split complete lines out of this read at a moving offset.  Only
       an unterminated tail is carried over, to prefix the first line of
       a later read, so each byte is copied a bounded number of times
       however many lines one read holds. *)
    let rec split start =
      if not conn.co_closed then
        match String.index_from_opt data start '\n' with
        | Some i ->
          let line =
            if Buffer.length conn.co_buf = 0 then String.sub data start (i - start)
            else begin
              Buffer.add_substring conn.co_buf data start (i - start);
              let line = Buffer.contents conn.co_buf in
              Buffer.reset conn.co_buf;
              line
            end
          in
          handle_line t conn line;
          split (i + 1)
        | None ->
          Buffer.add_substring conn.co_buf data start (got - start);
          if Buffer.length conn.co_buf > max_frame_bytes then begin
            send_frame t conn
              (Protocol.error_frame
                 (Printf.sprintf "frame exceeds %d bytes without a newline" max_frame_bytes));
            disconnect t conn
          end
    in
    split 0
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    disconnect t conn

let accept_conn t listen_fd =
  match no_eintr (fun () -> Unix.accept listen_fd) with
  | fd, _ ->
    let conn =
      {
        co_id = t.next_conn;
        co_fd = fd;
        co_buf = Buffer.create 1024;
        co_jobs = Hashtbl.create 8;
        co_closed = false;
      }
    in
    t.next_conn <- t.next_conn + 1;
    Hashtbl.replace t.conns conn.co_id conn;
    logf t "conn %d accepted" conn.co_id
  | exception Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)

let create cfg =
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let rec t =
    lazy
      (let svc =
         Service.create ~workers:cfg.cfg_workers ~max_depth:cfg.cfg_max_depth
           ~run:(fun h ->
             let ctx = Service.data h in
             Driver.run_with_retry ?cache:cfg.cfg_cache
               ~cancel:(Service.cancel_flag h)
               ~trace:ctx.jc_trace ~limits:ctx.jc_limits ~retry:cfg.cfg_retry
               ctx.jc_job)
           ~cancelled:(fun h ->
             Driver.cancelled_report
               ~job:(Driver.source_name (Service.data h).jc_job.Driver.src))
           ~crashed:(fun h exn ->
             Driver.crashed_report
               ~job:(Driver.source_name (Service.data h).jc_job.Driver.src)
               exn)
           ~on_complete:(fun c -> on_complete (Lazy.force t) c)
           ()
       in
       {
         cfg;
         svc;
         epoch = Trace.now ();
         conns = Hashtbl.create 16;
         wake_r;
         wake_w;
         cq_mu = Mutex.create ();
         cq = Queue.create ();
         client_ids = Hashtbl.create 16;
         pending = Hashtbl.create 64;
         finished = Hashtbl.create 64;
         finished_order = Queue.create ();
         journal = None;
         backlog = [];
         listen_fd = None;
         stopping = false;
         draining = false;
         drain_until = 0.;
         drain_cancelled = false;
         next_conn = 0;
         next_tid = 0;
         metrics = Hir_ir.Metrics.create ();
         traces = [];
         n_traces = 0;
       })
  in
  Lazy.force t

let drain_wake t =
  let chunk = Bytes.create 256 in
  let rec go () =
    match no_eintr (fun () -> Unix.read t.wake_r chunk 0 (Bytes.length chunk)) with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ()

(* Replay + compact the journal: quarantine what is damaged, re-enqueue
   what never finished, rewrite the log down to exactly that set (the
   same replay result drives both, so the log and the queue agree). *)
let recover_journal t dir =
  let r = Journal.replay ~dir in
  (match Journal.compact ~result:r ~dir () with
  | Ok _ -> ()
  | Error e -> Printf.eprintf "hirc serve: journal compaction failed: %s\n%!" e);
  t.journal <- Some (Journal.open_journal ~dir);
  t.backlog <- r.Journal.rr_pending;
  if r.Journal.rr_records > 0 || r.Journal.rr_torn_tail then
    Printf.printf
      "hirc serve: journal: %d record(s) (%d done), %d incomplete job(s) \
       re-enqueued, %d quarantined%s\n%!"
      r.Journal.rr_records r.Journal.rr_completed
      (List.length r.Journal.rr_pending)
      r.Journal.rr_quarantined
      (if r.Journal.rr_torn_tail then ", torn tail dropped" else "");
  retry_backlog t

(* Run to completion: bind, announce, serve until a drain finishes
   (shutdown frame or SIGTERM), then drain the pool, deliver the tail
   of completions, write the lifetime Chrome trace, and report.
   Returns the exit code. *)
let run cfg =
  let t = create cfg in
  Atomic.set sigterm_drain false;
  let old_sigterm =
    try
      Some
        (Sys.signal Sys.sigterm
           (Sys.Signal_handle (fun _ -> Atomic.set sigterm_drain true)))
    with Invalid_argument _ | Sys_error _ -> None
  in
  (match cfg.cfg_journal with None -> () | Some dir -> recover_journal t dir);
  let listen_fd, where = bind_listener cfg.cfg_listen in
  t.listen_fd <- Some listen_fd;
  (* The announce line is the startup contract: clients (and the smoke
     test) wait for it before connecting. *)
  Printf.printf "hirc serve: listening on %s (%d workers, queue depth %d)\n%!"
    where
    (Service.worker_count t.svc)
    cfg.cfg_max_depth;
  (if Service.spawn_failure_count t.svc > 0 then
     Printf.eprintf
       "hirc serve: %d worker spawn(s) failed; continuing with %d worker(s)\n%!"
       (Service.spawn_failure_count t.svc)
       (Service.worker_count t.svc));
  while not t.stopping do
    let conn_fds = Hashtbl.fold (fun _ c acc -> c.co_fd :: acc) t.conns [] in
    let read_fds = (listen_fd :: t.wake_r :: conn_fds) in
    (match Unix.select read_fds [] [] cfg.cfg_tick with
    | readable, _, _ ->
      if List.mem t.wake_r readable then drain_wake t;
      drain_completions t;
      (* Snapshot: a conn may be disconnected while handling another. *)
      let by_fd = Hashtbl.fold (fun _ c acc -> (c.co_fd, c) :: acc) t.conns [] in
      List.iter
        (fun fd ->
          if fd <> listen_fd && fd <> t.wake_r then
            match List.assoc_opt fd by_fd with
            | Some conn when not conn.co_closed -> handle_readable t conn
            | _ -> ())
        readable;
      if List.mem listen_fd readable && not t.stopping then accept_conn t listen_fd
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    if Atomic.get sigterm_drain then begin
      Atomic.set sigterm_drain false;
      start_drain t "SIGTERM"
    end;
    retry_backlog t;
    drain_completions t;
    drain_step t
  done;
  (* Shutdown: stop accepting, drain the pool (with zero live workers
     the queue drains inline right here), deliver the tail. *)
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (match cfg.cfg_listen with
  | Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | Tcp _ -> ());
  Service.shutdown t.svc;
  drain_completions t;
  Hashtbl.iter (fun _ conn -> disconnect t conn) (Hashtbl.copy t.conns);
  Option.iter Journal.close t.journal;
  (match cfg.cfg_trace_path with
  | Some path ->
    Trace.write_chrome_json path (List.rev t.traces);
    Printf.eprintf "wrote %s\n%!" path
  | None -> ());
  (try
     Unix.close t.wake_r;
     Unix.close t.wake_w
   with Unix.Unix_error _ -> ());
  Option.iter (Sys.set_signal Sys.sigterm) old_sigterm;
  Printf.printf
    "hirc serve: done: %d submitted, %d completed (%d ok, %d degraded, %d failed, \
     %d cancelled), %d rejected, p99 %.1f ms\n%!"
    (jobs t "submitted") (jobs t "completed") (jobs t "ok") (jobs t "degraded")
    (jobs t "failed") (jobs t "cancelled") (jobs t "rejected")
    ((Hir_ir.Metrics.summary t.metrics "latency.total").p99 *. 1000.);
  if jobs t "completed" = jobs t "submitted" then 0 else 1
