(* The service core: a continuously-admitting job scheduler on a fixed
   pool of OCaml 5 domains, shared by `hirc batch` (submit everything,
   drain, exit) and `hirc serve` (admit jobs from live connections for
   the lifetime of the process).

   Continuous batching: workers pull the next job the instant they
   finish the previous one — there are no batch boundaries, so a job
   submitted while the pool is busy starts the moment any slot frees.

   Scheduling is priority-first, then fair-share: every job belongs to
   a *client* (a connection for the server, a single bucket for batch)
   and carries an integer priority.  Within a client, jobs run in
   priority order (FIFO among equals); across clients, the head jobs
   compete on (priority desc, jobs-already-served asc, client id asc).
   The served-count tiebreak is deficit-style fairness: a client that
   has consumed fewer slots wins ties, so one greedy connection cannot
   starve a light one, while an idle pool still runs anything
   immediately.  The pick is deterministic — no hashing, no clocks —
   which is what makes the scheduler unit-testable.

   Admission control: the queue is bounded ([max_depth]); a submit
   against a full queue returns [`Overloaded] immediately instead of
   queueing unboundedly.  Backpressure is therefore explicit and the
   caller (the server) turns it into a `rejected: overloaded` response.

   Cancellation: a queued job is withdrawn without ever occupying a
   worker (its completion is synthesized via [cancelled]); a running
   job has its cancel flag set, which [Guard] checkpoints observe at
   stage/pass boundaries — the worker slot frees at the next tick.

   Fault tolerance: worker spawns go through the "worker.spawn"
   injection point and a failed spawn degrades the pool to the
   survivors; with no survivors the caller drains inline ([shutdown]
   does this automatically).  A job runner that *raises* (a bug past
   the driver's own backstop) is converted to a completion via
   [crashed] — the pool never loses a job and never leaves a domain
   unjoined. *)

type state = Queued | Running | Finished

type 'a handle = {
  h_seq : int;  (* submission sequence number, unique per pool *)
  h_client : int;
  h_priority : int;
  h_data : 'a;
  h_cancel : bool Atomic.t;
  h_submitted : float;
  mutable h_state : state;  (* protected by the pool mutex *)
  mutable h_started : float;
}

let data h = h.h_data
let cancel_flag h = h.h_cancel

type ('a, 'r) completion = {
  c_handle : 'a handle;
  c_result : 'r;
  c_cancelled_queued : bool;  (* true: synthesized, never ran *)
  c_queue_seconds : float;
  c_run_seconds : float;
}

type ('a, 'r) t = {
  mu : Mutex.t;
  work : Condition.t;  (* new work, or stop *)
  idle : Condition.t;  (* a job left the system (finished or withdrawn) *)
  run : 'a handle -> 'r;
  cancelled : 'a handle -> 'r;  (* result for a queued job withdrawn *)
  crashed : 'a handle -> exn -> 'r;  (* result when [run] raises *)
  on_complete : ('a, 'r) completion -> unit;
  max_depth : int;
  mutable next_seq : int;
  (* Per-client queues, each priority-sorted (FIFO among equals), the
     list itself sorted by client id so every scan is deterministic. *)
  mutable pending : (int * 'a handle list ref) list;
  served : (int, int) Hashtbl.t;  (* client -> jobs dequeued *)
  mutable depth : int;  (* queued (not yet running) jobs *)
  mutable running : int;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
  mutable spawn_failures : int;
}

let now () = Unix.gettimeofday ()

(* Worker-pool size when the caller does not choose one: every core but
   the one running the caller (the server's select loop, or batch's
   submitting domain). *)
let default_workers () = max 1 (Domain.recommended_domain_count () - 1)

let served_count t client = Option.value ~default:0 (Hashtbl.find_opt t.served client)

(* ------------------------------------------------------------------ *)
(* Queue operations (pool mutex held)                                  *)

let client_queue t client =
  match List.assoc_opt client t.pending with
  | Some q -> q
  | None ->
    let q = ref [] in
    t.pending <-
      List.merge
        (fun (a, _) (b, _) -> compare a b)
        t.pending [ (client, q) ];
    q

(* Insert after every job of >= priority: priority order, FIFO among
   equals. *)
let enqueue q h =
  let rec go = function
    | x :: rest when x.h_priority >= h.h_priority -> x :: go rest
    | rest -> h :: rest
  in
  q := go !q

(* The deterministic pick described in the header comment. *)
let pick_next t =
  let best = ref None in
  List.iter
    (fun (client, q) ->
      match !q with
      | [] -> ()
      | h :: _ ->
        let sc = served_count t client in
        let better =
          match !best with
          | None -> true
          | Some (bh, bsc, _) ->
            h.h_priority > bh.h_priority
            || (h.h_priority = bh.h_priority
               && (sc < bsc || (sc = bsc && client < bh.h_client)))
        in
        if better then best := Some (h, sc, q))
    t.pending;
  match !best with
  | None -> None
  | Some (h, _, q) ->
    q := List.tl !q;
    t.depth <- t.depth - 1;
    Hashtbl.replace t.served h.h_client (served_count t h.h_client + 1);
    Some h

let remove_queued t h =
  match List.assoc_opt h.h_client t.pending with
  | None -> ()
  | Some q -> q := List.filter (fun x -> x.h_seq <> h.h_seq) !q

(* ------------------------------------------------------------------ *)
(* Workers                                                             *)

let complete t ?(cancelled_queued = false) ?(run_seconds = 0.) ~started h result =
  let c =
    {
      c_handle = h;
      c_result = result;
      c_cancelled_queued = cancelled_queued;
      c_queue_seconds = started -. h.h_submitted;
      c_run_seconds = run_seconds;
    }
  in
  (* A raising completion callback would kill the worker domain and
     hang [shutdown]; the callback owns its own error handling. *)
  try t.on_complete c with _ -> ()

(* Take and run one job.  [block] = wait for work (worker domains);
   non-blocking mode is the inline-drain ladder.  Returns [false] when
   there is nothing left to do (and, when blocking, the pool stopped). *)
let try_run_next t ~block =
  Mutex.lock t.mu;
  let rec get () =
    match pick_next t with
    | Some h -> Some h
    | None ->
      if t.stop || not block then None
      else begin
        Condition.wait t.work t.mu;
        get ()
      end
  in
  match get () with
  | None ->
    Mutex.unlock t.mu;
    false
  | Some h ->
    h.h_state <- Running;
    h.h_started <- now ();
    t.running <- t.running + 1;
    Mutex.unlock t.mu;
    let result =
      if Atomic.get h.h_cancel then t.cancelled h
      else match t.run h with r -> r | exception e -> t.crashed h e
    in
    let finished = now () in
    Mutex.lock t.mu;
    t.running <- t.running - 1;
    h.h_state <- Finished;
    Condition.broadcast t.idle;
    Mutex.unlock t.mu;
    complete t ~run_seconds:(finished -. h.h_started) ~started:h.h_started h result;
    true

let worker t () = while try_run_next t ~block:true do () done

(* ------------------------------------------------------------------ *)
(* API                                                                 *)

let create ?(max_depth = max_int) ?(on_spawn_failure = fun (_ : exn) -> ())
    ~workers ~run ~cancelled ~crashed ~on_complete () =
  let t =
    {
      mu = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      run;
      cancelled;
      crashed;
      on_complete;
      max_depth;
      next_seq = 0;
      pending = [];
      served = Hashtbl.create 8;
      depth = 0;
      running = 0;
      stop = false;
      domains = [];
      spawn_failures = 0;
    }
  in
  t.domains <-
    List.filter_map
      (fun _ ->
        match
          Faults.point "worker.spawn";
          Domain.spawn (worker t)
        with
        | d -> Some d
        | exception e ->
          t.spawn_failures <- t.spawn_failures + 1;
          on_spawn_failure e;
          None)
      (List.init (max 0 workers) Fun.id);
  t

let worker_count t = List.length t.domains
let spawn_failure_count t = t.spawn_failures

type stats = { st_depth : int; st_running : int; st_workers : int }

let stats t =
  Mutex.lock t.mu;
  let s = { st_depth = t.depth; st_running = t.running; st_workers = worker_count t } in
  Mutex.unlock t.mu;
  s

type 'a admission = Accepted of 'a handle | Overloaded | Stopped

let submit t ~client ~priority data =
  Mutex.lock t.mu;
  if t.stop then begin
    Mutex.unlock t.mu;
    Stopped
  end
  else if t.depth >= t.max_depth then begin
    Mutex.unlock t.mu;
    Overloaded
  end
  else begin
    let h =
      {
        h_seq = t.next_seq;
        h_client = client;
        h_priority = priority;
        h_data = data;
        h_cancel = Atomic.make false;
        h_submitted = now ();
        h_state = Queued;
        h_started = 0.;
      }
    in
    t.next_seq <- t.next_seq + 1;
    enqueue (client_queue t client) h;
    t.depth <- t.depth + 1;
    Condition.broadcast t.work;
    Mutex.unlock t.mu;
    Accepted h
  end

(* Withdraw a job.  [`Cancelled]: it was still queued and its
   (synthesized) completion has been delivered; [`Cancelling]: it is
   mid-compile, the flag is set and the real completion will report the
   cancellation when a guard checkpoint observes it; [`Finished]: too
   late, the completion was (or is being) delivered with its real
   result. *)
let cancel t h =
  Mutex.lock t.mu;
  match h.h_state with
  | Queued ->
    remove_queued t h;
    t.depth <- t.depth - 1;
    h.h_state <- Finished;
    Condition.broadcast t.idle;
    Mutex.unlock t.mu;
    complete t ~cancelled_queued:true ~started:(now ()) h (t.cancelled h);
    `Cancelled
  | Running ->
    Atomic.set h.h_cancel true;
    Mutex.unlock t.mu;
    `Cancelling
  | Finished ->
    Mutex.unlock t.mu;
    `Finished

(* Run queued jobs in the calling domain until the queue is empty: the
   last rung of the spawn-failure ladder, and the batch path when no
   worker could start. *)
let drain_inline t = while try_run_next t ~block:false do () done

(* Stop accepting, let the workers drain the queue and finish what is
   running, then join them.  With no workers the caller's domain drains
   the queue itself — jobs are never lost to spawn failures. *)
let shutdown t =
  Mutex.lock t.mu;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mu;
  if t.domains = [] then drain_inline t;
  Mutex.lock t.mu;
  while t.depth > 0 || t.running > 0 do
    Condition.wait t.idle t.mu
  done;
  Mutex.unlock t.mu;
  List.iter Domain.join t.domains;
  t.domains <- []
