(* Per-job guards: wall-clock deadlines and cancellation.

   OCaml domains cannot be interrupted asynchronously, so the guard is
   cooperative: the driver calls [tick] at stage boundaries (after
   parse, after each pass, after emit/print), and a job that overruns
   its limits raises [Exhausted] at the next checkpoint.  That turns a
   runaway compile into a structured [Job_timeout]-style diagnostic the
   batch scheduler can report per job, instead of a hung batch.

   Granularity: a single pass that never returns cannot be preempted —
   the rewrite driver's round/application backstops (lib/ir/rewrite)
   bound that layer, and the guard bounds everything stitched together
   above it. *)

type limits = {
  deadline_s : float option;  (* wall-clock budget for one attempt *)
}

let no_limits = { deadline_s = None }

exception Exhausted of { job : string; reason : string }

(* Raised at a checkpoint when the job's cancellation flag was set
   (client disconnect, explicit cancel frame).  Distinct from
   [Exhausted] so the driver can report "cancelled" rather than
   "timeout" — the input was fine, the caller just stopped caring. *)
exception Cancelled of { job : string }

type t = {
  g_job : string;
  g_limits : limits;
  g_cancel : bool Atomic.t option;  (* set from another domain *)
  g_started : float;
}

let create ~job ?cancel limits =
  { g_job = job; g_limits = limits; g_cancel = cancel; g_started = Unix.gettimeofday () }

let elapsed g = Unix.gettimeofday () -. g.g_started

let tick g =
  (match g.g_cancel with
  | Some flag when Atomic.get flag -> raise (Cancelled { job = g.g_job })
  | _ -> ());
  match g.g_limits.deadline_s with
  | Some limit when elapsed g > limit ->
    raise
      (Exhausted
         {
           job = g.g_job;
           reason =
             Printf.sprintf "deadline of %.3fs exceeded (%.3fs elapsed)" limit
               (elapsed g);
         })
  | _ -> ()
