(* Tests for the service core's scheduler paths and the line-JSON
   server: saturation returns `Overloaded` instead of queueing
   unboundedly, cancellation frees the worker slot (running) or never
   occupies one (queued), fair-share keeps a greedy client from
   starving a light one, priorities override FIFO — all deterministic:
   a single worker plus explicit gates make completion order a pure
   function of the scheduler's pick rule.  The socket-level tests run
   a real [Server] on a Unix socket in-process, including the
   early-closing-client regression for the SIGPIPE/EPIPE path. *)

module Service = Hir_driver.Service
module Server = Hir_driver.Server
module Protocol = Hir_driver.Protocol
module Driver = Hir_driver.Driver
module Guard = Hir_driver.Guard
module Pipeline = Hir_driver.Pipeline
module Journal = Hir_driver.Journal
module Faults = Hir_driver.Faults
module Metrics = Hir_ir.Metrics

let () = Hir_dialect.Ops.register ()

(* Mirror hirc's process-wide ignore: the in-process server tests
   write to sockets the test deliberately closes. *)
let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* ------------------------------------------------------------------ *)
(* Harness: a 1-worker pool running string jobs, where jobs named in
   [gated] busy-wait until the gate opens (or their cancel flag is
   set), and every completion is recorded in arrival order. *)

type harness = {
  svc : (string, string) Service.t;
  completions : (string * string * bool) list ref;  (* job, result, queued-cancel *)
  mu : Mutex.t;
  gate : bool Atomic.t;
  ran : (string, int) Hashtbl.t;  (* job -> times the run fn saw it *)
  ran_mu : Mutex.t;
}

let make_harness ?(max_depth = max_int) ?(gated = fun _ -> false) () =
  let mu = Mutex.create () in
  let completions = ref [] in
  let gate = Atomic.make false in
  let ran = Hashtbl.create 8 in
  let ran_mu = Mutex.create () in
  let svc =
    Service.create ~workers:1 ~max_depth
      ~run:(fun h ->
        let job = Service.data h in
        Mutex.lock ran_mu;
        Hashtbl.replace ran job (1 + Option.value ~default:0 (Hashtbl.find_opt ran job));
        Mutex.unlock ran_mu;
        if gated job then begin
          let cancel = Service.cancel_flag h in
          while not (Atomic.get gate) && not (Atomic.get cancel) do
            Domain.cpu_relax ()
          done;
          if Atomic.get cancel then "cancelled" else "done"
        end
        else "done")
      ~cancelled:(fun _ -> "cancelled")
      ~crashed:(fun _ e -> "crashed: " ^ Printexc.to_string e)
      ~on_complete:(fun c ->
        Mutex.lock mu;
        completions :=
          (Service.data c.Service.c_handle, c.Service.c_result,
           c.Service.c_cancelled_queued)
          :: !completions;
        Mutex.unlock mu)
      ()
  in
  { svc; completions; mu; gate; ran; ran_mu }

let completion_order h =
  Mutex.lock h.mu;
  let l = List.rev_map (fun (job, _, _) -> job) !(h.completions) in
  Mutex.unlock h.mu;
  l

let submit_ok h ~client ~priority job =
  match Service.submit h.svc ~client ~priority job with
  | Service.Accepted handle -> handle
  | Service.Overloaded -> Alcotest.failf "unexpected Overloaded for %s" job
  | Service.Stopped -> Alcotest.failf "unexpected Stopped for %s" job

(* Spin until the pool reports [n] running jobs (the gated job has
   actually occupied the worker), bounded so a bug fails, not hangs. *)
let wait_running h n =
  let rec go i =
    if i = 0 then Alcotest.failf "worker never reached running=%d" n;
    if (Service.stats h.svc).Service.st_running <> n then begin
      Unix.sleepf 0.001;
      go (i - 1)
    end
  in
  go 10_000

let times_ran h job =
  Mutex.lock h.ran_mu;
  let n = Option.value ~default:0 (Hashtbl.find_opt h.ran job) in
  Mutex.unlock h.ran_mu;
  n

(* ------------------------------------------------------------------ *)
(* Scheduler-path tests                                                *)

let test_saturation_overloaded () =
  let h = make_harness ~max_depth:2 ~gated:(fun j -> j = "A") () in
  let _ = submit_ok h ~client:0 ~priority:0 "A" in
  wait_running h 1;
  let _ = submit_ok h ~client:0 ~priority:0 "B" in
  let _ = submit_ok h ~client:0 ~priority:0 "C" in
  (* Depth 2 reached: admission must push back, not queue unboundedly. *)
  (match Service.submit h.svc ~client:0 ~priority:0 "D" with
  | Service.Overloaded -> ()
  | Service.Accepted _ -> Alcotest.fail "D admitted past max_depth"
  | Service.Stopped -> Alcotest.fail "pool stopped unexpectedly");
  Atomic.set h.gate true;
  Service.shutdown h.svc;
  Alcotest.(check (list string))
    "admitted jobs all completed, D never entered" [ "A"; "B"; "C" ]
    (completion_order h);
  (* After shutdown, admission reports Stopped. *)
  match Service.submit h.svc ~client:0 ~priority:0 "E" with
  | Service.Stopped -> ()
  | _ -> Alcotest.fail "submit after shutdown must report Stopped"

let test_cancel_running_frees_slot () =
  let h = make_harness ~gated:(fun j -> j = "A") () in
  let ha = submit_ok h ~client:0 ~priority:0 "A" in
  wait_running h 1;
  let _ = submit_ok h ~client:0 ~priority:0 "B" in
  (* A is mid-"compile": cancel sets the flag; the job observes it at
     its next checkpoint, returns, and the slot frees for B. *)
  (match Service.cancel h.svc ha with
  | `Cancelling -> ()
  | `Cancelled -> Alcotest.fail "A was running, not queued"
  | `Finished -> Alcotest.fail "A cannot have finished: gate is closed");
  Service.shutdown h.svc;
  Alcotest.(check (list string)) "A unblocked first, then B ran" [ "A"; "B" ]
    (completion_order h);
  Mutex.lock h.mu;
  let a_result = List.assoc "A" (List.map (fun (j, r, _) -> (j, r)) !(h.completions)) in
  Mutex.unlock h.mu;
  Alcotest.(check string) "A observed its cancellation" "cancelled" a_result

let test_cancel_queued_never_runs () =
  let h = make_harness ~gated:(fun j -> j = "A") () in
  let _ = submit_ok h ~client:0 ~priority:0 "A" in
  wait_running h 1;
  let hb = submit_ok h ~client:0 ~priority:0 "B" in
  (match Service.cancel h.svc hb with
  | `Cancelled -> ()
  | `Cancelling | `Finished -> Alcotest.fail "B was queued; cancel must withdraw it");
  (* The synthesized completion is delivered immediately, before the
     worker ever sees B. *)
  Mutex.lock h.mu;
  let b = List.find (fun (j, _, _) -> j = "B") !(h.completions) in
  Mutex.unlock h.mu;
  (match b with
  | _, "cancelled", true -> ()
  | _, r, q -> Alcotest.failf "B completion (%s, queued-cancel=%b) wrong" r q);
  Atomic.set h.gate true;
  Service.shutdown h.svc;
  Alcotest.(check int) "B never occupied a worker" 0 (times_ran h "B");
  (* Cancelling an already-finished job is reported as such. *)
  match Service.cancel h.svc hb with
  | `Finished -> ()
  | _ -> Alcotest.fail "second cancel must report Finished"

let test_fair_share_prevents_starvation () =
  let h = make_harness ~gated:(fun j -> j = "A1") () in
  let _ = submit_ok h ~client:1 ~priority:0 "A1" in
  wait_running h 1;
  (* Greedy client 1 floods; light client 2 wants two jobs. *)
  List.iter (fun j -> ignore (submit_ok h ~client:1 ~priority:0 j))
    [ "A2"; "A3"; "A4"; "A5"; "A6" ];
  List.iter (fun j -> ignore (submit_ok h ~client:2 ~priority:0 j)) [ "B1"; "B2" ];
  Atomic.set h.gate true;
  Service.shutdown h.svc;
  (* Deficit fairness: the client with fewer served jobs wins ties, so
     B1/B2 interleave instead of waiting behind all six A's. *)
  Alcotest.(check (list string)) "light client interleaves with the flood"
    [ "A1"; "B1"; "A2"; "B2"; "A3"; "A4"; "A5"; "A6" ]
    (completion_order h)

let test_priority_overrides_fifo () =
  let h = make_harness ~gated:(fun j -> j = "A") () in
  let _ = submit_ok h ~client:0 ~priority:0 "A" in
  wait_running h 1;
  let _ = submit_ok h ~client:0 ~priority:0 "x" in
  let _ = submit_ok h ~client:0 ~priority:0 "y" in
  let _ = submit_ok h ~client:0 ~priority:5 "z" in
  Atomic.set h.gate true;
  Service.shutdown h.svc;
  Alcotest.(check (list string)) "high priority jumps the same client's queue"
    [ "A"; "z"; "x"; "y" ]
    (completion_order h)

let test_crashed_run_still_completes () =
  let completions = ref [] in
  let mu = Mutex.create () in
  let svc =
    Service.create ~workers:1
      ~run:(fun h ->
        if Service.data h = "boom" then failwith "kaboom" else "done")
      ~cancelled:(fun _ -> "cancelled")
      ~crashed:(fun _ e -> "crashed: " ^ Printexc.to_string e)
      ~on_complete:(fun c ->
        Mutex.lock mu;
        completions := (Service.data c.Service.c_handle, c.Service.c_result) :: !completions;
        Mutex.unlock mu)
      ()
  in
  ignore (Service.submit svc ~client:0 ~priority:0 "boom");
  ignore (Service.submit svc ~client:0 ~priority:0 "fine");
  Service.shutdown svc;
  let l = List.rev !completions in
  Alcotest.(check int) "both jobs completed" 2 (List.length l);
  (match List.assoc_opt "boom" l with
  | Some r when String.length r >= 7 && String.sub r 0 7 = "crashed" -> ()
  | r -> Alcotest.failf "boom completion wrong: %s" (Option.value ~default:"missing" r));
  Alcotest.(check (option string)) "worker survived the crash" (Some "done")
    (List.assoc_opt "fine" l)

(* ------------------------------------------------------------------ *)
(* Driver-level cancellation                                           *)

let test_driver_cancel_flag () =
  let cancel = Atomic.make true in
  let job =
    Driver.job_of_builder ~pipeline:(Pipeline.default ~optimize:true) ~name:"fifo"
      Hir_kernels.Fifo.build
  in
  match Driver.compile_job ~cancel job with
  | Error e ->
    Alcotest.(check bool) "classified as cancelled" true
      (e.Driver.err_class = Driver.Cancelled)
  | Ok _ -> Alcotest.fail "a pre-cancelled job must not produce output"

(* ------------------------------------------------------------------ *)
(* Latency histogram                                                   *)

let test_histogram_percentiles () =
  let h = Metrics.Histogram.create () in
  (* 100 samples: 90 at ~1ms, 9 at ~10ms, 1 at ~100ms. *)
  for _ = 1 to 90 do Metrics.Histogram.record h 0.001 done;
  for _ = 1 to 9 do Metrics.Histogram.record h 0.010 done;
  Metrics.Histogram.record h 0.100;
  let s = Metrics.Histogram.summarize h in
  Alcotest.(check int) "count" 100 s.Metrics.Histogram.count;
  let close ~what ~actual v =
    (* Log buckets have ~30% resolution; accept a factor of 1.5. *)
    if actual < v /. 1.5 || actual > v *. 1.5 then
      Alcotest.failf "%s: %g not within 1.5x of %g" what actual v
  in
  close ~what:"p50" ~actual:s.Metrics.Histogram.p50 0.001;
  (* Rank 99 of 100 lands on the 10ms cohort; only max sees the outlier. *)
  close ~what:"p99" ~actual:s.Metrics.Histogram.p99 0.010;
  close ~what:"max" ~actual:s.Metrics.Histogram.max 0.100

(* ------------------------------------------------------------------ *)
(* Protocol codec                                                      *)

let test_json_roundtrip () =
  let j =
    Protocol.Json.Obj
      [
        ("op", Protocol.Json.Str "compile");
        ("id", Protocol.Json.Str "j\"1\"\n");
        ("priority", Protocol.Json.Num 3.);
        ("deadline", Protocol.Json.Num 0.25);
        ("verilog", Protocol.Json.Bool true);
        ("tags", Protocol.Json.Arr [ Protocol.Json.Null; Protocol.Json.Num 42. ]);
      ]
  in
  match Protocol.Json.parse (Protocol.Json.to_string j) with
  | Ok j' -> Alcotest.(check bool) "roundtrip" true (j = j')
  | Error e -> Alcotest.failf "reparse failed: %s" e

let test_request_parsing () =
  (match Protocol.request_of_line {|{"op":"compile","id":"a","kernel":"gemm","priority":2}|} with
  | Ok (Protocol.Compile r) ->
    Alcotest.(check string) "id" "a" r.Protocol.cr_id;
    Alcotest.(check (option string)) "kernel" (Some "gemm") r.Protocol.cr_kernel;
    Alcotest.(check int) "priority" 2 r.Protocol.cr_priority
  | Ok _ -> Alcotest.fail "wrong request kind"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Protocol.request_of_line {|{"op":"cancel","id":"a"}|} with
  | Ok (Protocol.Cancel "a") -> ()
  | _ -> Alcotest.fail "cancel frame");
  (match Protocol.request_of_line {|{"op":"compile","kernel":"gemm"}|} with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "compile without id must be rejected");
  match Protocol.request_of_line "not json at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage must not parse"

(* ------------------------------------------------------------------ *)
(* Protocol codec properties (qcheck)                                  *)

(* A generator restricted to values the printer reproduces exactly:
   integral and half-integral numbers (the %.0f / %.9g forms), strings
   over the full byte range (escapes, control bytes, raw high bytes),
   bounded nesting. *)
let json_gen =
  let open QCheck.Gen in
  let num =
    oneof
      [
        map float_of_int (int_range (-1_000_000) 1_000_000);
        map (fun n -> float_of_int n /. 2.) (int_range (-1_000_000) 1_000_000);
      ]
  in
  let any_string = string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 12) in
  let scalar =
    oneof
      [
        map (fun s -> Protocol.Json.Str s) any_string;
        map (fun f -> Protocol.Json.Num f) num;
        map (fun b -> Protocol.Json.Bool b) bool;
        return Protocol.Json.Null;
      ]
  in
  let rec value depth =
    if depth = 0 then scalar
    else
      frequency
        [
          (3, scalar);
          ( 1,
            map (fun l -> Protocol.Json.Arr l)
              (list_size (int_range 0 4) (value (depth - 1))) );
          ( 1,
            map (fun fields -> Protocol.Json.Obj fields)
              (list_size (int_range 0 4)
                 (pair any_string (value (depth - 1)))) );
        ]
  in
  value 3

let codec_roundtrip_prop =
  QCheck.Test.make ~count:2000 ~name:"line-JSON codec round-trips"
    (QCheck.make json_gen) (fun j ->
      match Protocol.Json.parse (Protocol.Json.to_string j) with
      | Ok j' -> j = j'
      | Error e -> QCheck.Test.fail_reportf "reparse failed: %s" e)

let test_json_depth_limit () =
  let rec nest n j = if n = 0 then j else Protocol.Json.Arr [ nest (n - 1) j ] in
  (* 64 nested arrays parse (the innermost value sits at the depth
     limit); 65 must be an error, not a stack overflow. *)
  (match Protocol.Json.parse (Protocol.Json.to_string (nest 64 Protocol.Json.Null)) with
  | Ok j -> Alcotest.(check bool) "64 deep round-trips" true (j = nest 64 Protocol.Json.Null)
  | Error e -> Alcotest.failf "64 deep must parse: %s" e);
  match Protocol.Json.parse (Protocol.Json.to_string (nest 65 Protocol.Json.Null)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "65 deep must exceed the depth limit"

let test_json_unicode_escapes () =
  let parse_str s =
    match Protocol.Json.parse (Printf.sprintf "{\"s\":\"%s\"}" s) with
    | Ok j -> Protocol.Json.field_str j "s"
    | Error _ -> None
  in
  Alcotest.(check (option string)) "ascii escape" (Some "A") (parse_str "\\u0041");
  Alcotest.(check (option string)) "2-byte UTF-8" (Some "\xc3\xa9") (parse_str "\\u00e9");
  Alcotest.(check (option string)) "3-byte UTF-8" (Some "\xe2\x82\xac") (parse_str "\\u20ac");
  Alcotest.(check (option string)) "bad hex is an error" None (parse_str "\\uZZZZ")

let test_poll_request_parsing () =
  (match Protocol.request_of_line {|{"op":"poll","client":"alice","id":"j1"}|} with
  | Ok (Protocol.Poll p) ->
    Alcotest.(check (option string)) "client" (Some "alice") p.Protocol.pl_client;
    Alcotest.(check (option string)) "id" (Some "j1") p.Protocol.pl_id
  | _ -> Alcotest.fail "poll frame must parse");
  match Protocol.request_of_line {|{"op":"poll"}|} with
  | Ok (Protocol.Poll { Protocol.pl_client = None; pl_id = None }) -> ()
  | _ -> Alcotest.fail "bare poll must parse with both fields absent"

let test_torn_frame_at_eof () =
  (* A peer that dies mid-frame: the reader must yield the complete
     frames and then None — never an exception, never the fragment. *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let whole = Protocol.Json.to_line (Protocol.Json.Obj [ ("op", Protocol.Json.Str "health") ]) in
  let torn = {|{"op":"compile","id":"tru|} in
  let data = Bytes.of_string (whole ^ torn) in
  ignore (Unix.write a data 0 (Bytes.length data));
  Unix.close a;
  let c = Protocol.Client.of_fd b in
  (match Protocol.Client.recv c with
  | Some j ->
    Alcotest.(check (option string)) "complete frame delivered" (Some "health")
      (Protocol.Json.field_str j "op")
  | None -> Alcotest.fail "complete frame lost");
  (match Protocol.Client.recv c with
  | None -> ()
  | Some j -> Alcotest.failf "torn frame surfaced: %s" (Protocol.Json.to_string j));
  Unix.close b

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)

let fresh_dir name =
  let d = Scratch.fresh_dir () ^ "-" ^ name in
  Hir_driver.Io.mkdir_p d;
  d

let mk_admit ?(client = "alice") id kernel =
  {
    Protocol.cr_id = id;
    cr_client = Some client;
    cr_kernel = Some kernel;
    cr_name = None;
    cr_source = None;
    cr_top = None;
    cr_passes = None;
    cr_priority = 1;
    cr_deadline = Some 2.5;
    cr_want_verilog = true;
  }

let append_ok j a =
  match Journal.append_admit j a with
  | Ok () -> ()
  | Error e -> Alcotest.failf "append failed: %s" e

let test_journal_roundtrip () =
  let dir = fresh_dir "journal" in
  let j = Journal.open_journal ~dir in
  append_ok j (mk_admit "j1" "fifo");
  append_ok j (mk_admit "j2" "transpose");
  append_ok j (mk_admit ~client:"bob" "j1" "gemm");
  (match Journal.append_done j ~client:"alice" ~id:"j1" ~status:"ok" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "mark failed: %s" e);
  Journal.close j;
  let r = Journal.replay ~dir in
  Alcotest.(check int) "records" 4 r.Journal.rr_records;
  Alcotest.(check int) "done marks" 1 r.Journal.rr_completed;
  Alcotest.(check int) "quarantined" 0 r.Journal.rr_quarantined;
  Alcotest.(check bool) "no torn tail" false r.Journal.rr_torn_tail;
  (* Pending = admitted minus done, in file order, all fields intact. *)
  match r.Journal.rr_pending with
  | [ a; b ] ->
    Alcotest.(check string) "first pending" "j2" a.Protocol.cr_id;
    Alcotest.(check (option string)) "kernel survives" (Some "transpose")
      a.Protocol.cr_kernel;
    Alcotest.(check int) "priority survives" 1 a.Protocol.cr_priority;
    Alcotest.(check (option (float 1e-9))) "deadline survives" (Some 2.5)
      a.Protocol.cr_deadline;
    Alcotest.(check bool) "verilog flag survives" true a.Protocol.cr_want_verilog;
    Alcotest.(check (option string)) "second pending is bob's" (Some "bob")
      b.Protocol.cr_client
  | l -> Alcotest.failf "expected 2 pending, got %d" (List.length l)

let test_journal_torn_tail_tolerated () =
  let dir = fresh_dir "journal-torn" in
  let j = Journal.open_journal ~dir in
  append_ok j (mk_admit "j1" "fifo");
  Journal.close j;
  (* Simulate a crash mid-append: a trailing fragment with no newline. *)
  let oc =
    open_out_gen [ Open_append; Open_binary ] 0o644 (Filename.concat dir "journal.log")
  in
  output_string oc "deadbeef {\"t\":\"admit\",\"client\":\"tr";
  close_out oc;
  let r = Journal.replay ~dir in
  Alcotest.(check bool) "torn tail detected" true r.Journal.rr_torn_tail;
  Alcotest.(check int) "complete record survives" 1 (List.length r.Journal.rr_pending);
  Alcotest.(check int) "nothing quarantined" 0 r.Journal.rr_quarantined

let test_journal_corruption_quarantined () =
  let dir = fresh_dir "journal-corrupt" in
  let j = Journal.open_journal ~dir in
  append_ok j (mk_admit "j1" "fifo");
  append_ok j (mk_admit "j2" "transpose");
  Journal.close j;
  (* Flip one payload byte of the first record: same length, bad CRC. *)
  let path = Filename.concat dir "journal.log" in
  let text =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let b = Bytes.of_string text in
  Bytes.set b 20 (if Bytes.get b 20 = 'x' then 'y' else 'x');
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc;
  let r = Journal.replay ~dir in
  Alcotest.(check int) "one record quarantined" 1 r.Journal.rr_quarantined;
  (match r.Journal.rr_pending with
  | [ a ] -> Alcotest.(check string) "undamaged record survives" "j2" a.Protocol.cr_id
  | l -> Alcotest.failf "expected 1 pending, got %d" (List.length l));
  (* Whole-line garbage is quarantined the same way, not fatal. *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "this is not a journal record at all\n";
  close_out oc;
  let r = Journal.replay ~dir in
  Alcotest.(check int) "garbage line quarantined too" 2 r.Journal.rr_quarantined

let test_journal_compact () =
  let dir = fresh_dir "journal-compact" in
  let j = Journal.open_journal ~dir in
  append_ok j (mk_admit "j1" "fifo");
  append_ok j (mk_admit "j2" "transpose");
  append_ok j (mk_admit "j3" "gemm");
  (match Journal.append_done j ~client:"alice" ~id:"j2" ~status:"cancelled" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "mark failed: %s" e);
  Journal.close j;
  (match Journal.compact ~dir () with
  | Ok kept -> Alcotest.(check int) "compaction keeps the pending set" 2 kept
  | Error e -> Alcotest.failf "compact failed: %s" e);
  let r = Journal.replay ~dir in
  Alcotest.(check int) "log now holds exactly the pending admits" 2
    r.Journal.rr_records;
  Alcotest.(check int) "no done marks left" 0 r.Journal.rr_completed;
  Alcotest.(check (list string)) "order preserved" [ "j1"; "j3" ]
    (List.map (fun a -> a.Protocol.cr_id) r.Journal.rr_pending)

let test_journal_append_fault () =
  let dir = fresh_dir "journal-fault" in
  let j = Journal.open_journal ~dir in
  Faults.with_config
    { Faults.rules = [ ("journal.append", Faults.Nth 1) ]; seed = 7 }
    (fun () ->
      (match Journal.append_admit j (mk_admit "j1" "fifo") with
      | Error _ -> ()  (* the faulted append reports, never raises *)
      | Ok () -> Alcotest.fail "first append must hit the injected fault");
      append_ok j (mk_admit "j2" "transpose"));
  Journal.close j;
  let r = Journal.replay ~dir in
  Alcotest.(check (list string)) "only the durable record replays" [ "j2" ]
    (List.map (fun a -> a.Protocol.cr_id) r.Journal.rr_pending);
  (* Replay faults quarantine records instead of raising. *)
  Faults.with_config
    { Faults.rules = [ ("journal.replay", Faults.Nth 1) ]; seed = 7 }
    (fun () ->
      let r = Journal.replay ~dir in
      Alcotest.(check int) "faulted record quarantined" 1 r.Journal.rr_quarantined;
      Alcotest.(check int) "nothing pending" 0 (List.length r.Journal.rr_pending))

(* The record format is fixed: the CRC is the IEEE 802.3 CRC-32, and
   lines an earlier build wrote, when the CRC was computed on [Int32]
   values, still replay.  The first CRC has its top bit set, the second
   a leading zero digit. *)
let test_journal_record_format () =
  Alcotest.(check int) "CRC-32 check value" 0xcbf43926 (Journal.crc32 "123456789");
  let dir = fresh_dir "journal-format" in
  let oc = open_out_bin (Filename.concat dir "journal.log") in
  List.iter (output_string oc)
    [
      "c9e2b6b3 {\"t\":\"admit\",\"client\":\"alice\",\"id\":\"j1\",\"digest\":\"d0\",\
       \"kernel\":\"fifo\",\"priority\":1,\"deadline\":2.5,\"verilog\":true}\n";
      "0e16d28e {\"t\":\"admit\",\"client\":\"alice\",\"id\":\"j3\",\"digest\":\"d0\",\
       \"kernel\":\"fifo\",\"priority\":1,\"deadline\":2.5,\"verilog\":true}\n";
      "dae117db {\"t\":\"done\",\"client\":\"alice\",\"id\":\"j1\",\"status\":\"ok\"}\n";
    ];
  close_out oc;
  let r = Journal.replay ~dir in
  Alcotest.(check int) "nothing quarantined" 0 r.Journal.rr_quarantined;
  Alcotest.(check int) "done marks" 1 r.Journal.rr_completed;
  Alcotest.(check (list string)) "the open admit is pending" [ "j3" ]
    (List.map (fun a -> a.Protocol.cr_id) r.Journal.rr_pending)

(* An admit line exactly as an earlier build wrote it, with the
   request digest it computed, replays with every field intact, and
   the digest recomputed from the replayed request is the one it
   wrote. *)
let test_journal_replays_earlier_admit () =
  let dir = fresh_dir "journal-earlier" in
  let oc = open_out_bin (Filename.concat dir "journal.log") in
  output_string oc
    "ec44d93b {\"t\":\"admit\",\"client\":\"alice\",\"id\":\"p1\",\
     \"digest\":\"c2a8b5b154b6dc6ce329782e80ff2362\",\"name\":\"edit.hir\",\
     \"source\":\"hir.func @f {\\n  \\\"q\\\"\\n}\\n\",\"top\":\"f\",\
     \"passes\":\"cse,unroll\",\"priority\":3,\"deadline\":1.5,\"verilog\":false}\n";
  close_out oc;
  let r = Journal.replay ~dir in
  Alcotest.(check int) "nothing quarantined" 0 r.Journal.rr_quarantined;
  match r.Journal.rr_pending with
  | [ req ] ->
    Alcotest.(check bool) "every field survives" true
      (req
      = {
          Protocol.cr_id = "p1";
          cr_client = Some "alice";
          cr_kernel = None;
          cr_name = Some "edit.hir";
          cr_source = Some "hir.func @f {\n  \"q\"\n}\n";
          cr_top = Some "f";
          cr_passes = Some "cse,unroll";
          cr_priority = 3;
          cr_deadline = Some 1.5;
          cr_want_verilog = false;
        });
    Alcotest.(check string) "the recomputed digest is the written one"
      "c2a8b5b154b6dc6ce329782e80ff2362" (Protocol.digest_of_request req)
  | l -> Alcotest.failf "expected 1 pending, got %d" (List.length l)

(* A compaction that cannot publish (a directory squats on the log
   path) reports the failure and leaves no temp file behind. *)
let test_journal_compact_failure_is_clean () =
  let dir = fresh_dir "journal-compact-fail" in
  let j = Journal.open_journal ~dir in
  append_ok j (mk_admit "j1" "fifo");
  Journal.close j;
  let r = Journal.replay ~dir in
  Sys.remove (Filename.concat dir "journal.log");
  Unix.mkdir (Filename.concat dir "journal.log") 0o755;
  (match Journal.compact ~result:r ~dir () with
  | Ok _ -> Alcotest.fail "compaction onto a squatted log path must fail"
  | Error _ -> ());
  Alcotest.(check (list string)) "no temp file left behind" [ "journal.log" ]
    (Array.to_list (Sys.readdir dir))

let test_request_digest_stability () =
  let digest ?(client = "alice") ?(id = "j1") kernel name =
    Protocol.digest_of_request
      { (mk_admit ~client id "unused") with Protocol.cr_kernel = kernel; cr_name = name }
  in
  let d1 = digest (Some "gemm") None in
  let d2 =
    Protocol.digest_of_request
      { (mk_admit ~client:"bob" "j9" "gemm") with Protocol.cr_priority = 7; cr_deadline = None }
  in
  let d3 = digest (Some "fifo") None in
  let d4 = digest None (Some "gemm") in
  Alcotest.(check string) "same request, same digest" d1 (digest (Some "gemm") None);
  Alcotest.(check string) "client, id, priority and deadline do not matter" d1 d2;
  Alcotest.(check bool) "kernel matters" true (d1 <> d3);
  Alcotest.(check bool) "field position matters" true (d1 <> d4)

(* ------------------------------------------------------------------ *)
(* Socket-level server tests                                           *)

let with_server ?(workers = 2) ?(max_depth = 16) ?(tweak = fun c -> c) f =
  let sock = Filename.concat (fresh_dir "serve") "s.sock" in
  let cfg =
    tweak
      {
        (Server.default_config ~listen:(Server.Unix_path sock) ()) with
        Server.cfg_workers = workers;
        cfg_max_depth = max_depth;
      }
  in
  let server = Domain.spawn (fun () -> Server.run cfg) in
  let rec wait n =
    if n = 0 then Alcotest.fail "server socket never appeared";
    if not (Sys.file_exists sock) then begin
      Unix.sleepf 0.02;
      wait (n - 1)
    end
  in
  wait 250;
  let finally () =
    (* Best-effort shutdown if the test didn't already. *)
    (try
       let c = Protocol.Client.connect_unix sock in
       Protocol.Client.send c (Protocol.Json.Obj [ ("op", Protocol.Json.Str "shutdown") ]);
       ignore (Protocol.Client.recv c);
       Protocol.Client.close c
     with _ -> ());
    Alcotest.(check int) "server exited cleanly" 0 (Domain.join server)
  in
  Fun.protect ~finally (fun () -> f sock)

let field = Protocol.Json.field_str

let test_server_compile_and_probes () =
  with_server (fun sock ->
      let c = Protocol.Client.connect_unix sock in
      Protocol.Client.send c
        (Protocol.Json.Obj
           [
             ("op", Protocol.Json.Str "compile");
             ("id", Protocol.Json.Str "j1");
             ("kernel", Protocol.Json.Str "transpose");
           ]);
      (match Protocol.Client.recv c with
      | Some j ->
        Alcotest.(check (option string)) "result for j1" (Some "j1") (field j "id");
        Alcotest.(check (option string)) "ok" (Some "ok") (field j "status")
      | None -> Alcotest.fail "no result");
      (* Bad input is a failed result, not a rejection or a hang. *)
      Protocol.Client.send c
        (Protocol.Json.Obj
           [
             ("op", Protocol.Json.Str "compile");
             ("id", Protocol.Json.Str "j2");
             ("name", Protocol.Json.Str "bad.hir");
             ("source", Protocol.Json.Str "func is not hir {");
           ]);
      (match Protocol.Client.recv c with
      | Some j ->
        Alcotest.(check (option string)) "failed" (Some "failed") (field j "status")
      | None -> Alcotest.fail "no result for bad source");
      Protocol.Client.send c (Protocol.Json.Obj [ ("op", Protocol.Json.Str "metrics") ]);
      (match Protocol.Client.recv c with
      | Some j -> (
        Alcotest.(check (option string)) "metrics event" (Some "metrics")
          (field j "event");
        match Protocol.Json.mem "jobs" j with
        | Some jobs ->
          Alcotest.(check (option int)) "two jobs submitted" (Some 2)
            (Protocol.Json.field_int jobs "submitted")
        | None -> Alcotest.fail "metrics lacks jobs")
      | None -> Alcotest.fail "no metrics");
      Protocol.Client.close c)

let test_server_survives_early_close () =
  with_server (fun sock ->
      (* The rude client: asks for multi-MB output, hangs up unread. *)
      let rude = Protocol.Client.connect_unix sock in
      Protocol.Client.send rude
        (Protocol.Json.Obj
           [
             ("op", Protocol.Json.Str "compile");
             ("id", Protocol.Json.Str "rude");
             ("kernel", Protocol.Json.Str "gemm");
             ("verilog", Protocol.Json.Bool true);
           ]);
      Unix.sleepf 1.0;
      Protocol.Client.close rude;
      (* A polite client must be unaffected. *)
      let c = Protocol.Client.connect_unix sock in
      Protocol.Client.send c
        (Protocol.Json.Obj
           [
             ("op", Protocol.Json.Str "compile");
             ("id", Protocol.Json.Str "ok1");
             ("kernel", Protocol.Json.Str "fifo");
           ]);
      (match Protocol.Client.recv c with
      | Some j ->
        Alcotest.(check (option string)) "server still serving" (Some "ok")
          (field j "status")
      | None -> Alcotest.fail "server died after client hangup");
      Protocol.Client.close c)

let test_server_disconnect_cancels_queued () =
  (* One worker and a burst of slow jobs from a client that vanishes:
     the disconnect must withdraw its queued jobs (freeing the queue)
     and the server must stay healthy.  Every admitted job still gets
     a completion internally — observable as a clean shutdown (the
     pool drains) rather than a hang. *)
  with_server ~workers:1 (fun sock ->
      let rude = Protocol.Client.connect_unix sock in
      for i = 1 to 6 do
        Protocol.Client.send rude
          (Protocol.Json.Obj
             [
               ("op", Protocol.Json.Str "compile");
               ("id", Protocol.Json.Str (Printf.sprintf "g%d" i));
               ("kernel", Protocol.Json.Str "gemm");
             ])
      done;
      Protocol.Client.close rude;
      let c = Protocol.Client.connect_unix sock in
      Protocol.Client.send c
        (Protocol.Json.Obj
           [
             ("op", Protocol.Json.Str "compile");
             ("id", Protocol.Json.Str "after");
             ("kernel", Protocol.Json.Str "fifo");
           ]);
      (match Protocol.Client.recv c with
      | Some j ->
        Alcotest.(check (option string)) "post-disconnect job ok" (Some "ok")
          (field j "status")
      | None -> Alcotest.fail "no result after disconnect");
      Protocol.Client.close c)

let send_compile ?client ?deadline c ~id ~kernel =
  Protocol.Client.send c
    (Protocol.Json.Obj
       ([ ("op", Protocol.Json.Str "compile"); ("id", Protocol.Json.Str id);
          ("kernel", Protocol.Json.Str kernel) ]
       @ (match client with
         | Some cl -> [ ("client", Protocol.Json.Str cl) ]
         | None -> [])
       @
       match deadline with
       | Some d -> [ ("deadline", Protocol.Json.Num d) ]
       | None -> []))

let send_poll ?client ?id c =
  Protocol.Client.send c
    (Protocol.Json.Obj
       ([ ("op", Protocol.Json.Str "poll") ]
       @ (match client with
         | Some cl -> [ ("client", Protocol.Json.Str cl) ]
         | None -> [])
       @ match id with Some i -> [ ("id", Protocol.Json.Str i) ] | None -> []))

let recv_or_fail c what =
  match Protocol.Client.recv c with
  | Some j -> j
  | None -> Alcotest.failf "server hung up while waiting for %s" what

let test_server_poll_and_idempotency () =
  with_server (fun sock ->
      let c = Protocol.Client.connect_unix sock in
      send_compile c ~client:"alice" ~id:"p1" ~kernel:"fifo";
      let r1 = recv_or_fail c "first result" in
      Alcotest.(check (option string)) "first compile ok" (Some "ok")
        (field r1 "status");
      (* Poll for the finished id: the retained result frame comes back. *)
      send_poll c ~client:"alice" ~id:"p1";
      let r2 = recv_or_fail c "poll result" in
      Alcotest.(check (option string)) "poll resends the result" (Some "result")
        (field r2 "event");
      Alcotest.(check (option string)) "same id" (Some "p1") (field r2 "id");
      (* Resubmitting the identical request is idempotent: the cached
         frame again, not duplicate-id, not a recompile. *)
      send_compile c ~client:"alice" ~id:"p1" ~kernel:"fifo";
      let r3 = recv_or_fail c "idempotent result" in
      Alcotest.(check (option string)) "idempotent resubmission answers" (Some "ok")
        (field r3 "status");
      (* Same id, *different* request: an id is a promise about content. *)
      send_compile c ~client:"alice" ~id:"p1" ~kernel:"transpose";
      let r4 = recv_or_fail c "conflicting resubmission" in
      Alcotest.(check (option string)) "conflicting digest rejected"
        (Some "duplicate-id") (field r4 "reason");
      (* Unknown ids are reported as such, not invented. *)
      send_poll c ~client:"alice" ~id:"ghost";
      let r5 = recv_or_fail c "poll unknown" in
      Alcotest.(check (option string)) "unknown id" (Some "unknown")
        (field r5 "state");
      (* A bare poll lists the client's jobs. *)
      send_poll c ~client:"alice";
      let r6 = recv_or_fail c "poll listing" in
      (match Protocol.Json.mem "jobs" r6 with
      | Some (Protocol.Json.Arr [ job ]) ->
        Alcotest.(check (option string)) "listing has p1" (Some "p1")
          (field job "id");
        Alcotest.(check (option string)) "listed as done" (Some "done")
          (field job "state")
      | _ -> Alcotest.failf "bad poll listing: %s" (Protocol.Json.to_string r6));
      (* The idempotency counter is visible in metrics. *)
      Protocol.Client.send c (Protocol.Json.Obj [ ("op", Protocol.Json.Str "metrics") ]);
      let m = recv_or_fail c "metrics" in
      (match Protocol.Json.mem "jobs" m with
      | Some jobs ->
        Alcotest.(check (option int)) "idempotent hit counted" (Some 1)
          (Protocol.Json.field_int jobs "idempotent")
      | None -> Alcotest.fail "metrics lacks jobs");
      Protocol.Client.close c)

let test_server_named_client_survives_disconnect () =
  with_server (fun sock ->
      (* A *named* client's job must survive its connection: that is
         the point of the name.  Submit a slow compile, vanish, then
         recover the result from a fresh connection via poll. *)
      let c1 = Protocol.Client.connect_unix sock in
      send_compile c1 ~client:"alice" ~id:"slow1" ~kernel:"gemm";
      Protocol.Client.close c1;
      let c2 = Protocol.Client.connect_unix sock in
      let deadline = Unix.gettimeofday () +. 60. in
      let rec await () =
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "slow1 never resolved after reconnect";
        send_poll c2 ~client:"alice" ~id:"slow1";
        let j = recv_or_fail c2 "poll" in
        match (field j "event", field j "state") with
        | Some "result", _ ->
          Alcotest.(check (option string)) "job finished, not cancelled" (Some "ok")
            (field j "status")
        | Some "poll", Some "pending" ->
          Unix.sleepf 0.05;
          await ()
        | Some "poll", Some "unknown" ->
          Alcotest.fail "named job vanished on disconnect"
        | _ -> await ()
      in
      await ();
      Protocol.Client.close c2)

let test_server_sigterm_drains () =
  (* The EINTR/drain regression: SIGTERM while the server sits in its
     idle select must not raise — it must drain and exit 0 (which
     with_server's finally asserts via Domain.join). *)
  with_server
    ~tweak:(fun cfg -> { cfg with Server.cfg_tick = 0.05 })
    (fun sock ->
      let c = Protocol.Client.connect_unix sock in
      send_compile c ~id:"pre" ~kernel:"fifo";
      ignore (recv_or_fail c "pre-SIGTERM result");
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      (* The server must notice, drain (nothing in flight) and exit;
         the socket file disappears on its way out. *)
      let rec wait n =
        if n = 0 then Alcotest.fail "server did not exit after SIGTERM";
        if Sys.file_exists sock then begin
          Unix.sleepf 0.05;
          wait (n - 1)
        end
      in
      wait 200;
      try Protocol.Client.close c with _ -> ())

let test_server_journal_replays_on_restart () =
  (* In-process end-to-end: journal a job on one server, shut it down
     with the done mark suppressed by a fault, restart on the same
     journal — the job must be re-run and its result pollable. *)
  let dir = fresh_dir "serve-journal" in
  Faults.with_config
    { Faults.rules = [ ("journal.mark", Faults.Prob 1.0) ]; seed = 3 }
    (fun () ->
      with_server
        ~tweak:(fun cfg -> { cfg with Server.cfg_journal = Some dir })
        (fun sock ->
          let c = Protocol.Client.connect_unix sock in
          send_compile c ~client:"alice" ~id:"r1" ~kernel:"fifo";
          ignore (recv_or_fail c "first run result");
          Protocol.Client.close c));
  (* Every done mark was faulted away: the admit replays as pending. *)
  let r = Journal.replay ~dir in
  Alcotest.(check int) "admit survived without its mark" 1
    (List.length r.Journal.rr_pending);
  with_server
    ~tweak:(fun cfg -> { cfg with Server.cfg_journal = Some dir; cfg_tick = 0.05 })
    (fun sock ->
      let c = Protocol.Client.connect_unix sock in
      let deadline = Unix.gettimeofday () +. 60. in
      let rec await () =
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "replayed job never resolved";
        send_poll c ~client:"alice" ~id:"r1";
        let j = recv_or_fail c "poll" in
        match (field j "event", field j "state") with
        | Some "result", _ ->
          Alcotest.(check (option string)) "replayed job completed" (Some "ok")
            (field j "status")
        | Some "poll", Some "pending" ->
          Unix.sleepf 0.05;
          await ()
        | Some "poll", Some "unknown" ->
          Alcotest.fail "replayed job lost"
        | _ -> await ()
      in
      await ();
      Protocol.Client.close c);
  let r = Journal.replay ~dir in
  Alcotest.(check int) "journal clean after the replay run" 0
    (List.length r.Journal.rr_pending)

(* A client connection whose reads and writes give up after [secs]
   with [Unix_error (EAGAIN, ...)] instead of blocking, so a server that
   never answers fails the test instead of hanging it. *)
let connect_with_deadline ?(secs = 20.) sock =
  let c = Protocol.Client.connect_unix sock in
  Unix.setsockopt_float c.Protocol.Client.fd Unix.SO_RCVTIMEO secs;
  Unix.setsockopt_float c.Protocol.Client.fd Unix.SO_SNDTIMEO secs;
  c

let health_line = Protocol.Json.to_line (Protocol.Json.Obj [ ("op", Protocol.Json.Str "health") ])

let test_server_frame_cap () =
  with_server (fun sock ->
      let other = connect_with_deadline sock in
      let big = connect_with_deadline sock in
      (match Protocol.Client.send_line big (String.make (Server.max_frame_bytes + 1) 'x') with
      | () -> ()
      | exception Unix.Unix_error (e, _, _) ->
        Alcotest.failf "oversized write failed: %s" (Unix.error_message e));
      Protocol.Client.send_line other health_line;
      Alcotest.(check (option string)) "other client still answered" (Some "health")
        (field (recv_or_fail other "health") "event");
      (match Protocol.Client.recv big with
      | Some j ->
        Alcotest.(check (option string)) "oversized frame gets an error frame" (Some "error")
          (field j "event")
      | None -> Alcotest.fail "oversized frame closed without an error frame"
      | exception Unix.Unix_error (e, _, _) ->
        Alcotest.failf "no answer to an oversized frame: %s" (Unix.error_message e));
      (match Protocol.Client.recv big with
      | None -> ()
      | Some j -> Alcotest.failf "still connected after the error: %s" (Protocol.Json.to_string j)
      | exception Unix.Unix_error (e, _, _) ->
        Alcotest.failf "no EOF after the error frame: %s" (Unix.error_message e));
      Protocol.Client.close big;
      Protocol.Client.close other)

let test_server_many_lines_one_write () =
  with_server (fun sock ->
      let c = connect_with_deadline sock in
      let n = 1000 in
      Protocol.Client.send_line c (String.concat "" (List.init n (fun _ -> health_line)));
      let last_uptime = ref 0. in
      for i = 1 to n do
        let j = recv_or_fail c (Printf.sprintf "health reply %d" i) in
        Alcotest.(check (option string)) "health reply" (Some "health") (field j "event");
        match Protocol.Json.mem "uptime_seconds" j with
        | Some (Protocol.Json.Num u) ->
          if u < !last_uptime then Alcotest.failf "reply %d answered out of order" i;
          last_uptime := u
        | _ -> Alcotest.fail "health reply lacks uptime_seconds"
      done;
      (* Exactly [n] replies: the next frame answers the next request. *)
      Protocol.Client.send c (Protocol.Json.Obj [ ("op", Protocol.Json.Str "metrics") ]);
      Alcotest.(check (option string)) "no extra replies" (Some "metrics")
        (field (recv_or_fail c "metrics") "event");
      Protocol.Client.close c)

(* ------------------------------------------------------------------ *)
(* Probe inventory and the server's Chrome trace                       *)

(* Every key path of the health and metrics frames: a rename or a
   dropped key fails here rather than in a dashboard or a bench. *)
let health_inventory =
  [ "event"; "status"; "uptime_seconds"; "workers"; "queue_depth"; "running"; "connections" ]

let metrics_inventory =
  let group g keys = List.map (fun k -> g ^ "." ^ k) keys in
  let hist = [ "count"; "mean_s"; "p50_s"; "p90_s"; "p99_s"; "max_s" ] in
  [ "event" ]
  @ group "jobs"
      [ "submitted"; "rejected"; "completed"; "ok"; "degraded"; "failed"; "cancelled";
        "idempotent"; "queue_depth"; "running"; "workers"; "spawn_failures" ]
  @ group "cache" [ "hits"; "misses"; "stores"; "corrupt"; "faults" ]
  @ group "journal" [ "appends"; "marks"; "faults"; "replayed"; "backlog" ]
  @ group "counters" [ "cache-hit"; "cache-miss" ]
  @ group "latency.queue" hist
  @ group "latency.total" hist

let json_path j path =
  List.fold_left
    (fun acc k -> Option.bind acc (Protocol.Json.mem k))
    (Some j) (String.split_on_char '.' path)

let probe c op =
  Protocol.Client.send c (Protocol.Json.Obj [ ("op", Protocol.Json.Str op) ]);
  recv_or_fail c op

(* One kernel compiled twice through a cached, journaled server: a miss,
   then a whole-job hit. *)
let test_server_probe_inventory () =
  let cache_dir = fresh_dir "serve-inventory-cache" in
  let journal_dir = fresh_dir "serve-inventory-journal" in
  with_server
    ~tweak:(fun cfg ->
      {
        cfg with
        Server.cfg_cache = Some (Hir_driver.Cache.create ~dir:cache_dir ());
        cfg_journal = Some journal_dir;
      })
    (fun sock ->
      let c = Protocol.Client.connect_unix sock in
      List.iter
        (fun id ->
          send_compile c ~id ~kernel:"transpose";
          Alcotest.(check (option string)) (id ^ " compiled") (Some "ok")
            (field (recv_or_fail c id) "status"))
        [ "miss"; "hit" ];
      let m = probe c "metrics" and h = probe c "health" in
      let present frame what path =
        if json_path frame path = None then Alcotest.failf "%s frame lacks %s" what path
      in
      List.iter (present h "health") health_inventory;
      List.iter (present m "metrics") metrics_inventory;
      List.iter
        (fun (path, v) ->
          match json_path m path with
          | Some (Protocol.Json.Num n) -> Alcotest.(check int) path v (int_of_float n)
          | _ -> Alcotest.failf "metrics %s is not a number" path)
        [
          ("jobs.submitted", 2); ("jobs.completed", 2); ("jobs.ok", 2);
          ("cache.hits", 1); ("cache.misses", 1); ("cache.stores", 1);
          ("journal.appends", 2); ("journal.marks", 2);
          ("counters.cache-hit", 1); ("counters.cache-miss", 1);
          ("latency.total.count", 2);
        ];
      (match Protocol.Json.mem "counters" m with
      | Some (Protocol.Json.Obj fields) ->
        Alcotest.(check bool) "per-pass counters aggregated" true
          (List.exists
             (fun (k, _) -> String.starts_with ~prefix:"pass:canonicalize/" k)
             fields)
      | _ -> Alcotest.fail "metrics counters is not an object");
      Protocol.Client.close c)

(* The lifetime trace a server writes at shutdown: one Chrome row per
   job, pass spans among them, and the summed cache counters. *)
let test_server_chrome_trace () =
  let dir = fresh_dir "serve-trace" in
  let path = Filename.concat dir "trace.json" in
  let kernels = [ "transpose"; "transpose"; "fifo" ] in
  with_server
    ~tweak:(fun cfg ->
      {
        cfg with
        Server.cfg_cache = Some (Hir_driver.Cache.create ~dir:(Filename.concat dir "cache") ());
        cfg_trace_path = Some path;
      })
    (fun sock ->
      let c = Protocol.Client.connect_unix sock in
      List.iteri
        (fun i kernel ->
          let id = Printf.sprintf "t%d" i in
          send_compile c ~id ~kernel;
          Alcotest.(check (option string)) (id ^ " compiled") (Some "ok")
            (field (recv_or_fail c id) "status"))
        kernels;
      Protocol.Client.close c);
  let events =
    match Protocol.Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Error e -> Alcotest.failf "trace does not parse: %s" e
    | Ok j -> (
      match Protocol.Json.mem "traceEvents" j with
      | Some (Protocol.Json.Arr events) -> events
      | _ -> Alcotest.fail "trace has no traceEvents array")
  in
  let phase ph = List.filter (fun e -> field e "ph" = Some ph) events in
  let spans = phase "X" in
  let tids =
    List.sort_uniq compare (List.filter_map (fun e -> Protocol.Json.field_num e "tid") spans)
  in
  Alcotest.(check int) "one row of spans per job" (List.length kernels) (List.length tids);
  Alcotest.(check bool) "pass spans present" true
    (List.exists
       (fun e ->
         match field e "name" with
         | Some n -> String.starts_with ~prefix:"pass:" n
         | None -> false)
       spans);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " counter event") true
        (List.exists (fun e -> field e "name" = Some name) (phase "C")))
    [ "cache-hit"; "cache-miss" ]

let () =
  Alcotest.run "serve"
  @@ Scratch.watch
    [
      ( "scheduler",
        [
          Alcotest.test_case "saturation returns overloaded" `Quick
            test_saturation_overloaded;
          Alcotest.test_case "cancel running frees the slot" `Quick
            test_cancel_running_frees_slot;
          Alcotest.test_case "cancel queued never runs" `Quick
            test_cancel_queued_never_runs;
          Alcotest.test_case "fair share prevents starvation" `Quick
            test_fair_share_prevents_starvation;
          Alcotest.test_case "priority overrides fifo" `Quick
            test_priority_overrides_fifo;
          Alcotest.test_case "crashed run still completes" `Quick
            test_crashed_run_still_completes;
        ] );
      ( "driver",
        [ Alcotest.test_case "cancel flag pre-set" `Quick test_driver_cancel_flag ] );
      ( "histogram",
        [ Alcotest.test_case "log-bucket percentiles" `Quick test_histogram_percentiles ]
      );
      ( "protocol",
        [
          Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "request parsing" `Quick test_request_parsing;
          QCheck_alcotest.to_alcotest codec_roundtrip_prop;
          Alcotest.test_case "depth limit boundary" `Quick test_json_depth_limit;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escapes;
          Alcotest.test_case "poll request parsing" `Quick test_poll_request_parsing;
          Alcotest.test_case "torn frame at eof" `Quick test_torn_frame_at_eof;
        ] );
      ( "journal",
        [
          Alcotest.test_case "append/replay roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "torn tail tolerated" `Quick
            test_journal_torn_tail_tolerated;
          Alcotest.test_case "corruption quarantined" `Quick
            test_journal_corruption_quarantined;
          Alcotest.test_case "compaction" `Quick test_journal_compact;
          Alcotest.test_case "compaction failure is clean" `Quick
            test_journal_compact_failure_is_clean;
          Alcotest.test_case "append/replay faults" `Quick test_journal_append_fault;
          Alcotest.test_case "record format" `Quick test_journal_record_format;
          Alcotest.test_case "replays an earlier admit" `Quick
            test_journal_replays_earlier_admit;
          Alcotest.test_case "request digest stability" `Quick
            test_request_digest_stability;
        ] );
      ( "server",
        [
          Alcotest.test_case "compile and probes" `Quick test_server_compile_and_probes;
          Alcotest.test_case "survives early close" `Quick
            test_server_survives_early_close;
          Alcotest.test_case "disconnect cancels queued" `Quick
            test_server_disconnect_cancels_queued;
          Alcotest.test_case "poll and idempotency" `Quick
            test_server_poll_and_idempotency;
          Alcotest.test_case "named client survives disconnect" `Quick
            test_server_named_client_survives_disconnect;
          Alcotest.test_case "sigterm drains cleanly" `Quick
            test_server_sigterm_drains;
          Alcotest.test_case "journal replays on restart" `Quick
            test_server_journal_replays_on_restart;
          Alcotest.test_case "oversized frame rejected" `Quick test_server_frame_cap;
          Alcotest.test_case "many lines in one write" `Quick
            test_server_many_lines_one_write;
          Alcotest.test_case "probe inventory" `Quick test_server_probe_inventory;
          Alcotest.test_case "chrome trace" `Quick test_server_chrome_trace;
        ] );
    ]
