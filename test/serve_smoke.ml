(* serve-smoke: end-to-end exercise of `hirc serve` as a real child
   process (the actual binary, so the process-wide SIGPIPE ignore is
   under test, not just the library).  Driven by `make serve-smoke`
   under timeout(1):

     1. start `hirc serve --socket …` and wait for the announce line's
        socket to appear;
     2. drive compile jobs (kernel hits and misses, an invalid kernel,
        a cancel of an unknown id) and a line-JSON health probe;
     3. the SIGPIPE regression: a second client requests the ~6 MB
        gemm Verilog — far larger than any socket buffer, so the
        server blocks mid-write — and hangs up without reading.
        Without the process-wide SIGPIPE ignore that write kills the
        server; with it, it is a per-connection EPIPE.  The first
        client then proves the server still answers.
     4. an HTTP GET /health probe on a raw connection;
     5. a shutdown frame; the server must exit 0 on its own.

   Usage: serve_smoke.exe /path/to/hirc.exe *)

module Protocol = Hir_driver.Protocol

let () = Sys.set_signal Sys.sigpipe Sys.Signal_ignore

(* The server's socket and cache; removed when the run passes, kept
   for inspection when it fails. *)
let tmp =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "hir-serve-smoke-%d" (Unix.getpid ()))

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("serve-smoke: FAIL: " ^ m);
      if Sys.file_exists tmp then prerr_endline ("serve-smoke: kept " ^ tmp);
      exit 1)
    fmt

let expect_field j name =
  match Protocol.Json.field_str j name with
  | Some v -> v
  | None -> fail "response lacks %S: %s" name (Protocol.Json.to_string j)

let recv_or_die c what =
  match Protocol.Client.recv c with
  | Some j -> j
  | None -> fail "server hung up while waiting for %s" what

let () =
  let hirc = if Array.length Sys.argv > 1 then Sys.argv.(1) else fail "usage: serve_smoke HIRC" in
  if not (Sys.file_exists tmp) then Unix.mkdir tmp 0o755;
  let sock = Filename.concat tmp "smoke.sock" in
  let cache_dir = Filename.concat tmp "cache" in
  if Sys.file_exists sock then Unix.unlink sock;
  let pid =
    Unix.create_process hirc
      [| hirc; "serve"; "--socket"; sock; "-j"; "2"; "--cache-dir"; cache_dir |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let rec wait_sock n =
    if n = 0 then fail "server socket never appeared";
    if not (Sys.file_exists sock) then begin
      Unix.sleepf 0.05;
      wait_sock (n - 1)
    end
  in
  wait_sock 200;

  (* 2: normal traffic on a long-lived connection. *)
  let c = Protocol.Client.connect_unix sock in
  Protocol.Client.send c (Protocol.Json.Obj [ ("op", Protocol.Json.Str "health") ]);
  let h = recv_or_die c "health" in
  if expect_field h "event" <> "health" || expect_field h "status" <> "ok" then
    fail "bad health response: %s" (Protocol.Json.to_string h);
  let compile id fields =
    Protocol.Client.send c
      (Protocol.Json.Obj
         ([ ("op", Protocol.Json.Str "compile"); ("id", Protocol.Json.Str id) ]
         @ fields))
  in
  compile "k1" [ ("kernel", Protocol.Json.Str "fifo") ];
  compile "k2" [ ("kernel", Protocol.Json.Str "transpose") ];
  compile "k3" [ ("kernel", Protocol.Json.Str "no-such-kernel") ];
  Protocol.Client.send c
    (Protocol.Json.Obj
       [ ("op", Protocol.Json.Str "cancel"); ("id", Protocol.Json.Str "ghost") ]);
  let seen = Hashtbl.create 8 in
  let rec pump need =
    if need > 0 then begin
      let j = recv_or_die c "job results" in
      (match (expect_field j "event", Protocol.Json.field_str j "id") with
      | "result", Some id ->
        Hashtbl.replace seen id (expect_field j "status")
      | "cancel", Some id -> Hashtbl.replace seen ("cancel:" ^ id) (expect_field j "state")
      | ev, _ -> fail "unexpected event %s" ev);
      pump (need - 1)
    end
  in
  pump 4;
  let check id expected =
    match Hashtbl.find_opt seen id with
    | Some st when st = expected -> ()
    | Some st -> fail "%s: expected %s, got %s" id expected st
    | None -> fail "%s: no response" id
  in
  check "k1" "ok";
  check "k2" "ok";
  check "k3" "failed";
  check "cancel:ghost" "unknown";

  (* 3: SIGPIPE regression — ask for the ~6 MB gemm Verilog, never
     read it, hang up while the server is blocked mid-write. *)
  let rude = Protocol.Client.connect_unix sock in
  Protocol.Client.send rude
    (Protocol.Json.Obj
       [
         ("op", Protocol.Json.Str "compile");
         ("id", Protocol.Json.Str "rude");
         ("kernel", Protocol.Json.Str "gemm");
         ("verilog", Protocol.Json.Bool true);
       ]);
  Unix.sleepf 1.5;  (* let the compile finish and the write block *)
  Protocol.Client.close rude;
  (* The server must still be alive and serving. *)
  compile "k4" [ ("kernel", Protocol.Json.Str "fifo") ];
  let j = recv_or_die c "post-hangup result" in
  if Protocol.Json.field_str j "id" <> Some "k4" || expect_field j "status" <> "ok" then
    fail "server unhealthy after client hangup: %s" (Protocol.Json.to_string j);

  (* 4: HTTP probe on a raw connection. *)
  let http = Protocol.Client.connect_unix sock in
  Protocol.Client.send_line http "GET /health HTTP/1.0\r\n";
  (match Protocol.Client.recv_line http with
  | Some line when String.length line >= 15 && String.sub line 0 15 = "HTTP/1.0 200 OK" -> ()
  | Some line -> fail "bad HTTP status line: %s" line
  | None -> fail "no HTTP response");
  Protocol.Client.close http;

  (* 5: clean shutdown. *)
  Protocol.Client.send c (Protocol.Json.Obj [ ("op", Protocol.Json.Str "shutdown") ]);
  let ack = recv_or_die c "shutdown ack" in
  if expect_field ack "event" <> "shutdown" then
    fail "bad shutdown ack: %s" (Protocol.Json.to_string ack);
  Protocol.Client.close c;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED n -> fail "server exited %d" n
  | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> fail "server killed by signal %d" n);
  Hir_driver.Io.remove_tree tmp;
  print_endline "serve-smoke: OK"
