(* Tests for the wire-protocol layer: codec round-trips, malformed
   frames, version negotiation, and a loopback client/server covering
   the serving semantics — per-session isolation, cooperative deadlines,
   admission backpressure, graceful shutdown. *)

module Protocol = Pb_net.Protocol
module Server = Pb_net.Server
module Client = Pb_net.Client

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* ---- codec ------------------------------------------------------------ *)

(* Feed raw bytes to the frame reader the way a socket would. *)
let read_frames_of_string s =
  let pos = ref 0 in
  let read_byte () =
    if !pos >= String.length s then None
    else begin
      let c = s.[!pos] in
      incr pos;
      Some c
    end
  in
  let read_exact n =
    if !pos + n > String.length s then None
    else begin
      let r = String.sub s !pos n in
      pos := !pos + n;
      Some r
    end
  in
  fun () -> Protocol.read_frame_gen ~read_byte ~read_exact

let frame_of_string s = read_frames_of_string s ()

(* A trace id is well-formed when a request header carrying it decodes. *)
let valid_trace_id id =
  match Protocol.decode_client_frame ("PB2 REQ trace=" ^ id ^ "\nx") with
  | Ok (Protocol.Req { Protocol.trace = Some t; _ }) -> t = id
  | Ok _ | Error _ -> false

let write_frame oc payload =
  output_string oc (Protocol.encode_frame payload);
  flush oc

let test_frame_roundtrip () =
  List.iter
    (fun payload ->
      let wire = Protocol.encode_frame payload in
      match frame_of_string wire with
      | Protocol.Frame p ->
          Alcotest.(check string) "payload survives" payload p
      | Protocol.Eof | Protocol.Bad _ -> Alcotest.fail "expected a frame")
    [ ""; "x"; "OK\nhello"; "binary \000\001\255 bytes"; "multi\nline\npayload";
      String.make 100_000 'z' ]

let test_frame_streaming () =
  (* several frames back to back parse in order *)
  let wire =
    Protocol.encode_frame "first" ^ Protocol.encode_frame ""
    ^ Protocol.encode_frame "third"
  in
  let next = read_frames_of_string wire in
  (match next () with
  | Protocol.Frame p -> Alcotest.(check string) "first" "first" p
  | _ -> Alcotest.fail "frame 1");
  (match next () with
  | Protocol.Frame p -> Alcotest.(check string) "second" "" p
  | _ -> Alcotest.fail "frame 2");
  (match next () with
  | Protocol.Frame p -> Alcotest.(check string) "third" "third" p
  | _ -> Alcotest.fail "frame 3");
  match next () with
  | Protocol.Eof -> ()
  | _ -> Alcotest.fail "expected EOF after last frame"

let expect_bad label wire =
  match frame_of_string wire with
  | Protocol.Bad _ -> ()
  | Protocol.Frame _ -> Alcotest.fail (label ^ ": accepted a bad frame")
  | Protocol.Eof -> Alcotest.fail (label ^ ": reported clean EOF")

let test_frame_malformed () =
  expect_bad "truncated payload" "10\nabc";
  expect_bad "truncated header" "12";
  expect_bad "empty header" "\npayload";
  expect_bad "junk header" "12x\npayload";
  expect_bad "negative-ish header" "-2\npayload";
  (* 9 digits always exceeds the 8-digit header bound *)
  expect_bad "huge header" "123456789\npayload";
  (* 8 digits but over max_frame *)
  expect_bad "oversized frame" "99999999\npayload";
  match frame_of_string "" with
  | Protocol.Eof -> ()
  | _ -> Alcotest.fail "empty stream should be clean EOF"

let test_request_codec () =
  List.iter
    (fun req ->
      match Protocol.decode_client_frame (Protocol.encode_request req) with
      | Ok (Protocol.Req r) ->
          Alcotest.(check string) "text" req.Protocol.text r.Protocol.text;
          Alcotest.(check bool) "deadline" true
            (r.Protocol.deadline = req.Protocol.deadline);
          Alcotest.(check bool) "trace" true
            (r.Protocol.trace = req.Protocol.trace)
      | Ok (Protocol.Hello _) -> Alcotest.fail "request decoded as hello"
      | Error e -> Alcotest.fail e)
    [
      { Protocol.text = "\\tables"; deadline = None; trace = None; data = false };
      {
        Protocol.text = "SELECT 1";
        deadline = Some 2.5;
        trace = None;
        data = false;
      };
      {
        Protocol.text = "line one\nline two";
        deadline = Some 0.125;
        trace = Some (String.make 32 'a');
        data = false;
      };
      { Protocol.text = ""; deadline = None; trace = None; data = false };
      {
        Protocol.text = "SELECT 1";
        deadline = None;
        trace = Some "0123456789abcdef0123456789abcdef";
        data = true;
      };
    ];
  (match Protocol.decode_client_frame "PB2 REQ -1\nx" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative deadline accepted");
  (match Protocol.decode_client_frame "PB2 REQ nan\nx" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nan deadline accepted");
  (* trace= and deadline accepted in either order *)
  (let tid = String.make 32 'c' in
   match
     Protocol.decode_client_frame
       (Printf.sprintf "PB2 REQ trace=%s 1.5\nSELECT 1" tid)
   with
  | Ok (Protocol.Req r) ->
      Alcotest.(check bool) "reordered deadline" true
        (r.Protocol.deadline = Some 1.5);
      Alcotest.(check bool) "reordered trace" true
        (r.Protocol.trace = Some tid)
  | Ok _ | Error _ -> Alcotest.fail "reordered header fields rejected");
  (match
     Protocol.decode_client_frame "PB2 REQ trace=SHOUTY-NOT-HEX\nSELECT 1"
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed trace id accepted");
  (match Protocol.decode_client_frame "PB2 REQ trace=abc\nSELECT 1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "short trace id accepted");
  (let tid = String.make 32 'd' in
   match
     Protocol.decode_client_frame
       (Printf.sprintf "PB2 REQ trace=%s trace=%s\nx" tid tid)
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate trace field accepted");
  (* fresh ids are valid and effectively unique *)
  let a = Protocol.fresh_trace_id () and b = Protocol.fresh_trace_id () in
  Alcotest.(check bool) "fresh id valid" true (valid_trace_id a);
  Alcotest.(check bool) "fresh ids differ" true (a <> b);
  (match Protocol.decode_client_frame "NOPE\nx" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad verb accepted");
  (* an unversioned v1 request header is recognized and named *)
  match Protocol.decode_client_frame "REQ 2.5\nSELECT 1" with
  | Error msg ->
      Alcotest.(check bool) "names the v1 protocol" true (contains msg "v1")
  | Ok _ -> Alcotest.fail "v1 request header accepted"

let test_hello_codec () =
  (match Protocol.decode_hello (Protocol.encode_hello Protocol.version) with
  | Ok v -> Alcotest.(check int) "version round-trips" Protocol.version v
  | Error e -> Alcotest.fail e);
  (match Protocol.decode_client_frame (Protocol.encode_hello 7) with
  | Ok (Protocol.Hello 7) -> ()
  | _ -> Alcotest.fail "hello frame did not decode");
  (match Protocol.decode_hello "PB2 HELLO seven" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-numeric version accepted");
  (* a v1 response header in place of a hello is named explicitly *)
  match Protocol.decode_hello "OK\nwhatever" with
  | Error msg ->
      Alcotest.(check bool) "names the v1 protocol" true (contains msg "v1")
  | Ok _ -> Alcotest.fail "v1 header accepted as hello"

let test_response_codec () =
  let cases : Protocol.response list =
    [
      { status = Protocol.Ok; body = "plain output" };
      { status = Protocol.Ok; body = "" };
      { status = Protocol.Ok; body = "multi\nline\noutput" };
      { status = Protocol.Busy; body = "server busy" };
      { status = Protocol.Deadline_exceeded; body = "too slow" };
      { status = Protocol.Cancelled; body = "token cancelled" };
      { status = Protocol.Bad_request; body = "what" };
      { status = Protocol.Shutting_down; body = "bye" };
      { status = Protocol.Internal; body = "boom" };
    ]
  in
  List.iter
    (fun resp ->
      match Protocol.decode_response (Protocol.encode_response resp) with
      | Ok r -> Alcotest.(check bool) "response round-trips" true (r = resp)
      | Error e -> Alcotest.fail e)
    cases;
  (match Protocol.decode_response "PB2 gremlins\nx" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown status code accepted");
  match Protocol.decode_response "ERR busy\nx" with
  | Error msg ->
      Alcotest.(check bool) "names the v1 protocol" true (contains msg "v1")
  | Ok _ -> Alcotest.fail "v1 response header accepted"

(* ---- loopback server -------------------------------------------------- *)

let make_db n =
  let db = Pb_sql.Database.create () in
  Pb_sql.Database.put db "recipes"
    (Pb_workload.Workload.recipes ~seed:11 ~n ());
  db

let test_config =
  { Server.default_config with port = 0 }

let paql_line =
  "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' SUCH THAT \
   COUNT(*) = 2 AND SUM(P.calories) <= 2600 MAXIMIZE SUM(P.protein)"

(* A query whose cost is dominated by an unindexed 3-way cross product:
   slow at any pool size, used to trigger deadlines and exercise drain. *)
let slow_sql = "SELECT COUNT(*) FROM recipes a, recipes b, recipes c"

let ok_or_fail (r : Protocol.response) =
  match r.Protocol.status with
  | Protocol.Ok -> r.Protocol.body
  | s ->
      Alcotest.fail
        (Printf.sprintf "unexpected status %s: %s" (Protocol.status_to_string s)
           r.Protocol.body)

(* ---- assembler vs blocking reader, property-checked ------------------- *)

(* Decode a whole byte string with the blocking reader: the frame list
   plus how the stream ended. *)
let blocking_decode s =
  let next = read_frames_of_string s in
  let rec go acc =
    match next () with
    | Protocol.Frame p -> go (p :: acc)
    | Protocol.Eof -> (List.rev acc, `End)
    | Protocol.Bad m -> (List.rev acc, `Bad m)
  in
  go []

(* Decode the same bytes through the assembler, fed in arbitrary slices.
   [`End] here means "awaiting more input", which at end-of-feed is the
   push-style reading of a clean EOF. *)
let assembler_decode slices =
  let asm = Pb_net.Assembler.create () in
  List.iter (fun sl -> Pb_net.Assembler.feed asm sl) slices;
  let rec go acc =
    match Pb_net.Assembler.next asm with
    | `Frame p -> go (p :: acc)
    | `Awaiting -> (List.rev acc, `End)
    | `Bad m -> (List.rev acc, `Bad m)
  in
  go []

(* Cut a string into slices at arbitrary positions derived from [cuts]. *)
let slices_of_cuts s cuts =
  let n = String.length s in
  let positions =
    List.sort_uniq compare
      (0 :: n :: List.map (fun c -> if n = 0 then 0 else c mod (n + 1)) cuts)
  in
  let rec pair = function
    | a :: (b :: _ as rest) -> String.sub s a (b - a) :: pair rest
    | _ -> []
  in
  pair positions

let frame_bytes payload =
  Printf.sprintf "%d\n%s" (String.length payload) payload

let qcheck_assembler_valid_stream =
  QCheck.Test.make ~count:300
    ~name:"assembler: any split of a valid stream = blocking reader"
    QCheck.(
      pair
        (small_list (string_of_size (QCheck.Gen.int_bound 50)))
        (small_list small_nat))
    (fun (payloads, cuts) ->
      let stream = String.concat "" (List.map frame_bytes payloads) in
      let expected = (payloads, `End) in
      blocking_decode stream = expected
      && assembler_decode (slices_of_cuts stream cuts) = expected)

let qcheck_assembler_malformed_stream =
  (* malformed at the header (bad digit, too many digits, empty line):
     the error is visible without end-of-stream, so the push and pull
     readers must agree on the frames before it AND on the message *)
  QCheck.Test.make ~count:300
    ~name:"assembler: malformed header = blocking reader, same message"
    QCheck.(
      quad
        (small_list (string_of_size (QCheck.Gen.int_bound 20)))
        (oneofl [ "x"; "12a"; "123456789"; "-1"; ""; ":"; "7 " ])
        (string_of_size (QCheck.Gen.int_bound 20))
        (small_list small_nat))
    (fun (payloads, bad_header, tail, cuts) ->
      let stream =
        String.concat "" (List.map frame_bytes payloads)
        ^ bad_header ^ "\n" ^ tail
      in
      let b = blocking_decode stream in
      let a = assembler_decode (slices_of_cuts stream cuts) in
      (match snd b with `Bad _ -> true | `End -> false) && a = b)

(* ---- event loop ------------------------------------------------------- *)

(* Pipelining backpressure regression: a client that writes many request
   frames in one burst must get every response, in order. The event loop
   drops read interest while a request is in flight, so the burst drains
   frame-by-frame — one admission per completion — instead of being
   slurped whole into the assembler. *)
let test_event_pipelined_burst () =
  Server.with_server ~config:test_config (make_db 40) (fun server ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd
            (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
          let ic = Unix.in_channel_of_descr fd in
          let framed payload =
            Printf.sprintf "%d\n%s" (String.length payload) payload
          in
          let write_all s =
            let n = String.length s in
            let rec wr off =
              if off < n then wr (off + Unix.write_substring fd s off (n - off))
            in
            wr 0
          in
          write_all (framed (Protocol.encode_hello Protocol.version));
          (match Protocol.read_frame ic with
          | Protocol.Frame p -> (
              match Protocol.decode_hello p with
              | Ok v -> Alcotest.(check int) "hello version" Protocol.version v
              | Error e -> Alcotest.fail ("bad hello: " ^ e))
          | _ -> Alcotest.fail "no hello frame");
          let reqs = 8 in
          let burst = Buffer.create 256 in
          for _ = 1 to reqs do
            Buffer.add_string burst
              (framed
                 (Protocol.encode_request
                    {
                      Protocol.text = "SELECT COUNT(*) FROM recipes";
                      deadline = None;
                      trace = None;
                      data = false;
                    }))
          done;
          (* the whole burst goes out before any response is read *)
          write_all (Buffer.contents burst);
          for i = 1 to reqs do
            match Protocol.read_frame ic with
            | Protocol.Frame p -> (
                match Protocol.decode_response p with
                | Ok r ->
                    Alcotest.(check bool)
                      (Printf.sprintf "response %d ok" i)
                      true
                      (r.Protocol.status = Protocol.Ok
                      && contains r.Protocol.body "40")
                | Error e -> Alcotest.fail ("bad response: " ^ e))
            | Protocol.Eof -> Alcotest.fail "server closed mid-burst"
            | Protocol.Bad m -> Alcotest.fail ("framing error: " ^ m)
          done))

(* ---- connect timeout --------------------------------------------------- *)

let test_connect_timeout () =
  (* a listener whose accept backlog is saturated never completes the
     client's handshake: without a timeout, connect blocks for the
     kernel's SYN-retry schedule (minutes) *)
  let srv = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close srv with _ -> ())
    (fun () ->
      Unix.bind srv (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      Unix.listen srv 1;
      let port =
        match Unix.getsockname srv with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> assert false
      in
      (* saturate the backlog with connections nobody accepts *)
      let fillers =
        List.filter_map
          (fun _ ->
            let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
            Unix.set_nonblock fd;
            match
              Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
            with
            | () -> Some fd
            | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> Some fd
            | exception _ ->
                (try Unix.close fd with _ -> ());
                None)
          (List.init 8 (fun i -> i))
      in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun fd -> try Unix.close fd with _ -> ()) fillers)
        (fun () ->
          Thread.delay 0.05;
          let t0 = Unix.gettimeofday () in
          (match Client.connect ~connect_timeout:0.4 ~port () with
          | c ->
              (* platform admitted it to the SYN queue anyway: only the
                 bounded-time property is observable *)
              Client.close c
          | exception Client.Net_error msg ->
              Alcotest.(check bool) "reports the timeout" true
                (contains msg "timed out")
          | exception Unix.Unix_error _ -> ());
          let elapsed = Unix.gettimeofday () -. t0 in
          Alcotest.(check bool)
            (Printf.sprintf "bounded: %.2fs" elapsed)
            true (elapsed < 5.0)))

let test_loopback_basic () =
  Server.with_server ~config:test_config (make_db 40) (fun server ->
      Client.with_connection ~port:(Server.port server) (fun c ->
          (* backslash command *)
          let tables = ok_or_fail (Client.request c "\\tables") in
          Alcotest.(check bool) "tables lists recipes" true
            (contains tables "recipes");
          (* SQL *)
          let count = ok_or_fail (Client.request c "SELECT COUNT(*) FROM recipes") in
          Alcotest.(check bool) "sql counts" true (contains count "40");
          (* PaQL *)
          let pkg = ok_or_fail (Client.request c paql_line) in
          Alcotest.(check bool) "package found" true
            (contains pkg "objective:");
          Alcotest.(check bool) "strategy reported" true
            (contains pkg "strategy:");
          (* errors come back in-band and leave the connection usable *)
          let bad = ok_or_fail (Client.request c "SELECT FROM") in
          Alcotest.(check bool) "sql error in-band" true (contains bad "error");
          let again = ok_or_fail (Client.request c "\\tables") in
          Alcotest.(check bool) "still usable" true (contains again "recipes")))

let test_loopback_session_isolation () =
  Server.with_server ~config:test_config (make_db 40) (fun server ->
      let port = Server.port server in
      Client.with_connection ~port (fun a ->
          Client.with_connection ~port (fun b ->
              (* A runs a PaQL query; B's session has no last package. *)
              ignore (ok_or_fail (Client.request a paql_line));
              let b_save = ok_or_fail (Client.request b "\\save stolen") in
              Alcotest.(check bool) "B cannot save A's package" true
                (contains b_save "nothing to save");
              let a_save = ok_or_fail (Client.request a "\\save mine") in
              Alcotest.(check bool) "A saves its own" true
                (contains a_save "pkg_mine");
              (* the DATA is shared: B sees the saved package table *)
              let b_pkgs = ok_or_fail (Client.request b "\\packages") in
              Alcotest.(check bool) "saved package is shared data" true
                (contains b_pkgs "mine"))))

let test_loopback_concurrent_clients () =
  Server.with_server ~config:test_config (make_db 40) (fun server ->
      let port = Server.port server in
      let failures = Atomic.make 0 in
      let worker i =
        Client.with_connection ~port (fun c ->
            for _ = 1 to 12 do
              (* interleave SQL and PaQL across clients *)
              let r =
                if i mod 2 = 0 then Client.request c "SELECT COUNT(*) FROM recipes"
                else Client.request c paql_line
              in
              if r.Protocol.status <> Protocol.Ok then Atomic.incr failures
              else
                let want = if i mod 2 = 0 then "40" else "objective:" in
                if not (contains r.Protocol.body want) then
                  Atomic.incr failures
            done)
      in
      let threads = List.init 4 (fun i -> Thread.create worker i) in
      List.iter Thread.join threads;
      Alcotest.(check int) "every concurrent request answered correctly" 0
        (Atomic.get failures))

let test_loopback_deadline () =
  Server.with_server ~config:test_config (make_db 100) (fun server ->
      Client.with_connection ~port:(Server.port server) (fun c ->
          let r = Client.request ~deadline:0.02 c slow_sql in
          (match r.Protocol.status with
          | Protocol.Deadline_exceeded ->
              Alcotest.(check bool) "mentions the deadline" true
                (contains r.Protocol.body "deadline")
          | Protocol.Ok -> Alcotest.fail "slow query beat a 20ms deadline"
          | s ->
              Alcotest.fail
                (Printf.sprintf "wrong status %s: %s"
                   (Protocol.status_to_string s) r.Protocol.body));
          (* the connection survives a deadline error *)
          let after = ok_or_fail (Client.request c "\\tables") in
          Alcotest.(check bool) "connection usable after deadline" true
            (contains after "recipes")))

let product_rows () =
  match
    List.assoc_opt "pb_sql_product_rows_total" (Pb_obs.Metrics.snapshot ())
  with
  | Some v -> v
  | None -> 0.0

(* Regression for the v1 watchdog leak: a request that overruns its
   deadline must STOP — observable as the row-production counter going
   quiet — and must free its connection slot, not keep a worker thread
   burning CPU behind the client's back. *)
let test_overrun_request_stops () =
  Server.with_server ~config:test_config (make_db 100) (fun server ->
      Client.with_connection ~port:(Server.port server) (fun c ->
          let r = Client.request ~deadline:0.05 c slow_sql in
          Alcotest.(check string) "deadline status" "deadline"
            (Protocol.status_to_string r.Protocol.status);
          (* once the response is out, the evaluation is dead: the
             planner's row counter stops moving *)
          let s1 = product_rows () in
          Thread.delay 0.15;
          let s2 = product_rows () in
          Alcotest.(check (float 0.0)) "no rows produced after cancel" s1 s2;
          (* the same connection answers a fresh request immediately *)
          let after = ok_or_fail (Client.request c "\\tables") in
          Alcotest.(check bool) "slot freed after cancel" true
            (contains after "recipes");
          let dump = ok_or_fail (Client.request c "\\metrics") in
          Alcotest.(check bool) "cancellation counted" true
            (contains dump "pb_net_cancelled_total")))

let test_loopback_busy () =
  let config = { test_config with max_connections = 2 } in
  Server.with_server ~config (make_db 20) (fun server ->
      let port = Server.port server in
      Client.with_connection ~port (fun a ->
          Client.with_connection ~port (fun b ->
              (* both admitted connections work *)
              ignore (ok_or_fail (Client.request a "\\tables"));
              ignore (ok_or_fail (Client.request b "\\tables"));
              (* the (max+1)-th is turned away during the handshake *)
              match Client.connect ~port () with
              | exception Client.Rejected (Protocol.Busy, msg) ->
                  Alcotest.(check bool) "says busy" true (contains msg "busy")
              | c ->
                  Client.close c;
                  Alcotest.fail "over-limit connection admitted"));
      (* both slots free again: a new client is admitted *)
      let rec retry n =
        match Client.connect ~port () with
        | exception Client.Rejected (Protocol.Busy, _) when n > 0 ->
            Thread.delay 0.05;
            retry (n - 1)
        | c ->
            Fun.protect
              ~finally:(fun () -> Client.close c)
              (fun () -> ok_or_fail (Client.request c "\\tables"))
      in
      Alcotest.(check bool) "slot freed after close" true
        (contains (retry 40) "recipes"))

(* Request-level backpressure: with one evaluation slot and no queue, a
   second in-flight request gets [busy] — and the connection that heard
   [busy] stays open and usable. *)
let test_admission_queue_busy () =
  let config = { test_config with max_inflight = 1; max_queue = 0 } in
  Server.with_server ~config (make_db 120) (fun server ->
      let port = Server.port server in
      Client.with_connection ~port (fun a ->
          Client.with_connection ~port (fun b ->
              let slow =
                Thread.create
                  (fun () -> ignore (Client.request ~deadline:0.6 a slow_sql))
                  ()
              in
              Thread.delay 0.15;
              let r = Client.request b "\\tables" in
              Alcotest.(check string) "queue-full rejection" "busy"
                (Protocol.status_to_string r.Protocol.status);
              Thread.join slow;
              (* the slot frees once the slow request is cancelled *)
              let rec retry n =
                let r = Client.request b "\\tables" in
                match r.Protocol.status with
                | Protocol.Ok -> r.Protocol.body
                | Protocol.Busy when n > 0 ->
                    Thread.delay 0.05;
                    retry (n - 1)
                | s ->
                    Alcotest.fail
                      (Protocol.status_to_string s ^ ": " ^ r.Protocol.body)
              in
              Alcotest.(check bool) "connection survives busy" true
                (contains (retry 40) "recipes"))))

(* Health under load, with one evaluation slot and no queue: while a slow
   request runs on A, \healthz on B (answered before admission) sees the
   slot taken and the server saturated; once A's answer is back the
   counters are zero again; and after a stop request, while a second
   slow request drains, /healthz says draining. *)
let test_health_under_load () =
  let config = { test_config with max_inflight = 1; max_queue = 0 } in
  Server.with_server ~config (make_db 120) (fun server ->
      let port = Server.port server in
      Client.with_connection ~port (fun a ->
          Client.with_connection ~port (fun b ->
              let health () = ok_or_fail (Client.request b "\\healthz") in
              let slow () =
                Thread.create
                  (fun () -> ignore (Client.request ~deadline:0.6 a slow_sql))
                  ()
              in
              (* wait for the slow request to take the slot *)
              let rec running n =
                let h = health () in
                if contains h "\"inflight\":1" || n = 0 then h
                else begin
                  Thread.delay 0.01;
                  running (n - 1)
                end
              in
              let th = slow () in
              let h = running 200 in
              Alcotest.(check bool) ("inflight 1: " ^ h) true
                (contains h "\"inflight\":1");
              Alcotest.(check bool) ("queued 0: " ^ h) true
                (contains h "\"queued\":0");
              Alcotest.(check bool) ("saturated: " ^ h) true
                (contains h "\"status\":\"saturated\"");
              Thread.join th;
              let h = health () in
              Alcotest.(check bool) ("inflight 0 after: " ^ h) true
                (contains h "\"inflight\":0");
              Alcotest.(check bool) ("ok after: " ^ h) true
                (contains h "\"status\":\"ok\"");
              let th = slow () in
              ignore (running 200);
              Server.request_stop server;
              (match Server.http_handler server "/healthz" with
              | Some { Pb_obs.Http.body; _ } ->
                  Alcotest.(check bool) ("draining: " ^ body) true
                    (contains body "\"status\":\"draining\"")
              | None -> Alcotest.fail "/healthz unmounted");
              Thread.join th)))

(* A v1 peer (unversioned REQ header, no hello) is answered with a
   [proto] error naming the mismatch, not line noise. *)
let test_server_names_v1_peer () =
  Server.with_server ~config:test_config (make_db 10) (fun server ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd
        (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          write_frame oc "REQ\n\\tables";
          match Protocol.read_frame ic with
          | Protocol.Frame payload -> (
              match Protocol.decode_response payload with
              | Ok r ->
                  Alcotest.(check string) "proto status" "proto"
                    (Protocol.status_to_string r.Protocol.status);
                  Alcotest.(check bool) "names the v1 protocol" true
                    (contains r.Protocol.body "v1")
              | Error e -> Alcotest.fail e)
          | _ -> Alcotest.fail "no response to the v1 request"))

(* The client refuses a server that answers the handshake with a
   different version. *)
let test_client_refuses_mismatch () =
  let listen = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen Unix.SO_REUSEADDR true;
  Unix.bind listen (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listen 1;
  let port =
    match Unix.getsockname listen with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> assert false
  in
  let srv =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept ~cloexec:true listen in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        ignore (Protocol.read_frame ic);
        (try write_frame oc (Protocol.encode_hello 99)
         with Sys_error _ -> ());
        ignore (Protocol.read_frame ic);
        close_out_noerr oc)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close listen with Unix.Unix_error _ -> ());
      Thread.join srv)
    (fun () ->
      match Client.connect ~port () with
      | exception Client.Net_error msg ->
          Alcotest.(check bool) "names the versions" true
            (contains msg "version")
      | c ->
          Client.close c;
          Alcotest.fail "connected across a version mismatch")

let test_shutdown_drains () =
  let db = make_db 70 in
  let server = Server.start ~config:test_config db in
  let port = Server.port server in
  let result = ref { Protocol.status = Protocol.Internal; body = "unset" } in
  let client_thread =
    Thread.create
      (fun () ->
        Client.with_connection ~port (fun c ->
            result := Client.request c slow_sql))
      ()
  in
  (* let the slow request reach the server, then shut down mid-flight *)
  Thread.delay 0.2;
  Server.shutdown server;
  Thread.join client_thread;
  (match !result with
  | { Protocol.status = Protocol.Ok; body } ->
      (* 70^3 product rows *)
      Alcotest.(check bool) "in-flight request completed during drain" true
        (contains body "343000")
  | { Protocol.status = s; body } ->
      Alcotest.fail
        (Printf.sprintf "drained request failed with %s: %s"
           (Protocol.status_to_string s) body));
  (* the listener is gone: connecting now fails *)
  match Client.connect ~port () with
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ()
  | exception _ -> ()
  | c ->
      (* accept backlog raced the close; the server must at least not
         serve the connection *)
      Client.close c;
      Alcotest.fail "server still accepting after shutdown"

let test_shutdown_idempotent () =
  let server = Server.start ~config:test_config (make_db 10) in
  Server.shutdown server;
  Server.shutdown server;
  (* and with_server's finally also tolerates an early explicit stop *)
  Server.with_server ~config:test_config (make_db 10) (fun s ->
      Server.shutdown s)

(* The event loop blocks until a descriptor is ready or the self-pipe
   is written: an idle server does not wake up at all. *)
let test_idle_server_sleeps () =
  let wakeups () =
    Option.value ~default:0.0
      (List.assoc_opt "pb_net_eventloop_wakeups_total" (Pb_obs.Metrics.snapshot ()))
  in
  Server.with_server ~config:test_config (make_db 10) (fun _ ->
      Thread.delay 0.05;
      let before = wakeups () in
      Thread.delay 0.2;
      Alcotest.(check (float 0.0)) "no wakeups while idle" before (wakeups ()))

(* With every server thread asleep in the kernel, SIGTERM must still
   reach the handler: the thread blocked in [join] takes it. The signal
   comes from another process, as in deployment; the watchdog's single
   long sleep runs no OCaml code meanwhile, so it cannot take it. *)
let test_sigterm_stops_idle_server () =
  let s = Server.start ~config:test_config (make_db 10) in
  let old_int = Sys.signal Sys.sigint Sys.Signal_default in
  let old_term = Sys.signal Sys.sigterm Sys.Signal_default in
  Server.install_signal_handlers s;
  ignore (Thread.create (fun () -> Thread.delay 5.0; Server.request_stop s) ());
  let killer =
    Unix.create_process "sh"
      [| "sh"; "-c"; Printf.sprintf "sleep 0.2; kill -TERM %d" (Unix.getpid ()) |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let t0 = Unix.gettimeofday () in
  Server.join s;
  let elapsed = Unix.gettimeofday () -. t0 in
  ignore (Unix.waitpid [] killer);
  Sys.set_signal Sys.sigint old_int;
  Sys.set_signal Sys.sigterm old_term;
  if elapsed > 2.0 then Alcotest.failf "SIGTERM took %.2f s to stop an idle server" elapsed

let test_metrics_exposed () =
  Server.with_server ~config:test_config (make_db 20) (fun server ->
      Client.with_connection ~port:(Server.port server) (fun c ->
          ignore (ok_or_fail (Client.request c "SELECT COUNT(*) FROM recipes"));
          let dump = ok_or_fail (Client.request c "\\metrics") in
          Alcotest.(check bool) "request counter exposed" true
            (contains dump "pb_net_requests_total");
          Alcotest.(check bool) "active connection gauge exposed" true
            (contains dump "pb_net_active_connections");
          Alcotest.(check bool) "inflight gauge exposed" true
            (contains dump "pb_net_inflight_requests");
          Alcotest.(check bool) "queue depth gauge exposed" true
            (contains dump "pb_net_queue_depth");
          Alcotest.(check bool) "cancellation counter exposed" true
            (contains dump "pb_net_cancelled_total");
          Alcotest.(check bool) "latency histogram exposed" true
            (contains dump "pb_net_sql_request_seconds")))

(* ---- tracing + exposition --------------------------------------------- *)

(* Tentpole leg 1: a client-generated trace id rides the wire-v2 header,
   the server adopts it as the root of the request's span tree, and the
   tree is retrievable under that exact id — over the wire (\traces) and
   over HTTP (/traces/<id>). *)
let test_trace_propagation () =
  (* the server restores the store's capacity from its config *)
  Pb_obs.Trace_store.set_capacity Pb_obs.Trace_store.default 0;
  Server.with_server ~config:test_config (make_db 40) (fun server ->
      Client.with_connection ~port:(Server.port server) (fun c ->
          let id = Protocol.fresh_trace_id () in
          ignore (ok_or_fail (Client.request ~trace:id c paql_line));
          (* \traces <id>: the retained tree is headed by OUR id *)
          let tree = ok_or_fail (Client.request c ("\\traces " ^ id)) in
          Alcotest.(check bool) "tree headed by the client's id" true
            (contains tree ("trace " ^ id));
          Alcotest.(check bool) "root request span present" true
            (contains tree "request");
          Alcotest.(check bool) "engine span nested inside" true
            (contains tree "engine.run");
          (* /traces/<id>: the JSON tree's root span id IS the trace id *)
          (match Server.http_handler server ("/traces/" ^ id) with
          | Some { Pb_obs.Http.code; content_type; body } ->
              Alcotest.(check int) "trace endpoint 200" 200 code;
              Alcotest.(check bool) "json content type" true
                (contains content_type "json");
              Alcotest.(check bool) "trace_id field" true
                (contains body (Printf.sprintf "\"trace_id\":%S" id));
              Alcotest.(check bool) "root span id substituted" true
                (contains body (Printf.sprintf "\"id\":%S" id))
          | None -> Alcotest.fail "traced request not retrievable over HTTP");
          (* unknown ids are a 404, not an empty tree *)
          match Server.http_handler server ("/traces/" ^ String.make 32 'f') with
          | None -> ()
          | Some _ -> Alcotest.fail "unknown trace id served"))

(* Backward compatibility within v2: a request with no trace= field is
   still traced, under a server-generated id. *)
let test_trace_server_generated_id () =
  Pb_obs.Trace_store.set_capacity Pb_obs.Trace_store.default 0;
  Server.with_server ~config:test_config (make_db 20) (fun server ->
      Client.with_connection ~port:(Server.port server) (fun c ->
          ignore (ok_or_fail (Client.request c "SELECT COUNT(*) FROM recipes"));
          let ids = Pb_obs.Trace_store.ids Pb_obs.Trace_store.default in
          Alcotest.(check bool) "untraced request was retained" true
            (List.length ids >= 1);
          let gen = List.hd ids in
          Alcotest.(check bool) "server-generated id is well-formed" true
            (valid_trace_id gen);
          let shown = ok_or_fail (Client.request c ("\\traces " ^ gen)) in
          Alcotest.(check bool) "retrievable under the generated id" true
            (contains shown ("trace " ^ gen));
          (* and \traces with no argument lists it *)
          let listing = ok_or_fail (Client.request c "\\traces") in
          Alcotest.(check bool) "listing includes the id" true
            (contains listing gen)))

(* trace_capacity = 0 is the documented zero-overhead baseline: nothing
   is retained and \traces says so. *)
let test_trace_disabled () =
  Pb_obs.Trace_store.set_capacity Pb_obs.Trace_store.default 0;
  let config = { test_config with trace_capacity = 0 } in
  Server.with_server ~config (make_db 20) (fun server ->
      Client.with_connection ~port:(Server.port server) (fun c ->
          let id = Protocol.fresh_trace_id () in
          ignore (ok_or_fail (Client.request ~trace:id c "\\tables"));
          Alcotest.(check int) "nothing retained" 0
            (List.length (Pb_obs.Trace_store.ids Pb_obs.Trace_store.default));
          let shown = ok_or_fail (Client.request c ("\\traces " ^ id)) in
          Alcotest.(check bool) "\\traces reports no such trace" true
            (contains shown "no retained trace")))

let gauge name =
  match List.assoc_opt name (Pb_obs.Metrics.snapshot ()) with
  | Some v -> v
  | None -> Alcotest.fail (name ^ " not in metrics snapshot")

let wait_gauges_zero () =
  let rec go n =
    if gauge "pb_net_inflight_requests" = 0.0
       && gauge "pb_net_queue_depth" = 0.0
    then ()
    else if n = 0 then
      Alcotest.fail
        (Printf.sprintf "gauges stuck: inflight=%g queue=%g"
           (gauge "pb_net_inflight_requests")
           (gauge "pb_net_queue_depth"))
    else begin
      Thread.delay 0.05;
      go (n - 1)
    end
  in
  go 60

(* Regression: the admission gauges must return to zero when a handler
   raises (the \panic crash lever) — the release sits in a Fun.protect,
   not on the happy path. *)
let test_gauges_zero_after_handler_raise () =
  Server.with_server ~config:test_config (make_db 20) (fun server ->
      Client.with_connection ~port:(Server.port server) (fun c ->
          let r = Client.request c "\\panic boom" in
          Alcotest.(check string) "handler raise surfaces as internal"
            "internal"
            (Protocol.status_to_string r.Protocol.status);
          Alcotest.(check bool) "message carried" true
            (contains r.Protocol.body "boom");
          wait_gauges_zero ();
          (* the connection survives the crash *)
          let after = ok_or_fail (Client.request c "\\tables") in
          Alcotest.(check bool) "connection usable after raise" true
            (contains after "recipes")))

(* Regression: a client vanishing mid-request must not leak its
   admission slot — the response write fails, but the gauges drain. *)
let test_gauges_zero_after_disconnect () =
  Server.with_server ~config:test_config (make_db 60) (fun server ->
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.connect fd
        (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
      let oc = Unix.out_channel_of_descr fd in
      let ic = Unix.in_channel_of_descr fd in
      write_frame oc (Protocol.encode_hello Protocol.version);
      (match Protocol.read_frame ic with
      | Protocol.Frame _ -> ()
      | _ -> Alcotest.fail "no hello reply");
      write_frame oc
        (Protocol.encode_request
           {
             Protocol.text = slow_sql;
             deadline = Some 0.3;
             trace = None;
             data = false;
           });
      (* hang up while the request is evaluating *)
      Thread.delay 0.05;
      close_out_noerr oc;
      wait_gauges_zero ();
      (* and the server still serves new clients *)
      Client.with_connection ~port:(Server.port server) (fun c ->
          Alcotest.(check bool) "server healthy after disconnect" true
            (contains (ok_or_fail (Client.request c "\\tables")) "recipes")))

(* The HTTP endpoints the standalone exposition server mounts. *)
let test_http_handler_endpoints () =
  Server.with_server ~config:test_config (make_db 20) (fun server ->
      Client.with_connection ~port:(Server.port server) (fun c ->
          ignore (ok_or_fail (Client.request c "SELECT COUNT(*) FROM recipes")));
      (match Server.http_handler server "/metrics" with
      | Some { Pb_obs.Http.code; content_type; body } ->
          Alcotest.(check int) "metrics 200" 200 code;
          Alcotest.(check bool) "prometheus content type" true
            (contains content_type "text/plain; version=0.0.4");
          Alcotest.(check bool) "exposition has TYPE lines" true
            (contains body "# TYPE pb_net_requests_total counter");
          Alcotest.(check bool) "request counter sampled" true
            (contains body "pb_net_requests_total")
      | None -> Alcotest.fail "/metrics unmounted");
      (match Server.http_handler server "/healthz" with
      | Some { Pb_obs.Http.code; content_type; body } ->
          Alcotest.(check int) "healthz 200" 200 code;
          Alcotest.(check bool) "json content type" true
            (contains content_type "application/json");
          Alcotest.(check bool) "reports ok" true
            (contains body "\"status\":\"ok\"");
          Alcotest.(check bool) "reports limits" true
            (contains body "\"max_inflight\"")
      | None -> Alcotest.fail "/healthz unmounted");
      (match Server.http_handler server "/traces" with
      | Some { Pb_obs.Http.body; _ } ->
          Alcotest.(check bool) "trace index is json" true
            (contains body "\"traces\":[")
      | None -> Alcotest.fail "/traces unmounted");
      match Server.http_handler server "/nope" with
      | None -> ()
      | Some _ -> Alcotest.fail "unknown path served")

let suite =
  [
    Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
    Alcotest.test_case "frame streaming" `Quick test_frame_streaming;
    Alcotest.test_case "malformed frames" `Quick test_frame_malformed;
    Alcotest.test_case "request codec" `Quick test_request_codec;
    Alcotest.test_case "hello codec" `Quick test_hello_codec;
    Alcotest.test_case "response codec" `Quick test_response_codec;
    Alcotest.test_case "loopback PaQL/SQL/commands" `Quick test_loopback_basic;
    Alcotest.test_case "per-session isolation" `Quick
      test_loopback_session_isolation;
    Alcotest.test_case "concurrent clients" `Quick
      test_loopback_concurrent_clients;
    Alcotest.test_case "deadline exceeded, connection survives" `Quick
      test_loopback_deadline;
    Alcotest.test_case "overrun request stops consuming (leak regression)"
      `Quick test_overrun_request_stops;
    Alcotest.test_case "max-connections busy rejection" `Quick
      test_loopback_busy;
    Alcotest.test_case "admission queue backpressure" `Quick
      test_admission_queue_busy;
    Alcotest.test_case "server names a v1 peer" `Quick
      test_server_names_v1_peer;
    Alcotest.test_case "client refuses version mismatch" `Quick
      test_client_refuses_mismatch;
    Alcotest.test_case "shutdown drains in-flight requests" `Quick
      test_shutdown_drains;
    Alcotest.test_case "shutdown is idempotent" `Quick test_shutdown_idempotent;
    Alcotest.test_case "net metrics exposed" `Quick test_metrics_exposed;
    Alcotest.test_case "trace id propagates client -> server -> tree" `Quick
      test_trace_propagation;
    Alcotest.test_case "untraced request gets a server-generated id" `Quick
      test_trace_server_generated_id;
    Alcotest.test_case "trace capacity 0 disables retention" `Quick
      test_trace_disabled;
    Alcotest.test_case "gauges return to zero after handler raise" `Quick
      test_gauges_zero_after_handler_raise;
    Alcotest.test_case "gauges return to zero after mid-request disconnect"
      `Quick test_gauges_zero_after_disconnect;
    Alcotest.test_case "http handler endpoints" `Quick
      test_http_handler_endpoints;
    Alcotest.test_case "healthz under load: saturated, ok, draining" `Quick
      test_health_under_load;
    Alcotest.test_case "event loop serves a pipelined burst" `Quick
      test_event_pipelined_burst;
    Alcotest.test_case "connect timeout is bounded" `Quick test_connect_timeout;
    QCheck_alcotest.to_alcotest qcheck_assembler_valid_stream;
    QCheck_alcotest.to_alcotest qcheck_assembler_malformed_stream;
    Alcotest.test_case "idle server does not wake up" `Quick test_idle_server_sleeps;
    Alcotest.test_case "SIGTERM stops an idle server" `Quick test_sigterm_stops_idle_server;
  ]
