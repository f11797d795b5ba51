module Repl = Pb_shell.Repl
module Metrics = Pb_obs.Metrics
module Slow_log = Pb_obs.Slow_log
module Trace = Pb_obs.Trace
module Trace_store = Pb_obs.Trace_store
module Progress = Pb_obs.Progress
module Http = Pb_obs.Http
module Gov = Pb_util.Gov

type config = {
  host : string;
  port : int;
  max_connections : int;
  max_inflight : int;
  max_queue : int;
  default_deadline : float option;
  plan_cache_capacity : int;
  trace_capacity : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7878;
    max_connections = 64;
    max_inflight = 64;
    max_queue = 128;
    default_deadline = None;
    plan_cache_capacity = 128;
    trace_capacity = 256;
  }

type session_handler = gov:Gov.t -> string -> Repl.reaction

(* ---- serving state ---------------------------------------------------- *)

(* One event-loop thread multiplexes every connection over a Poller:
   per-connection read bytes feed an incremental Assembler, complete
   requests go to a bounded job queue executed by [max_inflight] worker
   threads, and responses come back through a completion queue drained
   when a worker tickles the self-pipe. An idle connection costs its
   buffers — no thread, no stack.

   Admission is two-stage and bounded: at most [max_inflight] requests
   evaluate at once and up to [max_queue] more wait in the job queue;
   past that a request is answered [busy] at once (backpressure, not
   unbounded buffering). [executing] and the queue's length, both
   guarded by [jobs_mu], are the only admission counters: the gauges
   and health_json read them.

   Invariants:
   - only the event-loop thread touches fds, the poller, the conn table
     and conn mutable state (workers see a conn only as an opaque handle
     carried through the queues; they read nothing from it);
   - at most one request per connection is queued or executing
     ([c_busy]); while busy the connection's read interest is dropped,
     so pipelined frames wait in the assembler or the kernel socket
     buffer;
   - write interest is registered exactly while the write buffer is
     nonempty; a connection closes only with an empty buffer (or on
     error), so responses are never truncated by a local close. *)
type conn = {
  c_fd : Unix.file_descr;
  c_asm : Assembler.t;
  c_wbuf : Buffer.t;
  mutable c_woff : int;  (* bytes of c_wbuf already written *)
  mutable c_busy : bool;
  mutable c_close_after_flush : bool;
  mutable c_closed : bool;
  c_counted : bool;  (* admitted (vs a reject still flushing) *)
  c_session : session_handler Lazy.t;
  (* interest bits currently registered with the poller *)
  mutable c_reg_read : bool;
  mutable c_reg_write : bool;
  (* interest bits wanted now *)
  mutable c_want_read : bool;
}

type t = {
  config : config;  (* limits clamped: max_inflight >= 1, max_queue >= 0 *)
  db : Pb_sql.Database.t;
  (* One prepared-plan cache for the whole server: sessions are per
     connection, but the cache (and the memos inside it) is thread-safe,
     so every connection benefits from statements any of them prepared. *)
  plan_cache : Pb_sql.Plan_cache.t;
  session_factory : t -> session_handler;
  listen : Unix.file_descr;
  bound_port : int;
  stop : bool Atomic.t;
  active : int Atomic.t;  (* admitted connections *)
  (* event-loop thread only *)
  poller : Poller.t;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  scratch : Bytes.t;
  (* the admission queue, shared with the workers under jobs_mu *)
  jobs : (conn * Protocol.request) Queue.t;
  mutable executing : int;
  jobs_mu : Mutex.t;
  jobs_nonempty : Condition.t;
  mutable workers_stop : bool;
  completions : (conn * Protocol.response * bool) Queue.t;
  comp_mu : Mutex.t;
  mutable serve_thread : Thread.t option;
  (* the event loop closes [ended_w] as it ends; [join] reads [ended_r] *)
  ended_r : Unix.file_descr;
  ended_w : Unix.file_descr;
  finish_mu : Mutex.t;
  mutable finished : bool;
}

(* ---- metrics --------------------------------------------------------- *)

let latency_buckets =
  [ 0.0005; 0.001; 0.005; 0.01; 0.05; 0.1; 0.5; 1.0; 5.0 ]

let m_requests =
  Metrics.counter ~help:"requests received over the wire"
    "pb_net_requests_total"

let m_connections =
  Metrics.counter ~help:"connections admitted" "pb_net_connections_total"

let m_busy =
  Metrics.counter
    ~help:"requests or connections rejected with busy (admission queue or \
           connection limit full)"
    "pb_net_busy_rejections_total"

let m_cancelled =
  Metrics.counter
    ~help:"requests whose governance token was cancelled (deadline included)"
    "pb_net_cancelled_total"

let m_deadline =
  Metrics.counter ~help:"requests aborted past their deadline"
    "pb_net_deadline_exceeded_total"

let m_errors =
  Metrics.counter ~help:"protocol or internal request errors"
    "pb_net_errors_total"

let m_active =
  Metrics.gauge ~help:"currently admitted connections"
    "pb_net_active_connections"

let m_open =
  Metrics.gauge
    ~help:"connections registered with the event loop (admitted plus \
           rejects still flushing)"
    "pb_net_open_connections"

let m_wakeups =
  Metrics.counter ~help:"event-loop readiness wakeups"
    "pb_net_eventloop_wakeups_total"

let m_inflight =
  Metrics.gauge ~help:"requests currently evaluating"
    "pb_net_inflight_requests"

let m_queue_depth =
  Metrics.gauge ~help:"requests parked in the admission queue"
    "pb_net_queue_depth"

let m_paql_seconds =
  Metrics.histogram ~help:"wall time of PaQL requests"
    ~buckets:latency_buckets "pb_net_paql_request_seconds"

let m_sql_seconds =
  Metrics.histogram ~help:"wall time of SQL requests"
    ~buckets:latency_buckets "pb_net_sql_request_seconds"

let m_command_seconds =
  Metrics.histogram ~help:"wall time of backslash-command requests"
    ~buckets:latency_buckets "pb_net_command_request_seconds"

(* Same dispatch heuristic as the REPL, reduced to metrics granularity:
   backslash commands, PaQL (mentions the PACKAGE keyword), else SQL. *)
let latency_histogram text =
  let trimmed = String.trim text in
  if trimmed = "" || trimmed.[0] = '\\' then m_command_seconds
  else
    let upper = String.uppercase_ascii trimmed in
    let has_package =
      let kw = "PACKAGE" and n = String.length upper in
      let k = String.length kw in
      let rec scan i = i + k <= n && (String.sub upper i k = kw || scan (i + 1)) in
      scan 0
    in
    if has_package then m_paql_seconds else m_sql_seconds

let set_active_gauge t = Metrics.set m_active (float_of_int (Atomic.get t.active))

let set_open_gauge t = Metrics.set m_open (float_of_int (Hashtbl.length t.conns))

(* call with jobs_mu held, at every queue/executing transition *)
let job_gauges t =
  Metrics.set m_inflight (float_of_int t.executing);
  Metrics.set m_queue_depth (float_of_int (Queue.length t.jobs))

let busy_text t =
  Printf.sprintf
    "server busy: %d requests in flight and %d queued; retry later"
    t.config.max_inflight t.config.max_queue

(* ---- request handling ------------------------------------------------- *)

(* Deadlines are enforced cooperatively: each request evaluates under a
   fresh governance token carrying the deadline. Every engine and SQL
   loop polls the token, so an overrun request stops within a few
   hundred loop iterations of the deadline — it is cancelled, not
   abandoned: no worker thread keeps burning CPU behind the client's
   back (the v1 watchdog did exactly that), and the slot frees as soon
   as the cancelled evaluation returns its best incumbent. *)

(* Data mode: one SQL statement, executed straight against the shared
   database (no REPL session, no rendering) with the result encoded for
   the shard router. Uses the shared plan cache, so a router fanning
   the same rewritten statement out repeatedly hits prepared plans. *)
let run_data t ~gov text =
  let reaction output = Stdlib.Ok { Repl.output; quit = false } in
  match
    Pb_sql.Plan_cache.lookup t.plan_cache t.db
      ~parse:Pb_sql.Parser.parse_script text
  with
  | exception Pb_sql.Parser.Parse_error msg ->
      reaction (Wire_data.encode_error ~kind:"parse" msg)
  | statements, memo -> (
      match
        List.fold_left
          (fun _ stmt -> Some (Pb_sql.Executor.execute ~memo ~gov t.db stmt))
          None statements
      with
      | None -> reaction (Wire_data.encode_error ~kind:"parse" "empty statement")
      | Some result -> reaction (Wire_data.encode_result result)
      | exception Pb_sql.Executor.Eval_error msg ->
          reaction (Wire_data.encode_error ~kind:"eval" msg)
      | exception Failure msg -> reaction (Wire_data.encode_error ~kind:"eval" msg)
      | exception Gov.Interrupted _ ->
          (* the fate latched on the token downgrades the status below *)
          reaction ""
      | exception e -> Stdlib.Error e)

(* Returns (response, close_connection_after). *)
let handle_request t (session : session_handler) (req : Protocol.request) =
  Metrics.incr m_requests;
  let deadline =
    match req.Protocol.deadline with
    | Some _ as d -> d
    | None -> t.config.default_deadline
  in
  let gov = Gov.create ?deadline_in:deadline () in
  let start = Unix.gettimeofday () in
  (* Tracing: adopt the client's trace id (or mint one) as the root of
     this request's span tree, and record solver incumbents under the
     governance token's family so progress events survive the hop onto
     pool worker domains. Both are skipped entirely when the store is
     disabled ([trace_capacity = 0]) — evaluation then runs without any
     context and span creation stays on its two-atomic-load fast path. *)
  let tracing = t.config.trace_capacity > 0 in
  let trace_id =
    match req.Protocol.trace with
    | Some id -> id
    | None -> Protocol.fresh_trace_id ()
  in
  let run () =
    if req.Protocol.data then run_data t ~gov req.Protocol.text
    else
      match session ~gov req.Protocol.text with
      | reaction -> Ok reaction
      | exception e -> Error e
  in
  let outcome, spans, progress =
    if tracing then
      let (outcome, progress), spans =
        Trace.with_context ~trace_id (fun () ->
            Progress.with_recorder ~key:(Gov.family_id gov) run)
      in
      (outcome, spans, progress)
    else (run (), [], [])
  in
  let elapsed = Unix.gettimeofday () -. start in
  Metrics.observe (latency_histogram req.Protocol.text) elapsed;
  ignore (Slow_log.observe ~query:("net " ^ req.Protocol.text) ~elapsed);
  let resp, close_after =
    match outcome with
    | Ok reaction -> (
        let body = reaction.Repl.output in
        match Gov.fate gov with
        | None -> ({ Protocol.status = Protocol.Ok; body }, reaction.Repl.quit)
        | Some Gov.Deadline ->
            Metrics.incr m_deadline;
            Metrics.incr m_cancelled;
            let d = match deadline with Some d -> d | None -> 0.0 in
            ( {
                Protocol.status = Protocol.Deadline_exceeded;
                body =
                  Printf.sprintf
                    "request exceeded its %gs deadline (evaluation \
                     cancelled)\n%s"
                    d body;
              },
              reaction.Repl.quit )
        | Some reason ->
            Metrics.incr m_cancelled;
            ( {
                Protocol.status = Protocol.Cancelled;
                body =
                  Printf.sprintf "request cancelled (%s)\n%s"
                    (Gov.reason_to_string reason) body;
              },
              reaction.Repl.quit ))
    | Error e ->
        Metrics.incr m_errors;
        ( { Protocol.status = Protocol.Internal; body = Printexc.to_string e },
          false )
  in
  if tracing then
    Trace_store.add Trace_store.default
      {
        Trace_store.trace_id;
        started = start;
        elapsed;
        status = Protocol.status_to_string resp.Protocol.status;
        spans;
        progress;
      };
  (resp, close_after)

(* ---- health ----------------------------------------------------------- *)

(* The job queue bounds executing + queued jointly, so "no room left" is
   their sum at the combined limit. *)
let health_json t =
  Mutex.lock t.jobs_mu;
  let inflight = t.executing and queued = Queue.length t.jobs in
  Mutex.unlock t.jobs_mu;
  let active = Atomic.get t.active in
  let { max_inflight; max_queue; max_connections; _ } = t.config in
  let status =
    if Atomic.get t.stop then "draining"
    else if
      inflight + queued >= max_inflight + max_queue
      || active >= max_connections
    then "saturated"
    else "ok"
  in
  Printf.sprintf
    "{\"status\":%S,\"inflight\":%d,\"max_inflight\":%d,\"queued\":%d,\
     \"max_queue\":%d,\"active_connections\":%d,\"max_connections\":%d}"
    status inflight max_inflight queued max_queue active max_connections

(* The server-level health command: answered before admission (a
   saturated server must still report itself saturated) and invisible to
   the REPL — the router uses it to aggregate per-shard health over the
   query wire without an HTTP hop. *)
let is_health_command text = String.trim text = "\\healthz"

(* ---- workers ---------------------------------------------------------- *)

(* A full pipe already holds a wake-up; a closed one belongs to a loop
   that has ended, which has nothing left to wake. *)
let wake t =
  try ignore (Unix.write_substring t.wake_w "x" 0 1)
  with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EPIPE | Unix.EBADF), _, _) ->
    ()

let worker t () =
  let rec loop () =
    Mutex.lock t.jobs_mu;
    while Queue.is_empty t.jobs && not t.workers_stop do
      Condition.wait t.jobs_nonempty t.jobs_mu
    done;
    if Queue.is_empty t.jobs then Mutex.unlock t.jobs_mu
    else begin
      let conn, req = Queue.pop t.jobs in
      t.executing <- t.executing + 1;
      job_gauges t;
      Mutex.unlock t.jobs_mu;
      let resp, close_after =
        try handle_request t (Lazy.force conn.c_session) req
        with e ->
          Metrics.incr m_errors;
          ( { Protocol.status = Protocol.Internal; body = Printexc.to_string e },
            false )
      in
      Mutex.lock t.jobs_mu;
      t.executing <- t.executing - 1;
      job_gauges t;
      Mutex.unlock t.jobs_mu;
      Mutex.lock t.comp_mu;
      Queue.add (conn, resp, close_after) t.completions;
      Mutex.unlock t.comp_mu;
      wake t;
      loop ()
    end
  in
  loop ()

(* Enqueue a request unless executing + queued is at the combined limit. *)
let admit t conn req =
  Mutex.lock t.jobs_mu;
  let room =
    t.executing + Queue.length t.jobs
    < t.config.max_inflight + t.config.max_queue
  in
  if room then begin
    Queue.add (conn, req) t.jobs;
    job_gauges t;
    Condition.signal t.jobs_nonempty
  end;
  Mutex.unlock t.jobs_mu;
  room

(* ---- connections (event-loop thread) ---------------------------------- *)

let update_interest t conn =
  if not conn.c_closed then begin
    let want_read = conn.c_want_read && not conn.c_close_after_flush in
    let want_write = Buffer.length conn.c_wbuf > conn.c_woff in
    if want_read <> conn.c_reg_read || want_write <> conn.c_reg_write then begin
      (try Poller.modify t.poller conn.c_fd ~read:want_read ~write:want_write
       with Unix.Unix_error _ -> ());
      conn.c_reg_read <- want_read;
      conn.c_reg_write <- want_write
    end
  end

let close_conn t conn =
  if not conn.c_closed then begin
    conn.c_closed <- true;
    Hashtbl.remove t.conns conn.c_fd;
    (try Poller.remove t.poller conn.c_fd with Unix.Unix_error _ -> ());
    (try Unix.close conn.c_fd with Unix.Unix_error _ -> ());
    if conn.c_counted then begin
      Atomic.decr t.active;
      set_active_gauge t
    end;
    set_open_gauge t
  end

(* Queue a frame; actual writing happens on writability (plus one
   immediate attempt to save a round trip through the poller). *)
let send conn payload =
  if not conn.c_closed then
    Buffer.add_string conn.c_wbuf (Protocol.encode_frame payload)

let respond conn resp = send conn (Protocol.encode_response resp)

let flush_writes t conn =
  if (not conn.c_closed) && Buffer.length conn.c_wbuf > conn.c_woff then begin
    let s = Buffer.contents conn.c_wbuf in
    let n = String.length s in
    let rec go off =
      if off >= n then off
      else
        match Unix.write_substring conn.c_fd s off (n - off) with
        | k -> go (off + k)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
        | exception
            Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            off
        | exception Unix.Unix_error _ ->
            (* peer is gone; drop the rest *)
            conn.c_close_after_flush <- true;
            n
    in
    let off = go conn.c_woff in
    if off >= n then begin
      Buffer.clear conn.c_wbuf;
      conn.c_woff <- 0
    end
    else conn.c_woff <- off
  end;
  if
    (not conn.c_closed)
    && conn.c_close_after_flush
    && Buffer.length conn.c_wbuf <= conn.c_woff
  then close_conn t conn

(* Decode and dispatch every complete frame the assembler holds,
   stopping as soon as a request goes in flight (strictly one at a
   time per connection). *)
let rec drain_frames t conn =
  if (not conn.c_closed) && (not conn.c_busy) && not conn.c_close_after_flush
  then
    match Assembler.next conn.c_asm with
    | `Awaiting -> ()
    | `Bad msg ->
        Metrics.incr m_errors;
        respond conn
          { Protocol.status = Protocol.Bad_request;
            body = "framing error: " ^ msg;
          };
        conn.c_close_after_flush <- true
    | `Frame payload ->
        (match Protocol.decode_client_frame payload with
        | Error msg ->
            Metrics.incr m_errors;
            respond conn { Protocol.status = Protocol.Bad_request; body = msg }
        | Ok (Protocol.Hello v) ->
            (* Answer with our version either way; on mismatch the client
               refuses to proceed, so hang up after telling it who we
               are. *)
            send conn (Protocol.encode_hello Protocol.version);
            if v <> Protocol.version then conn.c_close_after_flush <- true
        | Ok (Protocol.Req req) when is_health_command req.Protocol.text ->
            respond conn { Protocol.status = Protocol.Ok; body = health_json t }
        | Ok (Protocol.Req req) ->
            if admit t conn req then begin
              conn.c_busy <- true;
              (* Drop read interest while the request is in flight so a
                 pipelining client's bytes stay in the kernel socket
                 buffer (backpressure) instead of accumulating
                 unboundedly in the assembler. Restored on completion in
                 drain_completions. *)
              conn.c_want_read <- false
            end
            else begin
              Metrics.incr m_busy;
              respond conn { Protocol.status = Protocol.Busy; body = busy_text t }
            end);
        drain_frames t conn

let on_readable t conn =
  match Unix.read conn.c_fd t.scratch 0 (Bytes.length t.scratch) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error _ -> close_conn t conn
  | 0 ->
      (* EOF. A busy connection finishes its request first (drain
         semantics); its completion path will notice the flag. *)
      if conn.c_busy then conn.c_close_after_flush <- true
      else close_conn t conn
  | n ->
      Assembler.feed conn.c_asm ~len:n (Bytes.unsafe_to_string t.scratch);
      drain_frames t conn

let drain_completions t =
  let batch =
    Mutex.lock t.comp_mu;
    let b = List.of_seq (Queue.to_seq t.completions) in
    Queue.clear t.completions;
    Mutex.unlock t.comp_mu;
    b
  in
  List.iter
    (fun (conn, resp, close_after) ->
      if not conn.c_closed then begin
        respond conn resp;
        conn.c_busy <- false;
        (* re-arm reads dropped at admission; drain_frames below may
           drop them again if a buffered frame goes straight in flight *)
        conn.c_want_read <- true;
        if close_after then conn.c_close_after_flush <- true;
        if Atomic.get t.stop then
          (* drain: one response per in-flight request, then close *)
          conn.c_close_after_flush <- true;
        if not conn.c_close_after_flush then drain_frames t conn;
        flush_writes t conn;
        update_interest t conn
      end)
    batch

let on_acceptable t =
  let rec loop () =
    match Unix.accept ~cloexec:true t.listen with
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error _ -> ()
    | fd, _ ->
        Unix.set_nonblock fd;
        let counted, rejection =
          if Atomic.get t.stop then
            (false, Some (Protocol.Shutting_down, "server is shutting down"))
          else if Atomic.get t.active >= t.config.max_connections then begin
            Metrics.incr m_busy;
            ( false,
              Some
                ( Protocol.Busy,
                  Printf.sprintf "server busy: %d connections are live"
                    t.config.max_connections ) )
          end
          else (true, None)
        in
        let conn =
          {
            c_fd = fd;
            c_asm = Assembler.create ();
            c_wbuf = Buffer.create 256;
            c_woff = 0;
            c_busy = false;
            c_close_after_flush = rejection <> None;
            c_closed = false;
            c_counted = counted;
            c_session = lazy (t.session_factory t);
            c_reg_read = counted;
            c_reg_write = false;
            c_want_read = counted;
          }
        in
        Hashtbl.replace t.conns fd conn;
        (try Poller.add t.poller fd ~read:counted ~write:false
         with Unix.Unix_error _ -> ());
        if counted then begin
          Atomic.incr t.active;
          set_active_gauge t;
          Metrics.incr m_connections
        end
        else begin
          (match rejection with
          | Some (status, msg) -> respond conn { Protocol.status; body = msg }
          | None -> ());
          flush_writes t conn;
          if not conn.c_closed then update_interest t conn
        end;
        set_open_gauge t;
        loop ()
  in
  loop ()

(* ---- event loop ------------------------------------------------------- *)

let run t =
  let workers =
    List.init t.config.max_inflight (fun _ -> Thread.create (worker t) ())
  in
  let stopping = ref false in
  let drain_wake_pipe () =
    let b = Bytes.create 256 in
    let rec go () =
      match Unix.read t.wake_r b 0 256 with
      | exception Unix.Unix_error _ -> ()
      | 0 -> ()
      | 256 -> go ()
      | _ -> ()
    in
    go ()
  in
  let all_conns () = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  let begin_stop () =
    stopping := true;
    (try Poller.remove t.poller t.listen with Unix.Unix_error _ -> ());
    (* close idle connections now; busy ones drain their request *)
    List.iter
      (fun c ->
        if (not c.c_busy) && Buffer.length c.c_wbuf <= c.c_woff then
          close_conn t c
        else c.c_close_after_flush <- true)
      (all_conns ())
  in
  let rec loop () =
    if Atomic.get t.stop && not !stopping then begin_stop ();
    let done_ =
      !stopping
      && Hashtbl.length t.conns = 0
      &&
      (Mutex.lock t.jobs_mu;
       let d = Queue.is_empty t.jobs && t.executing = 0 in
       Mutex.unlock t.jobs_mu;
       d)
    in
    if not done_ then begin
      (* Block until something is ready: workers and [request_stop]
         wake the loop through the self-pipe, so an idle server never
         spins. *)
      let events = Poller.wait t.poller ~timeout:(-1.0) in
      Metrics.incr m_wakeups;
      List.iter
        (fun { Poller.fd; readable; writable; error } ->
          if fd = t.listen then (if readable then on_acceptable t)
          else if fd = t.wake_r then begin
            drain_wake_pipe ();
            drain_completions t
          end
          else
            match Hashtbl.find_opt t.conns fd with
            | None -> ()
            | Some conn ->
                if error then
                  if conn.c_busy then conn.c_close_after_flush <- true
                  else close_conn t conn
                else begin
                  if readable then on_readable t conn;
                  if writable && not conn.c_closed then flush_writes t conn;
                  if not conn.c_closed then begin
                    flush_writes t conn;
                    update_interest t conn
                  end
                end)
        events;
      (* completions may land while we were handling events *)
      drain_completions t;
      loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (* first, so no failing step below leaves [join] waiting; it
         joins this thread for the rest *)
      Unix.close t.ended_w;
      Mutex.lock t.jobs_mu;
      t.workers_stop <- true;
      Condition.broadcast t.jobs_nonempty;
      Mutex.unlock t.jobs_mu;
      List.iter Thread.join workers;
      (* empty after a drain; after an exception this keeps [active] and
         the connection gauges honest *)
      List.iter (close_conn t) (all_conns ());
      (* set before the pipe closes, so a later [request_stop] does not
         write to it *)
      Atomic.set t.stop true;
      (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
      (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
      Poller.close t.poller)
    loop

(* ---- lifecycle -------------------------------------------------------- *)

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } ->
          failwith ("Server: cannot resolve host " ^ host)
      | { Unix.h_addr_list; _ } -> h_addr_list.(0)
      | exception Not_found -> failwith ("Server: cannot resolve host " ^ host))

let default_session_factory t =
  let session = Repl.create ~cache:t.plan_cache t.db in
  fun ~gov text -> Repl.handle ~gov session text

let start ?(config = default_config) ?session_factory db =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let config =
    {
      config with
      max_inflight = max config.max_inflight 1;
      max_queue = max config.max_queue 0;
    }
  in
  let listen = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt listen Unix.SO_REUSEADDR true;
     Unix.bind listen (Unix.ADDR_INET (resolve_host config.host, config.port));
     Unix.listen listen 1024;
     Unix.set_nonblock listen
   with e ->
     (try Unix.close listen with Unix.Unix_error _ -> ());
     raise e);
  let bound_port =
    match Unix.getsockname listen with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let poller = Poller.create () in
  Poller.add poller listen ~read:true ~write:false;
  Poller.add poller wake_r ~read:true ~write:false;
  let ended_r, ended_w = Unix.pipe ~cloexec:true () in
  let t =
    {
      config;
      db;
      plan_cache = Pb_sql.Plan_cache.create ~capacity:config.plan_cache_capacity ();
      session_factory =
        Option.value session_factory ~default:default_session_factory;
      listen;
      bound_port;
      stop = Atomic.make false;
      active = Atomic.make 0;
      poller;
      conns = Hashtbl.create 1024;
      wake_r;
      wake_w;
      scratch = Bytes.create 65536;
      jobs = Queue.create ();
      executing = 0;
      jobs_mu = Mutex.create ();
      jobs_nonempty = Condition.create ();
      workers_stop = false;
      completions = Queue.create ();
      comp_mu = Mutex.create ();
      serve_thread = None;
      ended_r;
      ended_w;
      finish_mu = Mutex.create ();
      finished = false;
    }
  in
  Trace_store.set_capacity Trace_store.default config.trace_capacity;
  t.serve_thread <- Some (Thread.create run t);
  t

let port t = t.bound_port

(* ---- pull-based exposition -------------------------------------------- *)

let traces_prefix = "/traces/"

let http_handler t path =
  match path with
  | "/metrics" ->
      Some
        {
          Http.code = 200;
          content_type = "text/plain; version=0.0.4; charset=utf-8";
          body = Metrics.dump ();
        }
  | "/healthz" ->
      Some
        {
          Http.code = 200;
          content_type = "application/json";
          body = health_json t;
        }
  | "/traces" ->
      let ids = Trace_store.ids Trace_store.default in
      Some
        {
          Http.code = 200;
          content_type = "application/json";
          body =
            Printf.sprintf "{\"traces\":[%s]}"
              (String.concat "," (List.map (Printf.sprintf "%S") ids));
        }
  | _ ->
      let n = String.length traces_prefix in
      if String.length path > n && String.sub path 0 n = traces_prefix then
        let id = String.sub path n (String.length path - n) in
        match Trace_store.find Trace_store.default id with
        | Some entry ->
            Some
              {
                Http.code = 200;
                content_type = "application/json";
                body = Trace_store.to_json entry;
              }
        | None -> None
      else None

let request_stop t = if not (Atomic.exchange t.stop true) then wake t

(* The event loop returns only once every connection has drained. The
   wait for it is a read of [ended_r], not [Thread.join]: a signal
   interrupts the read, so a SIGINT/SIGTERM handler runs on the joining
   thread even while every other thread sleeps in the kernel. Inside
   [Thread.join] it would wait for some thread to run OCaml code, and
   an idle event loop never does. *)
let join t =
  Mutex.lock t.finish_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.finish_mu)
    (fun () ->
      if not t.finished then begin
        let rec await_end () =
          match Unix.read t.ended_r (Bytes.create 1) 0 1 with
          | _ -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> await_end ()
        in
        await_end ();
        Option.iter Thread.join t.serve_thread;
        (try Unix.close t.listen with Unix.Unix_error _ -> ());
        Unix.close t.ended_r;
        t.finished <- true
      end)

let shutdown t =
  request_stop t;
  join t

let install_signal_handlers t =
  let handle = Sys.Signal_handle (fun _ -> request_stop t) in
  Sys.set_signal Sys.sigint handle;
  Sys.set_signal Sys.sigterm handle

let with_server ?config ?session_factory db f =
  let t = start ?config ?session_factory db in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
