(* Child processes (pb_server, pb_router), their HTTP endpoint and
   /proc accounting. Every child is registered so an early exit still
   stops and reaps it. *)

let out_dir = ref ".perfbench_out"
let bin_dir = ref "_build/default/bin"

(* The CPUs of the run, the first of them the generator's (run.py pins
   the benchmark process there for the server workloads); empty = no
   pinning. *)
let cpus : string list ref = ref []

(* Command lines of every child started, for the run envelope. *)
let started : string list list ref = ref []
let children : int list ref = ref []

type proc = { pid : int; name : string; wire_port : int; metrics_port : int; argv : string list }

(* Reads to end of file: /proc files report a length of 0. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let port_after marker text =
  match Str_util.find text marker with
  | None -> None
  | Some i ->
      let j = ref (i + String.length marker) in
      while !j < String.length text && text.[!j] <> ':' && text.[!j] <> '\n' do incr j done;
      let k = ref (!j + 1) in
      while !k < String.length text && text.[!k] >= '0' && text.[!k] <= '9' do incr k done;
      int_of_string_opt (String.sub text (!j + 1) (!k - !j - 1))

let reap pid =
  children := List.filter (( <> ) pid) !children;
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let kill_hard pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap pid

(* Start [exe] with [args] (ports 0 = ephemeral) and wait for its
   "ready" line; the bound wire and metrics ports are read back from its
   startup banner. *)
let spawn ?cpu ~name ~exe args =
  let log = Filename.concat !out_dir (name ^ ".log") in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let path = Filename.concat !bin_dir exe in
  (* A pinned server has one CPU, so it also gets PB_DOMAINS=1. *)
  let argv = match cpu with Some c -> "taskset" :: "-c" :: c :: path :: args | None -> path :: args in
  let env =
    if cpu = None then Unix.environment ()
    else
      Array.append [| "PB_DOMAINS=1" |]
        (Array.of_list
           (List.filter
              (fun kv -> not (String.length kv >= 11 && String.sub kv 0 11 = "PB_DOMAINS="))
              (Array.to_list (Unix.environment ()))))
  in
  let pid = Unix.create_process_env (List.hd argv) (Array.of_list argv) env Unix.stdin fd fd in
  if not (List.mem argv !started) then started := !started @ [ argv ];
  Unix.close fd;
  children := pid :: !children;
  let deadline = Unix.gettimeofday () +. 60.0 in
  let rec wait () =
    let text = read_file log in
    if Str_util.find text " ready" <> None then text
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | p, _ when p = pid ->
          children := List.filter (( <> ) pid) !children;
          failwith (Printf.sprintf "%s exited during start-up: %s" name (String.trim text))
      | _ ->
          if Unix.gettimeofday () > deadline then (
            kill_hard pid;
            failwith (name ^ " did not become ready"));
          Unix.sleepf 0.005;
          wait ()
  in
  let text = wait () in
  match (port_after "listening on " text, port_after "metrics on http://" text) with
  | Some wire_port, Some metrics_port -> { pid; name; wire_port; metrics_port; argv = exe :: args }
  | _ ->
      kill_hard pid;
      failwith (name ^ ": could not read its ports from the start-up banner")

(* SIGTERM drains and exits 0; a child that lingers is killed. *)
let stop p =
  (try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | q, _ when q = p.pid -> children := List.filter (( <> ) p.pid) !children
    | _ when Unix.gettimeofday () > deadline -> kill_hard p.pid
    | _ -> Unix.sleepf 0.005; wait ()
    | exception Unix.Unix_error _ -> children := List.filter (( <> ) p.pid) !children
  in
  wait ()

let () = at_exit (fun () -> List.iter kill_hard !children)

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  match read_file path with
  | exception Sys_error _ -> nan
  | text -> (
      match Str_util.find text "VmHWM:" with
      | None -> nan
      | Some i ->
          let rest = String.sub text (i + 6) (min 40 (String.length text - i - 6)) in
          let digits = String.trim (List.hd (String.split_on_char 'k' rest)) in
          float_of_string digits /. 1024.0)

(* Plain HTTP/1.1 GET against 127.0.0.1; returns (status code, body). *)
let http_get port path =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close sock)
    (fun () ->
      Unix.setsockopt_float sock Unix.SO_RCVTIMEO 10.0;
      Unix.connect sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n" path in
      ignore (Unix.write_substring sock req 0 (String.length req));
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 65536 in
      let rec read () =
        match Unix.read sock chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n -> Buffer.add_subbytes buf chunk 0 n; read ()
      in
      read ();
      let resp = Buffer.contents buf in
      let code =
        match String.split_on_char ' ' resp with _ :: c :: _ -> int_of_string_opt c | _ -> None
      in
      let body =
        match Str_util.find resp "\r\n\r\n" with
        | Some i -> String.sub resp (i + 4) (String.length resp - i - 4)
        | None -> ""
      in
      (Option.value code ~default:0, body))

(* Prometheus text exposition → (series, value); series keep labels. *)
let metrics port =
  let _, body = http_get port "/metrics" in
  List.filter_map
    (fun line ->
      if line = "" || line.[0] = '#' then None
      else
        match String.rindex_opt line ' ' with
        | Some i -> (
            match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
            | Some v -> Some (String.sub line 0 i, v)
            | None -> None)
        | None -> None)
    (String.split_on_char '\n' body)

let healthy port =
  match http_get port "/healthz" with
  | 200, body -> Str_util.find body "\"status\":\"ok\"" <> None
  | _ -> false
  | exception Unix.Unix_error _ -> false

let wait_healthy p =
  let deadline = Unix.gettimeofday () +. 30.0 in
  while not (healthy p.metrics_port) do
    if Unix.gettimeofday () > deadline then failwith (p.name ^ ": /healthz never reported ok");
    Unix.sleepf 0.005
  done
