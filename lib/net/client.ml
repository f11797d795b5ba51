type t = { fd : Unix.file_descr; ic : in_channel }

exception Net_error of string
exception Rejected of Protocol.status * string

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } ->
          raise (Net_error ("cannot resolve host " ^ host))
      | { Unix.h_addr_list; _ } -> h_addr_list.(0)
      | exception Not_found -> raise (Net_error ("cannot resolve host " ^ host)))

(* Write the whole string even when the kernel takes it in pieces: a
   short write is resumed, EINTR retries, and EAGAIN (the socket may be
   non-blocking, e.g. the load generator's connections) parks in select
   until the send buffer drains. The old channel-based sender silently
   assumed completion — wrong exactly when a large request races a full
   send buffer. The wait is bounded: a peer that never drains its
   receive buffer (wedged server, half-dead connection) yields
   consecutive EAGAIN rounds with zero bytes accepted, and after
   [max_stalls] of those we raise Net_error instead of blocking the
   caller forever. Any successful write resets the stall count, so a
   merely slow peer is never cut off. *)
let write_all fd s =
  let n = String.length s in
  let stall_wait = 5.0 and max_stalls = 6 in
  let rec go off stalls =
    if off < n then
      match Unix.write_substring fd s off (n - off) with
      | k -> go (off + k) 0
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off stalls
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          if stalls >= max_stalls then
            raise
              (Net_error
                 (Printf.sprintf
                    "send stalled: peer accepted no bytes for %gs (%d of %d \
                     bytes unsent)"
                    (float_of_int max_stalls *. stall_wait)
                    (n - off) n))
          else begin
            (match Unix.select [] [ fd ] [] stall_wait with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | _ -> ());
            go off (stalls + 1)
          end
  in
  go 0 0

let send_frame t payload =
  try write_all t.fd (Protocol.encode_frame payload)
  with Unix.Unix_error (e, _, _) ->
    raise (Net_error ("send failed: " ^ Unix.error_message e))

(* Version negotiation: send our hello, require the server's hello with
   the same version back. A server that rejects the connection outright
   (busy / shutting down) answers the hello with an error response
   instead — surface that as [Rejected] so callers can back off and
   retry rather than treating it as protocol damage. *)
let handshake t =
  send_frame t (Protocol.encode_hello Protocol.version);
  match Protocol.read_frame t.ic with
  | Protocol.Eof -> raise (Net_error "server closed during handshake")
  | Protocol.Bad msg -> raise (Net_error ("handshake framing error: " ^ msg))
  | Protocol.Frame payload -> (
      match Protocol.decode_hello payload with
      | Ok v when v = Protocol.version -> ()
      | Ok v ->
          raise
            (Net_error
               (Printf.sprintf
                  "protocol version mismatch: server speaks v%d, this client \
                   speaks v%d"
                  v Protocol.version))
      | Error hello_err -> (
          match Protocol.decode_response payload with
          | Ok { Protocol.status; body } when Protocol.is_error status ->
              raise (Rejected (status, body))
          | Ok _ | Error _ ->
              raise (Net_error ("bad handshake reply: " ^ hello_err))))

(* Bounded connect: non-blocking connect, wait for writability, then
   read the socket error. Without this a dead-but-routing host makes the
   load generator hang for the kernel's multi-minute TCP timeout with no
   diagnosis. *)
let connect_within fd addr timeout =
  Unix.set_nonblock fd;
  let finish_ok () = Unix.clear_nonblock fd in
  match Unix.connect fd addr with
  | () -> finish_ok ()
  | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) -> (
      match Unix.select [] [ fd ] [] timeout with
      | [], [], [] ->
          raise
            (Net_error (Printf.sprintf "connect timed out after %gs" timeout))
      | _ -> (
          match Unix.getsockopt_error fd with
          | None -> finish_ok ()
          | Some err -> raise (Unix.Unix_error (err, "connect", ""))))

let connect ?(host = "127.0.0.1") ?connect_timeout ~port () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  let addr = Unix.ADDR_INET (resolve_host host, port) in
  (try
     match connect_timeout with
     | None -> Unix.connect fd addr
     | Some timeout -> connect_within fd addr timeout
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  let t = { fd; ic = Unix.in_channel_of_descr fd } in
  (try handshake t
   with e ->
     close_in_noerr t.ic;
     raise e);
  t

let request ?deadline ?trace ?(data = false) t text =
  send_frame t (Protocol.encode_request { Protocol.text; deadline; trace; data });
  match Protocol.read_frame t.ic with
  | Protocol.Frame payload -> (
      match Protocol.decode_response payload with
      | Ok response -> response
      | Error msg -> raise (Net_error ("bad response: " ^ msg)))
  | Protocol.Eof -> raise (Net_error "server closed the connection")
  | Protocol.Bad msg -> raise (Net_error ("framing error: " ^ msg))

let close t =
  (* closing the in channel closes the shared fd; nothing else holds it *)
  close_in_noerr t.ic

let with_connection ?host ?connect_timeout ~port f =
  let t = connect ?host ?connect_timeout ~port () in
  Fun.protect ~finally:(fun () -> close t) (fun () -> f t)
