(** Wire protocol for the PackageBuilder server, version 2: a
    length-delimited text framing with a versioned one-line header inside
    each frame.

    {2 Framing}

    Every message, in both directions, is one {e frame}:

    {v <decimal byte length of payload>\n<payload> v}

    The length header is plain ASCII digits (no sign, no padding)
    terminated by a single [\n]; the payload follows verbatim — it may
    contain any bytes, including newlines. Frames larger than
    {!max_frame} are rejected without reading the payload, because a
    reader that has seen an oversized header can no longer trust the
    stream. The framing layer is unchanged from protocol v1; versioning
    lives in the payload headers.

    {2 Handshake}

    A client opens with a hello frame and the server answers with its
    own:

    {v PB2 HELLO <version> v}

    Each side refuses to proceed when the versions differ; a v1 peer
    (headers [REQ]/[OK]/[ERR] without the [PB2] magic) is detected and
    named explicitly in the error.

    {2 Requests}

    {v PB2 REQ [<deadline seconds>] [trace=<id>]\n<input line for the REPL> v}

    The optional deadline is a positive float; when present the server
    cancels the request's governance token once that much wall-clock
    time has elapsed and answers with the [deadline] status (carrying
    whatever partial output the evaluation produced). Without it the
    server's default applies.

    The optional [trace=] field carries the request's distributed trace
    context: a client-generated id of 16 random bytes as 32 lowercase
    hex characters. The server adopts it as the root of the request's
    span tree, retrievable afterwards by that id ([\traces <id>] over
    the wire, [/traces/<id>] over HTTP). A v2 peer predating the field
    simply omits it and the server generates an id — backward
    compatible within v2; both fields are accepted in either order.

    {2 Responses}

    {v PB2 <status>\n<body> v}

    where [<status>] is one of [ok], [busy], [deadline], [cancelled],
    [proto], [shutdown], [internal] — see {!status}. The codec never
    raises on malformed input; decoders return [Error] and {!read_frame}
    returns {!Bad}. *)

val max_frame : int
(** Maximum accepted payload size in bytes (8 MiB). *)

val max_header_digits : int
(** Maximum digits in a frame-length header (8; [max_frame < 10^8]) —
    shared with {!Assembler} so both readers reject the same prefixes. *)

val version : int
(** Protocol version spoken by this build (2). *)

type request = {
  text : string;  (** the REPL input line (PaQL, SQL, or \ command) *)
  deadline : float option;
      (** per-request wall-clock budget in seconds; [None] = server default *)
  trace : string option;
      (** client-generated trace id (32 lowercase hex characters);
          [None] lets the
          server generate one *)
  data : bool;
      (** [mode=data] header field: [text] is one SQL statement, executed
          directly (no REPL session) with the result encoded by
          {!Wire_data} — the machine-readable path the shard router uses
          to pull rows and partial aggregates. Omitted on the wire when
          false, so plain clients are unchanged. *)
}

val fresh_trace_id : unit -> string
(** A new random trace id. Thread-safe; self-seeded on first use. *)

type status =
  | Ok  (** request evaluated; body is the REPL output *)
  | Busy  (** admission queue full or connection limit reached; retry *)
  | Deadline_exceeded
      (** the request's deadline passed and its evaluation was
          cooperatively cancelled; body may carry partial output *)
  | Cancelled  (** the request's governance token was cancelled *)
  | Bad_request  (** unparseable frame or header, or version mismatch *)
  | Shutting_down  (** server is draining; no new requests *)
  | Internal  (** unexpected server-side exception *)

type response = { status : status; body : string }

type client_frame =
  | Hello of int  (** handshake carrying the client's protocol version *)
  | Req of request

val status_to_string : status -> string

val is_error : status -> bool
(** Everything but {!Ok}. *)

(** {1 Framing} *)

type frame =
  | Frame of string  (** one complete payload *)
  | Eof  (** clean end of stream (before any header byte) *)
  | Bad of string  (** truncated, oversized, or malformed — close the
                       connection, the stream is out of sync *)

val encode_frame : string -> string
(** The payload with its length header: the one frame encoder, used by
    the server, the client and the load generator alike. Its readers are
    {!read_frame_gen} (pull) and {!Assembler} (push). *)

val read_frame : in_channel -> frame

val read_frame_gen :
  read_byte:(unit -> char option) ->
  read_exact:(int -> string option) ->
  frame
(** Framing over caller-supplied byte sources ([None] = end of stream);
    {!read_frame} is this over an input channel. *)

(** {1 Payload codecs} *)

val split_first_line : string -> string * string
(** [(header, rest)] at the first newline; no newline means
    [(s, "")]. *)

val encode_hello : int -> string
(** Hello payload, sent by both sides during the handshake. *)

val decode_hello : string -> (int, string) result

val encode_request : request -> string

val decode_client_frame : string -> (client_frame, string) result
(** Server-side decoding of either hello or request payloads. A v1
    [REQ] header decodes to a version-mismatch error naming both
    protocols. *)

val encode_response : response -> string
val decode_response : string -> (response, string) result
