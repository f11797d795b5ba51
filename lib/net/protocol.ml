let max_frame = 8 * 1024 * 1024
let version = 2
let magic = "PB2"

type request = {
  text : string;
  deadline : float option;
  trace : string option;
  data : bool;
}

(* Trace ids are 16 bytes as 32 lowercase hex chars, client-generated.
   Validation is strict so the id can be embedded verbatim in shell
   commands, URLs and exposition labels. *)
let valid_trace_id s =
  String.length s = 32
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

let hex = "0123456789abcdef"
let rng_mu = Mutex.create ()
let rng = lazy (Random.State.make_self_init ())

let fresh_trace_id () =
  Mutex.lock rng_mu;
  let st = Lazy.force rng in
  let b = Bytes.create 32 in
  for i = 0 to 31 do
    Bytes.set b i hex.[Random.State.int st 16]
  done;
  Mutex.unlock rng_mu;
  Bytes.unsafe_to_string b

type status =
  | Ok
  | Busy
  | Deadline_exceeded
  | Cancelled
  | Bad_request
  | Shutting_down
  | Internal

type response = { status : status; body : string }
type client_frame = Hello of int | Req of request

let status_to_string = function
  | Ok -> "ok"
  | Busy -> "busy"
  | Deadline_exceeded -> "deadline"
  | Cancelled -> "cancelled"
  | Bad_request -> "proto"
  | Shutting_down -> "shutdown"
  | Internal -> "internal"

let status_of_string = function
  | "ok" -> Some Ok
  | "busy" -> Some Busy
  | "deadline" -> Some Deadline_exceeded
  | "cancelled" -> Some Cancelled
  | "proto" -> Some Bad_request
  | "shutdown" -> Some Shutting_down
  | "internal" -> Some Internal
  | _ -> None

let is_error = function Ok -> false | _ -> true

(* ---- framing --------------------------------------------------------- *)

type frame = Frame of string | Eof | Bad of string

let encode_frame payload =
  string_of_int (String.length payload) ^ "\n" ^ payload

(* The length header is at most 8 digits (max_frame < 10^8); anything
   longer is oversized or garbage, so we can bound the header read. *)
let max_header_digits = 8

let read_frame_gen ~read_byte ~read_exact =
  let rec header acc ndigits =
    match read_byte () with
    | None -> if ndigits = 0 then `Eof else `Bad "truncated frame header"
    | Some '\n' -> if ndigits = 0 then `Bad "empty frame header" else `Len acc
    | Some ('0' .. '9' as c) ->
        if ndigits >= max_header_digits then `Bad "oversized frame header"
        else header ((acc * 10) + (Char.code c - Char.code '0')) (ndigits + 1)
    | Some c -> `Bad (Printf.sprintf "bad byte %C in frame header" c)
  in
  match header 0 0 with
  | `Eof -> Eof
  | `Bad msg -> Bad msg
  | `Len len ->
      if len > max_frame then
        Bad (Printf.sprintf "frame of %d bytes exceeds max_frame %d" len max_frame)
      else (
        match read_exact len with
        | Some payload -> Frame payload
        | None -> Bad "truncated frame payload")

let read_frame ic =
  read_frame_gen
    ~read_byte:(fun () ->
      match input_char ic with
      | c -> Some c
      | exception End_of_file -> None)
    ~read_exact:(fun n ->
      match really_input_string ic n with
      | s -> Some s
      | exception End_of_file -> None)

(* ---- payload codecs -------------------------------------------------- *)

let split_first_line s =
  match String.index_opt s '\n' with
  | None -> (s, "")
  | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

(* A peer still speaking the unversioned (v1) protocol sends headers
   beginning with REQ / OK / ERR. Recognizing them lets both sides name
   the mismatch instead of reporting line noise. *)
let v1_header header =
  match String.split_on_char ' ' header with
  | "REQ" :: _ | "OK" :: _ | "ERR" :: _ -> true
  | _ -> false

let version_mismatch header =
  if v1_header header then
    Printf.sprintf
      "protocol version mismatch: peer speaks the unversioned v1 protocol, \
       this side requires %s (v%d)"
      magic version
  else Printf.sprintf "bad header %S (expected a %s payload)" header magic

let encode_hello v = Printf.sprintf "%s HELLO %d" magic v

let decode_hello payload =
  let header, _ = split_first_line payload in
  match String.split_on_char ' ' header with
  | [ m; "HELLO"; v ] when m = magic -> (
      match int_of_string_opt v with
      | Some v -> Stdlib.Ok v
      | None -> Stdlib.Error (Printf.sprintf "bad hello version %S" v))
  | _ -> Stdlib.Error (version_mismatch header)

let encode_request { text; deadline; trace; data } =
  let header =
    String.concat " "
      (magic :: "REQ"
      :: ((match deadline with Some d -> [ Printf.sprintf "%g" d ] | None -> [])
         @ (match trace with Some id -> [ "trace=" ^ id ] | None -> [])
         @ if data then [ "mode=data" ] else []))
  in
  header ^ "\n" ^ text

(* REQ header fields after the verb, in any order: a bare positive float
   is the deadline, [trace=<32 lowercase hex>] the trace context,
   [mode=data] the machine-readable single-statement mode. All are
   optional (a v2 peer predating a field simply omits it); duplicates
   and malformed values reject the frame. *)
let decode_req_fields text fields =
  let rec go deadline trace data = function
    | [] -> Stdlib.Ok (Req { text; deadline; trace; data })
    | "mode=data" :: rest ->
        if data then Stdlib.Error "duplicate mode field in request header"
        else go deadline trace true rest
    | tok :: rest ->
        let n = String.length tok in
        if n > 6 && String.sub tok 0 6 = "trace=" then
          let id = String.sub tok 6 (n - 6) in
          if trace <> None then
            Stdlib.Error "duplicate trace field in request header"
          else if not (valid_trace_id id) then
            Stdlib.Error (Printf.sprintf "bad trace id %S" id)
          else go deadline (Some id) data rest
        else if deadline <> None then
          Stdlib.Error (Printf.sprintf "bad request field %S" tok)
        else
          match float_of_string_opt tok with
          | Some d when d > 0.0 && Float.is_finite d -> go (Some d) trace data rest
          | Some _ | None ->
              Stdlib.Error (Printf.sprintf "bad deadline %S" tok)
  in
  go None None false fields

let decode_client_frame payload =
  let header, text = split_first_line payload in
  match String.split_on_char ' ' header with
  | [ m; "HELLO"; v ] when m = magic -> (
      match int_of_string_opt v with
      | Some v -> Stdlib.Ok (Hello v)
      | None -> Stdlib.Error (Printf.sprintf "bad hello version %S" v))
  | m :: "REQ" :: fields when m = magic -> decode_req_fields text fields
  | _ -> Stdlib.Error (version_mismatch header)

let encode_response { status; body } =
  Printf.sprintf "%s %s\n%s" magic (status_to_string status) body

let decode_response payload =
  let header, body = split_first_line payload in
  match String.split_on_char ' ' header with
  | [ m; code ] when m = magic -> (
      match status_of_string code with
      | Some status -> Stdlib.Ok { status; body }
      | None -> Stdlib.Error (Printf.sprintf "unknown status code %S" code))
  | _ -> Stdlib.Error (version_mismatch header)
