(* State machine mirroring Protocol.read_frame_gen byte-for-byte: the
   header is digits then '\n', at most max_header_digits digits, value
   capped by max_frame; then exactly [len] payload bytes. Error strings
   are kept identical to the blocking reader so the two paths stay
   interchangeable in tests and logs. *)

type state =
  | Header of { acc : int; ndigits : int }
  | Payload of { want : int; buf : Buffer.t }
  | Broken of string

type t = {
  mutable state : state;
  ready : string Queue.t;  (* complete frames in arrival order *)
}

let create () = { state = Header { acc = 0; ndigits = 0 }; ready = Queue.create () }

let bad t msg = t.state <- Broken msg

let feed_byte t c =
  match t.state with
  | Broken _ -> ()
  | Header { acc; ndigits } -> (
      match c with
      | '\n' ->
          if ndigits = 0 then bad t "empty frame header"
          else if acc > Protocol.max_frame then
            bad t
              (Printf.sprintf "frame of %d bytes exceeds max_frame %d" acc
                 Protocol.max_frame)
          else if acc = 0 then begin
            (* zero-length frame completes immediately *)
            Queue.add "" t.ready;
            t.state <- Header { acc = 0; ndigits = 0 }
          end
          else t.state <- Payload { want = acc; buf = Buffer.create (min acc 65536) }
      | '0' .. '9' ->
          if ndigits >= Protocol.max_header_digits then
            bad t "oversized frame header"
          else
            t.state <-
              Header
                {
                  acc = (acc * 10) + (Char.code c - Char.code '0');
                  ndigits = ndigits + 1;
                }
      | c -> bad t (Printf.sprintf "bad byte %C in frame header" c))
  | Payload _ -> assert false (* bulk path below handles payload bytes *)

let reset_header t = t.state <- Header { acc = 0; ndigits = 0 }

let feed t ?(off = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - off in
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Assembler.feed";
  let i = ref off in
  let stop = off + len in
  while !i < stop do
    match t.state with
    | Broken _ -> i := stop
    | Header _ ->
        feed_byte t s.[!i];
        incr i
    | Payload { want; buf } ->
        let take = min (want - Buffer.length buf) (stop - !i) in
        Buffer.add_substring buf s !i take;
        i := !i + take;
        if Buffer.length buf = want then begin
          Queue.add (Buffer.contents buf) t.ready;
          reset_header t
        end
  done

let next t =
  match Queue.take_opt t.ready with
  | Some frame -> `Frame frame
  | None -> ( match t.state with Broken msg -> `Bad msg | _ -> `Awaiting)
