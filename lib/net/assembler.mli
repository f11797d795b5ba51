(** Incremental wire-v2 frame assembly.

    The event-driven server cannot block in [really_read]: bytes arrive
    in arbitrary slices (a 1-byte trickle, a frame straddling two reads,
    several frames coalesced in one). An assembler is the push-style
    dual of {!Protocol.read_frame_gen}: feed it whatever the socket
    produced, then drain the complete frames it has recognized. The
    byte-split is invisible — any slicing of a valid stream yields the
    same frame sequence as the blocking reader, with the same error
    messages on the same malformed prefixes (locked down by a qcheck
    differential in [test/test_net.ml]).

    A framing error is sticky: the stream is out of sync, so after [`Bad]
    every further [next] returns the same error and fed bytes are
    discarded. *)

type t

val create : unit -> t

val feed : t -> ?off:int -> ?len:int -> string -> unit
(** Append a slice of received bytes ([off]/[len] default to the whole
    string). Cheap: header bytes advance a small state machine, payload
    bytes are blitted once into the frame under construction. *)

val next : t -> [ `Frame of string | `Awaiting | `Bad of string ]
(** Pop the next complete frame. [`Awaiting] means more bytes are
    needed; [`Bad msg] reports a framing error (sticky). Complete frames
    queue up, so call [next] until [`Awaiting] after each [feed]. *)

