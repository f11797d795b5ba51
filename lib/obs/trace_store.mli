(** Bounded store of completed request traces, keyed by trace id.

    The server files every traced request here — the span tree its
    thread produced plus the run's {!Progress} trajectory — and the
    shell ([\traces]), the HTTP endpoint ([/traces/<id>]) and
    [pb_client --trace] read it back. FIFO eviction caps memory: once
    [capacity] entries are stored, adding evicts the oldest. Capacity 0
    disables storage entirely ({!add} becomes a no-op) — the toggle the
    tracing-overhead benchmark flips.

    All operations are thread-safe; entries are immutable once added. *)

type entry = {
  trace_id : string;  (** wire trace id (32 lowercase hex chars) *)
  started : float;  (** wall-clock start (seconds since epoch) *)
  elapsed : float;  (** request wall time in seconds *)
  status : string;  (** wire status the request was answered with *)
  spans : Trace.span list;
      (** completed spans in open order; the root is the request span *)
  progress : Progress.event list;  (** incumbent trajectory, oldest first *)
}

type t

val create : ?capacity:int -> unit -> t
(** [capacity] defaults to 256 entries. *)

val default : t
(** The process-global store shared by {!Pb_net.Server}, the shell's
    [\traces] command and the HTTP trace endpoint. *)

val set_capacity : t -> int -> unit
(** Shrinking evicts oldest entries immediately; [<= 0] disables. *)

val add : t -> entry -> unit
(** Store an entry, evicting the oldest past capacity. Re-adding an
    existing id replaces that entry. No-op when capacity is 0. *)

val find : t -> string -> entry option
val ids : t -> string list
(** Stored ids, oldest first. *)

val render : entry -> string
(** Header line, indented span tree, and the progress trajectory —
    the [\traces <id>] output. The root span renders under the wire
    trace id. *)

val to_json : entry -> string
(** One JSON object: [{"trace_id":…,"started":…,"elapsed_s":…,
    "status":…,"spans":[…],"progress":[…]}]. Span ids are strings; the
    root span's id {e is} the trace id, so a client can check the tree
    it retrieves is rooted at the id it generated. *)
