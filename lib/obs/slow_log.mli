(** Slow-query log: record query texts whose execution exceeds a
    configurable wall-clock threshold.

    Off by default ([threshold () = None]). The log is a bounded
    in-memory buffer (the most recent 100 entries); surfaces like
    the REPL's [\slowlog] command render it. *)

val set_threshold : float option -> unit
(** [Some seconds] enables the log; [None] (the default) disables it. *)

val threshold : unit -> float option

val observe : query:string -> elapsed:float -> bool
(** Record the query if the log is enabled and [elapsed] meets the
    threshold; returns whether it was logged. *)

val clear : unit -> unit
(** Drop all entries (the threshold is kept). *)

val render : unit -> string
(** Human-readable listing of the logged entries, most recent first. *)
