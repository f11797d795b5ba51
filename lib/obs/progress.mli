(** Solver progress telemetry: the incumbent trajectory of a run.

    Every time a strategy improves its best-so-far answer — a
    branch-and-bound incumbent, a brute-force first/best candidate, a
    local-search accepted move — it emits one {!event} carrying the
    elapsed time, the new objective, the best proven bound (when the
    strategy has one), the relative gap, and the work done so far. This
    is the (time, quality) trajectory the paper's interactive story
    needs and the data model a future anytime serving mode will stream.

    Events are routed to {e recorders} keyed by the {!Pb_util.Gov}
    family id of the run's governance token (not by thread:
    SketchRefine runs refine legs on pool domains, and their child
    tokens share the request family). Recorders nest — the engine installs one per run,
    the server one per request — and each receives every event of its
    family. With no recorder installed anywhere, {!incumbent} is one
    atomic load. *)

type event = {
  seq : int;  (** 0-based index within the recorder *)
  elapsed : float;  (** seconds since the recorder was installed *)
  objective : float;  (** the new incumbent's objective value *)
  bound : float option;
      (** best proven bound on the optimum at emit time (branch-and-bound
          only); [None] for heuristics and for infinite root bounds *)
  gap : float option;
      (** [|bound - objective| / max(1, |objective|)]; [None] without a
          bound *)
  nodes : int;  (** strategy work units so far (B&B nodes popped,
                    candidates examined, search rounds) *)
  strategy : string;  (** emitting strategy, e.g. ["ilp"] *)
}

val with_recorder :
  ?capacity:int -> key:int -> (unit -> 'a) -> 'a * event list
(** Install a recorder for governance family [key] around the thunk and
    return the events it captured, oldest first. [capacity] (default
    512) bounds the buffer; once full, the {e oldest} events are
    dropped ([seq] exposes the loss). Reentrant and exception-safe (on
    a raise the recorder is uninstalled and its events are lost with
    the return value). *)

val incumbent :
  key:int -> strategy:string -> ?bound:float -> nodes:int -> float -> unit
(** [incumbent ~key ~strategy ?bound ~nodes objective] appends one event
    to every recorder installed for [key]; no-op when there is none.
    Non-finite bounds are recorded as no bound. Safe from any thread or
    domain. *)

val event_to_string : event -> string
(** One line: ["#seq +1.234s strategy obj=… bound=… gap=… nodes=…"]. *)

val to_json : event list -> string
(** JSON array of event objects ([bound]/[gap] are [null] when absent). *)
