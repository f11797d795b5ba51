(** Cooperative governance token: one value that carries everything a
    long-running evaluation needs to know about when it must stop —
    a wall-clock deadline, a cancellation flag settable from another
    thread or domain, and per-resource budgets (MILP branch-and-bound
    nodes, brute-force candidates, local-search restarts, SQL rows
    produced).

    Every evaluation loop in the engine polls a token at its loop head:
    MILP node pops, brute-force candidate visits, local-search rounds,
    SQL scan/join/aggregate chunks, and the domain pool between chunks.
    Polling is cheap (two atomic loads on the fast path; the wall clock
    is consulted only on a sampled subset of polls) so the granularity can be
    fine enough that a poison query stops within milliseconds of its
    deadline instead of burning a core to completion.

    Stopping is {e cooperative}: nothing is killed. A strategy that
    observes a stop reason returns its best incumbent so far (the
    serving contract of Brucato et al.'s SIGMOD'16 "Scalable Package
    Queries": bounded resources, interruptible evaluation, best-so-far
    answers), and the engine reports the result as [Cancelled] /
    [Feasible] rather than proven optimal. SQL loops, which have no
    useful partial answer, raise {!Interrupted} instead.

    Tokens form a tree: {!child} makes a token that inherits the
    parent's deadline and {e shares} its budget counters (resources
    spent by any child count against the family total) but has its own
    cancellation flag, so one leg of a fan-out (SketchRefine's refine
    MILPs) can be stopped without stopping the others, while cancelling
    the parent stops everyone. *)

type resource =
  | Milp_nodes  (** branch-and-bound nodes popped *)
  | Bf_candidates  (** brute-force candidate packages checked *)
  | Ls_restarts  (** local-search random restarts begun *)
  | Sql_rows  (** rows produced by SQL operators (scan/join/project) *)

type reason =
  | Cancelled  (** {!cancel} was called on this token or an ancestor *)
  | Deadline  (** the wall-clock deadline passed *)
  | Budget of resource  (** that resource's budget is exhausted *)

exception Interrupted of reason
(** Raised by {!tick} (and by SQL evaluation loops) when the token says
    stop. Strategies with a meaningful best-so-far catch it or use
    {!check} instead. *)

type t

val create :
  ?deadline_in:float ->
  ?deadline_at:float ->
  ?milp_nodes:int ->
  ?bf_candidates:int ->
  ?ls_restarts:int ->
  ?sql_rows:int ->
  unit ->
  t
(** [deadline_in] is seconds from now; [deadline_at] an absolute
    [Unix.gettimeofday] instant (when both are given the earlier wins).
    Budgets [<= 0] mean unlimited. Defaults: [milp_nodes = 200_000] and
    [bf_candidates = 5_000_000] (the engine's historical ad-hoc budgets);
    everything else unlimited, no deadline. So [create ()] reproduces the
    engine's pre-governance behaviour exactly. *)

val unlimited : unit -> t
(** No deadline, no budgets at all — for callers (tests, oracles) that
    must see a complete run. *)

val child : t -> t
(** A token with its own cancellation flag, the parent's deadline and
    budgets, and the parent's {e shared} spend counters. Cancelling the
    parent (or any ancestor) also stops the child; cancelling the child
    does not stop the parent. *)

val capped : t -> resource -> int -> t
(** [capped t r n] is a {!child} of [t] that may also spend at most [n]
    more of [r], counted from now, by itself and its own descendants:
    their spend still counts against the family's shared budget, and the
    token reports [Budget r] once either the family budget or its private
    cap is used up. Other tokens of the family do not see the cap.
    [n <= 0] adds no cap. *)

val family_id : t -> int
(** Process-unique id of the token's root family; {!child} tokens share
    their root's id. Observability keys per-run event streams by it
    (progress recorders see incumbents from legs on pool domains
    because their child tokens map back to the request's family). *)

val cancel : t -> unit
(** Flip the cancellation flag. Thread/domain/signal-safe; idempotent. *)

val cancelled : t -> bool
(** True once this token or any ancestor has been cancelled. *)

val check : ?resource:resource -> t -> reason option
(** The fast-path poll: [None] = keep going. Cancellation and deadline
    are request-global, so the first observation is latched and every
    later poll reports it. Budget exhaustion is consulted only for the
    [resource] the caller names and is {e not} latched: MILP running out
    of nodes must not read as a stop signal to the local-search or SQL
    loops sharing the token — each strategy polls its own meter. (Budget
    answers stay sticky regardless, because spend counters only grow.) *)

val tick : ?resource:resource -> t -> unit
(** [check] then raise {!Interrupted} on a stop reason. *)

val tick_opt : ?resource:resource -> t option -> unit
(** [tick] when the token is present; no-op on [None] — for plumbing
    through optional [?gov] parameters without a branch at each site. *)

val fate : t -> reason option
(** The latched stop reason — [Cancelled] or [Deadline] — if any poll
    has observed one; never consults the clock itself. This is what the
    engine uses to decide between reporting [Cancelled] and a mere
    budget-exhausted [Feasible] (budget stops are reported by each
    strategy's own outcome, not latched here). *)

val refresh : t -> reason option
(** Like {!check} with no resource, but always consults the wall clock
    (ordinary polls sample it). Called once at a run boundary it makes
    {!fate} reliable even when the run only ever polled {e child}
    tokens — SketchRefine solves its MILPs under children, whose
    latches are private, so a stop that originated on the request token
    itself would otherwise go unlatched on it. *)

val spend : t -> resource -> int -> unit
(** Record consumption. Counters are shared across the whole token
    family (atomic; safe from worker domains). *)

val spent : t -> resource -> int
val budget_left : t -> resource -> int option
(** Remaining budget, [None] = unlimited, under the tighter of the
    family budget and any {!capped} limit. Never negative. *)

val remaining_time : t -> float option
(** Seconds until the deadline, [None] = no deadline. Never negative. *)

val reason_to_string : reason -> string
(** ["cancelled"], ["deadline"], ["budget:milp_nodes"], ... — stable
    strings used by logs, metrics and the wire protocol. *)
