(** Metrics registry: named counters, gauges and fixed-bucket histograms.

    Instruments are registered once by name (repeat registration with the
    same name and kind returns the existing instrument) and updated with
    O(1) hot-path operations — a counter bump is one atomic fetch-and-add,
    no hashing. A process-global default registry backs the engine's
    instrumentation; tests create private registries.

    All operations are safe under concurrent use from multiple domains
    (the {!Pb_par} pool bumps counters from worker domains): counters
    and gauges are atomics, histograms and registration take a mutex,
    so no update is ever lost.

    Metric naming convention: [pb_<layer>_<what>[_total]], lowercase with
    underscores, Prometheus style — ["pb_sql_rows_scanned_total"],
    ["pb_milp_nodes_total"], ["pb_engine_runs_total"]. Counters end in
    [_total]; gauges and histograms name the quantity directly. *)

type registry
type counter
type gauge
type histogram

val create : unit -> registry

val counter : ?registry:registry -> ?help:string -> string -> counter
(** Register (or look up) a monotonically increasing counter.
    Raises [Invalid_argument] if the name is taken by another kind. *)

val gauge : ?registry:registry -> ?help:string -> string -> gauge

val histogram :
  ?registry:registry -> ?help:string -> buckets:float list -> string -> histogram
(** [buckets] are inclusive upper bounds (Prometheus [le] semantics);
    they are sorted, and a [+Inf] bucket is always appended. Repeat
    registration ignores [buckets] and returns the existing histogram.
    Raises [Invalid_argument] on an empty bucket list or a name clash. *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1) to the counter. Raises [Invalid_argument] on a
    negative increment. *)

val set : gauge -> float -> unit

val observe : histogram -> float -> unit
(** Record one observation into its bucket (first bound [>= v]). *)

val snapshot : ?registry:registry -> unit -> (string * float) list
(** Flat name→value view in registration order: counters and gauges by
    name; histograms contribute [name_count] and [name_sum]. Used for
    before/after deltas (EXPLAIN ANALYZE, bench scenarios). *)

val escape_help : string -> string
(** Exposition-format HELP escaping: [\ ] as [\\], newline as [\n]. *)

val escape_label : string -> string
(** Exposition-format label-value escaping: like {!escape_help} plus
    the double-quote character, which gains a backslash. *)

val dump : ?registry:registry -> unit -> string
(** Prometheus text exposition format: [# HELP]/[# TYPE] headers, then
    sample lines; histograms expose cumulative [name_bucket{le="…"}]
    series (the [+Inf] bucket always present and equal to [name_count])
    plus [name_sum] and [name_count]. HELP text and label values are
    escaped per the format ({!escape_help}, {!escape_label}). *)
