(** The interactive shell's engine, factored out of the CLI so the whole
    command surface is unit-testable: one call maps an input line to its
    textual response plus the updated session state.

    Input forms:

    - PaQL queries (any line whose first keyword sequence contains
      [PACKAGE]) — evaluated with the session's sticky strategy
      (hybrid until [\strategy] changes it); the result is remembered
      for [\save];
    - SQL statements — executed against the session database;
    - backslash commands:
      {v
      \help                 this list
      \tables               list tables
      \schema TABLE         show a table's columns
      \packages             list saved packages
      \save NAME            save the last query's package
      \revalidate NAME      re-check a saved package
      \drop NAME            delete a saved package
      \explain QUERY        pruning bounds, cost model, plan
      \explain analyze QUERY run the query; print span tree + counters
      \metrics              dump the metrics registry (Prometheus text)
      \slowlog [S|off|clear] slow-query log; S = threshold in seconds
      \strategy [NAME]      show or set the evaluation strategy
      \complete PREFIX      auto-suggest next tokens
      \next K QUERY         top-K packages
      \dump DIR             persist the database to a directory
      \quit                 leave (the CLI handles the actual exit)
      v} *)

type state

val create : ?cache:Pb_sql.Plan_cache.t -> Pb_sql.Database.t -> state
(** [cache] is the prepared-plan cache consulted for every SQL line; it
    defaults to a fresh private cache. The server passes one shared cache
    so all connections benefit from each other's prepared statements. *)

val database : state -> Pb_sql.Database.t

type reaction = {
  output : string;  (** text to print (may be multi-line, "" for quiet) *)
  quit : bool;  (** true after [\quit] *)
}

val render_paql_result : Pb_core.Engine.result -> string
(** A PaQL answer as the shell prints it: the package table (or "no
    valid package"), the objective, and a one-line strategy footer with
    the proof annotation and elapsed seconds. The shard router renders
    its answers with it too, so both read the same. *)

val handle : ?gov:Pb_util.Gov.t -> state -> string -> reaction
(** Process one input line. The state is mutated in place (the database
    is shared); errors of any kind are reported in [output] rather than
    raised. Blank lines produce empty output.

    [gov] governs the evaluation: PaQL queries run under it through
    {!Pb_core.Engine.run} (a stop yields the best incumbent with a
    "(cancelled)" footer), SQL statements poll it inside every operator
    loop (a stop reports ["cancelled: <reason>"] as the output), and
    [\next] shares it across its successive solves. The server passes a
    per-request token carrying the request deadline; the interactive
    CLI passes none. *)
