(** The one front end: every PaQL, SQL and backslash-command line —
    from the interactive shell, the [main.exe] subcommands, a
    [pb_server] session or the shard router — is classified and rendered
    here. One call maps an input line to its textual response plus the
    updated session state.

    Input forms ({!classify}):

    - PaQL queries (any line whose tokens include the [PACKAGE]
      keyword) — evaluated with the session's sticky strategy (hybrid
      until [\strategy] changes it); the result is remembered for
      [\save];
    - SQL statements — executed against the session database;
    - backslash commands — [\help] lists them. *)

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

val ok : string -> reaction
(** [ok output] does not quit. *)

val strategies : (string * Pb_core.Engine.strategy) list
(** The names [\strategy] and [main.exe --strategy] accept, each
    spelled as {!Pb_core.Engine.strategy_name} prints it in result
    footers. *)

type line =
  | Blank  (** whitespace only *)
  | Command of string * string
      (** [\name arg]: the name, and the rest after the first blank with
          its trailing whitespace kept ([\complete] depends on it) *)
  | Paql of string  (** trimmed; one trailing [;] stripped *)
  | Sql of string  (** trimmed; one trailing [;] stripped *)

val classify : string -> line
(** The dispatch {!handle} applies; the shard router applies it too. *)

val run_statements :
  exec:(Pb_sql.Ast.statement -> Pb_sql.Executor.result) ->
  Pb_sql.Ast.statement list ->
  (string, string) result
(** Run a parsed script through [exec], rendering every result (row
    tables capped at 40 rows, ["N row(s) affected"], ["ok"]). The first
    {!Pb_sql.Executor.Eval_error} or {!Pb_util.Gov.Interrupted} stops the
    script and becomes [Error "sql error: ..."] or
    [Error "cancelled: ..."]; other exceptions propagate. *)

val render_schema : Pb_sql.Database.t -> string -> string
(** The [\schema TABLE] answer: one [name type] line per column, or
    ["no such table: TABLE"]. *)

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
