(** Recursive-descent parser for the SQL subset.

    Grammar highlights: SELECT [DISTINCT] items FROM t [alias], ...
    [WHERE expr] [GROUP BY exprs] [HAVING expr] [ORDER BY expr [ASC|DESC],
    ...] [LIMIT k]; expressions cover arithmetic, comparisons, AND/OR/NOT,
    BETWEEN, [NOT] IN (list | subquery), EXISTS (subquery), IS [NOT] NULL,
    [NOT] LIKE, aggregates, and scalar functions. DDL/DML: CREATE TABLE,
    INSERT INTO ... VALUES, DELETE, UPDATE, DROP TABLE.

    The expression entry points are also used by the PaQL parser for the
    WHERE and SUCH THAT clauses. *)

exception Parse_error of string

type state
(** Token cursor; exposed so {!Paql.Parser} can share sub-parsers. *)

val state_of_tokens : Lexer.token list -> state
val peek : state -> Lexer.token
val advance : state -> Lexer.token
val expect_keyword : state -> string -> unit
val accept_keyword : state -> string -> bool
val expect : state -> Lexer.token -> unit
val accept : state -> Lexer.token -> bool
val fail : state -> string -> 'a

val parse_expr_state : state -> Ast.expr
val parse_identifier : state -> string

val parse_select : string -> Ast.select
val parse_statement : string -> Ast.statement
val parse_script : string -> Ast.statement list
(** Semicolon-separated statements. *)
