(** PaQL parser: the SQL grammar extended with PACKAGE / REPEAT /
    SUCH THAT / MAXIMIZE / MINIMIZE, sharing the SQL expression
    sub-parsers so WHERE and SUCH THAT accept the full SQL expression
    language (including subqueries, which PaQL allows in SUCH THAT). *)

exception Parse_error of string
(** Re-raised from the SQL layer with PaQL context. *)

val parse : string -> Ast.t
(** Parse one PaQL query. Raises {!Parse_error} on malformed input, on a
    FROM clause with more than one relation, or when the PACKAGE argument
    does not match the FROM alias. *)
