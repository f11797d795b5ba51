(** Abstract syntax of PaQL package queries (§2 of the paper).

    A PaQL query has the shape

    {v
    SELECT PACKAGE(R) AS P
    FROM <relation> R [REPEAT k]
    WHERE <base constraints on R>
    SUCH THAT <global constraints on P>
    [MAXIMIZE | MINIMIZE] <aggregate over P>
    v}

    Expressions reuse the SQL AST ({!Pb_sql.Ast.expr}): base constraints
    are ordinary row predicates over the input alias; global constraints
    and the objective are aggregate expressions over the package alias.

    Multiplicity semantics: without REPEAT each input tuple may appear at
    most once in a package. [REPEAT k] allows up to [k] {e additional}
    copies, i.e. multiplicity at most [k + 1] — the convention of the full
    PaQL specification the demo refers to ([1] in the paper). *)

type direction = Maximize | Minimize

type t = {
  input_relation : string;  (** table named in FROM *)
  input_alias : string;     (** alias bound in FROM (defaults to the table name) *)
  package_alias : string;   (** P in [PACKAGE(R) AS P] (defaults to ["package"]) *)
  repeat : int option;      (** [REPEAT k]: up to k extra copies per tuple *)
  where : Pb_sql.Ast.expr option;
  such_that : Pb_sql.Ast.expr option;
  objective : (direction * Pb_sql.Ast.expr) option;
}

val max_multiplicity : t -> int
(** [1 + repeat] (1 when REPEAT is absent). *)

val to_string : t -> string
(** Pretty-print in PaQL concrete syntax; parses back to an equal query. *)
