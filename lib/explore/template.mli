(** The package template (§3.1): the tabular interface abstraction that
    couples a sample package with editable constraint representations —
    the terminal counterpart of Figure 1's central component.

    The template "is quite expressive but is not as powerful as the PaQL
    language itself": it only exposes conjunctive WHERE / SUCH THAT
    clauses and a single objective, which is exactly what {!render}
    displays and what {!Suggest} refines. *)

type t = {
  query : Pb_paql.Ast.t;
  sample : Pb_paql.Package.t option;  (** None until evaluation finds one *)
}

val create : Pb_sql.Database.t -> Pb_paql.Ast.t -> t
(** Evaluate the query (hybrid strategy) to obtain the initial sample
    package. *)

val render : ?show_summary:bool -> Pb_sql.Database.t -> t -> string
(** Multi-section rendering: sample package table, base constraints,
    global constraints, objective (all in both PaQL and natural
    language), and optionally the §3.2 visual summary. *)
