(** Output-shape inference for SELECT blocks, shared by the row engine
    ({!Executor}) and the columnar fast path ({!Columnar}) so both derive
    the exact same result schema from a query. *)

val infer_item_name : int -> Ast.select_item -> string

val expand_items :
  Pb_relation.Schema.t -> Ast.select_item list -> Ast.select_item list
(** Expand [*] into one aliased column item per schema column. *)

val grouped : Ast.select -> Ast.select_item list -> bool
(** Whether the query runs in grouped mode (GROUP BY present, or an
    aggregate in the expanded items or HAVING). *)

val output_schema :
  Pb_relation.Schema.t -> Ast.select_item list -> Pb_relation.Schema.t
(** Result schema for the expanded items: inferred names and types, with
    collision fallback to qualified names and positional suffixes. *)
