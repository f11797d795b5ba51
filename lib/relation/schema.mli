(** Relation schemas: ordered, named, typed columns.

    Column names are case-insensitive (stored lower-cased), matching the
    SQL front end. A column may carry a relation qualifier so that join
    results can disambiguate (e.g. ["r.id"] vs ["p.id"]). *)

type column = { name : string; ty : Value.ty }

type t
(** Immutable schema. *)

val make : column list -> t
(** Raises [Invalid_argument] on duplicate column names. *)

val columns : t -> column list
val arity : t -> int

val index_of : t -> string -> int option
(** Case-insensitive lookup. A lookup for an unqualified name ["id"] also
    matches a unique qualified column ["r.id"]; [None] if absent or
    ambiguous. *)

val index_of_exn : t -> string -> int
(** Like {!index_of} but raises [Not_found] with a descriptive message via
    [Failure]. *)

val column_ty : t -> string -> Value.ty option
val names : t -> string list

val qualify : string -> t -> t
(** [qualify alias schema] renames every column to ["alias.name"],
    dropping any previous qualifier. Used when a FROM clause aliases a
    relation. *)

val concat : t -> t -> t
(** Schema of a product/join; raises on clashes. *)

val equal : t -> t -> bool
