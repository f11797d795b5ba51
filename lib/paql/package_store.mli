(** Persistent packages inside the database — the paper's §2 argument (a)
    for DB-level package support: "packages themselves are structured
    data objects that should naturally be stored in and manipulated by a
    database system."

    A saved package becomes two things in the catalog:

    - a data table [pkg_<name>] holding the package's tuples (with
      repetitions and a [pkg_pos] position column), immediately queryable
      with ordinary SQL — [SELECT SUM(calories) FROM pkg_mealplan];
    - a row in the [__pb_packages] metadata table recording the PaQL
      text, source relation and cardinality, so the package can be
      re-validated or re-optimized later (e.g. after the base data
      changed).

    Names are restricted to [[a-z0-9_]] (lower-cased on save). *)

val save :
  Pb_sql.Database.t -> name:string -> query:Ast.t -> Package.t -> unit
(** Save (or overwrite) a package under [name]. Raises [Failure] on
    invalid names. *)

type entry = {
  name : string;
  query_text : string;  (** PaQL source, reparseable *)
  source_relation : string;
  cardinality : int;
}

val list_saved : Pb_sql.Database.t -> entry list
(** Saved packages sorted by name; empty when none were ever saved. *)

val delete : Pb_sql.Database.t -> name:string -> bool
(** True when something was deleted. *)

val revalidate : Pb_sql.Database.t -> name:string -> (bool, string) result
(** Re-check the stored package against its stored query and the {e
    current} base data: reconstructs the package by matching stored rows
    against today's candidates, then runs the §4 validator. [Ok false]
    means the package no longer satisfies its query (e.g. the base table
    changed); [Error] reports missing metadata, unparseable stored text,
    or stored tuples that no longer exist. *)
