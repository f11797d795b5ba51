(** Process-wide storage-engine toggle, seeded from the [PB_STORE]
    environment variable ([row] or [columnar]; default [columnar]).
    The row engine is the differential oracle: every columnar fast
    path must produce results identical to what the row engine returns
    for the same statement. *)

type t = Row | Columnar

val to_string : t -> string

val current : unit -> t
val set : t -> unit

val columnar : unit -> bool
(** [current () = Columnar]. *)
