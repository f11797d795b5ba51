(** Minimal RFC-4180-style CSV support, used by the CLI to load user data
    and by the workload generators to export generated relations. *)

val parse_file : string -> string list list
(** Parse a CSV file into rows of fields. Handles quoted fields, embedded
    commas, doubled quotes, and both [\n] and [\r\n] line endings. The
    final row needs no trailing newline. Raises [Failure] on an unclosed
    quote. *)

val row_to_string : string list -> string
(** One record, escaped and comma-joined, without the line ending — the
    streaming unit of {!write_file} (writers append ["\n"] per row). *)

val write_file : string -> string list list -> unit
(** Write rows as CSV text with [\n] line endings. *)
