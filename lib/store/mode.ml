type t = Row | Columnar

let of_string s =
  match String.lowercase_ascii s with
  | "row" | "rows" -> Some Row
  | "columnar" | "column" | "col" -> Some Columnar
  | _ -> None

let to_string = function Row -> "row" | Columnar -> "columnar"

(* An env-seeded Atomic so benches and tests flip it at runtime.
   Columnar is the default; the row engine stays
   available as the differential oracle via PB_STORE=row. *)
let mode =
  Atomic.make
    (match Sys.getenv_opt "PB_STORE" with
    | Some s -> ( match of_string s with Some m -> m | None -> Columnar)
    | None -> Columnar)

let current () = Atomic.get mode
let set m = Atomic.set mode m
let columnar () = Atomic.get mode = Columnar
