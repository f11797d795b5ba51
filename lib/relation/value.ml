type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string

type ty = T_bool | T_int | T_float | T_str

exception Type_error of string

let ty_of = function
  | Null -> None
  | Bool _ -> Some T_bool
  | Int _ -> Some T_int
  | Float _ -> Some T_float
  | Str _ -> Some T_str

let ty_to_string = function
  | T_bool -> "BOOL"
  | T_int -> "INT"
  | T_float -> "FLOAT"
  | T_str -> "TEXT"

let is_null = function Null -> true | _ -> false

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | Str _ -> 3

let compare_values a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | _ -> Int.compare (rank a) (rank b)

let equal a b = compare_values a b = 0

(* Keys are hashed as value lists directly, with no rendering and no
   allocation beyond an Int's float image. The hash must be consistent
   with [equal], which normalizes numerics (Int 3 = Float 3.), so numbers
   hash as floats; [Hashtbl.hash] already maps -0. to 0. and every NaN to
   one NaN, as [equal] does. *)
module Key = struct
  type nonrec t = t list

  let equal = List.equal equal

  let hash_value = function
    | Int i -> Hashtbl.hash (float_of_int i)
    | Float f -> Hashtbl.hash f
    | v -> Hashtbl.hash v

  let hash values =
    List.fold_left (fun h v -> (h * 31) + hash_value v) 0 values land max_int
end

module Key_tbl = Hashtbl.Make (Key)

let float_repr f =
  let round_trips s =
    match float_of_string_opt s with
    | Some g -> Int64.equal (Int64.bits_of_float g) (Int64.bits_of_float f)
    | None -> false
  in
  let s15 = Printf.sprintf "%.15g" f in
  if round_trips s15 then s15
  else
    let s16 = Printf.sprintf "%.16g" f in
    if round_trips s16 then s16 else Printf.sprintf "%.17g" f

let to_string = function
  | Null -> "NULL"
  | Bool b -> if b then "true" else "false"
  | Int i -> string_of_int i
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Printf.sprintf "%.0f" f
      else Printf.sprintf "%g" f
  | Str s -> s

let pp ppf v = Format.pp_print_string ppf (to_string v)

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | Bool b -> Some (if b then 1.0 else 0.0)
  | Null | Str _ -> None

let to_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | Bool b -> Some (if b then 1 else 0)
  | Null | Str _ | Float _ -> None

let of_literal s =
  if s = "" then Null
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> (
            match String.lowercase_ascii s with
            | "true" -> Bool true
            | "false" -> Bool false
            | _ -> Str s))

let numeric op_int op_float name a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (op_int x y)
  | (Int _ | Float _), (Int _ | Float _) -> (
      match (to_float a, to_float b) with
      | Some x, Some y -> Float (op_float x y)
      | _ -> assert false)
  | _ ->
      raise
        (Type_error
           (Printf.sprintf "%s: non-numeric operands (%s, %s)" name
              (to_string a) (to_string b)))

let add = numeric ( + ) ( +. ) "+"
let sub = numeric ( - ) ( -. ) "-"
let mul = numeric ( * ) ( *. ) "*"

let div a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | _ -> (
      match (to_float a, to_float b) with
      | Some _, Some 0.0 -> Null
      | Some x, Some y -> Float (x /. y)
      | _ ->
          raise
            (Type_error
               (Printf.sprintf "/: non-numeric operands (%s, %s)"
                  (to_string a) (to_string b))))

let neg = function
  | Null -> Null
  | Int i -> Int (-i)
  | Float f -> Float (-.f)
  | v -> raise (Type_error ("unary -: non-numeric operand " ^ to_string v))

let cmp_bool test a b =
  if is_null a || is_null b then Null else Bool (test (compare_values a b))

let logical_and a b =
  match (a, b) with
  | Bool false, _ | _, Bool false -> Bool false
  | Bool true, Bool true -> Bool true
  | (Null | Bool _), (Null | Bool _) -> Null
  | _ -> raise (Type_error "AND: non-boolean operand")

let logical_or a b =
  match (a, b) with
  | Bool true, _ | _, Bool true -> Bool true
  | Bool false, Bool false -> Bool false
  | (Null | Bool _), (Null | Bool _) -> Null
  | _ -> raise (Type_error "OR: non-boolean operand")

let logical_not = function
  | Bool b -> Bool (not b)
  | Null -> Null
  | _ -> raise (Type_error "NOT: non-boolean operand")

let truthy = function Bool true -> true | _ -> false
