module Value = Pb_relation.Value

(* A column holds the values of one attribute over the distinct rows of a
   table, in one of four unboxed typed layouts plus a boxed fallback.  The
   typed layout is chosen from the values actually present, not from the
   declared schema type: DML can smuggle a Float into an INT-declared
   column, and such a column must still round-trip exactly, so any mix of
   value constructors falls back to [Mixed].  Null is represented out of
   band (a byte-per-row map, allocated only when the column has nulls),
   which keeps the data arrays dense for the batch kernels. *)

type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
type ints = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Dictionary-encoded strings memoize LIKE-over-dictionary scans: a LIKE
   kernel matches each dictionary entry once and then answers per row by
   code lookup, so the memo turns repeated queries on a high-cardinality
   column from O(rows) matches into O(1) lookups. Guarded by a mutex
   because server threads can scan the same cached table concurrently. *)
type like_memo = { mu : Mutex.t; tbl : (string, bool array) Hashtbl.t }

type t =
  | Ints of { data : ints; nulls : Bytes.t option }
  | Floats of { data : floats; nulls : Bytes.t option }
  | Bools of { data : Bytes.t; nulls : Bytes.t option }
  | Strs of { dict : string array; codes : int array; memo : like_memo }
  | Mixed of Value.t array

let of_values (values : Value.t array) =
  let n = Array.length values in
  let ints = ref true
  and floats = ref true
  and bools = ref true
  and strs = ref true
  and has_null = ref false in
  Array.iter
    (fun v ->
      match v with
      | Value.Null -> has_null := true
      | Value.Int _ ->
          floats := false;
          bools := false;
          strs := false
      | Value.Float _ ->
          ints := false;
          bools := false;
          strs := false
      | Value.Bool _ ->
          ints := false;
          floats := false;
          strs := false
      | Value.Str _ ->
          ints := false;
          floats := false;
          bools := false)
    values;
  let nulls () =
    if not !has_null then None
    else begin
      let b = Bytes.make n '\000' in
      Array.iteri
        (fun i v -> if v = Value.Null then Bytes.set b i '\001')
        values;
      Some b
    end
  in
  if !ints then begin
    let data = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
    Array.iteri
      (fun i v -> data.{i} <- (match v with Value.Int x -> x | _ -> 0))
      values;
    Ints { data; nulls = nulls () }
  end
  else if !floats then begin
    let data = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n in
    Array.iteri
      (fun i v -> data.{i} <- (match v with Value.Float x -> x | _ -> 0.0))
      values;
    Floats { data; nulls = nulls () }
  end
  else if !bools then begin
    let data = Bytes.make n '\000' in
    Array.iteri
      (fun i v ->
        if (match v with Value.Bool b -> b | _ -> false) then
          Bytes.set data i '\001')
      values;
    Bools { data; nulls = nulls () }
  end
  else if !strs then begin
    let dict_tbl = Hashtbl.create 64 in
    let rev_dict = ref [] and next = ref 0 in
    let codes =
      Array.map
        (fun v ->
          match v with
          | Value.Null -> -1
          | Value.Str s -> (
              match Hashtbl.find_opt dict_tbl s with
              | Some c -> c
              | None ->
                  let c = !next in
                  incr next;
                  Hashtbl.add dict_tbl s c;
                  rev_dict := s :: !rev_dict;
                  c)
          | _ -> -1)
        values
    in
    let dict = Array.of_list (List.rev !rev_dict) in
    Strs
      {
        dict;
        codes;
        memo = { mu = Mutex.create (); tbl = Hashtbl.create 4 };
      }
  end
  else Mixed (Array.copy values)

let is_null nulls i =
  match nulls with None -> false | Some b -> Bytes.get b i = '\001'

let get t i =
  match t with
  | Ints { data; nulls } ->
      if is_null nulls i then Value.Null else Value.Int data.{i}
  | Floats { data; nulls } ->
      if is_null nulls i then Value.Null else Value.Float data.{i}
  | Bools { data; nulls } ->
      if is_null nulls i then Value.Null
      else Value.Bool (Bytes.get data i = '\001')
  | Strs { dict; codes; _ } ->
      let c = codes.(i) in
      if c < 0 then Value.Null else Value.Str dict.(c)
  | Mixed a -> a.(i)

(* [like_dict col ~key f] memoizes [f dict] (a per-dictionary-code match
   table) under [key] (the LIKE pattern). Only valid on [Strs]. *)
let like_dict t ~key f =
  match t with
  | Strs { dict; memo; _ } ->
      Mutex.lock memo.mu;
      let cached = Hashtbl.find_opt memo.tbl key in
      Mutex.unlock memo.mu;
      (match cached with
      | Some hits -> hits
      | None ->
          let hits = f dict in
          Mutex.lock memo.mu;
          (* First writer wins; a racing duplicate computed the same table. *)
          if not (Hashtbl.mem memo.tbl key) then Hashtbl.add memo.tbl key hits;
          Mutex.unlock memo.mu;
          hits)
  | _ -> invalid_arg "Column.like_dict: not a dictionary column"

(* Resident-size estimate in bytes; strings count header + payload, boxed
   fallback values a coarse per-cell figure. Used for the
   pb_store_bytes_resident gauge, not for allocation decisions. *)
let bytes t =
  let word = 8 in
  let null_bytes = function Some b -> Bytes.length b | None -> 0 in
  match t with
  | Ints { data; nulls } -> (word * Bigarray.Array1.dim data) + null_bytes nulls
  | Floats { data; nulls } ->
      (word * Bigarray.Array1.dim data) + null_bytes nulls
  | Bools { data; nulls } -> Bytes.length data + null_bytes nulls
  | Strs { dict; codes; _ } ->
      (word * Array.length codes)
      + Array.fold_left (fun acc s -> acc + String.length s + 24) 0 dict
  | Mixed a ->
      Array.fold_left
        (fun acc v ->
          acc + word
          +
          match v with
          | Value.Str s -> String.length s + 24
          | Value.Float _ -> 16
          | _ -> 0)
        0 a
