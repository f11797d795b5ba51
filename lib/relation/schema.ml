type column = { name : string; ty : Value.ty }

(* [index_of] used to scan [cols] per lookup — O(arity) string compares on
   every column reference the executor evaluates. The scan is now done once
   per schema into [lookup], a name -> resolution table covering both exact
   and base-name-suffix matches with the original ambiguity semantics.

   The table is built lazily and published through an [Atomic]: concurrent
   lookups from pool worker domains may race to build it, in which case each
   builds an identical table and one CAS wins — the table is never mutated
   after publication, so readers need no lock. *)
type resolution = Exact of int | Suffix of int | Ambiguous

type t = {
  cols : column array;
  lookup : (string, resolution) Hashtbl.t option Atomic.t;
}

let normalize name = String.lowercase_ascii name

let of_cols cols = { cols; lookup = Atomic.make None }

let make cols =
  let cols = List.map (fun c -> { c with name = normalize c.name }) cols in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun c ->
      if Hashtbl.mem seen c.name then
        invalid_arg ("Schema.make: duplicate column " ^ c.name)
      else Hashtbl.add seen c.name ())
    cols;
  of_cols (Array.of_list cols)

let columns t = Array.to_list t.cols
let arity t = Array.length t.cols

let base_name name =
  match String.rindex_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

let build_lookup cols =
  let tbl = Hashtbl.create (2 * Array.length cols) in
  (* Exact names first: an exact match always wins, wherever it sits. *)
  Array.iteri (fun i c -> Hashtbl.replace tbl c.name (Exact i)) cols;
  (* Base-name suffixes: a qualified column [r.id] answers for [id] only
     when no column is literally named [id] and no sibling shares the
     suffix (same semantics as the old per-lookup scan). *)
  Array.iteri
    (fun i c ->
      let b = base_name c.name in
      if b <> c.name then
        match Hashtbl.find_opt tbl b with
        | Some (Exact _) | Some Ambiguous -> ()
        | Some (Suffix _) -> Hashtbl.replace tbl b Ambiguous
        | None -> Hashtbl.replace tbl b (Suffix i))
    cols;
  tbl

let lookup_table t =
  match Atomic.get t.lookup with
  | Some tbl -> tbl
  | None ->
      let tbl = build_lookup t.cols in
      (* Publish fully built; on a lost race adopt the winner's table. *)
      if Atomic.compare_and_set t.lookup None (Some tbl) then tbl
      else (match Atomic.get t.lookup with Some tbl -> tbl | None -> tbl)

let index_of t name =
  match Hashtbl.find_opt (lookup_table t) (normalize name) with
  | Some (Exact i) | Some (Suffix i) -> Some i
  | Some Ambiguous | None -> None

let index_of_exn t name =
  match index_of t name with
  | Some i -> i
  | None ->
      failwith
        (Printf.sprintf "unknown or ambiguous column %S (have: %s)" name
           (String.concat ", " (Array.to_list (Array.map (fun c -> c.name) t.cols))))

let column_ty t name =
  match index_of t name with Some i -> Some t.cols.(i).ty | None -> None

let names t = Array.to_list (Array.map (fun c -> c.name) t.cols)

let qualify alias t =
  let alias = normalize alias in
  of_cols
    (Array.map
       (fun c -> { c with name = alias ^ "." ^ base_name c.name })
       t.cols)

let concat a b = make (columns a @ columns b)

let equal a b =
  arity a = arity b
  && Array.for_all2 (fun x y -> x.name = y.name && x.ty = y.ty) a.cols b.cols
