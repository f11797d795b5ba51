(* Seeded input generation. Everything a run feeds the program — the
   recipes table and every statement text — is derived here from the
   run's --seed with the stdlib PRNG, so the program under test only
   ever sees the generated inputs. *)

let cuisines =
  [| "italian"; "mexican"; "indian"; "thai"; "greek"; "japanese"; "american"; "moroccan" |]

(* One recipes row as the CSV cells the servers load. Floats always carry
   a decimal point so CSV type inference keeps them floats. Calories
   follow the macronutrients (4/4/9 kcal per gram) plus noise, so
   calorie windows and macro caps interact the way real data does. *)
let recipe_cells st id =
  let protein = 4 + Random.State.int st 57 in
  let fat = 2 + Random.State.int st 49 in
  let carbs = 5 + Random.State.int st 116 in
  let sugar = min carbs (Random.State.int st 46) in
  let calories =
    max 150 ((4 * protein) + (4 * carbs) + (9 * fat) - 60 + Random.State.int st 181)
  in
  let gluten =
    if carbs > 60 then if Random.State.int st 100 < 75 then "full" else "free"
    else if Random.State.int st 100 < 35 then "full"
    else "free"
  in
  let cost = 2.0 +. Random.State.float st 16.0 +. (float_of_int protein /. 10.0) in
  let rating = 1.0 +. Random.State.float st 4.0 in
  [|
    string_of_int id;
    Printf.sprintf "dish%d" id;
    cuisines.(Random.State.int st (Array.length cuisines));
    gluten;
    string_of_int calories;
    string_of_int protein;
    string_of_int fat;
    string_of_int carbs;
    string_of_int sugar;
    Printf.sprintf "%.2f" cost;
    Printf.sprintf "%.1f" rating;
    string_of_int (5 + Random.State.int st 86);
  |]

let header =
  "id,name,cuisine,gluten,calories,protein,fat,carbs,sugar,cost,rating,prep_minutes"

(* The recipes table as CSV text, ids 1..n. *)
let recipes_csv ~seed ~rows =
  let st = Random.State.make [| seed; 0x5eed |] in
  let buf = Buffer.create (rows * 64) in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  for id = 1 to rows do
    Buffer.add_string buf (String.concat "," (Array.to_list (recipe_cells st id)));
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

(* ------------------------------------------------------------------ *)
(* PaQL: a query is a base predicate, COUNT and calorie windows, a list
   of named side constraints and an objective; a tweak edits one part. *)

type paql = {
  where : string option;
  count : int;
  cal_lo : int;
  cal_hi : int;
  extra : (string * string) list;  (** constraint name, SUCH THAT text *)
  objective : string;
}

let paql_text q =
  let such =
    [ Printf.sprintf "COUNT(*) = %d" q.count;
      Printf.sprintf "SUM(P.calories) BETWEEN %d AND %d" q.cal_lo q.cal_hi ]
    @ List.map snd q.extra
  in
  Printf.sprintf "SELECT PACKAGE(R) AS P FROM recipes R%s SUCH THAT %s %s"
    (match q.where with Some w -> " WHERE " ^ w | None -> "")
    (String.concat " AND " such) q.objective

let pick st a = a.(Random.State.int st (Array.length a))

(* Side constraints the analyst adds and drops, scaled by package size. *)
let side_constraint st count =
  match Random.State.int st 4 with
  | 0 -> ("fat", Printf.sprintf "SUM(P.fat) <= %d" (count * (14 + Random.State.int st 14)))
  | 1 -> ("sugar", Printf.sprintf "SUM(P.sugar) <= %d" (count * (10 + Random.State.int st 14)))
  | 2 -> ("carbs", Printf.sprintf "SUM(P.carbs) >= %d" (count * (40 + Random.State.int st 30)))
  | _ -> ("protein", Printf.sprintf "SUM(P.protein) >= %d" (count * (25 + Random.State.int st 15)))

let explore_objectives = [| "MAXIMIZE SUM(P.carbs)"; "MINIMIZE SUM(P.cost)" |]

let explore_base st =
  let count = 3 + Random.State.int st 3 in
  let per_meal = 450 + Random.State.int st 250 in
  let width = count * (40 + Random.State.int st 120) in
  let where =
    match Random.State.int st 3 with
    | 0 -> Some "R.gluten = 'free'"
    | 1 -> Some (Printf.sprintf "R.cuisine <> '%s'" (pick st cuisines))
    | _ -> None
  in
  let extra = if Random.State.bool st then [ side_constraint st count ] else [] in
  { where; count; cal_lo = count * per_meal; cal_hi = (count * per_meal) + width;
    extra; objective = pick st explore_objectives }

(* One single-constraint tweak: move the calorie window, resize it, or
   add/drop a side constraint. *)
let tweak st q =
  match Random.State.int st 4 with
  | 0 ->
      let d = q.count * (Random.State.int st 81 - 40) in
      { q with cal_lo = q.cal_lo + d; cal_hi = q.cal_hi + d }
  | 1 ->
      let w = max (q.count * 20) (q.cal_hi - q.cal_lo + (q.count * (Random.State.int st 81 - 40))) in
      { q with cal_hi = q.cal_lo + w }
  | 2 when List.length q.extra < 3 ->
      let name, text = side_constraint st q.count in
      { q with extra = List.filter (fun (n, _) -> n <> name) q.extra @ [ (name, text) ] }
  | _ -> (
      match q.extra with
      | [] -> { q with extra = [ side_constraint st q.count ] }
      | _ :: rest -> { q with extra = rest })

(* Sketch sessions keep the constraint attributes fixed (calories, fat)
   and move only right-hand sides: the reuse a persisted partitioning
   would exploit. *)
let sketch_base st =
  let count = 4 + Random.State.int st 3 in
  let per_meal = 500 + Random.State.int st 200 in
  let width = count * (30 + Random.State.int st 60) in
  { where = None; count; cal_lo = count * per_meal; cal_hi = (count * per_meal) + width;
    extra = [ ("fat", Printf.sprintf "SUM(P.fat) <= %d" (count * (15 + Random.State.int st 12))) ];
    objective = pick st [| "MAXIMIZE SUM(P.protein)"; "MINIMIZE SUM(P.sugar)" |] }

let rhs_tweak st q =
  match Random.State.int st 3 with
  | 0 ->
      let d = q.count * (Random.State.int st 61 - 30) in
      { q with cal_lo = q.cal_lo + d; cal_hi = q.cal_hi + d }
  | 1 ->
      let w = max (q.count * 20) (q.cal_hi - q.cal_lo + (q.count * (Random.State.int st 41 - 20))) in
      { q with cal_hi = q.cal_lo + w }
  | _ ->
      { q with extra = [ ("fat", Printf.sprintf "SUM(P.fat) <= %d" (q.count * (15 + Random.State.int st 12))) ] }

(* ------------------------------------------------------------------ *)
(* SQL. Reads never mention [rating] and writes only set it, so every
   read answer is the same whatever the interleaving of reads and
   writes. All reads are totally ordered (ORDER BY a key or a GROUP BY
   column) and aggregate integer columns only, so a router merging
   shards in any order prints the same text as a single node. *)

(* Six shapes: one returns rows (filter + ORDER BY/LIMIT), five
   aggregate. A router merges the aggregates from partial results and
   serves the row-returning shape by pulling the table, so a sixth of its
   reads take the slow path and its median stays on the fast one.
   Statement [i] is shape [i mod 6] with parameter step [i / 6]: the
   texts are the same for every seed, so runs at different seeds differ
   in their data and their schedule, not in the cost mix of the pool. *)
let sql_read_kinds = 6

let sql_read i =
  let k = i / sql_read_kinds in
  match i mod sql_read_kinds with
  | 0 ->
      let lo = 300 + (130 * k) in
      Printf.sprintf
        "SELECT id, name, calories, protein FROM recipes WHERE calories BETWEEN %d AND %d AND protein > %d ORDER BY id LIMIT 15"
        lo (lo + 100) (20 + (5 * k))
  | 1 ->
      Printf.sprintf
        "SELECT cuisine, COUNT(*), SUM(calories), MIN(fat), MAX(protein) FROM recipes WHERE carbs < %d GROUP BY cuisine ORDER BY cuisine"
        (30 + (12 * k))
  | 2 ->
      let lo = 5 + (6 * k) in
      Printf.sprintf
        "SELECT cuisine, MIN(calories), MAX(protein) FROM recipes WHERE fat BETWEEN %d AND %d GROUP BY cuisine ORDER BY cuisine"
        lo (lo + 8)
  | 3 ->
      Printf.sprintf "SELECT gluten, COUNT(*), SUM(sugar) FROM recipes WHERE prep_minutes < %d GROUP BY gluten ORDER BY gluten"
        (15 + (12 * k))
  | 4 ->
      let lo = 10 + (7 * k) in
      Printf.sprintf "SELECT COUNT(*), MIN(calories), MAX(calories) FROM recipes WHERE protein BETWEEN %d AND %d" lo (lo + 10)
  | _ ->
      Printf.sprintf
        "SELECT cuisine, COUNT(*), MAX(fat) FROM recipes WHERE gluten = 'free' AND sugar < %d GROUP BY cuisine ORDER BY cuisine"
        (5 + (7 * k))

let sql_reads n = Array.init n sql_read

(* Point writes that keep the row count fixed. *)
let recipe_write st ~rows =
  Printf.sprintf "UPDATE recipes SET rating = %.1f WHERE id = %d"
    (1.0 +. (0.5 *. float_of_int (Random.State.int st 9)))
    (1 + Random.State.int st rows)

(* The analyst's shortlist, annotated between queries in the PaQL
   sessions; only [note] is ever written. *)
let shortlist_rows = 64

let shortlist_csv ~seed ~rows =
  let st = Random.State.make [| seed; 0x51 |] in
  let b = Buffer.create 1024 in
  Buffer.add_string b "id,recipe_id,note\n";
  for id = 1 to shortlist_rows do
    Buffer.add_string b (Printf.sprintf "%d,%d,0\n" id (1 + Random.State.int st rows))
  done;
  Buffer.contents b

let shortlist_write st =
  Printf.sprintf "UPDATE shortlist SET note = %d WHERE id = %d" (Random.State.int st 5)
    (1 + Random.State.int st shortlist_rows)

(* A fixed pool of [n] statements drawn with [f]; traffic samples from
   the pool, so the distinct texts stay within the plan cache. *)
let pool st n f = Array.init n (fun _ -> f st)

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* Indices 0..n-1 in seeded permutations, a fresh one per pass, so every
   index comes up equally often (to within one). *)
let walk st n =
  let order = Array.init n Fun.id and next = ref n in
  fun () ->
    if !next = n then begin
      shuffle st order;
      next := 0
    end;
    incr next;
    order.(!next - 1)
