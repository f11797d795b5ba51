module Prng = Pb_util.Prng
module Schema = Pb_relation.Schema
module Relation = Pb_relation.Relation
module Value = Pb_relation.Value

let dish_bases =
  [|
    "chicken"; "tofu"; "salmon"; "quinoa"; "lentil"; "beef"; "mushroom";
    "spinach"; "chickpea"; "turkey"; "egg"; "rice"; "pasta"; "kale";
    "shrimp"; "pork"; "bean"; "avocado"; "oat"; "yogurt";
  |]

let dish_styles =
  [|
    "bowl"; "salad"; "stir-fry"; "curry"; "soup"; "wrap"; "bake"; "stew";
    "skillet"; "roast"; "tacos"; "pilaf"; "omelette"; "chili"; "gratin";
  |]

let cuisines =
  [| "italian"; "mexican"; "indian"; "thai"; "greek"; "japanese"; "american"; "moroccan" |]

let int_col name = { Schema.name; ty = Value.T_int }
let float_col name = { Schema.name; ty = Value.T_float }
let text_col name = { Schema.name; ty = Value.T_str }

let recipes ?(seed = 1) ~n () =
  let rng = Prng.create seed in
  let schema =
    Schema.make
      [
        int_col "id"; text_col "name"; text_col "cuisine"; text_col "gluten";
        int_col "calories"; int_col "protein"; int_col "fat"; int_col "carbs";
        int_col "sugar"; float_col "cost"; float_col "rating";
        int_col "prep_minutes";
      ]
  in
  let rows =
    List.init n (fun id ->
        let name =
          Printf.sprintf "%s %s #%d" (Prng.choice rng dish_bases)
            (Prng.choice rng dish_styles) (id + 1)
        in
        let protein = Prng.int_in rng 4 60 in
        let fat = Prng.int_in rng 2 50 in
        let carbs = Prng.int_in rng 5 120 in
        let sugar = min carbs (Prng.int_in rng 0 45) in
        (* 4 kcal/g protein and carbs, 9 kcal/g fat, plus kitchen noise. *)
        let calories =
          max 150
            ((4 * protein) + (4 * carbs) + (9 * fat)
            + Prng.int_in rng (-60) 120)
        in
        let gluten =
          (* Grain-heavy dishes are more likely to contain gluten. *)
          if carbs > 60 then if Prng.int rng 100 < 75 then "full" else "free"
          else if Prng.int rng 100 < 35 then "full"
          else "free"
        in
        let cost =
          Float.round
            ((2.0 +. Prng.float rng 16.0 +. (float_of_int protein /. 10.0))
            *. 100.0)
          /. 100.0
        in
        let rating =
          Float.round ((1.0 +. Prng.float rng 4.0) *. 10.0) /. 10.0
        in
        [|
          Value.Int (id + 1); Value.Str name;
          Value.Str (Prng.choice rng cuisines); Value.Str gluten;
          Value.Int calories; Value.Int protein; Value.Int fat;
          Value.Int carbs; Value.Int sugar; Value.Float cost;
          Value.Float rating; Value.Int (Prng.int_in rng 5 90);
        |])
  in
  Relation.create schema rows

let destinations_pool =
  [|
    "maui"; "cancun"; "bali"; "fiji"; "phuket"; "barbados"; "mauritius";
    "seychelles"; "maldives"; "tulum"; "kauai"; "zanzibar"; "santorini";
    "ibiza"; "aruba"; "bora-bora";
  |]

let airlines = [| "transpacific"; "skyway"; "bluebird"; "meridian"; "coastal" |]
let hotel_brands = [| "palms"; "lagoon"; "vista"; "coral"; "breeze"; "dunes" |]
let car_firms = [| "swift"; "island-wheels"; "sunny"; "atlas" |]

let travel_items ?(seed = 2) ~n_destinations () =
  let rng = Prng.create seed in
  let schema =
    Schema.make
      [
        int_col "id"; text_col "kind"; text_col "name"; text_col "destination";
        float_col "price"; int_col "is_flight"; int_col "is_hotel";
        int_col "is_car"; float_col "beach_distance"; float_col "rating";
      ]
  in
  let next_id = ref 0 in
  let fresh_id () =
    incr next_id;
    !next_id
  in
  let money x = Float.round (x *. 100.0) /. 100.0 in
  let rows = ref [] in
  let emit row = rows := row :: !rows in
  for d = 0 to n_destinations - 1 do
    let dest = destinations_pool.(d mod Array.length destinations_pool) in
    let dest =
      if d < Array.length destinations_pool then dest
      else Printf.sprintf "%s-%d" dest (d / Array.length destinations_pool)
    in
    let base_fare = 350.0 +. Prng.float rng 900.0 in
    for _ = 1 to Prng.int_in rng 3 6 do
      emit
        [|
          Value.Int (fresh_id ()); Value.Str "flight";
          Value.Str (Printf.sprintf "%s air to %s" (Prng.choice rng airlines) dest);
          Value.Str dest;
          Value.Float (money (base_fare +. Prng.float rng 400.0));
          Value.Int 1; Value.Int 0; Value.Int 0; Value.Float 0.0;
          Value.Float (Float.round ((2.0 +. Prng.float rng 3.0) *. 10.0) /. 10.0);
        |]
    done;
    for _ = 1 to Prng.int_in rng 4 8 do
      let beach = Prng.float rng 12.0 in
      (* Closer to the beach means pricier: anti-correlation drives the
         paper's rental-car trade-off. *)
      let nightly = 80.0 +. Prng.float rng 120.0 +. (300.0 /. (1.0 +. beach)) in
      emit
        [|
          Value.Int (fresh_id ()); Value.Str "hotel";
          Value.Str (Printf.sprintf "%s %s resort" dest (Prng.choice rng hotel_brands));
          Value.Str dest;
          Value.Float (money (nightly *. 5.0));  (* five-night stay *)
          Value.Int 0; Value.Int 1; Value.Int 0;
          Value.Float (Float.round (beach *. 10.0) /. 10.0);
          Value.Float (Float.round ((2.5 +. Prng.float rng 2.5) *. 10.0) /. 10.0);
        |]
    done;
    for _ = 1 to Prng.int_in rng 2 4 do
      emit
        [|
          Value.Int (fresh_id ()); Value.Str "car";
          Value.Str (Printf.sprintf "%s rental (%s)" (Prng.choice rng car_firms) dest);
          Value.Str dest;
          Value.Float (money (120.0 +. Prng.float rng 280.0));
          Value.Int 0; Value.Int 0; Value.Int 1; Value.Float 0.0;
          Value.Float (Float.round ((3.0 +. Prng.float rng 2.0) *. 10.0) /. 10.0);
        |]
    done
  done;
  Relation.create schema (List.rev !rows)

let sectors =
  [| "tech"; "health"; "energy"; "finance"; "consumer"; "industrial"; "utilities" |]

let stocks ?(seed = 3) ~n () =
  let rng = Prng.create seed in
  let schema =
    Schema.make
      [
        int_col "id"; text_col "ticker"; text_col "sector"; float_col "price";
        float_col "expected_return"; float_col "risk"; int_col "is_tech";
        text_col "horizon"; int_col "is_short"; int_col "is_long";
      ]
  in
  let rows =
    List.init n (fun id ->
        let sector = Prng.choice rng sectors in
        let is_tech = if sector = "tech" then 1 else 0 in
        let ticker =
          String.init 4 (fun _ -> Char.chr (Char.code 'A' + Prng.int rng 26))
        in
        let risk =
          let base = if is_tech = 1 then 0.35 else 0.15 in
          Float.round ((base +. Prng.float rng 0.5) *. 1000.0) /. 1000.0
        in
        (* Return scales with risk (plus noise); tech skews higher. *)
        let expected_return =
          Float.round
            ((risk *. 18.0) +. Prng.gaussian rng ~mean:2.0 ~stddev:4.0
            +. (if is_tech = 1 then 2.0 else 0.0))
          /. 1.0
        in
        let horizon = if Prng.bool rng then "short" else "long" in
        [|
          Value.Int (id + 1); Value.Str ticker; Value.Str sector;
          (* Price per 100-share lot, so a ~$50K budget binds at the
             portfolio sizes the scenario query asks for. *)
          Value.Float (Float.round ((100.0 +. Prng.float rng 9900.0) *. 100.0) /. 100.0);
          Value.Float expected_return; Value.Float risk; Value.Int is_tech;
          Value.Str horizon;
          Value.Int (if horizon = "short" then 1 else 0);
          Value.Int (if horizon = "long" then 1 else 0);
        |])
  in
  Relation.create schema rows

let departments = [| "cs"; "math"; "bio"; "econ"; "art"; "hist"; "phys" |]

let core_chain = [| "cs101"; "cs201"; "cs301"; "cs401" |]

let courses ?(seed = 4) ~n_electives () =
  let rng = Prng.create seed in
  let chain_cols =
    Array.to_list
      (Array.map (fun code -> int_col ("is_" ^ code)) core_chain)
  in
  let schema =
    Schema.make
      ([
         int_col "id"; text_col "code"; text_col "dept"; int_col "credits";
         int_col "level"; float_col "rating"; int_col "hours";
       ]
      @ chain_cols)
  in
  let next_id = ref 0 in
  let fresh_id () =
    incr next_id;
    !next_id
  in
  let mk_row ~code ~dept ~credits ~level ~chain_index =
    Array.of_list
      ([
         Value.Int (fresh_id ()); Value.Str code; Value.Str dept;
         Value.Int credits; Value.Int level;
         Value.Float (Float.round ((2.0 +. Prng.float rng 3.0) *. 10.0) /. 10.0);
         Value.Int (Prng.int_in rng 3 14);
       ]
      @ List.init (Array.length core_chain) (fun j ->
            Value.Int (if Some j = chain_index then 1 else 0)))
  in
  let chain_rows =
    List.init (Array.length core_chain) (fun j ->
        mk_row ~code:core_chain.(j) ~dept:"cs" ~credits:4
          ~level:((j + 1) * 100)
          ~chain_index:(Some j))
  in
  let elective_rows =
    List.init n_electives (fun i ->
        let dept = Prng.choice rng departments in
        let level = 100 * Prng.int_in rng 1 4 in
        mk_row
          ~code:(Printf.sprintf "%s%d" dept (level + i))
          ~dept
          ~credits:(Prng.int_in rng 2 5)
          ~level ~chain_index:None)
  in
  Relation.create schema (chain_rows @ elective_rows)

let install ?(seed = 7) ?(recipes_n = 500) ?(destinations = 8) ?(stocks_n = 200)
    ?(electives = 40) db =
  Pb_sql.Database.put db "recipes" (recipes ~seed ~n:recipes_n ());
  Pb_sql.Database.put db "travel_items"
    (travel_items ~seed:(seed + 1) ~n_destinations:destinations ());
  Pb_sql.Database.put db "stocks" (stocks ~seed:(seed + 2) ~n:stocks_n ());
  Pb_sql.Database.put db "courses"
    (courses ~seed:(seed + 3) ~n_electives:electives ())

let load ?db_dir ~tables ~size ~seed () =
  match db_dir with
  | Some dir when Sys.file_exists (Filename.concat dir "manifest.txt") ->
      Pb_sql.Persist.load_dir dir
  | _ ->
      let db = Pb_sql.Database.create () in
      if tables = [] then
        install ~seed ~recipes_n:size
          ~destinations:(max 2 (size / 60))
          ~stocks_n:(max 20 (size / 2))
          db
      else
        List.iter
          (fun spec ->
            match String.index_opt spec '=' with
            | Some i ->
                let name = String.sub spec 0 i in
                let path = String.sub spec (i + 1) (String.length spec - i - 1) in
                Pb_sql.Database.load_csv db ~name path
            | None ->
                failwith (Printf.sprintf "--table expects NAME=PATH, got %S" spec))
          tables;
      db
