(** Synthetic data sets for the paper's three motivating scenarios.

    The demo ran on "a rich recipe data set scrapped from online recipe
    and nutrition websites", which is not available; these generators
    produce deterministic substitutes (fixed seed ⇒ identical tables)
    whose marginals match published nutrition-facts ranges, so the
    experiments exercise the same constraint structure at any scale. *)

val recipes : ?seed:int -> n:int -> unit -> Pb_relation.Relation.t
(** Recipe table with columns: [id INT], [name TEXT], [cuisine TEXT],
    [gluten TEXT] ('free' | 'full'), [calories INT] (roughly 150–1200),
    [protein INT] (g), [fat INT] (g), [carbs INT] (g), [sugar INT] (g),
    [cost FLOAT] ($), [rating FLOAT] (1–5), [prep_minutes INT].
    Calories correlate with the macronutrients (4/4/9 kcal per gram plus
    noise), as in real nutrition data. *)

val install :
  ?seed:int ->
  ?recipes_n:int ->
  ?destinations:int ->
  ?stocks_n:int ->
  ?electives:int ->
  Pb_sql.Database.t ->
  unit
(** Create tables [recipes], [travel_items], [stocks] and [courses]
    (defaults: 500 recipes, 8 destinations, 200 stocks, 40 electives).

    [travel_items] is the vacation-planner table mixing flights, hotels
    and car rentals, one row per bookable item: [id], [kind]
    ('flight'|'hotel'|'car'), [name], [destination TEXT], [price FLOAT],
    [is_flight INT], [is_hotel INT], [is_car INT] (0/1 indicator columns
    — PaQL global constraints use them to require exactly one of each
    kind), [beach_distance FLOAT] (km, hotels; 0 for others), [rating
    FLOAT]. Each destination gets 3–6 flights, 4–8 hotels, 2–4 cars;
    hotel prices anti-correlate with beach distance so the paper's
    "walking distance unless the budget fits a rental car" trade-off is
    realizable.

    [stocks] is the investment-portfolio table: [id], [ticker TEXT],
    [sector TEXT], [price FLOAT] (per 100-share lot, ~100–10000, so
    scenario budgets in the tens of thousands bind), [expected_return
    FLOAT] (annual %, can be negative), [risk FLOAT] (volatility 0–1),
    [is_tech INT] (0/1), [horizon TEXT] ('short'|'long'), [is_short INT],
    [is_long INT]. Tech stocks have higher expected return and risk.

    [courses] is the course-catalog table for the §6 CourseRank
    comparison ("[PaQL] can easily express pre-requisite constraints
    typical of course package recommendation systems"): [id], [code
    TEXT], [dept TEXT], [credits INT] (2–5), [level INT] (100–400),
    [rating FLOAT] (1–5), [hours INT] (weekly workload), and 0/1
    indicator columns [is_cs101], [is_cs201], [is_cs301], [is_cs401] for
    a four-course core chain where each course presupposes the previous
    one. A prerequisite then becomes the linear global constraint
    [SUM(P.is_cs201) <= SUM(P.is_cs101)], etc. The table holds the chain
    plus the electives (all indicator columns 0). *)

val load :
  ?db_dir:string ->
  tables:string list ->
  size:int ->
  seed:int ->
  unit ->
  Pb_sql.Database.t
(** The database the command-line tools ([main.exe], [pb_server]) start
    from: the persisted database in [db_dir] when it holds a
    [manifest.txt]; otherwise one table per [NAME=PATH] CSV spec in
    [tables]; otherwise {!install} with [size] recipes, destinations and
    stocks scaled along, and [seed]. Fails on a spec without [=]. *)
