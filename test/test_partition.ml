(* Unit tests for the SketchRefine partitioner (lib/core/partition.ml)
   and for the sketch-refine strategy's determinism and governance
   contracts: partitions must be a disjoint complete cover with
   in-bounds centroids on any input (including degenerate ones), the
   whole strategy must be bit-identical at PB_DOMAINS=1 vs 8, and a
   deadline that fires mid-refine must surrender the current incumbent
   as [Feasible] — never [Cancelled] with a package in hand — leaving
   no refine MILP running behind the caller's back. *)

module Partition = Pb_core.Partition
module Coeffs = Pb_core.Coeffs
module Engine = Pb_core.Engine
module Gov = Pb_util.Gov
module Pool = Pb_par.Pool
module Value = Pb_relation.Value
module Relation = Pb_relation.Relation
module Schema = Pb_relation.Schema

(* ---- partitioner invariants ----------------------------------------- *)

let random_features ~seed ~n ~d =
  let st = Random.State.make [| seed |] in
  Array.init d (fun _ ->
      Array.init n (fun _ -> float_of_int (Random.State.int st 1000)))

(* Disjointness, completeness, per-group ordering, size accounting and
   the group-count ceiling, straight from the partition.mli contract. *)
let check_invariants name (t : Partition.t) ~n ~target =
  let groups = t.Partition.groups in
  if n = 0 then
    Alcotest.(check int) (name ^ ": empty input, no groups") 0
      (Array.length groups)
  else begin
    Alcotest.(check bool)
      (name ^ ": group count in [1, min target n]")
      true
      (let g = Array.length groups in
       g >= 1 && g <= max 1 (min target n));
    let seen = Array.make n false in
    Array.iter
      (fun g ->
        Alcotest.(check bool) (name ^ ": nonempty group") true
          (Array.length g > 0);
        Array.iteri
          (fun i idx ->
            Alcotest.(check bool) (name ^ ": index in range") true
              (idx >= 0 && idx < n);
            Alcotest.(check bool) (name ^ ": disjoint groups") false seen.(idx);
            seen.(idx) <- true;
            if i > 0 then
              Alcotest.(check bool) (name ^ ": ascending within group") true
                (g.(i - 1) < idx))
          g)
      groups;
    Alcotest.(check bool) (name ^ ": complete cover") true
      (Array.for_all Fun.id seen);
    Alcotest.(check int)
      (name ^ ": sizes sum to n")
      n
      (Array.fold_left (fun acc g -> acc + Array.length g) 0 groups)
  end

(* Every centroid coordinate lies within its group's per-feature
   [min, max] envelope. *)
let check_centroids name (t : Partition.t) ~features =
  Array.iteri
    (fun gi g ->
      Array.iteri
        (fun dim f ->
          let lo = Array.fold_left (fun a i -> Float.min a f.(i)) infinity g in
          let hi =
            Array.fold_left (fun a i -> Float.max a f.(i)) neg_infinity g
          in
          let c = t.Partition.centroids.(gi).(dim) in
          Alcotest.(check bool)
            (Printf.sprintf "%s: centroid (%d,%d) within [%g, %g]" name gi dim
               lo hi)
            true
            (c >= lo -. 1e-9 && c <= hi +. 1e-9))
        features)
    t.Partition.groups

let test_invariants_random () =
  List.iter
    (fun (n, d, target, seed) ->
      let features = random_features ~seed ~n ~d in
      let t = Partition.build ~target ~features ~n in
      let name = Printf.sprintf "n=%d d=%d target=%d" n d target in
      check_invariants name t ~n ~target;
      check_centroids name t ~features;
      (* the owner map must agree with the groups arrays *)
      Array.iteri
        (fun gi g ->
          Array.iter
            (fun idx ->
              Alcotest.(check int)
                (name ^ ": owner agrees")
                gi t.Partition.owner.(idx))
            g)
        t.Partition.groups)
    [ (500, 2, 23, 1); (64, 1, 8, 2); (100, 3, 100, 3); (17, 2, 5, 4) ]

let test_degenerate () =
  (* one row *)
  let t = Partition.build ~target:4 ~features:[| [| 3.0 |] |] ~n:1 in
  check_invariants "n=1" t ~n:1 ~target:4;
  Alcotest.(check int) "n=1: one group" 1 (Array.length t.Partition.groups);
  (* empty input *)
  let t0 = Partition.build ~target:4 ~features:[| [||] |] ~n:0 in
  Alcotest.(check int) "n=0: no groups" 0 (Array.length t0.Partition.groups);
  (* all rows identical: nothing to split on, one group *)
  let const = Array.make 40 7.5 in
  let tc = Partition.build ~target:8 ~features:[| const; const |] ~n:40 in
  check_invariants "all-identical" tc ~n:40 ~target:8;
  Alcotest.(check int) "all-identical: one group" 1 (Array.length tc.Partition.groups);
  (* no features at all (objective-less COUNT-only query): one group *)
  let tf = Partition.build ~target:5 ~features:[||] ~n:10 in
  check_invariants "no features" tf ~n:10 ~target:5;
  Alcotest.(check int) "no features: one group" 1 (Array.length tf.Partition.groups);
  (* fewer rows than requested partitions: clamps to n singleton groups *)
  let distinct = Array.init 5 float_of_int in
  let ts = Partition.build ~target:50 ~features:[| distinct |] ~n:5 in
  check_invariants "target>n" ts ~n:5 ~target:50;
  Alcotest.(check int) "target>n: n singleton groups" 5
    (Array.length ts.Partition.groups);
  (* nonpositive target clamps to one group *)
  let tz = Partition.build ~target:0 ~features:[| distinct |] ~n:5 in
  check_invariants "target=0" tz ~n:5 ~target:1;
  Alcotest.(check int) "target=0: one group" 1 (Array.length tz.Partition.groups)

let test_build_deterministic () =
  let features = random_features ~seed:9 ~n:300 ~d:2 in
  let t1 = Partition.build ~target:17 ~features ~n:300 in
  let t2 = Partition.build ~target:17 ~features ~n:300 in
  Alcotest.(check bool) "two builds are structurally equal" true (t1 = t2)

(* ---- differential against the reference partitioner ----------------- *)

(* Reference oracle: the straightforward median-split partitioner — every
   group a fresh ascending array, the largest picked by a list scan, each
   split a full sort of boxed (value, index) keys under polymorphic
   [compare]. Quadratic in the target, but obviously right; the
   production builder must reproduce it bit for bit. *)
module Reference = struct
  let widest_dim features idx =
    let best = ref (-1) and best_spread = ref 0.0 in
    Array.iteri
      (fun dim f ->
        let lo = ref f.(idx.(0)) and hi = ref f.(idx.(0)) in
        Array.iter
          (fun i ->
            let v = f.(i) in
            if v < !lo then lo := v;
            if v > !hi then hi := v)
          idx;
        let s = !hi -. !lo in
        if s > !best_spread then begin
          best := dim;
          best_spread := s
        end)
      features;
    if !best < 0 then None else Some !best

  let sort_asc a = Array.sort compare (a : int array)

  (* (groups, centroids) *)
  let build ~target ~features ~n =
    if n = 0 then ([||], [||])
    else begin
      let target = max 1 (min target n) in
      let splittable = ref [ Array.init n Fun.id ] and final = ref [] in
      let count () = List.length !splittable + List.length !final in
      let rec pick best = function
        | [] -> best
        | g :: rest ->
            let better =
              match best with
              | None -> true
              | Some b ->
                  Array.length g > Array.length b
                  || (Array.length g = Array.length b && g.(0) < b.(0))
            in
            pick (if better then Some g else best) rest
      in
      while count () < target && !splittable <> [] do
        let g = Option.get (pick None !splittable) in
        splittable := List.filter (fun h -> h != g) !splittable;
        match widest_dim features g with
        | None -> final := g :: !final
        | Some dim ->
            let f = features.(dim) in
            let by_value = Array.copy g in
            Array.sort (fun i j -> compare (f.(i), i) (f.(j), j)) by_value;
            let m = Array.length by_value in
            let left = Array.sub by_value 0 (m / 2)
            and right = Array.sub by_value (m / 2) (m - (m / 2)) in
            sort_asc left;
            sort_asc right;
            splittable := left :: right :: !splittable
      done;
      let groups = Array.of_list (!splittable @ !final) in
      Array.sort (fun a b -> compare a.(0) b.(0)) groups;
      let d = Array.length features in
      let centroids =
        Array.map
          (fun g ->
            Array.init d (fun dim ->
                let f = features.(dim) in
                Array.fold_left (fun acc i -> acc +. f.(i)) 0.0 g
                /. float_of_int (Array.length g)))
          groups
      in
      (groups, centroids)
    end
end

(* Same groups, same order, and centroids equal bit for bit (so NaN
   centroids match NaN centroids and 0. never stands in for -0.). *)
let same_as_reference (t : Partition.t) (groups, centroids) =
  t.Partition.groups = groups
  && Array.length t.Partition.centroids = Array.length centroids
  && Array.for_all2
       (fun a b ->
         Array.length a = Array.length b
         && Array.for_all2
              (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
              a b)
       t.Partition.centroids centroids

(* The partition.mli contract as a predicate, for the properties below. *)
let is_valid (t : Partition.t) ~n =
  let seen = Array.make n false in
  let ok = ref (n = 0 || Array.length t.Partition.groups > 0) in
  let prev_first = ref (-1) in
  Array.iter
    (fun g ->
      if Array.length g = 0 || g.(0) <= !prev_first then ok := false
      else prev_first := g.(0);
      Array.iteri
        (fun x i ->
          if i < 0 || i >= n || seen.(i) || (x > 0 && g.(x - 1) >= i) then
            ok := false
          else seen.(i) <- true)
        g)
    t.Partition.groups;
  !ok && Array.for_all Fun.id seen

(* Hostile feature columns: few distinct values (heavy duplicates), NaN
   in the first slot and elsewhere, signed zeros, infinities, constant
   columns; zero to three features; targets at and around the clamps. *)
let gen_instance st =
  let n =
    match Random.State.int st 4 with
    | 0 -> Random.State.int st 6
    | 1 | 2 -> Random.State.int st 60
    | _ -> 60 + Random.State.int st 240
  in
  let d = Random.State.int st 4 in
  let column () =
    let distinct = 1 + Random.State.int st (if Random.State.bool st then 4 else 1000) in
    let special = Random.State.int st 4 in
    let col =
      Array.init n (fun _ ->
          match (special, Random.State.int st 10) with
          | 1, 0 -> Float.nan
          | 2, 0 -> 0.0
          | 2, 1 -> -0.0
          | 3, 0 -> if Random.State.bool st then infinity else neg_infinity
          | _ -> float_of_int (Random.State.int st distinct) /. 4.0)
    in
    if n > 0 && Random.State.int st 4 = 0 then col.(0) <- Float.nan;
    col
  in
  let features = Array.init d (fun _ -> column ()) in
  let isqrt = int_of_float (sqrt (float_of_int n)) in
  let targets = [| 0; 1; 2; isqrt; n; n + 5; 1 + Random.State.int st (n + 1) |] in
  let target = targets.(Random.State.int st (Array.length targets)) in
  (n, features, target)

let seed_arb = QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))

let prop_build_matches_reference =
  QCheck.Test.make ~count:300 ~long_factor:20
    ~name:"partition: build = reference oracle, centroids bitwise" seed_arb
    (fun seed ->
      let n, features, target = gen_instance (Random.State.make [| seed |]) in
      same_as_reference
        (Partition.build ~target ~features ~n)
        (Reference.build ~target ~features ~n))

let prop_group_of_matches_scan =
  QCheck.Test.make ~count:200 ~long_factor:20
    ~name:"partition: group_of = membership scan" seed_arb (fun seed ->
      let n, features, target = gen_instance (Random.State.make [| seed |]) in
      let t = Partition.build ~target ~features ~n in
      let scan i =
        let found = ref (-1) in
        Array.iteri
          (fun p g -> if Array.exists (fun j -> j = i) g then found := p)
          t.Partition.groups;
        !found
      in
      List.for_all (fun i -> t.Partition.owner.(i) = scan i) (List.init n Fun.id)
      && Array.length t.Partition.owner = n)

(* ---- sketch-refine strategy: determinism across pool sizes ----------- *)

let mk_db ?(b_range = 100) ~seed n =
  let st = Random.State.make [| seed |] in
  let schema =
    Schema.make
      [
        { Schema.name = "id"; ty = Value.T_int };
        { Schema.name = "a"; ty = Value.T_int };
        { Schema.name = "b"; ty = Value.T_int };
      ]
  in
  let rows =
    List.init n (fun i ->
        [|
          Value.Int (i + 1);
          Value.Int (1 + Random.State.int st 50);
          Value.Int (Random.State.int st b_range);
        |])
  in
  let db = Pb_sql.Database.create () in
  Pb_sql.Database.put db "t" (Relation.create schema rows);
  db

let fingerprint (r : Engine.result) =
  ( (match r.package with
    | None -> []
    | Some p -> Array.to_list (Pb_paql.Package.multiplicities p)),
    r.objective,
    Engine.proof_to_string r.proof,
    r.stats )

(* Everything but the wall-clock fields of an outcome. *)
let outcome_fingerprint (o : Pb_core.Sketch_refine.outcome) =
  ( (match o.best with
    | None -> []
    | Some p -> Array.to_list (Pb_paql.Package.multiplicities p)),
    o.best_objective,
    (o.bound, o.gap, o.proven_optimal, o.partitions_built),
    (o.refine_steps, o.refined_partitions, o.stuck_partitions, o.sketch_status),
    (o.front, o.lp_bound, o.lp_pivots, o.kept_columns) )

(* Both the strategy (LP front first) and the partition/sketch/refine
   pipeline alone, which the front mostly pre-empts on this instance. *)
let test_pool_determinism () =
  let query =
    "SELECT PACKAGE(R) AS P FROM t R SUCH THAT COUNT(*) BETWEEN 1 AND 6 AND \
     SUM(P.a) <= 60 MAXIMIZE SUM(P.b)"
  in
  let params =
    { Pb_core.Sketch_refine.partitions = Some 20; fanout = 4 }
  in
  let run pool_size =
    Pool.with_pool pool_size (fun pool ->
        let db = mk_db ~seed:7 300 in
        let q = Pb_paql.Parser.parse query in
        Engine.run ~pool ~gov:(Gov.unlimited ())
          ~strategy:(Engine.Sketch_refine params) db q)
  in
  let run_pipeline pool_size =
    Pool.with_pool pool_size (fun pool ->
        let db = mk_db ~seed:7 300 in
        let c = Coeffs.make db (Pb_paql.Parser.parse query) in
        Pb_core.Sketch_refine.pipeline ~params ~pool ~gov:(Gov.unlimited ()) c)
  in
  let r1 = run 1 and r8 = run 8 in
  Alcotest.(check bool) "found a package" true (Option.is_some r1.package);
  Alcotest.(check bool) "pool size 1 and 8 bit-identical" true
    (fingerprint r1 = fingerprint r8);
  let p1 = run_pipeline 1 and p8 = run_pipeline 8 in
  Alcotest.(check bool) "pipeline found a package" true (Option.is_some p1.best);
  Alcotest.(check bool) "pipeline at pool size 1 and 8 bit-identical" true
    (outcome_fingerprint p1 = outcome_fingerprint p8)

(* ---- golden models: outcome fingerprints pinned at a known revision -- *)

(* Every SketchRefine model (sketches, refine legs, the LP front's
   reduced ILP) and every no-good cut comes out of {!Pb_core.Translate};
   a change to how rows become models shows up here as a different B&B
   tree, hence a different package, objective, pivot count or step count.
   The expected strings were recorded before the model builders moved
   into [Translate]. *)

let show_floats = function None -> "-" | Some v -> Printf.sprintf "%.17g" v

let show_mults mults =
  String.concat ","
    (List.concat
       (List.mapi (fun i m -> if m > 0 then [ Printf.sprintf "%d:%d" i m ] else []) mults))

let show_outcome o =
  let mults, obj, (bound, gap, proven, parts), (steps, refined, stuck, sketch),
      (front, lp_bound, pivots, kept) =
    outcome_fingerprint o
  in
  Printf.sprintf
    "[%s] obj=%s bound=%s gap=%s proven=%b parts=%d steps=%d refined=%d \
     stuck=%d sketch=%s front=%s lp_bound=%s pivots=%d kept=%d"
    (show_mults mults) (show_floats obj) (show_floats bound) (show_floats gap)
    proven parts steps refined stuck sketch front (show_floats lp_bound) pivots
    kept

let show_package c pkg =
  Printf.sprintf "[%s] obj=%s"
    (show_mults (Array.to_list (Pb_paql.Package.multiplicities pkg)))
    (show_floats (Coeffs.objective_of_mult c (Pb_paql.Package.multiplicities pkg)))

let golden_search ?(gov = Gov.unlimited ()) ?(params = Pb_core.Sketch_refine.default_params)
    db query =
  Pb_core.Sketch_refine.forget_warm_fronts ();
  let c = Coeffs.make db (Pb_paql.Parser.parse query) in
  Pool.with_pool 1 (fun pool -> Pb_core.Sketch_refine.search ~params ~pool ~gov c)

let golden_cases () =
  let db = mk_db ~seed:7 300 in
  let window =
    "SELECT PACKAGE(R) AS P FROM t R SUCH THAT COUNT(*) BETWEEN 1 AND 6 AND \
     SUM(P.a) <= 60 MAXIMIZE SUM(P.b)"
  in
  let certified = golden_search db window in
  let infeasible =
    golden_search db
      "SELECT PACKAGE(R) AS P FROM t R SUCH THAT COUNT(*) BETWEEN 1 AND 6 AND \
       SUM(P.a) >= 400 MAXIMIZE SUM(P.b)"
  in
  let gave_way =
    (* A correlated knapsack (value = weight + 10,000): the front's
       reduced ILP finds packages at once but cannot prove one optimal
       within its half of the node budget, so the pipeline runs on the
       other half. *)
    let st = Random.State.make [| 42 |] in
    let schema =
      Schema.make
        [
          { Schema.name = "id"; ty = Value.T_int };
          { Schema.name = "a"; ty = Value.T_int };
          { Schema.name = "b"; ty = Value.T_int };
        ]
    in
    let rows =
      List.init 1_000 (fun i ->
          let a = 100_000 + Random.State.int st 900_000 in
          [| Value.Int (i + 1); Value.Int a; Value.Int (a + 10_000) |])
    in
    let db = Pb_sql.Database.create () in
    Pb_sql.Database.put db "t" (Relation.create schema rows);
    golden_search ~gov:(Gov.create ~milp_nodes:2_000 ())
      ~params:{ Pb_core.Sketch_refine.default_params with partitions = Some 6 }
      db
      "SELECT PACKAGE(R) AS P FROM t R SUCH THAT COUNT(*) BETWEEN 1 AND 40 \
       AND SUM(P.a) <= 7777777 MAXIMIZE SUM(P.b)"
  in
  let pipeline =
    let c = Coeffs.make db (Pb_paql.Parser.parse window) in
    Pool.with_pool 1 (fun pool ->
        Pb_core.Sketch_refine.pipeline
          ~params:{ Pb_core.Sketch_refine.default_params with partitions = Some 20 }
          ~pool ~gov:(Gov.unlimited ()) c)
  in
  let pipeline_avg =
    let q =
      "SELECT PACKAGE(R) AS P FROM t R SUCH THAT COUNT(*) BETWEEN 2 AND 5 AND \
       AVG(P.b) > 60 AND SUM(P.a) < 40 MINIMIZE SUM(P.a)"
    in
    let c = Coeffs.make db (Pb_paql.Parser.parse q) in
    Pool.with_pool 1 (fun pool ->
        Pb_core.Sketch_refine.pipeline
          ~params:{ Pb_core.Sketch_refine.default_params with partitions = Some 30 }
          ~pool ~gov:(Gov.create ~milp_nodes:3_000 ()) c)
  in
  let ranked =
    let q = Pb_paql.Parser.parse window in
    let c = Coeffs.make db q in
    List.map (show_package c) (Engine.next_packages ~limit:4 db q)
  in
  let resampled =
    let q = Pb_paql.Parser.parse window in
    let c = Coeffs.make db q in
    match Pb_explore.Session.start db q with
    | Error e -> [ "error: " ^ e ]
    | Ok s ->
        (* every sample shown, oldest first *)
        let _, shown =
          List.fold_left
            (fun (s, shown) _ ->
              let keep =
                match Pb_paql.Package.support (Pb_explore.Session.current s) with
                | i :: _ -> [ i ]
                | [] -> []
              in
              match Pb_explore.Session.keep_and_resample s ~keep with
              | s, `Fresh -> (s, Pb_explore.Session.current s :: shown)
              | s, `Exhausted -> (s, shown))
            (s, [ Pb_explore.Session.current s ])
            [ 1; 2; 3 ]
        in
        List.rev_map (show_package c) shown
  in
  [
    ("front certified", show_outcome certified);
    ("front infeasible", show_outcome infeasible);
    ("front gave way", show_outcome gave_way);
    ("pipeline, 20 partitions", show_outcome pipeline);
    ("pipeline, AVG and MINIMIZE", show_outcome pipeline_avg);
  ]
  @ List.mapi (fun i s -> (Printf.sprintf "next_packages %d" i, s)) ranked
  @ List.mapi (fun i s -> (Printf.sprintf "resample %d" i, s)) resampled

let golden_expected =
  [
    ( "front certified",
      "[10:1,104:1,124:1,154:1,225:1,274:1] obj=547 bound=547 gap=0 \
       proven=true parts=0 steps=0 refined=0 stuck=0 sketch=lp-front \
       front=certified lp_bound=548 pivots=19 kept=300" );
    ( "front infeasible",
      "[] obj=- bound=- gap=- proven=true parts=0 steps=0 refined=0 \
       stuck=0 sketch=lp-infeasible front=infeasible lp_bound=- pivots=8 \
       kept=0" );
    ( "front gave way",
      "[4:1,8:1,13:1,16:1,17:1,31:1,36:1,79:1,116:1,131:1,180:1,182:1,\
       228:1,274:1,291:1,308:1,350:1,351:1,372:1,380:1,394:1,406:1,444:1,\
       453:1,523:1,532:1,584:1,586:1,624:1,631:1,670:1,737:1,751:1,796:1,\
       834:1,865:1,875:1,957:1,991:1,999:1] obj=8177680 bound=8177777 \
       gap=1.186155486641688e-05 proven=false parts=6 steps=3 refined=1 \
       stuck=0 sketch=optimal front=gave-way lp_bound=8177777 pivots=51 \
       kept=341" );
    ( "pipeline, 20 partitions",
      "[10:1,104:1,124:1,154:1,225:1,274:1] obj=547 bound=585 \
       gap=0.069469835466179158 proven=false parts=20 steps=2 refined=1 \
       stuck=0 sketch=optimal front=- lp_bound=- pivots=0 kept=0" );
    ( "pipeline, AVG and MINIMIZE",
      "[29:1,278:1] obj=3 bound=2 gap=0.33333333333333331 proven=false \
       parts=30 steps=2 refined=1 stuck=0 sketch=optimal front=- \
       lp_bound=- pivots=0 kept=0" );
    ( "next_packages 0",
      "[10:1,104:1,124:1,154:1,225:1,274:1] obj=547" );
    ( "next_packages 1",
      "[10:1,104:1,124:1,154:1,253:1,274:1] obj=546" );
    ( "next_packages 2",
      "[10:1,19:1,104:1,124:1,154:1,225:1] obj=546" );
    ( "next_packages 3",
      "[10:1,19:1,104:1,124:1,154:1,253:1] obj=545" );
    ( "resample 0",
      "[10:1,104:1,124:1,154:1,225:1,274:1] obj=547" );
    ( "resample 1",
      "[10:1,19:1,104:1,124:1,154:1,225:1] obj=546" );
    ( "resample 2",
      "[10:1,104:1,124:1,154:1,253:1,274:1] obj=546" );
    ( "resample 3",
      "[10:1,19:1,104:1,124:1,154:1,253:1] obj=545" );
  ]

let test_golden_models () =
  let got = golden_cases () in
  Alcotest.(check (list string)) "cases" (List.map fst golden_expected) (List.map fst got);
  List.iter2
    (fun (name, want) (_, got) -> Alcotest.(check string) name want got)
    golden_expected got

(* ---- governance: deadline mid-refine -------------------------------- *)

let milp_nodes_total () =
  match
    List.assoc_opt "pb_milp_nodes_total" (Pb_obs.Metrics.snapshot ())
  with
  | Some v -> v
  | None -> 0.0

(* A deadline that fires while refine legs are in flight must stop the
   pipeline with the current incumbent — no proof claimed, the package
   in hand (the engine then reports [Feasible], never [Cancelled]) —
   and must join every leg before returning: the global
   branch-and-bound node counter has to be completely still afterwards.
   The test drives the partition/sketch/refine pipeline alone: the
   strategy's LP front solves this instance exactly before any refine
   leg starts. The instance (many small partitions, a wide COUNT window
   spreading sketch mass across dozens of them) is sized so refinement
   takes far longer than the deadline, while the sketch itself finishes
   almost immediately and seeds an incumbent. Deadlines race the
   machine, so we try a ladder of budgets and require that at least one
   run is actually stopped mid-refine. *)
let test_deadline_mid_refine () =
  (* near-unique b values spread the sketch mass across dozens of small
     partitions, so refinement takes many rounds while the sketch (and
     its first materialised incumbent) completes almost immediately *)
  let db = mk_db ~b_range:1_000_000 ~seed:11 20_000 in
  let q =
    Pb_paql.Parser.parse
      "SELECT PACKAGE(R) AS P FROM t R SUCH THAT COUNT(*) BETWEEN 100 AND \
       150 MAXIMIZE SUM(P.b)"
  in
  let c = Coeffs.make db q in
  let attempt deadline =
    let gov = Gov.create ~deadline_in:deadline ~milp_nodes:0 () in
    let out =
      Pb_core.Sketch_refine.pipeline
        ~params:
          { Pb_core.Sketch_refine.partitions = Some 2000; fanout = 4 }
        ~pool:(Pool.get_default ()) ~gov c
    in
    (out, Gov.refresh gov)
  in
  let stopped (_, fate) = fate = Some Gov.Deadline in
  let debug = Sys.getenv_opt "PB_TEST_DEBUG" <> None in
  let rec find = function
    | [] -> None
    | d :: rest -> (
        let ((out : Pb_core.Sketch_refine.outcome), _) as r = attempt d in
        if debug then
          Printf.eprintf "attempt d=%g stopped=%b package=%b proven=%b refine_steps=%d\n%!"
            d (stopped r) (Option.is_some out.best) out.proven_optimal out.refine_steps;
        match (stopped r, out.best) with
        | true, Some _ -> Some out
        | _ -> find rest)
  in
  (* The stop window — after the sketch seeds an incumbent, before the
     last refine leg lands — shifts with pool size and machine load: a
     bigger domain pool makes the sketch phase *slower* (pool sync
     overhead on one LP), while full refinement of 2000 partitions
     stays tens of seconds at any size. So the ladder must reach well
     past the sketch time of the slowest configuration; the larger
     rungs are still deadline-stopped long before refinement ends. *)
  let ladder =
    [ 0.2; 0.12; 0.25; 0.06; 0.35; 0.03; 0.5; 0.7; 1.0; 1.5; 2.0; 3.0 ]
  in
  match find ladder with
  | None ->
      Alcotest.fail
        "no attempt was deadline-stopped mid-refine with an incumbent in hand"
  | Some out ->
      if out.proven_optimal then
        Alcotest.fail
          "deadline stop with an incumbent must not claim a proof";
      (match out.best with
      | Some pkg ->
          Alcotest.(check bool) "incumbent satisfies all constraints" true
            (Coeffs.check c pkg)
      | None -> assert false);
      (* no orphaned refine MILP: the node counter must be still *)
      let s1 = milp_nodes_total () in
      Thread.delay 0.15;
      let s2 = milp_nodes_total () in
      Alcotest.(check (float 0.0)) "no MILP still running after return" s1 s2

(* The same contract one level up, for a deadline that fires inside the
   strategy's LP front: the front's reduced ILP holds an incumbent but
   no proof, so the engine must answer [Feasible] with that package
   (never [Cancelled]), skip the pipeline, and leave no MILP running.
   The instance is a correlated knapsack (value = 1000·weight + noise
   under a tight weight cap), whose reduced ILP finds packages at once
   but needs far more branch-and-bound than any rung of the ladder to
   prove one optimal. *)
let test_deadline_in_front () =
  let st = Random.State.make [| 42 |] in
  let schema =
    Schema.make
      [
        { Schema.name = "id"; ty = Value.T_int };
        { Schema.name = "a"; ty = Value.T_int };
        { Schema.name = "b"; ty = Value.T_int };
      ]
  in
  let rows =
    List.init 5_000 (fun i ->
        let a = 100_000 + Random.State.int st 900_000 in
        [| Value.Int (i + 1); Value.Int a; Value.Int (a + 10_000) |])
  in
  let db = Pb_sql.Database.create () in
  Pb_sql.Database.put db "t" (Relation.create schema rows);
  let q =
    Pb_paql.Parser.parse
      "SELECT PACKAGE(R) AS P FROM t R SUCH THAT COUNT(*) BETWEEN 1 AND 40 \
       AND SUM(P.a) <= 7777777 MAXIMIZE SUM(P.b)"
  in
  let c = Coeffs.make db q in
  let debug = Sys.getenv_opt "PB_TEST_DEBUG" <> None in
  let attempt deadline =
    let gov = Gov.create ~deadline_in:deadline ~milp_nodes:0 () in
    Engine.run_coeffs ~gov
      ~strategy:(Engine.Sketch_refine Pb_core.Sketch_refine.default_params)
      db c
  in
  let in_front (r : Engine.result) =
    List.mem ("stopped", "deadline") r.stats
    && List.assoc_opt "front" r.stats = Some "gave-way"
    && List.assoc_opt "partitions" r.stats = Some "0"
  in
  let rec find = function
    | [] -> None
    | d :: rest -> (
        let r = attempt d in
        if debug then
          Printf.eprintf "front attempt d=%g proof=%s package=%b stats=[%s]\n%!" d
            (Engine.proof_to_string r.proof) (Option.is_some r.package)
            (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) r.stats));
        match (in_front r, r.package) with
        | true, Some _ -> Some r
        | _ -> find rest)
  in
  match find [ 0.3; 0.15; 0.5; 0.8; 1.2; 2.0 ] with
  | None ->
      Alcotest.fail "no attempt was deadline-stopped inside the LP front with an incumbent"
  | Some r ->
      (match r.proof with
      | Engine.Feasible -> ()
      | p ->
          Alcotest.failf "deadline stop inside the front must be Feasible, got %s"
            (Engine.proof_to_string p));
      (match r.package with
      | Some pkg ->
          Alcotest.(check bool) "incumbent satisfies all constraints" true
            (Coeffs.check c pkg)
      | None -> assert false);
      let s1 = milp_nodes_total () in
      Thread.delay 0.15;
      let s2 = milp_nodes_total () in
      Alcotest.(check (float 0.0)) "no MILP still running after return" s1 s2

let suite =
  [
    Alcotest.test_case "partition invariants on random inputs" `Quick
      test_invariants_random;
    Alcotest.test_case "partition degenerate inputs" `Quick test_degenerate;
    Alcotest.test_case "partition build is deterministic" `Quick
      test_build_deterministic;
    Alcotest.test_case "sketch-refine identical at pool size 1 vs 8" `Quick
      test_pool_determinism;
    Alcotest.test_case "golden models: outcomes pinned" `Quick test_golden_models;
    Alcotest.test_case "deadline mid-refine yields Feasible incumbent" `Slow
      test_deadline_mid_refine;
    Alcotest.test_case "deadline inside the LP front yields Feasible incumbent" `Slow
      test_deadline_in_front;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_build_matches_reference;
        prop_group_of_matches_scan;
      ]
