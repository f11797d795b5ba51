(* The benchmark's own checks: BENCHMARK.json names exactly the metrics
   the benchmark reports, every catalog query has a reference optimum,
   and answer quality repeats exactly at a fixed seed (node budgets, not
   deadlines, govern every PaQL query). *)

open Pbb

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let names_of key doc =
  List.filter_map (fun m -> Json.to_str (Json.member "name" m)) (Json.to_list (Json.member key doc))

let check_catalog () =
  let doc = Json.parse (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) in
  let same key catalog =
    if names_of key doc <> List.map fst catalog then fail "BENCHMARK.json %s differ from the catalog" key;
    List.iter2
      (fun m (name, unit) ->
        if Json.to_str (Json.member "unit" m) <> Some unit then fail "unit of %s differs from the catalog" name)
      (Json.to_list (Json.member key doc)) catalog
  in
  same "end_to_end" Catalog.e2e;
  same "per_layer" Catalog.per_layer;
  let workloads = names_of "workloads" doc in
  if workloads <> [ "paql_explore"; "paql_sketch"; "serve_mixed" ] then
    fail "unexpected workloads: %s" (String.concat ", " workloads)

(* Every catalog query has a reference optimum, so no answer goes
   unchecked. *)
let check_optima spec =
  Array.iter
    (List.iter (fun text ->
         match Optima.find text with
         | _ -> ()
         | exception Failure m -> fail "%s: %s" spec.Paql_wl.name m))
    (Paql_wl.catalog spec)

(* One short instance of a PaQL workload: a small catalog and a zero
   measured phase, so the run ends after one pass through the catalog. *)
let quality_twice spec =
  let budgets = { Paql_wl.milp_nodes = 3000; bf_candidates = 200_000; ls_restarts = 3 } in
  let run () = (Paql_wl.run spec ~budgets ~seed:11 ~seconds:0 ~trace:false).Paql_wl.qualities in
  let a = run () and b = run () in
  if List.length a <> spec.Paql_wl.sessions * spec.Paql_wl.session_len then
    fail "%s: short run answered too few queries" spec.Paql_wl.name;
  if a <> b then
    fail "%s: quality differs between two runs at one seed: [%s] vs [%s]" spec.Paql_wl.name
      (String.concat "; " (List.map string_of_float a))
      (String.concat "; " (List.map string_of_float b))

let () =
  Procs.out_dir := ".";
  check_catalog ();
  check_optima Paql_wl.explore;
  check_optima Paql_wl.sketch;
  quality_twice { Paql_wl.explore with sessions = 4 };
  quality_twice { Paql_wl.sketch with sessions = 1 };
  print_endline "perfbench: catalog matches BENCHMARK.json; optima cover the catalogs; quality repeats at a fixed seed"
