(* One run of one workload; see README.md in this directory. The last
   line of stdout is the JSON result. *)

open Pbb

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let print_optima = ref false in
  let milp_nodes = ref 3000 and bf_candidates = ref 200_000 and ls_restarts = ref 3 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME  paql_explore | paql_sketch | serve_mixed");
      ("--seed", Arg.Set_int seed, "N  seed every input is generated from");
      ("--seconds", Arg.Set_int seconds, "S  length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1  1 = traced run reporting per-layer metrics");
      ("--milp-nodes", Arg.Set_int milp_nodes, "N  branch-and-bound node budget per PaQL query");
      ("--bf-candidates", Arg.Set_int bf_candidates, "N  brute-force candidate budget per PaQL query");
      ("--ls-restarts", Arg.Set_int ls_restarts, "N  local-search restart budget per PaQL query");
      ("--out", Arg.Set_string Procs.out_dir, "DIR  run outputs (spans, logs, generated data)");
      ("--bin", Arg.Set_string Procs.bin_dir, "DIR  where pb_server.exe and pb_router.exe were built");
      ("--print-optima", Arg.Set print_optima,
        " print optima.ml: the proven optimum of every PaQL catalog query, by unbudgeted ILP");
      ("--cpus", Arg.String (fun s -> Procs.cpus := String.split_on_char ',' s),
        "LIST  CPUs of the run, the generator's first; servers are pinned among them with taskset") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pbbench --workload NAME --seed N --seconds S --trace 0|1";
  if !print_optima then begin
    print_string (Optima.source (List.concat_map Paql_wl.reference [ Paql_wl.explore; Paql_wl.sketch ]));
    exit 0
  end;
  let traced = !trace = 1 in
  (try Unix.mkdir !Procs.out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let budgets = { Paql_wl.milp_nodes = !milp_nodes; bf_candidates = !bf_candidates; ls_restarts = !ls_restarts } in
  let flags =
    [ Printf.sprintf "--milp-nodes=%d" !milp_nodes; Printf.sprintf "--bf-candidates=%d" !bf_candidates;
      Printf.sprintf "--ls-restarts=%d" !ls_restarts; "--cpus=" ^ String.concat "," !Procs.cpus ]
  in
  let attempted, failed, wrong, values =
    match !workload with
    | "paql_explore" | "paql_sketch" ->
        let spec = if !workload = "paql_explore" then Paql_wl.explore else Paql_wl.sketch in
        let o = Paql_wl.run spec ~budgets ~seed:!seed ~seconds:!seconds ~trace:traced in
        let bad = List.length (List.filter (fun s -> not s.Report.ok) o.Paql_wl.samples) in
        (List.length o.Paql_wl.samples, bad, bad, o.Paql_wl.values)
    | "serve_mixed" ->
        let o = Serve_wl.run Serve_wl.serve ~seed:!seed ~seconds:!seconds ~trace:traced in
        let vs = o.Serve_wl.verdicts in
        let failed = List.length (List.filter (fun v -> not v.Serve_wl.ok) vs) in
        let wrong =
          List.length
            (List.filter
               (fun v ->
                 (not v.Serve_wl.ok)
                 && match v.Serve_wl.r.Serve_wl.status with
                    | Serve_wl.Answered (Pb_net.Protocol.Ok, _) -> true
                    | _ -> false)
               vs)
        in
        (List.length vs, failed, wrong, o.Serve_wl.values)
    | w -> failwith ("unknown workload " ^ w)
  in
  let envelope = Report.envelope ~workload:!workload ~seed:!seed ~flags ~servers:!Procs.started in
  Printf.printf "envelope %s\n" (Json.to_string envelope);
  let metrics = Catalog.select ~trace:traced values in
  Report.print_metrics metrics;
  if traced then Spans.dump (Filename.concat !Procs.out_dir (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed));
  Gen.write_file
    (Filename.concat !Procs.out_dir (Printf.sprintf "envelope-%s-%d-trace%d.json" !workload !seed !trace))
    (Json.to_string envelope);
  Printf.printf "attempted %d, failed %d, wrong answers %d\n" attempted failed wrong;
  Report.emit ~correct:(wrong = 0) ~attempted ~failed metrics
