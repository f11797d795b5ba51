(* Every metric the benchmark reports, with its unit. BENCHMARK.json
   lists the same names (the benchmark's test checks that); a run prints
   all end-to-end metrics with --trace 0 and all per-layer metrics with
   --trace 1. A per-layer metric that does not apply to a workload reads
   0 there (no work of that layer happened). *)

let e2e =
  [ ("setup_s", "s"); ("peak_rss_mb", "MiB"); ("ok_ratio", "ratio");
    ("paql_p50_s", "s"); ("paql_tail_s", "s"); ("paql_qps", "1/s");
    ("sql_read_p50_s", "s"); ("sql_read_tail_s", "s");
    ("sql_write_p50_s", "s"); ("sql_write_tail_s", "s");
    ("slo_rate_rps", "1/s"); ("package_quality", "ratio") ]

let per_layer =
  [ ("paql.parse_s", "s"); ("paql.candidates", "count");
    ("core.coeffs_s", "s"); ("core.translate_s", "s"); ("core.partition_s", "s");
    ("core.sketch_s", "s"); ("core.refine_s", "s"); ("core.refine_steps", "count");
    ("core.refine_useful_ratio", "ratio"); ("core.engine_unaccounted_s", "s");
    ("core.strategy_mix.ilp", "count"); ("core.strategy_mix.sketch_refine", "count");
    ("core.strategy_mix.local_search", "count"); ("core.strategy_mix.brute_force", "count");
    ("core.strategy_mix.other", "count");
    ("core.optimal_share", "ratio"); ("core.package_gap", "ratio");
    ("lp.milp_s", "s"); ("lp.bb_nodes", "count"); ("lp.pivots_per_node", "count");
    ("lp.nodes_per_s", "1/s"); ("lp.solves_per_query", "count"); ("lp.lp_solves_per_query", "count");
    ("sql.prepare_s", "s"); ("sql.plan_s", "s"); ("sql.exec_s", "s");
    ("sql.plan_cache_hit_ratio", "ratio"); ("sql.rows_scanned_per_returned", "ratio");
    ("store.columnar_ratio", "ratio"); ("store.tables_built_per_write", "ratio");
    ("store.build_s", "s"); ("store.chunks_per_scan", "count"); ("store.bytes_resident", "B");
    ("net.overhead_s", "s"); ("net.server_sql_s", "s"); ("net.server_paql_s", "s");
    ("net.queue_depth_mean", "count"); ("net.inflight_mean", "count");
    ("net.wakeups_per_request", "ratio"); ("net.busy_rejections", "count");
    ("shard.fanout_s", "s"); ("shard.router_self_s", "s"); ("shard.merged_ratio", "ratio");
    ("shard.requests_per_stmt", "ratio"); ("shard.errors", "count");
    ("obs.trace_overhead_ratio", "ratio");
    ("loadgen.late_p99_s", "s"); ("loadgen.sent", "count"); ("loadgen.completed", "count");
    ("loadgen.fail_ratio", "ratio") ]

(* The catalog's metrics in order, valued from [values]; end-to-end
   metrics must all be measured, per-layer ones default to 0. *)
let select ~trace values =
  let table = if trace then per_layer else e2e in
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name values with
      | Some v -> { Report.name; unit; value = v }
      | None when trace -> { Report.name; unit; value = 0.0 }
      | None -> failwith ("end-to-end metric not measured: " ^ name))
    table
