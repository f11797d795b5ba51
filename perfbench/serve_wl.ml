(* The server workload: pb_server driven over wire v2 by an open-loop
   generator with Poisson arrivals at fixed rates. Its traced run also
   drives pb_router in front of two pb_server --shard i/2 processes, for
   the shard layer's metrics. *)

type spec = {
  name : string;
  rows : int;
  router : bool;
  rate : float;  (** requests/s of the measured phase *)
  ladder_from : float;  (** first rate tried for slo_rate_rps *)
  rung_s : float;  (** seconds per rung after the measured phase *)
  mix : (Report.cls * int) list;  (** op-class weights *)
  tails : (Report.cls * float) list;  (** per-class tail percentile *)
  limit_s : float;  (** latency limit on the tail percentile *)
}

(* 5k rows at 40 requests/s. A write invalidates the columnar image,
   and the read that follows it pays the rebuild: 1 op in 10 is a write,
   so 1 read in 7 does. Over ten seeds, the interquartile spread of the
   latency medians was 0.3-1.0 of the median at 10k and 20k rows, and
   0.12-0.24 at 5k. Each tail sits below the knee where the requests
   that arrived while the server was busy begin: above it, a percentile
   moves with how many arrivals happened to queue. Between 1 write in 10
   and 1 in 4 queued, mostly behind a rebuilding read (a knee between
   p75 and p90), so the write tail is p60. Rebuilding reads are a fixed
   1 read in 7, so the read tail is p90, on their plateau. The PaQL tail
   is p75. Over 23 consecutive 25 s windows of one 600 s run, write
   p70/p80 spread by 0.17/0.72 of their median against 0.075 for p60,
   read p97 by 0.26 against 0.13 for p90, and PaQL p80/p90 by 0.17/0.38
   against 0.16 for p75. *)
let serve =
  { name = "serve_mixed"; rows = 5_000; router = false; rate = 40.0; ladder_from = 320.0;
    rung_s = 2.0; mix = [ (Report.Read, 7); (Report.Write, 1); (Report.Paql, 2) ];
    tails = [ (Report.Read, 0.90); (Report.Write, 0.60); (Report.Paql, 0.75) ]; limit_s = 0.25 }

(* The traced run's router phase: the same op classes through pb_router
   to two shards, 2k rows at 8 requests/s. Router PaQL and unmergeable
   reads pull the whole table to the router over one pooled connection
   per shard, so fast requests queue behind slow ones; a small table and
   a low rate keep that queueing in the tail. Only per-layer metrics come
   from it (three server processes on two cores did not hold steady
   enough for end-to-end bounds), so it has no rate search and no tails. *)
let router =
  { name = "serve_mixed-router"; rows = 2_000; router = true; rate = 8.0; ladder_from = 0.0;
    rung_s = 0.0; mix = [ (Report.Read, 5); (Report.Write, 2); (Report.Paql, 2) ]; tails = []; limit_s = 0.25 }

(* Every rung, the measured one included, is judged on its 90th
   percentile: a short rung has too few samples for a higher one. *)
let rung_p = 0.90

(* slo_rate_rps: the highest rate whose rung passes. After the measured
   phase at [base] requests/s, rungs start at [ladder_from] and double
   while they pass; after the first failing rung, [bisections] geometric
   bisections narrow the gap between the highest passing and the lowest
   failing rate (to 2^(1/16), 4.4%). [passes] runs one rung. *)
let bisections = 4

let ladder_cap = 10_000.0

let slo_search spec ~passes ~base =
  let rec climb best rate = if rate <= ladder_cap && passes rate then climb rate (2.0 *. rate) else (best, rate) in
  let rec bisect lo hi k =
    if k = 0 then lo
    else
      let mid = sqrt (lo *. hi) in
      if passes mid then bisect mid hi (k - 1) else bisect lo mid (k - 1)
  in
  let best, hi = climb base spec.ladder_from in
  if hi > ladder_cap then best else bisect best hi bisections

let now = Unix.gettimeofday

(* The PaQL statements the servers see: small candidate sets (one
   cuisine, gluten-free, a protein floor: ~40 candidates at 5k rows),
   so a query is milliseconds of B&B and never holds a single-CPU server
   for long. Like the reads, the texts are the same for every seed. *)
let serve_paql i =
  let k = i / Array.length Gen.cuisines in
  let lo = 3 * (480 + (70 * k)) in
  Printf.sprintf
    "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.cuisine = '%s' AND R.gluten = 'free' AND R.protein >= %d SUCH THAT COUNT(*) = 3 AND SUM(P.calories) BETWEEN %d AND %d MAXIMIZE SUM(P.protein)"
    Gen.cuisines.(i mod Array.length Gen.cuisines) (50 + (2 * k)) lo (lo + 300)

type pools = { reads : string array; writes : string array; paqls : string array }

(* Each statement of a pool is sent equally often; with an odd pool size
   a class's median falls among one statement's samples instead of on
   the gap between two statements of different cost. *)
let pools spec st =
  { reads = Gen.sql_reads 35;
    writes = Gen.pool st 16 (Gen.recipe_write ~rows:spec.rows);
    paqls = Array.init 25 serve_paql }

type op = { cls : Report.cls; text : string; due : float }

(* Poisson arrivals at [rate] over [duration] seconds, conditioned on
   their count (round (rate * duration) arrivals at uniform order
   statistics), so every run of a rung offers the same load. Classes
   come in exact weight shares in seeded order, and every write is
   followed by a read, which pays the columnar-image rebuild the write
   caused (~10 ms against ~1-2 ms). In a free order the share of reads
   and PaQL queries that paid a rebuild varied by seed, and moved their
   medians with it. *)
let schedule spec st pools ~rate ~duration =
  let total = List.fold_left (fun a (_, w) -> a + w) 0 spec.mix in
  let n = int_of_float (Float.round (rate *. duration)) in
  let count c = n * Option.value (List.assoc_opt c spec.mix) ~default:0 / total in
  let writes = count Report.Write and paqls = count Report.Paql in
  let reads = n - writes - paqls in
  let pairs = min writes reads in
  let units =
    Array.concat
      [ Array.make pairs [ Report.Write; Report.Read ]; Array.make (writes - pairs) [ Report.Write ];
        Array.make (reads - pairs) [ Report.Read ]; Array.make paqls [ Report.Paql ] ]
  in
  Gen.shuffle st units;
  let classes = Array.of_list (List.concat (Array.to_list units)) in
  let gaps = Array.init (n + 1) (fun _ -> -.log (1.0 -. Random.State.float st 1.0)) in
  let span = Array.fold_left ( +. ) 0.0 gaps in
  (* Every statement of a class is sent equally often (to within one). *)
  let walk pool = let next = Gen.walk st (Array.length pool) in fun () -> pool.(next ()) in
  let read = walk pools.reads and write = walk pools.writes and paql = walk pools.paqls in
  let t = ref 0.0 in
  Array.init n (fun i ->
      t := !t +. gaps.(i);
      let cls = classes.(i) in
      let text = match cls with Report.Read -> read () | Report.Write -> write () | Report.Paql -> paql () in
      { cls; text; due = !t /. span *. duration })

type status = Answered of Pb_net.Protocol.status * string | Error of string | Dropped

type result = {
  op : op;
  due_at : float;  (** absolute due time *)
  trace_id : string option;
  sent : float;
  finished : float;
  status : status;
}

(* Arrivals queue FIFO behind [conns] connections; each request is timed
   from its due time. An arrival still waiting [drop_after] seconds past
   its due time is dropped and counted as a failure. On the rungs of the
   rate search a request that late has missed the limit anyway, so they
   drop after [rung_drop_after], which keeps a failing rung short. *)
let drop_after = 3.0

let rung_drop_after = 0.5

let conns = 2

let run_phase ?(drop_after = drop_after) ~port ~ops ~traced ~sample () =
  let n = Array.length ops in
  let results = Array.make n None in
  let next = ref 0 and mu = Mutex.create () in
  let running = Atomic.make conns in
  let t0 = now () +. 0.02 in
  let worker () =
    let conn = ref (try Some (Pb_net.Client.connect ~port ()) with _ -> None) in
    let rec loop () =
      Mutex.lock mu;
      let i = !next in
      incr next;
      Mutex.unlock mu;
      if i < n then begin
        let op = ops.(i) in
        let due = t0 +. op.due in
        let wait = due -. now () in
        if wait > 0.0 then Thread.delay wait;
        let sent = now () in
        let trace_id = if traced then Some (Pb_net.Protocol.fresh_trace_id ()) else None in
        let status =
          if sent -. due > drop_after then Dropped
          else
            match !conn with
            | None -> Error "no connection"
            | Some c -> (
                match Pb_net.Client.request ?trace:trace_id c op.text with
                | r -> Answered (r.Pb_net.Protocol.status, r.Pb_net.Protocol.body)
                | exception e ->
                    (try Pb_net.Client.close c with _ -> ());
                    conn := (try Some (Pb_net.Client.connect ~port ()) with _ -> None);
                    Error (Printexc.to_string e))
        in
        results.(i) <- Some { op; due_at = due; trace_id; sent; finished = now (); status };
        loop ()
      end
    in
    loop ();
    Option.iter (fun c -> try Pb_net.Client.close c with _ -> ()) !conn;
    Atomic.decr running
  in
  let threads = List.init conns (fun _ -> Thread.create worker ()) in
  (* The main thread is not a generator: it only samples gauges. *)
  let samples = ref [] in
  while Atomic.get running > 0 do
    (match sample with Some f -> samples := f () :: !samples | None -> ());
    Thread.delay 0.1
  done;
  List.iter Thread.join threads;
  let results = Array.to_list (Array.map Option.get results) in
  (results, now () -. t0, !samples)

let latency r = r.finished -. r.due_at

(* ------------------------------------------------------------------ *)
(* Processes. *)

type deployment = { procs : Procs.proc list; front : Procs.proc; csv : string }

(* With two or more CPUs the generator keeps the first, and a lone
   server shares it: a request and its reply then pass between two
   processes on one core, with no cross-core wake-up. With the server on
   the second CPU, latency medians of five seeds spread by 0.2-0.7 of
   their median; on the generator's CPU, by 0.16-0.25. Behind a router
   the shards get the second CPU and the router shares the first with
   the generator. Without pinning every process floats. *)
let cpu_of role =
  match (!Procs.cpus, role) with
  | gen :: _ :: _, `Server | gen :: _ :: _, `Router -> Some gen
  | _ :: shard :: _, `Shard -> Some shard
  | _ -> None

let start spec ~csv ~trace_capacity =
  let common = [ "--port"; "0"; "--metrics-port"; "0"; "--table"; "recipes=" ^ csv;
                 "--trace-capacity"; string_of_int trace_capacity ] in
  if not spec.router then
    let p = Procs.spawn ?cpu:(cpu_of `Server) ~name:(spec.name ^ "-server") ~exe:"pb_server.exe" common in
    Procs.wait_healthy p;
    { procs = [ p ]; front = p; csv }
  else begin
    let shards =
      List.init 2 (fun i ->
          Procs.spawn ?cpu:(cpu_of `Shard) ~name:(Printf.sprintf "%s-shard%d" spec.name i) ~exe:"pb_server.exe"
            (common @ [ "--shard"; Printf.sprintf "%d/2" i ]))
    in
    let r =
      Procs.spawn ?cpu:(cpu_of `Router) ~name:(spec.name ^ "-router") ~exe:"pb_router.exe"
        ([ "--port"; "0"; "--metrics-port"; "0" ]
        @ List.concat_map (fun (s : Procs.proc) -> [ "--shard"; Printf.sprintf "127.0.0.1:%d" s.wire_port ]) shards)
    in
    List.iter Procs.wait_healthy (shards @ [ r ]);
    { procs = shards @ [ r ]; front = r; csv }
  end

let stop d = List.iter Procs.stop (List.rev d.procs)

(* The table is generated from a fixed data seed, while --seed draws the
   schedule and the writes: the B&B effort of a PaQL query moved
   several-fold with the data, so a table drawn per seed moved the PaQL
   median from run to run. *)
let data_seed = 20_140_903

(* Generate the data and start the deployment until /healthz is ok. *)
let setup spec ~trace_capacity =
  let t0 = now () in
  let csv = Filename.concat !Procs.out_dir (spec.name ^ "-recipes.csv") in
  Gen.write_file csv (Gen.recipes_csv ~seed:data_seed ~rows:spec.rows);
  let d = start spec ~csv ~trace_capacity in
  (d, now () -. t0)

(* Every distinct statement once, so plan caches and columnar images are
   warm before timing starts. *)
let warm d pools =
  Pb_net.Client.with_connection ~port:d.front.Procs.wire_port (fun c ->
      Array.iter
        (fun text -> ignore (Pb_net.Client.request c text))
        (Array.concat [ pools.reads; pools.paqls; pools.writes; pools.reads ]))

(* ------------------------------------------------------------------ *)
(* Checking and summarising a phase. *)

type verdict = { r : result; ok : bool; quality : float }

let judge oracle results =
  List.map
    (fun r ->
      match r.status with
      | Answered (Pb_net.Protocol.Ok, body) -> (
          match r.op.cls with
          | Report.Read -> { r; ok = Check.read_ok oracle r.op.text body; quality = 0.0 }
          | Report.Write -> { r; ok = Check.write_ok body; quality = 0.0 }
          | Report.Paql ->
              let ok, quality = Check.paql_body oracle r.op.text body in
              { r; ok; quality })
      | Answered _ | Error _ | Dropped -> { r; ok = false; quality = 0.0 })
    results

let was_sent v = match v.r.status with Dropped -> false | _ -> true

(* One line per request of the measured phase, for offline analysis. *)
let write_log path verdicts =
  let oc = open_out path in
  output_string oc "class\tdue_s\tlate_s\tlatency_s\tok\ttext\n";
  let t0 = match verdicts with v :: _ -> v.r.due_at | [] -> 0.0 in
  List.iter
    (fun v ->
      Printf.fprintf oc "%s\t%.6f\t%.6f\t%.6f\t%b\t%s\n" (Report.cls_name v.r.op.cls) (v.r.due_at -. t0)
        (v.r.sent -. v.r.due_at) (latency v.r) v.ok v.r.op.text)
    verdicts;
  close_out oc

(* Name what failed, so a wrong answer can be reproduced. *)
let report_failures verdicts =
  List.iteri
    (fun i v ->
      if i < 5 then
        let what =
          match v.r.status with
          | Answered (st, body) ->
              Printf.sprintf "%s: %s" (Pb_net.Protocol.status_to_string st)
                (String.sub body 0 (min 200 (String.length body)))
          | Error e -> "error: " ^ e
          | Dropped -> "dropped"
        in
        Printf.printf "failed %s: %s -> %s\n" (Report.cls_name v.r.op.cls) v.r.op.text what)
    (List.filter (fun v -> not v.ok) verdicts)

let samples verdicts =
  List.filter_map
    (fun v -> if was_sent v then Some { Report.cls = v.r.op.cls; latency = latency v.r; ok = v.ok } else None)
    verdicts

(* A rung passes when nothing failed or was dropped and the tail
   percentile of all requests is within the limit. *)
let rung_passes spec verdicts =
  List.for_all (fun v -> v.ok) verdicts
  && Pb_util.Stats.percentile (100.0 *. rung_p) (List.map (fun v -> latency v.r) verdicts) <= spec.limit_s

let goodput spec verdicts wall =
  float_of_int (List.length (List.filter (fun v -> v.ok && latency v.r <= spec.limit_s) verdicts)) /. wall

(* The share of [cls] in the mix. *)
let share spec cls =
  float_of_int (Option.value (List.assoc_opt cls spec.mix) ~default:0)
  /. float_of_int (List.fold_left (fun a (_, w) -> a + w) 0 spec.mix)

let lateness verdicts = List.map (fun v -> v.r.sent -. v.r.due_at) verdicts

let peak_rss d = Stats.sum (List.map (fun (p : Procs.proc) -> Procs.peak_rss_mb p.pid) d.procs)

(* ------------------------------------------------------------------ *)
(* Per-layer accounting from /metrics deltas and /traces/<id> trees. *)

let snapshot d = List.map (fun (p : Procs.proc) -> (p.name, Procs.metrics p.metrics_port)) d.procs

let series_delta before after ~procs name =
  Stats.sum
    (List.map
       (fun (pname, now_series) ->
         if not (List.mem pname procs) then 0.0
         else
           let prev = Option.value (List.assoc_opt pname before) ~default:[] in
           Option.value (List.assoc_opt name now_series) ~default:0.0
           -. Option.value (List.assoc_opt name prev) ~default:0.0)
       after)

let fetch_trace port id =
  match Procs.http_get port ("/traces/" ^ id) with
  | 200, body -> ( try Some (Json.parse body) with Json.Error _ -> None)
  | _ -> None
  | exception Unix.Unix_error _ -> None

let layer_values spec d ~verdicts ~before ~after ~gauges ~untraced_p50 ~oracle_build_s =
  let names = List.map (fun (p : Procs.proc) -> p.name) d.procs in
  let front = [ d.front.Procs.name ] in
  let shards = List.filter (fun n -> n <> d.front.Procs.name) names in
  let all = series_delta before after ~procs:names in
  let fr = series_delta before after ~procs:front in
  let count cls = List.length (List.filter (fun v -> v.r.op.cls = cls) verdicts) in
  let paql_n = float_of_int (max 1 (count Report.Paql)) in
  let writes = float_of_int (max 1 (count Report.Write)) in
  let stmts = float_of_int (max 1 (List.length verdicts)) in
  (* Traces: the last requests whose trees the stores still hold. *)
  let traced = List.filteri (fun i _ -> i < 200) (List.rev verdicts) in
  let rows = Hashtbl.create 4 in
  let add_row cls row = Hashtbl.replace rows cls (row :: Option.value (Hashtbl.find_opt rows cls) ~default:[]) in
  let overheads = ref [] and router_selfs = ref [] in
  let strategies = Hashtbl.create 4 and candidates = ref [] in
  let per_class = Hashtbl.create 4 in
  List.iter
    (fun v ->
      match (v.r.trace_id, v.r.status) with
      | Some id, Answered (Pb_net.Protocol.Ok, _) -> (
          match fetch_trace d.front.Procs.metrics_port id with
          | None -> ()
          | Some doc ->
              let rtt = v.r.finished -. v.r.sent in
              let root_s = Json.to_num (Json.member "elapsed_s" doc) in
              let shard_docs =
                if spec.router then
                  List.filter_map
                    (fun (p : Procs.proc) ->
                      if p.name = d.front.Procs.name then None
                      else Option.map (fun doc -> (p.name, doc)) (fetch_trace p.metrics_port id))
                    d.procs
                else []
              in
              let front_spans = Spans.of_trace_json ~prefix:(d.front.Procs.name ^ ":") id doc in
              let shard_spans =
                List.concat_map (fun (name, doc) -> Spans.of_trace_json ~prefix:(name ^ ":") id doc) shard_docs
              in
              let shard_docs = List.map snd shard_docs in
              Spans.add (front_spans @ shard_spans);
              if v.r.op.cls = Report.Paql then begin
                let docs_spans = List.concat_map (fun d -> Json.to_list (Json.member "spans" d)) (doc :: shard_docs) in
                let names = List.filter_map (fun sp -> Json.to_str (Json.member "name" sp)) docs_spans in
                List.iter
                  (fun (span, key) ->
                    if List.mem span names then
                      Hashtbl.replace strategies key (1 + Option.value (Hashtbl.find_opt strategies key) ~default:0))
                  [ ("strategy.ilp", "ilp"); ("strategy.sketch-refine", "sketch_refine");
                    ("strategy.local-search", "local_search"); ("strategy.brute-force", "brute_force") ];
                match
                  List.find_map
                    (fun sp -> Option.bind (Json.member "attrs" sp) (fun a -> Json.to_str (Json.member "candidates" a)))
                    docs_spans
                with
                | Some c -> Option.iter (fun c -> candidates := c :: !candidates) (float_of_string_opt c)
                | None -> ()
              end;
              let front_selfs = Spans.self_times front_spans and shard_selfs = Spans.self_times shard_spans in
              let selfs = List.filter (fun (k, _) -> k <> "request") (front_selfs @ shard_selfs) in
              let net = rtt -. root_s in
              overheads := net :: !overheads;
              let shard_roots = List.map (fun doc -> Json.to_num (Json.member "elapsed_s" doc)) shard_docs in
              let longest_shard = List.fold_left Float.max 0.0 shard_roots in
              if spec.router then router_selfs := (root_s -. longest_shard) :: !router_selfs;
              let stage names = Spans.self_of names selfs in
              let front_self = Spans.self_of [ "request" ] front_selfs in
              (* The router waits for its shards inside its own root span,
                 one shard after another. *)
              let request_parts =
                if spec.router then
                  [ ("router.self", front_self -. Stats.sum shard_roots);
                    ("shard.request", Spans.self_of [ "request" ] shard_selfs) ]
                else [ ("server.request", front_self) ]
              in
              let parts =
                [ ("net", net); ("sql.prepare", stage [ "sql.prepare"; "sql.compile" ]);
                  ("sql.plan", stage [ "sql.plan" ]); ("sql.exec", stage Spans.sql_exec);
                  ("engine", stage [ "engine.run"; "strategy.hybrid"; "strategy.ilp"; "strategy.sketch-refine";
                                     "sketch-refine.partition"; "sketch-refine.sketch"; "sketch-refine.refine" ]);
                  ("milp.bnb", stage [ "milp.solve" ]) ]
                @ request_parts
              in
              add_row v.r.op.cls (rtt, List.filter (fun (_, x) -> x <> 0.0) parts);
              let acc = Option.value (Hashtbl.find_opt per_class v.r.op.cls) ~default:[] in
              Hashtbl.replace per_class v.r.op.cls (parts :: acc))
      | _ -> ())
    traced;
  Printf.printf "p50 decomposition (%s, client round trip):\n" spec.name;
  List.iter
    (fun cls -> Decompose.print (Report.cls_name cls) (Option.value (Hashtbl.find_opt rows cls) ~default:[]))
    [ Report.Paql; Report.Read; Report.Write ];
  let mean_part cls name =
    match Hashtbl.find_opt per_class cls with
    | None | Some [] -> 0.0
    | Some l -> Pb_util.Stats.mean (List.map (fun parts -> Option.value (List.assoc_opt name parts) ~default:0.0) l)
  in
  let hist_mean ~procs base =
    let d = series_delta before after ~procs in
    Stats.ratio (d (base ^ "_sum")) (d (base ^ "_count"))
  in
  let fanout =
    let sum = ref 0.0 and cnt = ref 0.0 in
    List.iteri
      (fun i _ ->
        sum := !sum +. fr (Printf.sprintf "pb_shard_%d_fanout_seconds_sum" i);
        cnt := !cnt +. fr (Printf.sprintf "pb_shard_%d_fanout_seconds_count" i))
      shards;
    Stats.ratio !sum !cnt
  in
  let gauge_mean name = Pb_util.Stats.mean (List.map (fun g -> Option.value (List.assoc_opt name g) ~default:0.0) gauges) in
  let latencies = List.map (fun v -> latency v.r) (List.filter was_sent verdicts) in
  let ok_n = List.length (List.filter (fun v -> v.ok) verdicts) in
  let final_series name =
    Stats.sum (List.map (fun (_, s) -> Option.value (List.assoc_opt name s) ~default:0.0) after)
  in
  let strat k = float_of_int (Option.value (Hashtbl.find_opt strategies k) ~default:0) in
  [ ("paql.candidates", Pb_util.Stats.mean !candidates);
    ("core.strategy_mix.ilp", strat "ilp");
    ("core.strategy_mix.sketch_refine", strat "sketch_refine");
    ("core.strategy_mix.local_search", strat "local_search");
    ("core.strategy_mix.brute_force", strat "brute_force");
    ("lp.milp_s", mean_part Report.Paql "milp.bnb");
    ("lp.bb_nodes", all "pb_milp_nodes_total" /. paql_n);
    ("lp.pivots_per_node", Stats.ratio (all "pb_lp_pivots_total") (all "pb_milp_nodes_total"));
    ("lp.nodes_per_s", Stats.ratio (all "pb_milp_nodes_total") (mean_part Report.Paql "milp.bnb" *. paql_n));
    ("lp.solves_per_query", all "pb_milp_solves_total" /. paql_n);
    ("lp.lp_solves_per_query", all "pb_lp_solves_total" /. paql_n);
    ("core.refine_steps", all "pb_engine_sketch_refine_steps_total" /. paql_n);
    ("sql.prepare_s", mean_part Report.Read "sql.prepare");
    ("sql.plan_s", mean_part Report.Read "sql.plan");
    ("sql.exec_s", mean_part Report.Read "sql.exec");
    ("sql.plan_cache_hit_ratio",
      Stats.ratio (all "pb_sql_plan_cache_hits_total")
        (all "pb_sql_plan_cache_hits_total" +. all "pb_sql_plan_cache_misses_total"));
    ("sql.rows_scanned_per_returned", Stats.ratio (all "pb_sql_rows_scanned_total") (all "pb_sql_rows_returned_total"));
    ("store.columnar_ratio", Stats.ratio (all "pb_store_selects_total") (all "pb_sql_selects_total"));
    ("store.tables_built_per_write", all "pb_store_tables_built_total" /. writes);
    ("store.build_s", oracle_build_s);
    ("store.chunks_per_scan", Stats.ratio (all "pb_store_chunks_scanned_total") (all "pb_store_scans_total"));
    ("store.bytes_resident", final_series "pb_store_bytes_resident");
    ("net.overhead_s", Pb_util.Stats.median !overheads);
    ("net.server_sql_s", hist_mean ~procs:front "pb_net_sql_request_seconds");
    ("net.server_paql_s", hist_mean ~procs:front "pb_net_paql_request_seconds");
    ("net.queue_depth_mean", gauge_mean "pb_net_queue_depth");
    ("net.inflight_mean", gauge_mean "pb_net_inflight_requests");
    ("net.wakeups_per_request", Stats.ratio (fr "pb_net_eventloop_wakeups_total") (fr "pb_net_requests_total"));
    ("net.busy_rejections", fr "pb_net_busy_rejections_total");
    ("shard.fanout_s", fanout);
    ("shard.router_self_s", if spec.router then Pb_util.Stats.median !router_selfs else 0.0);
    ("shard.merged_ratio",
      Stats.ratio (fr "pb_router_merged_selects_total")
        (fr "pb_router_merged_selects_total" +. fr "pb_router_scanpull_total"));
    ("shard.requests_per_stmt", fr "pb_router_shard_requests_total" /. stmts);
    ("shard.errors", fr "pb_router_shard_errors_total");
    ("obs.trace_overhead_ratio", Stats.ratio (Pb_util.Stats.median latencies) untraced_p50);
    ("loadgen.late_p99_s", Pb_util.Stats.percentile 99.0 (lateness verdicts));
    ("loadgen.sent", float_of_int (List.length (List.filter was_sent verdicts)));
    ("loadgen.completed",
      float_of_int (List.length (List.filter (fun v -> match v.r.status with Answered _ -> true | _ -> false) verdicts)));
    ("loadgen.fail_ratio", 1.0 -. (float_of_int ok_n /. float_of_int (max 1 (List.length verdicts))));
    ("core.optimal_share",
      Stats.ratio
        (float_of_int (List.length (List.filter (fun v -> v.r.op.cls = Report.Paql && v.quality >= 1.0) verdicts)))
        paql_n);
    ("core.package_gap",
      1.0 -. Pb_util.Stats.mean (List.filter_map (fun v -> if v.r.op.cls = Report.Paql then Some v.quality else None) verdicts)) ]

(* ------------------------------------------------------------------ *)

type outcome = { verdicts : verdict list; values : (string * float) list }

(* The shard layer: a traced phase through pb_router over two shards.
   Its shard.* metrics replace the single server's zeros. *)
let router_layers ~seed ~duration =
  let spec = router in
  let st = Random.State.make [| seed; 0x5f |] in
  let pools = pools spec st in
  let d, _ = setup spec ~trace_capacity:8192 in
  let oracle = Check.oracle d.csv in
  warm d pools;
  let before = snapshot d in
  let ops = schedule spec st pools ~rate:spec.rate ~duration in
  let rs, _, _ = run_phase ~port:d.front.Procs.wire_port ~ops ~traced:true ~sample:None () in
  let after = snapshot d in
  let verdicts = judge oracle rs in
  report_failures verdicts;
  let values =
    layer_values spec d ~verdicts ~before ~after ~gauges:[] ~untraced_p50:0.0 ~oracle_build_s:0.0
  in
  stop d;
  (verdicts, values)

let run spec ~seed ~seconds ~trace =
  let st = Random.State.make [| seed; 0x5e |] in
  let pools = pools spec st in
  let main_s = float_of_int seconds in
  let phase ?drop_after d ~rate ~duration ~traced ~sample =
    let ops = schedule spec st pools ~rate ~duration in
    run_phase ?drop_after ~port:d.front.Procs.wire_port ~ops ~traced ~sample ()
  in
  if not trace then begin
    (* Set up nine times, keep the last; set-up time is their median. *)
    let setups =
      List.init 9 (fun i ->
          let d, s = setup spec ~trace_capacity:0 in
          if i < 8 then (stop d; (None, s)) else (Some d, s))
    in
    let d = Option.get (fst (List.nth setups 8)) in
    let setup_s = Pb_util.Stats.median (List.map snd setups) in
    let oracle = Check.oracle d.csv in
    Array.iter (fun t -> ignore (Check.expected_read oracle t)) pools.reads;
    warm d pools;
    let results, wall, _ = phase d ~rate:spec.rate ~duration:main_s ~traced:false ~sample:None in
    let verdicts = judge oracle results in
    report_failures verdicts;
    write_log (Filename.concat !Procs.out_dir (Printf.sprintf "requests-%s-%d.tsv" spec.name seed)) verdicts;
    let main_pass = rung_passes spec verdicts in
    let rung rate =
      let rs, w, _ = phase ~drop_after:rung_drop_after d ~rate ~duration:spec.rung_s ~traced:false ~sample:None in
      let vs = judge oracle rs in
      let pass = rung_passes spec vs in
      Printf.printf "rung %.0f/s: %s, goodput %.2f/s, p90 %.4f s\n%!" rate (if pass then "pass" else "fail")
        (goodput spec vs w) (Pb_util.Stats.percentile 90.0 (List.map (fun v -> latency v.r) vs));
      pass
    in
    (* A failing rung is run once more: a stall of the shared machine
       during one rung otherwise cut the search short, and the rate moved
       by up to a third between seeds. *)
    let slo =
      if main_pass then slo_search spec ~passes:(fun rate -> rung rate || rung rate) ~base:spec.rate
      else goodput spec verdicts wall
    in
    (* paql_qps is the PaQL share of that rate: the PaQL queries per
       second the server sustains within the limit. At the measured rate
       alone it would only echo the schedule. *)
    let paql_qps = slo *. share spec Report.Paql in
    let rss = peak_rss d in
    stop d;
    let samples = samples verdicts in
    let ok_n = List.length (List.filter (fun v -> v.ok) verdicts) in
    let paql = List.filter (fun v -> v.r.op.cls = Report.Paql) verdicts in
    Printf.printf "main phase: %d requests at %.0f/s, %s; late p99 %.6f s\n" (List.length verdicts) spec.rate
      (if main_pass then "within the limit" else "OVER the limit") (Pb_util.Stats.percentile 99.0 (lateness verdicts));
    let values =
      [ ("setup_s", setup_s); ("peak_rss_mb", rss);
        ("ok_ratio", float_of_int ok_n /. float_of_int (max 1 (List.length verdicts))) ]
      @ Report.latency_metrics ~tail_p:(List.assoc Report.Paql spec.tails) Report.Paql samples
      @ [ ("paql_qps", paql_qps) ]
      @ Report.latency_metrics ~tail_p:(List.assoc Report.Read spec.tails) Report.Read samples
      @ Report.latency_metrics ~tail_p:(List.assoc Report.Write spec.tails) Report.Write samples
      @ [ ("slo_rate_rps", slo);
          ("package_quality", Pb_util.Stats.mean (List.map (fun v -> v.quality) paql)) ]
    in
    { verdicts; values }
  end
  else begin
    (* Untraced half, then a traced half with server tracing on and
       client trace ids; the ratio of their p50s is the tracing cost. *)
    let half = Float.max 2.0 (main_s /. 2.0) in
    let d, _ = setup spec ~trace_capacity:0 in
    let oracle = Check.oracle d.csv in
    let t_build = now () in
    ignore (Pb_sql.Database.columnar oracle.Check.db "recipes" (Pb_sql.Database.find_exn oracle.Check.db "recipes"));
    let oracle_build_s = now () -. t_build in
    warm d pools;
    let rs, _, _ = phase d ~rate:spec.rate ~duration:half ~traced:false ~sample:None in
    let untraced = judge oracle rs in
    stop d;
    let d, _ = setup spec ~trace_capacity:8192 in
    warm d pools;
    let before = snapshot d in
    let sample () =
      List.filter_map
        (fun (k, v) -> if k = "pb_net_queue_depth" || k = "pb_net_inflight_requests" then Some (k, v) else None)
        (Procs.metrics d.front.Procs.metrics_port)
    in
    let rs, _, gauges = phase d ~rate:spec.rate ~duration:half ~traced:true ~sample:(Some sample) in
    let after = snapshot d in
    let verdicts = judge oracle rs in
    let untraced_p50 = Pb_util.Stats.median (List.map (fun v -> latency v.r) (List.filter was_sent untraced)) in
    List.iter
      (fun cls ->
        let p50 vs = Pb_util.Stats.median (List.map (fun v -> latency v.r) (List.filter (fun v -> was_sent v && v.r.op.cls = cls) vs)) in
        Printf.printf "%s p50: untraced %.6f s, traced %.6f s\n" (Report.cls_name cls) (p50 untraced) (p50 verdicts))
      [ Report.Paql; Report.Read; Report.Write ];
    let values =
      layer_values spec d ~verdicts ~before ~after ~gauges ~untraced_p50 ~oracle_build_s
    in
    stop d;
    let router_verdicts, router_values = router_layers ~seed ~duration:(Float.max 2.0 (main_s /. 3.0)) in
    let values =
      List.map
        (fun (k, v) -> if String.starts_with ~prefix:"shard." k then (k, List.assoc k router_values) else (k, v))
        values
    in
    { verdicts = untraced @ verdicts @ router_verdicts; values }
  end
