(* Tests for the observability layer: span tracing, the metrics
   registry's exposition format, the slow-query log, and the REPL's
   EXPLAIN ANALYZE surface built on top of them. *)

module Trace = Pb_obs.Trace
module Metrics = Pb_obs.Metrics
module Clock = Pb_obs.Clock
module Slow_log = Pb_obs.Slow_log

(* A deterministic clock that advances a fixed step per reading, so span
   timings are exact. *)
let with_fake_clock ?(step = 0.5) f =
  let t = ref 0.0 in
  Clock.set_source (fun () ->
      let v = !t in
      t := v +. step;
      v);
  Fun.protect ~finally:Clock.reset_source f

let with_tracing f =
  Trace.reset ();
  Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    f

(* ---- tracing --------------------------------------------------------- *)

(* The global ring as [Trace.render_tree] shows it: one
   (depth, name, fields) per span in open order, where the fields are
   the elapsed time and the attribute and counter [k=v] pairs. *)
let ring () =
  String.split_on_char '\n' (Trace.render_tree ())
  |> List.filter (fun l -> l <> "" && l.[0] <> '(')
  |> List.map (fun l ->
         let rec indent i = if l.[i] = ' ' then indent (i + 1) else i in
         match List.filter (( <> ) "") (String.split_on_char ' ' l) with
         | name :: fields -> (indent 0 / 2, name, fields)
         | [] -> assert false)

let ring_names () = List.map (fun (_, name, _) -> name) (ring ())

let test_span_nesting () =
  with_tracing (fun () ->
      let v =
        Trace.with_span ~name:"outer" ~attrs:[ ("k", "v") ] (fun () ->
            Trace.with_span ~name:"first" (fun () -> ());
            Trace.with_span ~name:"second" (fun () -> Trace.add_count "hits" 2);
            41 + 1)
      in
      Alcotest.(check int) "value threaded through" 42 v;
      match ring () with
      | [
       (0, "outer", _ :: outer); (1, "first", [ _ ]); (1, "second", _ :: second);
      ] ->
          Alcotest.(check (list string)) "attrs kept" [ "k=v" ] outer;
          Alcotest.(check (list string))
            "counter on innermost span" [ "hits=2" ] second
      | _ ->
          Alcotest.fail
            ("expected outer > first, second:\n" ^ Trace.render_tree ()))

let test_span_timing () =
  with_fake_clock ~step:0.5 (fun () ->
      with_tracing (fun () ->
          Trace.with_span ~name:"a" (fun () -> ());
          match ring () with
          | [ (0, "a", [ elapsed ]) ] ->
              (* open reads the clock once, close once: 0.5s apart *)
              Alcotest.(check string) "elapsed" "500.00ms" elapsed
          | _ -> Alcotest.fail "expected one span"))

let test_disabled_is_noop () =
  Trace.reset ();
  Trace.set_enabled false;
  let v = Trace.with_span ~name:"ghost" (fun () -> 7) in
  Alcotest.(check int) "thunk still runs" 7 v;
  Trace.add_count "ignored" 3;
  Alcotest.(check string) "nothing recorded" "" (Trace.render_tree ())

let test_timed_measures_when_disabled () =
  with_fake_clock ~step:0.25 (fun () ->
      Trace.reset ();
      Trace.set_enabled false;
      let v, elapsed = Trace.timed ~name:"t" (fun () -> "x") in
      Alcotest.(check string) "value" "x" v;
      Alcotest.(check (float 1e-9)) "elapsed without spans" 0.25 elapsed;
      Alcotest.(check string) "no span recorded" "" (Trace.render_tree ()))

let test_span_survives_exception () =
  with_tracing (fun () ->
      (try
         Trace.with_span ~name:"outer" (fun () ->
             Trace.with_span ~name:"boom" (fun () -> failwith "kaboom"))
       with Failure _ -> ());
      (* both spans recorded, and the stack is clean for the next span *)
      Alcotest.(check (list (pair int string)))
        "both recorded" [ (0, "outer"); (1, "boom") ]
        (List.map (fun (depth, name, _) -> (depth, name)) (ring ()));
      Trace.with_span ~name:"after" (fun () -> ());
      Alcotest.(check bool) "clean stack afterwards" true
        (List.exists
           (fun (depth, name, _) -> depth = 0 && name = "after")
           (ring ())))

let test_ring_overwrites_oldest () =
  with_tracing (fun () ->
      Trace.reset ~capacity:4 ();
      for i = 1 to 6 do
        Trace.with_span ~name:(Printf.sprintf "s%d" i) (fun () -> ())
      done;
      Alcotest.(check bool) "dropped count" true
        (String.ends_with ~suffix:"(2 older span(s) dropped)\n"
           (Trace.render_tree ()));
      Alcotest.(check (list string))
        "newest survive" [ "s3"; "s4"; "s5"; "s6" ] (ring_names ());
      Trace.reset ~capacity:4096 ())

let test_render_tree () =
  with_fake_clock ~step:0.001 (fun () ->
      with_tracing (fun () ->
          Trace.with_span ~name:"engine.evaluate" (fun () ->
              Trace.with_span ~name:"milp.solve" (fun () ->
                  Trace.add_count "bb_nodes" 3));
          let tree = Trace.render_tree () in
          let lines = String.split_on_char '\n' (String.trim tree) in
          match lines with
          | [ root; child ] ->
              Alcotest.(check bool)
                "root unindented" true
                (String.length root > 0 && root.[0] <> ' ');
              Alcotest.(check bool)
                "root named" true
                (String.length root >= 15
                && String.sub root 0 15 = "engine.evaluate");
              Alcotest.(check bool)
                "child indented" true
                (String.length child > 2 && String.sub child 0 2 = "  ");
              let contains needle hay =
                let n = String.length needle and h = String.length hay in
                let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
                go 0
              in
              Alcotest.(check bool)
                "counter rendered" true (contains "bb_nodes=3" child)
          | _ -> Alcotest.fail ("unexpected tree:\n" ^ tree)))

let test_json_lines () =
  with_fake_clock (fun () ->
      let (), spans =
        Trace.with_context ~trace_id:(String.make 32 'c') (fun () ->
            Trace.with_span ~name:"a\"b" (fun () -> ()))
      in
      let json = String.concat "\n" (List.map Trace.span_to_json spans) in
      let contains needle hay =
        let n = String.length needle and h = String.length hay in
        let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        "name escaped" true (contains "\"name\":\"a\\\"b\"" json);
      Alcotest.(check bool) "parent field" true (contains "\"parent\":-1" json))

(* ---- metrics --------------------------------------------------------- *)

(* A counter's value as the registry's snapshot reports it. *)
let counter_value r name =
  int_of_float (List.assoc name (Metrics.snapshot ~registry:r ()))

let test_counter_basics () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r "pb_test_ops_total" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  Alcotest.(check int) "accumulates" 5 (counter_value r "pb_test_ops_total");
  let again = Metrics.counter ~registry:r "pb_test_ops_total" in
  Metrics.incr again;
  Alcotest.(check int) "same instrument by name" 6
    (counter_value r "pb_test_ops_total");
  Alcotest.check_raises "negative increment"
    (Invalid_argument "Metrics.incr: negative increment") (fun () ->
      Metrics.incr ~by:(-1) c);
  Alcotest.check_raises "kind clash"
    (Invalid_argument
       "Metrics: pb_test_ops_total is already registered as another kind")
    (fun () -> ignore (Metrics.gauge ~registry:r "pb_test_ops_total"))

(* Parse the exposition text back into (name-with-labels, value) samples;
   '#' comment lines are skipped. *)
let parse_exposition text =
  List.filter_map
    (fun line ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then None
      else
        match String.rindex_opt line ' ' with
        | None -> Alcotest.fail ("unparseable sample line: " ^ line)
        | Some i ->
            let name = String.sub line 0 i in
            let raw = String.sub line (i + 1) (String.length line - i - 1) in
            (match float_of_string_opt raw with
            | Some v -> Some (name, v)
            | None -> Alcotest.fail ("unparseable value: " ^ line)))
    (String.split_on_char '\n' text)

let test_histogram_buckets () =
  let r = Metrics.create () in
  let h =
    Metrics.histogram ~registry:r ~buckets:[ 0.1; 1.0; 10.0 ] "pb_test_seconds"
  in
  (* le-inclusive: an observation exactly on a bound lands in that bucket *)
  List.iter (Metrics.observe h) [ 0.05; 0.1; 0.5; 1.0; 2.0; 99.0 ];
  let parsed = parse_exposition (Metrics.dump ~registry:r ()) in
  let series name = List.assoc name parsed in
  Alcotest.(check (list (float 0.0)))
    "bucket boundaries, cumulative" [ 2.0; 4.0; 5.0; 6.0 ]
    (List.map
       (fun le -> series ("pb_test_seconds_bucket{le=\"" ^ le ^ "\"}"))
       [ "0.1"; "1"; "10"; "+Inf" ]);
  Alcotest.(check (float 0.0)) "count" 6.0 (series "pb_test_seconds_count");
  Alcotest.(check (float 1e-9)) "sum" 102.65 (series "pb_test_seconds_sum");
  Alcotest.check_raises "empty buckets"
    (Invalid_argument "Metrics.histogram: empty bucket list") (fun () ->
      ignore (Metrics.histogram ~registry:r ~buckets:[] "pb_test_empty"))

let test_dump_round_trip () =
  let r = Metrics.create () in
  let c = Metrics.counter ~registry:r ~help:"test ops" "pb_test_ops_total" in
  let g = Metrics.gauge ~registry:r "pb_test_queue_depth" in
  let h =
    Metrics.histogram ~registry:r ~buckets:[ 0.5; 2.0 ] "pb_test_latency"
  in
  Metrics.incr ~by:7 c;
  Metrics.set g 3.25;
  List.iter (Metrics.observe h) [ 0.25; 1.5; 9.0 ];
  let parsed = parse_exposition (Metrics.dump ~registry:r ()) in
  (* every snapshot sample round-trips through the exposition text *)
  List.iter
    (fun (name, v) ->
      match List.assoc_opt name parsed with
      | Some v' -> Alcotest.(check (float 1e-9)) ("round-trip " ^ name) v v'
      | None -> Alcotest.fail ("sample missing from dump: " ^ name))
    (Metrics.snapshot ~registry:r ());
  (* histogram series are cumulative and end at the total count *)
  let bucket le = List.assoc ("pb_test_latency_bucket{le=\"" ^ le ^ "\"}") parsed in
  Alcotest.(check (float 0.0)) "le=0.5" 1.0 (bucket "0.5");
  Alcotest.(check (float 0.0)) "le=2" 2.0 (bucket "2");
  Alcotest.(check (float 0.0)) "le=+Inf" 3.0 (bucket "+Inf");
  Alcotest.(check (float 0.0))
    "+Inf equals _count" (bucket "+Inf")
    (List.assoc "pb_test_latency_count" parsed);
  (* TYPE headers are present for scrapers *)
  let dump = Metrics.dump ~registry:r () in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun header ->
      Alcotest.(check bool) ("has " ^ header) true (contains header dump))
    [
      "# HELP pb_test_ops_total test ops";
      "# TYPE pb_test_ops_total counter";
      "# TYPE pb_test_queue_depth gauge";
      "# TYPE pb_test_latency histogram";
    ]

(* ---- slow-query log -------------------------------------------------- *)

let test_slow_log () =
  Fun.protect
    ~finally:(fun () ->
      Slow_log.set_threshold None;
      Slow_log.clear ())
    (fun () ->
      Slow_log.clear ();
      Alcotest.(check bool)
        "off by default: not logged" false
        (Slow_log.observe ~query:"SELECT 1" ~elapsed:99.0);
      Slow_log.set_threshold (Some 0.5);
      Alcotest.(check bool)
        "under threshold" false
        (Slow_log.observe ~query:"fast" ~elapsed:0.4);
      Alcotest.(check bool)
        "at threshold" true
        (Slow_log.observe ~query:"slow1" ~elapsed:0.5);
      Alcotest.(check bool)
        "over threshold" true
        (Slow_log.observe ~query:"slow2" ~elapsed:0.9);
      Alcotest.(check (list string))
        "most recent first" [ "slow2"; "slow1" ]
        (List.map
           (fun line -> List.hd (List.rev (String.split_on_char ' ' line)))
           (String.split_on_char '\n' (Slow_log.render ())));
      Slow_log.clear ();
      Alcotest.(check string) "cleared" "(slow-query log is empty)"
        (Slow_log.render ()))

(* ---- EXPLAIN ANALYZE through the REPL -------------------------------- *)

let demo_db () =
  let db = Pb_sql.Database.create () in
  Pb_sql.Database.put db "recipes"
    (Pb_workload.Workload.recipes ~seed:7 ~n:40 ());
  db

let meal_query =
  "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' SUCH THAT \
   COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2500 MAXIMIZE \
   SUM(P.protein)"

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_explain_analyze () =
  with_fake_clock ~step:0.001 (fun () ->
      let st = Pb_shell.Repl.create (demo_db ()) in
      let reaction =
        Pb_shell.Repl.handle st ("\\explain analyze " ^ meal_query)
      in
      let out = reaction.Pb_shell.Repl.output in
      let lines = String.split_on_char '\n' out in
      (* the span tree leads with the evaluation root, unindented *)
      (match lines with
      | first :: _ ->
          Alcotest.(check bool)
            "root span first" true
            (String.length first >= 10
            && String.sub first 0 10 = "engine.run")
      | [] -> Alcotest.fail "empty output");
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("output has " ^ needle) true (contains needle out))
        [
          "  strategy.";  (* nested strategy span *)
          "counters:";
          "pb_engine_strategy_runs_total +";
          "objective:";
          "strategy: ";
        ];
      (* candidate generation is a child of engine.run, with its count *)
      Alcotest.(check bool) "paql.coeffs span with candidates counter" true
        (List.exists
           (fun l ->
             String.length l > 13
             && String.sub l 0 13 = "  paql.coeffs"
             && contains "candidates=" l)
           lines);
      (* tracing was only on for the analyzed run *)
      Alcotest.(check bool) "tracing restored off" false (Trace.is_enabled ());
      (* the run is remembered like a plain query, so \save works *)
      let save = Pb_shell.Repl.handle st "\\save plan" in
      Alcotest.(check bool)
        "package saved" true
        (contains "saved as plan" save.Pb_shell.Repl.output))

(* Under sketch-refine the LP front shows up three ways: its span, its
   counters, and the front/lp_bound stats. *)
let test_explain_analyze_front () =
  let st = Pb_shell.Repl.create (demo_db ()) in
  ignore (Pb_shell.Repl.handle st "\\strategy sketch-refine");
  let out =
    (Pb_shell.Repl.handle st ("\\explain analyze " ^ meal_query)).Pb_shell.Repl.output
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("output has " ^ needle) true (contains needle out))
    [
      "sketch-refine.lp";
      "pb_engine_lp_front_total +1";
      "pb_engine_lp_front_certified_total +1";
      "stats: ";
      "front=certified";
      "lp_bound=";
    ]

(* A query that moves one right-hand side of the previous one re-solves
   the front's LP warm: the span counts it, and so does the counter. *)
let test_explain_analyze_warm_front () =
  let st = Pb_shell.Repl.create (demo_db ()) in
  ignore (Pb_shell.Repl.handle st "\\strategy sketch-refine");
  ignore (Pb_shell.Repl.handle st meal_query);
  let tweaked =
    "SELECT PACKAGE(R) AS P FROM recipes R WHERE R.gluten = 'free' SUCH THAT \
     COUNT(*) = 3 AND SUM(P.calories) BETWEEN 2000 AND 2600 MAXIMIZE \
     SUM(P.protein)"
  in
  let out =
    (Pb_shell.Repl.handle st ("\\explain analyze " ^ tweaked)).Pb_shell.Repl.output
  in
  let span =
    List.find_opt
      (fun l -> contains "sketch-refine.lp" l)
      (String.split_on_char '\n' out)
  in
  Alcotest.(check bool) "sketch-refine.lp span counts a warm LP" true
    (match span with Some l -> contains "warm=1" l | None -> false);
  Alcotest.(check bool) "warm front counter moved" true
    (contains "pb_engine_lp_front_warm_total +1" out)

let test_explain_analyze_bad_query () =
  let st = Pb_shell.Repl.create (demo_db ()) in
  let reaction = Pb_shell.Repl.handle st "\\explain analyze SELECT PACKAGE(" in
  Alcotest.(check bool)
    "parse error reported" true
    (contains "paql error" reaction.Pb_shell.Repl.output);
  Alcotest.(check bool) "tracing left off" false (Trace.is_enabled ())

let test_metrics_command () =
  let st = Pb_shell.Repl.create (demo_db ()) in
  let reaction = Pb_shell.Repl.handle st "\\metrics" in
  Alcotest.(check bool)
    "exposition format" true
    (contains "# TYPE pb_engine_strategy_runs_total counter"
       reaction.Pb_shell.Repl.output)

let test_slowlog_command () =
  Fun.protect
    ~finally:(fun () ->
      Slow_log.set_threshold None;
      Slow_log.clear ())
    (fun () ->
      let st = Pb_shell.Repl.create (demo_db ()) in
      let out line = (Pb_shell.Repl.handle st line).Pb_shell.Repl.output in
      Alcotest.(check bool) "off by default" true (contains "off" (out "\\slowlog"));
      Alcotest.(check bool)
        "enable" true
        (contains "logging queries slower than 0s" (out "\\slowlog 0"));
      ignore (out meal_query);
      Alcotest.(check bool)
        "query logged" true
        (contains "PACKAGE" (out "\\slowlog"));
      Alcotest.(check bool) "clear" true (contains "cleared" (out "\\slowlog clear"));
      Alcotest.(check bool)
        "empty after clear" true
        (contains "empty" (out "\\slowlog"));
      Alcotest.(check bool)
        "disable" true
        (contains "disabled" (out "\\slowlog off"));
      Alcotest.(check bool)
        "bad argument" true
        (contains "usage" (out "\\slowlog nonsense")))

(* ---- exposition escaping --------------------------------------------- *)

(* Exact-format locks: Prometheus scrapers parse HELP text and label
   values byte-by-byte, so the escaping rules are wire format, not
   cosmetics. *)
let test_exposition_escaping () =
  Alcotest.(check string)
    "help: backslash doubled" "a\\\\b"
    (Metrics.escape_help "a\\b");
  Alcotest.(check string)
    "help: newline becomes \\n" "x\\ny"
    (Metrics.escape_help "x\ny");
  Alcotest.(check string)
    "help: quotes untouched" "say \"hi\""
    (Metrics.escape_help "say \"hi\"");
  Alcotest.(check string)
    "label: quote gains a backslash" "say \\\"hi\\\""
    (Metrics.escape_label "say \"hi\"");
  Alcotest.(check string)
    "label: all three at once" "\\\\ \\\" \\n"
    (Metrics.escape_label "\\ \" \n");
  (* dump applies the rules: a raw newline in HELP text would split the
     comment line and corrupt every sample after it *)
  let r = Metrics.create () in
  ignore
    (Metrics.counter ~registry:r ~help:"line1\nline2 \\ slash"
       "pb_test_esc_total");
  Alcotest.(check bool)
    "HELP line escaped in the dump" true
    (contains "# HELP pb_test_esc_total line1\\nline2 \\\\ slash"
       (Metrics.dump ~registry:r ()))

(* ---- request trace contexts ------------------------------------------ *)

let tid_a = String.make 32 'a'
let tid_b = String.make 32 'b'

let test_with_context () =
  Trace.reset ();
  Trace.set_enabled false;
  let v, spans =
    Trace.with_context ~trace_id:tid_a (fun () ->
        Alcotest.(check (option string))
          "context visible inside" (Some tid_a)
          (Trace.current_trace_id ());
        Trace.with_span ~name:"engine.run" (fun () ->
            Trace.with_span ~name:"milp.solve" (fun () -> ()));
        42)
  in
  Alcotest.(check int) "value threaded through" 42 v;
  Alcotest.(check (option string))
    "context uninstalled after" None
    (Trace.current_trace_id ());
  (match spans with
  | [ root; engine; milp ] ->
      Alcotest.(check string) "root is the request span" "request"
        root.Trace.name;
      Alcotest.(check int) "root has no parent" (-1) root.Trace.parent;
      Alcotest.(check (option string))
        "root carries the trace id" (Some tid_a)
        (List.assoc_opt "trace_id" root.Trace.attrs);
      Alcotest.(check int) "engine under root" root.Trace.id
        engine.Trace.parent;
      Alcotest.(check int) "milp under engine" engine.Trace.id
        milp.Trace.parent
  | spans ->
      Alcotest.fail
        (Printf.sprintf "expected 3 spans, got %d" (List.length spans)));
  (* context spans bypass the global ring while tracing is disabled *)
  Alcotest.(check string) "global ring untouched" "" (Trace.render_tree ())

let test_with_context_reentrant () =
  Trace.reset ();
  Trace.set_enabled false;
  let (), outer_spans =
    Trace.with_context ~trace_id:tid_a (fun () ->
        Trace.with_span ~name:"outer.op" (fun () -> ());
        let (), inner_spans =
          Trace.with_context ~trace_id:tid_b (fun () ->
              Trace.with_span ~name:"inner.op" (fun () -> ()))
        in
        Alcotest.(check bool)
          "inner context collected its own span" true
          (List.exists (fun sp -> sp.Trace.name = "inner.op") inner_spans);
        Alcotest.(check (option string))
          "outer context restored" (Some tid_a)
          (Trace.current_trace_id ()))
  in
  Alcotest.(check bool)
    "outer kept its span" true
    (List.exists (fun sp -> sp.Trace.name = "outer.op") outer_spans);
  Alcotest.(check bool)
    "outer did not swallow the inner tree" false
    (List.exists (fun sp -> sp.Trace.name = "inner.op") outer_spans);
  (* exception safety: the context is gone after a raise *)
  (try
     ignore (Trace.with_context ~trace_id:tid_a (fun () -> failwith "kaboom"))
   with Failure _ -> ());
  Alcotest.(check (option string))
    "context uninstalled on raise" None
    (Trace.current_trace_id ())

(* ---- trace store ------------------------------------------------------ *)

module Trace_store = Pb_obs.Trace_store

let mk_entry ?(spans = []) ?(progress = []) ?(status = "ok") id =
  {
    Trace_store.trace_id = id;
    started = 0.0;
    elapsed = 0.125;
    status;
    spans;
    progress;
  }

let test_trace_store_fifo () =
  let s = Trace_store.create ~capacity:2 () in
  Trace_store.add s (mk_entry "id1");
  Trace_store.add s (mk_entry "id2");
  Trace_store.add s (mk_entry "id3");
  Alcotest.(check int) "capped" 2 (List.length (Trace_store.ids s));
  Alcotest.(check (list string))
    "oldest evicted, oldest first" [ "id2"; "id3" ]
    (Trace_store.ids s);
  Alcotest.(check bool) "evicted id gone" true
    (Trace_store.find s "id1" = None);
  (* re-adding an id replaces its entry in place *)
  Trace_store.add s (mk_entry ~status:"deadline" "id3");
  Alcotest.(check int) "replace does not grow" 2 (List.length (Trace_store.ids s));
  (match Trace_store.find s "id3" with
  | Some e -> Alcotest.(check string) "replaced" "deadline" e.Trace_store.status
  | None -> Alcotest.fail "replaced entry vanished");
  (* shrinking evicts immediately; zero disables the store *)
  Trace_store.set_capacity s 1;
  Alcotest.(check (list string)) "shrunk to newest" [ "id3" ] (Trace_store.ids s);
  Trace_store.set_capacity s 0;
  Trace_store.add s (mk_entry "id4");
  Alcotest.(check int) "capacity 0 stores nothing" 0 (List.length (Trace_store.ids s));
  Trace_store.set_capacity s 4;
  Trace_store.add s (mk_entry "id5");
  Alcotest.(check (list string)) "re-enabled" [ "id5" ] (Trace_store.ids s)

let test_trace_store_json_root_id () =
  let root =
    {
      Trace.id = 7;
      parent = -1;
      name = "request";
      attrs = [ ("trace_id", tid_a) ];
      counters = [];
      start = 0.0;
      elapsed = 0.5;
    }
  in
  let child =
    {
      Trace.id = 8;
      parent = 7;
      name = "engine.run";
      attrs = [];
      counters = [];
      start = 0.1;
      elapsed = 0.3;
    }
  in
  let entry = mk_entry ~spans:[ root; child ] tid_a in
  let json = Trace_store.to_json entry in
  (* the root span's internal id is replaced by the wire trace id, so a
     client can verify the tree is rooted at the id it generated *)
  Alcotest.(check bool)
    "root id is the trace id" true
    (contains (Printf.sprintf "\"id\":%S" tid_a) json);
  Alcotest.(check bool) "root parent is null" true
    (contains "\"parent\":null" json);
  Alcotest.(check bool)
    "child's parent names the root by trace id" true
    (contains (Printf.sprintf "\"parent\":%S" tid_a) json);
  Alcotest.(check bool)
    "status field" true
    (contains "\"status\":\"ok\"" json);
  (* and the human rendering leads with the id *)
  let text = Trace_store.render entry in
  Alcotest.(check bool) "render header" true (contains ("trace " ^ tid_a) text);
  Alcotest.(check bool) "render has spans" true (contains "engine.run" text)

(* ---- solver progress telemetry ---------------------------------------- *)

module Progress = Pb_obs.Progress

let test_progress_recorder () =
  let (), events =
    Progress.with_recorder ~key:42 (fun () ->
        Progress.incumbent ~key:42 ~strategy:"test" ~bound:10.0 ~nodes:5 8.0;
        Progress.incumbent ~key:42 ~strategy:"test" ~nodes:9 9.5;
        (* infinite bounds are dropped, not recorded as infinities *)
        Progress.incumbent ~key:42 ~strategy:"test" ~bound:Float.infinity
          ~nodes:12 9.9;
        (* a different family's events do not leak in *)
        Progress.incumbent ~key:7 ~strategy:"other" ~nodes:1 1.0)
  in
  (match events with
  | [ a; b; c ] ->
      Alcotest.(check (list int)) "seq numbering" [ 0; 1; 2 ]
        [ a.Progress.seq; b.Progress.seq; c.Progress.seq ];
      Alcotest.(check (float 0.0)) "objective" 8.0 a.Progress.objective;
      Alcotest.(check (option (float 0.0))) "bound kept" (Some 10.0)
        a.Progress.bound;
      Alcotest.(check (option (float 1e-9)))
        "gap = |bound-obj| / max(1,|obj|)" (Some 0.25) a.Progress.gap;
      Alcotest.(check int) "nodes" 5 a.Progress.nodes;
      Alcotest.(check string) "strategy" "test" a.Progress.strategy;
      Alcotest.(check (option (float 0.0))) "no bound -> none" None
        b.Progress.bound;
      Alcotest.(check (option (float 0.0))) "no bound -> no gap" None
        b.Progress.gap;
      Alcotest.(check (option (float 0.0))) "infinite bound dropped" None
        c.Progress.bound
  | evs ->
      Alcotest.fail (Printf.sprintf "expected 3 events, got %d" (List.length evs)));
  (* emission with no recorder installed is a silent no-op *)
  Progress.incumbent ~key:999 ~strategy:"ghost" ~nodes:0 1.0

let test_progress_capacity_and_nesting () =
  (* the buffer keeps the newest events; seq exposes the loss *)
  let (), events =
    Progress.with_recorder ~capacity:2 ~key:5 (fun () ->
        for i = 1 to 4 do
          Progress.incumbent ~key:5 ~strategy:"t" ~nodes:i (float_of_int i)
        done)
  in
  Alcotest.(check (list int)) "newest kept, seq shows drops" [ 2; 3 ]
    (List.map (fun e -> e.Progress.seq) events);
  (* nested recorders (server outside, engine inside) both hear events *)
  let (((), inner), outer) =
    Progress.with_recorder ~key:5 (fun () ->
        Progress.with_recorder ~key:5 (fun () ->
            Progress.incumbent ~key:5 ~strategy:"t" ~nodes:1 1.0))
  in
  Alcotest.(check int) "inner recorder heard it" 1 (List.length inner);
  Alcotest.(check int) "outer recorder heard it too" 1 (List.length outer)

let test_progress_rendering () =
  let gap_of ~objective bound =
    let (), events =
      Progress.with_recorder ~key:6 (fun () ->
          Progress.incumbent ~key:6 ~strategy:"t" ~bound ~nodes:0 objective)
    in
    (List.hd events).Progress.gap
  in
  Alcotest.(check (option (float 1e-9)))
    "gap clamps small objectives" (Some 0.5)
    (gap_of ~objective:0.5 1.0);
  Alcotest.(check (option (float 1e-9)))
    "gap on negatives" (Some 0.25)
    (gap_of ~objective:(-8.0) (-10.0));
  let ev =
    {
      Progress.seq = 3;
      elapsed = 1.25;
      objective = 42.0;
      bound = Some 45.5;
      gap = Some 0.0833;
      nodes = 17;
      strategy = "ilp";
    }
  in
  Alcotest.(check string)
    "event line format"
    "#3 +1.250s ilp obj=42 bound=45.5 gap=0.0833 nodes=17"
    (Progress.event_to_string ev);
  let bare = { ev with seq = 0; elapsed = 0.5; bound = None; gap = None } in
  Alcotest.(check string)
    "bound and gap omitted together" "#0 +0.500s ilp obj=42 nodes=17"
    (Progress.event_to_string bare);
  let json = Progress.to_json [ bare ] in
  Alcotest.(check bool) "json nulls absent bound" true
    (contains "\"bound\":null" json);
  Alcotest.(check bool) "json array" true
    (String.length json >= 2 && json.[0] = '[')

(* ---- http exposition server ------------------------------------------- *)

let http_raw port data =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  output_string oc data;
  flush oc;
  let buf = Buffer.create 256 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file | Sys_error _ -> ());
  close_out_noerr oc;
  Buffer.contents buf

let http_get port path =
  http_raw port ("GET " ^ path ^ " HTTP/1.1\r\nHost: t\r\n\r\n")

let test_http_server () =
  let handler path =
    match path with
    | "/ok" ->
        Some
          {
            Pb_obs.Http.code = 200;
            content_type = "text/plain";
            body = "hello\n";
          }
    | "/boom" -> failwith "handler crash"
    | _ -> None
  in
  let h = Pb_obs.Http.start ~port:0 handler in
  Fun.protect
    ~finally:(fun () -> Pb_obs.Http.stop h)
    (fun () ->
      let port = Pb_obs.Http.port h in
      let ok = http_get port "/ok" in
      Alcotest.(check bool) "200 status line" true
        (contains "HTTP/1.1 200 OK" ok);
      Alcotest.(check bool) "content type" true
        (contains "Content-Type: text/plain" ok);
      Alcotest.(check bool) "content length" true
        (contains "Content-Length: 6" ok);
      Alcotest.(check bool) "one-shot connection" true
        (contains "Connection: close" ok);
      Alcotest.(check bool) "body" true (contains "hello" ok);
      (* query strings are stripped before routing *)
      Alcotest.(check bool) "query string ignored" true
        (contains "HTTP/1.1 200 OK" (http_get port "/ok?x=1"));
      Alcotest.(check bool) "unknown path is 404" true
        (contains "HTTP/1.1 404" (http_get port "/nope"));
      Alcotest.(check bool) "handler exception is 500" true
        (contains "HTTP/1.1 500" (http_get port "/boom"));
      Alcotest.(check bool) "non-GET is 405" true
        (contains "HTTP/1.1 405"
           (http_raw port "POST /ok HTTP/1.1\r\nHost: t\r\n\r\n"));
      Alcotest.(check bool) "garbage request line is 400" true
        (contains "HTTP/1.1 400" (http_raw port "gremlins\r\n\r\n")))

let suite =
  [
    ("span nesting, attrs and counters.", `Quick, test_span_nesting);
    ("span timing under a fake clock.", `Quick, test_span_timing);
    ("disabled tracing records nothing.", `Quick, test_disabled_is_noop);
    ("timed measures even when disabled.", `Quick, test_timed_measures_when_disabled);
    ("spans are recorded on exceptions.", `Quick, test_span_survives_exception);
    ("ring buffer overwrites oldest.", `Quick, test_ring_overwrites_oldest);
    ("render_tree indents children.", `Quick, test_render_tree);
    ("json lines escape names.", `Quick, test_json_lines);
    ("counter basics and kind clash.", `Quick, test_counter_basics);
    ("histogram bucket boundaries.", `Quick, test_histogram_buckets);
    ("dump round-trips the snapshot.", `Quick, test_dump_round_trip);
    ("slow log thresholds and ordering.", `Quick, test_slow_log);
    ("EXPLAIN ANALYZE prints tree and counters.", `Quick, test_explain_analyze);
    ("EXPLAIN ANALYZE shows the SketchRefine LP front.", `Quick, test_explain_analyze_front);
    ("EXPLAIN ANALYZE parse error is safe.", `Quick, test_explain_analyze_bad_query);
    ("\\metrics dumps the registry.", `Quick, test_metrics_command);
    ("\\slowlog command cycle.", `Quick, test_slowlog_command);
    ("exposition escaping exact format.", `Quick, test_exposition_escaping);
    ("request trace contexts collect spans.", `Quick, test_with_context);
    ("trace contexts nest and survive raises.", `Quick,
     test_with_context_reentrant);
    ("trace store FIFO eviction and capacity.", `Quick, test_trace_store_fifo);
    ("trace store json roots at the trace id.", `Quick,
     test_trace_store_json_root_id);
    ("progress recorder captures incumbents.", `Quick, test_progress_recorder);
    ("progress capacity and nested recorders.", `Quick,
     test_progress_capacity_and_nesting);
    ("progress gap and rendering format.", `Quick, test_progress_rendering);
    ("http server GET/404/405/500.", `Quick, test_http_server);
    ("EXPLAIN ANALYZE shows a warm LP front.", `Quick, test_explain_analyze_warm_front);
  ]
