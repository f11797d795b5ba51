(* Unit tests for pb_util: PRNG determinism, statistics, table rendering,
   CSV round-trips. *)

module Prng = Pb_util.Prng
module Stats = Pb_util.Stats
module Table = Pb_util.Table
module Csv = Pb_util.Csv

let check_float = Alcotest.(check (float 1e-9))

let test_prng_deterministic () =
  let a = Prng.create 123 and b = Prng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_different_seeds () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.bits64 a = Prng.bits64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_prng_int_range () =
  let rng = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int rng 10 in
    Alcotest.(check bool) "in [0,10)" true (v >= 0 && v < 10)
  done

let test_prng_int_in_inclusive () =
  let rng = Prng.create 8 in
  let seen_lo = ref false and seen_hi = ref false in
  for _ = 1 to 2000 do
    let v = Prng.int_in rng 3 5 in
    Alcotest.(check bool) "in [3,5]" true (v >= 3 && v <= 5);
    if v = 3 then seen_lo := true;
    if v = 5 then seen_hi := true
  done;
  Alcotest.(check bool) "bounds reachable" true (!seen_lo && !seen_hi)

let test_prng_float_range () =
  let rng = Prng.create 9 in
  for _ = 1 to 1000 do
    let v = Prng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_prng_split_independent () =
  let a = Prng.create 42 in
  let b = Prng.split a in
  Alcotest.(check bool) "split streams differ" true
    (Prng.bits64 a <> Prng.bits64 b)

let test_prng_gaussian_moments () =
  let rng = Prng.create 10 in
  let n = 20_000 in
  let xs = List.init n (fun _ -> Prng.gaussian rng ~mean:5.0 ~stddev:2.0) in
  let m = Stats.mean xs and sd = Stats.stddev xs in
  Alcotest.(check bool) "mean near 5" true (Float.abs (m -. 5.0) < 0.1);
  Alcotest.(check bool) "stddev near 2" true (Float.abs (sd -. 2.0) < 0.1)

let test_prng_shuffle_permutation () =
  let rng = Prng.create 11 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

let test_prng_sample_without_replacement () =
  let rng = Prng.create 12 in
  for _ = 1 to 50 do
    let sample = Prng.sample_without_replacement rng 5 20 in
    Alcotest.(check int) "size" 5 (List.length sample);
    Alcotest.(check int) "distinct" 5
      (List.length (List.sort_uniq compare sample));
    List.iter
      (fun i -> Alcotest.(check bool) "range" true (i >= 0 && i < 20))
      sample
  done

let test_mean_median () =
  check_float "mean" 2.5 (Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "median even" 2.5 (Stats.median [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "median odd" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  check_float "mean empty" 0.0 (Stats.mean [])

let test_stddev () =
  check_float "constant" 0.0 (Stats.stddev [ 2.0; 2.0; 2.0 ]);
  check_float "simple" 2.0 (Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let test_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  check_float "p50" 50.0 (Stats.percentile 50.0 xs);
  check_float "p95" 95.0 (Stats.percentile 95.0 xs);
  check_float "p100" 100.0 (Stats.percentile 100.0 xs)

let test_log_binomial () =
  check_float "C(5,2)" (log 10.0) (Stats.log_binomial 5 2);
  check_float "C(10,0)" 0.0 (Stats.log_binomial 10 0);
  check_float "C(10,10)" 0.0 (Stats.log_binomial 10 10);
  Alcotest.(check bool) "C(5,7) empty" true
    (Stats.log_binomial 5 7 = neg_infinity);
  (* C(50,25) = 126410606437752 *)
  Alcotest.(check bool) "C(50,25) accurate" true
    (Float.abs (Stats.log_binomial 50 25 -. log 1.26410606437752e14) < 1e-9)

let test_binomial_range () =
  (* Σ_{c=0..5} C(5,c) = 32 *)
  check_float "full range" (log 32.0) (Stats.binomial_range_log 5 0 5);
  (* Σ_{c=2..3} C(5,c) = 10 + 10 = 20 *)
  check_float "middle" (log 20.0) (Stats.binomial_range_log 5 2 3);
  Alcotest.(check bool) "empty range" true
    (Stats.binomial_range_log 5 4 2 = neg_infinity);
  (* clamping: l < 0, u > n *)
  check_float "clamped" (log 32.0) (Stats.binomial_range_log 5 (-3) 10)

let test_log_sum_exp () =
  check_float "two equal" (log 2.0) (Stats.log_sum_exp [ 0.0; 0.0 ]);
  Alcotest.(check bool) "empty" true (Stats.log_sum_exp [] = neg_infinity);
  (* huge magnitudes stay finite *)
  let v = Stats.log_sum_exp [ 1000.0; 1000.0 ] in
  Alcotest.(check bool) "stable" true (Float.abs (v -. (1000.0 +. log 2.0)) < 1e-9)

let test_table_render () =
  let s =
    Table.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ]
  in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "4 lines + trailing" 5 (List.length lines);
  (match lines with
  | header :: rule :: _ ->
      Alcotest.(check bool) "header contains names" true
        (String.length header >= 6);
      Alcotest.(check bool) "rule is dashes" true
        (String.for_all (fun c -> c = '-' || c = '+') rule)
  | _ -> Alcotest.fail "unexpected shape");
  (* right alignment pads on the left *)
  let right =
    Table.render ~align:[ Table.Right ] ~header:[ "num" ] [ [ "7" ] ]
  in
  Alcotest.(check bool) "right aligned" true
    (String.length right > 0)

let test_table_ragged_rows () =
  let s = Table.render ~header:[ "a"; "b"; "c" ] [ [ "1" ] ] in
  Alcotest.(check bool) "padded" true (String.length s > 0)

let test_csv_roundtrip () =
  let rows =
    [
      [ "plain"; "with,comma"; "with\"quote" ];
      [ "multi\nline"; ""; "end" ];
    ]
  in
  let parsed = Csv.parse_string (Csv.to_string rows) in
  Alcotest.(check (list (list string))) "roundtrip" rows parsed

let test_csv_crlf () =
  let parsed = Csv.parse_string "a,b\r\nc,d\r\n" in
  Alcotest.(check (list (list string))) "crlf" [ [ "a"; "b" ]; [ "c"; "d" ] ] parsed

let test_csv_quoted () =
  let parsed = Csv.parse_string "\"a,b\",\"say \"\"hi\"\"\"\n" in
  Alcotest.(check (list (list string))) "quoted" [ [ "a,b"; "say \"hi\"" ] ] parsed

let test_csv_unclosed_quote () =
  Alcotest.check_raises "unclosed" (Failure "Csv.parse_string: unclosed quote")
    (fun () -> ignore (Csv.parse_string "\"oops"))

let test_timeit () =
  let (value : int), elapsed = Stats.timeit (fun () -> 41 + 1) in
  Alcotest.(check int) "value" 42 value;
  Alcotest.(check bool) "non-negative time" true (elapsed >= 0.0)

(* ---- governance tokens ------------------------------------------------ *)

module Gov = Pb_util.Gov

let test_gov_unlimited () =
  let g = Gov.unlimited () in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "never stops" true (Gov.check g = None)
  done;
  Gov.spend g Gov.Milp_nodes 10_000_000;
  Alcotest.(check bool) "no budgets at all" true
    (Gov.check ~resource:Gov.Milp_nodes g = None);
  Alcotest.(check bool) "no fate" true (Gov.fate g = None);
  Alcotest.(check bool) "no deadline" true (Gov.remaining_time g = None)

let test_gov_cancel_latches () =
  let g = Gov.create () in
  Alcotest.(check bool) "starts clean" true (Gov.check g = None);
  Gov.cancel g;
  Gov.cancel g (* idempotent *);
  Alcotest.(check bool) "cancelled" true (Gov.cancelled g);
  Alcotest.(check bool) "check reports it" true
    (Gov.check g = Some Gov.Cancelled);
  Alcotest.(check bool) "fate latched" true (Gov.fate g = Some Gov.Cancelled);
  Alcotest.check_raises "tick raises" (Gov.Interrupted Gov.Cancelled) (fun () ->
      Gov.tick g)

let test_gov_budget_not_latched () =
  let g = Gov.create ~milp_nodes:10 ~bf_candidates:5 () in
  Gov.spend g Gov.Milp_nodes 10;
  (* the exhausted meter answers only when asked about that resource *)
  Alcotest.(check bool) "milp meter exhausted" true
    (Gov.check ~resource:Gov.Milp_nodes g = Some (Gov.Budget Gov.Milp_nodes));
  Alcotest.(check bool) "other meters unaffected" true
    (Gov.check ~resource:Gov.Bf_candidates g = None);
  Alcotest.(check bool) "plain poll unaffected" true (Gov.check g = None);
  (* budget exhaustion is a strategy-local outcome, not a request fate *)
  Alcotest.(check bool) "no fate from budgets" true (Gov.fate g = None);
  Alcotest.(check int) "spend recorded" 10 (Gov.spent g Gov.Milp_nodes);
  Alcotest.(check bool) "nothing left" true
    (Gov.budget_left g Gov.Milp_nodes = Some 0);
  Alcotest.(check bool) "others still budgeted" true
    (Gov.budget_left g Gov.Bf_candidates = Some 5)

let test_gov_child_cancellation () =
  let parent = Gov.create () in
  let a = Gov.child parent and b = Gov.child parent in
  (* cancelling one leg leaves the sibling and the parent running *)
  Gov.cancel a;
  Alcotest.(check bool) "a stopped" true (Gov.cancelled a);
  Alcotest.(check bool) "b unaffected" false (Gov.cancelled b);
  Alcotest.(check bool) "parent unaffected" false (Gov.cancelled parent);
  (* cancelling the parent stops every descendant *)
  Gov.cancel parent;
  Alcotest.(check bool) "b sees ancestor cancel" true (Gov.cancelled b);
  Alcotest.(check bool) "check agrees" true (Gov.check b = Some Gov.Cancelled)

let test_gov_shared_spend () =
  let parent = Gov.create ~bf_candidates:100 () in
  let a = Gov.child parent and b = Gov.child parent in
  Gov.spend a Gov.Bf_candidates 60;
  Alcotest.(check int) "family total" 60 (Gov.spent parent Gov.Bf_candidates);
  Alcotest.(check bool) "b shares the meter" true
    (Gov.budget_left b Gov.Bf_candidates = Some 40);
  Gov.spend b Gov.Bf_candidates 40;
  Alcotest.(check bool) "a sees the family exhaust the budget" true
    (Gov.check ~resource:Gov.Bf_candidates a
    = Some (Gov.Budget Gov.Bf_candidates))

(* A capped child spends from the family budget but stops at its own
   cap; its descendants share the cap, the rest of the family does not. *)
let test_gov_capped () =
  let parent = Gov.create ~milp_nodes:100 () in
  let capped = Gov.capped parent Gov.Milp_nodes 10 in
  let leg = Gov.child capped in
  Alcotest.(check bool) "cap is the tighter limit" true
    (Gov.budget_left capped Gov.Milp_nodes = Some 10);
  Gov.spend leg Gov.Milp_nodes 4;
  Gov.spend parent Gov.Milp_nodes 30;
  Alcotest.(check bool) "family spend does not count against the cap" true
    (Gov.budget_left leg Gov.Milp_nodes = Some 6);
  Gov.spend capped Gov.Milp_nodes 6;
  Alcotest.(check bool) "capped subtree stops at its cap" true
    (Gov.check ~resource:Gov.Milp_nodes leg = Some (Gov.Budget Gov.Milp_nodes));
  Alcotest.(check bool) "the family goes on" true
    (Gov.check ~resource:Gov.Milp_nodes parent = None
    && Gov.budget_left parent Gov.Milp_nodes = Some 60);
  Alcotest.(check bool) "other resources are not capped" true
    (Gov.check ~resource:Gov.Bf_candidates leg = None);
  Alcotest.(check bool) "a cap of 0 adds none" true
    (Gov.budget_left (Gov.capped parent Gov.Milp_nodes 0) Gov.Milp_nodes = Some 60)

let test_gov_deadline () =
  let g = Gov.create ~deadline_in:0.005 () in
  Thread.delay 0.02;
  (* the clock is sampled on a subset of polls; a short poll loop must
     still observe the deadline promptly *)
  let rec poll n =
    if n > 10_000 then None
    else match Gov.check g with None -> poll (n + 1) | some -> some
  in
  Alcotest.(check bool) "deadline observed" true (poll 0 = Some Gov.Deadline);
  Alcotest.(check bool) "fate latched" true (Gov.fate g = Some Gov.Deadline);
  Alcotest.(check bool) "no time left" true
    (Gov.remaining_time g = Some 0.0)

let test_gov_cross_thread_cancel () =
  let g = Gov.create () in
  let t = Thread.create (fun () -> Thread.delay 0.01; Gov.cancel g) () in
  (* poll like an evaluation loop until the other thread stops us *)
  let rec loop n =
    match Gov.check g with
    | Some r -> Some r
    | None ->
        if n mod 1024 = 0 then Thread.yield ();
        loop (n + 1)
  in
  let stopped = loop 0 in
  Thread.join t;
  Alcotest.(check bool) "stopped by the other thread" true
    (stopped = Some Gov.Cancelled)

let test_gov_reason_strings () =
  Alcotest.(check string) "cancelled" "cancelled"
    (Gov.reason_to_string Gov.Cancelled);
  Alcotest.(check string) "deadline" "deadline"
    (Gov.reason_to_string Gov.Deadline);
  Alcotest.(check string) "budget" "budget:milp_nodes"
    (Gov.reason_to_string (Gov.Budget Gov.Milp_nodes));
  Alcotest.(check string) "budget sql" "budget:sql_rows"
    (Gov.reason_to_string (Gov.Budget Gov.Sql_rows))

let suite =
  [
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "prng seeds differ" `Quick test_prng_different_seeds;
    Alcotest.test_case "prng int range" `Quick test_prng_int_range;
    Alcotest.test_case "prng int_in inclusive" `Quick test_prng_int_in_inclusive;
    Alcotest.test_case "prng float range" `Quick test_prng_float_range;
    Alcotest.test_case "prng split" `Quick test_prng_split_independent;
    Alcotest.test_case "prng gaussian moments" `Quick test_prng_gaussian_moments;
    Alcotest.test_case "prng shuffle permutation" `Quick test_prng_shuffle_permutation;
    Alcotest.test_case "prng sample w/o replacement" `Quick
      test_prng_sample_without_replacement;
    Alcotest.test_case "mean/median" `Quick test_mean_median;
    Alcotest.test_case "stddev" `Quick test_stddev;
    Alcotest.test_case "percentile" `Quick test_percentile;
    Alcotest.test_case "log_binomial" `Quick test_log_binomial;
    Alcotest.test_case "binomial_range_log" `Quick test_binomial_range;
    Alcotest.test_case "log_sum_exp" `Quick test_log_sum_exp;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table ragged rows" `Quick test_table_ragged_rows;
    Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
    Alcotest.test_case "csv crlf" `Quick test_csv_crlf;
    Alcotest.test_case "csv quoted" `Quick test_csv_quoted;
    Alcotest.test_case "csv unclosed quote" `Quick test_csv_unclosed_quote;
    Alcotest.test_case "timeit" `Quick test_timeit;
    Alcotest.test_case "gov unlimited" `Quick test_gov_unlimited;
    Alcotest.test_case "gov cancel latches" `Quick test_gov_cancel_latches;
    Alcotest.test_case "gov budgets not latched" `Quick
      test_gov_budget_not_latched;
    Alcotest.test_case "gov child cancellation" `Quick
      test_gov_child_cancellation;
    Alcotest.test_case "gov shared spend counters" `Quick test_gov_shared_spend;
    Alcotest.test_case "gov capped child" `Quick test_gov_capped;
    Alcotest.test_case "gov deadline" `Quick test_gov_deadline;
    Alcotest.test_case "gov cross-thread cancel" `Quick
      test_gov_cross_thread_cancel;
    Alcotest.test_case "gov reason strings" `Quick test_gov_reason_strings;
  ]
