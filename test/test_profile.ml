(* dartc profile: wall-clock attribution is a rendering of the trace
   summary, a pure function of the event list, so both the aggregation
   and the rendered text can be pinned against a small synthetic
   trace. *)

module T = Dart.Telemetry
module P = Dart.Profile

(* A hand-built campaign-shaped trace: two targets over one round,
   three solver sites, phase totals at the end. *)
let events =
  [ T.Target_scheduled { target = "alpha"; round = 0 };
    T.Run_end { run = 1; outcome = "halted"; steps = 10; dur_ns = 1_000L };
    T.Solve_query
      { fn = "alpha"; pc = 3; result = T.R_sat; dur_ns = 100L; cache_hit = false;
        sliced = 0 };
    T.Solve_query
      { fn = "alpha"; pc = 3; result = T.R_unsat; dur_ns = 300L; cache_hit = false;
        sliced = 0 };
    T.Run_end { run = 2; outcome = "halted"; steps = 12; dur_ns = 3_000L };
    T.Slice_end { target = "alpha"; round = 0; outcome = "bug"; runs = 2; dur_ns = 10_000L };
    T.Target_retired { target = "alpha"; reason = "bug" };
    T.Target_scheduled { target = "beta"; round = 0 };
    T.Solve_query
      { fn = "beta"; pc = 1; result = T.R_sat; dur_ns = 500L; cache_hit = false;
        sliced = 0 };
    T.Solve_query
      { fn = "beta"; pc = 9; result = T.R_sat; dur_ns = 50L; cache_hit = true; sliced = 0 };
    T.Run_end { run = 1; outcome = "halted"; steps = 8; dur_ns = 2_000L };
    T.Slice_end { target = "beta"; round = 0; outcome = "budget"; runs = 1; dur_ns = 30_000L };
    T.Round_end { round = 0; active = 1; dur_ns = 40_000L };
    T.Phase_total { phase = T.Execute; dur_ns = 6_000L };
    T.Phase_total { phase = T.Solve; dur_ns = 950L };
    T.Phase_total { phase = T.Lower; dur_ns = 2_000L };
    T.Phase_total { phase = T.Merge; dur_ns = 0L } ]

let test_aggregation () =
  let p = T.summarize events in
  Alcotest.(check int) "event count" (List.length events) p.T.total_events;
  Alcotest.(check int) "rounds" 1 p.T.rounds;
  Alcotest.(check int) "run samples" 3 (T.Hist.count p.T.run_hist);
  Alcotest.(check int) "solve samples" 4 (T.Hist.count p.T.solve_hist);
  Alcotest.(check int64) "solve phase total" 950L
    (List.assoc T.Solve p.T.phase_ns);
  (* Sites ranked by total solve time: beta:1 (500) > alpha:3 (400) >
     beta:9 (50). *)
  (match p.T.sites with
   | [ (site1, s1); (site2, s2); (site3, _) ] ->
     Alcotest.(check (pair string int)) "hottest" ("beta", 1) site1;
     Alcotest.(check int64) "hottest total" 500L s1.T.s_ns;
     Alcotest.(check (pair string int)) "second" ("alpha", 3) site2;
     Alcotest.(check int) "second queries" 2 s2.T.s_count;
     Alcotest.(check int64) "second mean" 200L
       (Int64.div s2.T.s_ns (Int64.of_int s2.T.s_count));
     Alcotest.(check (pair string int)) "third" ("beta", 9) site3
   | sites -> Alcotest.failf "expected 3 sites, got %d" (List.length sites));
  (* Targets ranked by total slice time: beta (30us) > alpha (10us);
     alpha retired, beta not. *)
  match p.T.targets with
  | [ t1; t2 ] ->
    Alcotest.(check string) "slowest target" "beta" t1.T.tg_name;
    Alcotest.(check (option string)) "beta unfinished" None t1.T.tg_retired;
    Alcotest.(check string) "other target" "alpha" t2.T.tg_name;
    Alcotest.(check (option string)) "alpha retired" (Some "bug") t2.T.tg_retired;
    Alcotest.(check int) "alpha runs" 2 t2.T.tg_runs
  | targets -> Alcotest.failf "expected 2 targets, got %d" (List.length targets)

let test_render_golden () =
  let out = P.to_string ~top:2 (T.summarize events) in
  let expect_lines =
    [ "profile: 17 events";
      "phases:";
      "  execute         6.0us  ( 67.0%)";
      "  solve           950ns  ( 10.6%)";
      "hottest solver sites (top 2 of 3, by total time):";
      "  beta:1                            1 queries  total      500ns  mean      500ns";
      "campaign targets (2, 1 rounds, by total time):";
      "  beta                           1 slices      1 runs      30.0us  ( 75.0%)  unfinished";
      "  alpha                          1 slices      2 runs      10.0us  ( 25.0%)  retired: bug" ]
  in
  List.iter
    (fun line ->
      Alcotest.(check bool) (Printf.sprintf "output has %S" line) true
        (Str_contains.contains out (line ^ "\n")))
    expect_lines;
  (* --top truncates the site list: the coldest site drops off. *)
  Alcotest.(check bool) "beta:9 truncated by top 2" false
    (Str_contains.contains out "beta:9")

(* Determinism: same events, same output, and order-insensitive inputs
   (the two partitions of a parallel trace) only differ where they
   should. *)
let test_render_deterministic () =
  let a = P.to_string (T.summarize events) in
  let b = P.to_string (T.summarize events) in
  Alcotest.(check string) "pure function of the trace" a b

let test_empty_trace () =
  let p = T.summarize [] in
  Alcotest.(check int) "no events" 0 p.T.total_events;
  let out = P.to_string p in
  Alcotest.(check bool) "renders the empty histograms" true
    (Str_contains.contains out "(empty)")

let suite =
  [ Alcotest.test_case "aggregation" `Quick test_aggregation;
    Alcotest.test_case "render golden" `Quick test_render_golden;
    Alcotest.test_case "render deterministic" `Quick test_render_deterministic;
    Alcotest.test_case "empty trace" `Quick test_empty_trace ]
