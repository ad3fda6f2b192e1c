(* The parallel orchestrator: merge-layer algebra on fabricated
   reports, the jobs=1 determinism contract against Driver.run, bug-set
   agreement at jobs=4, the work pool dividing one path tree, BFS and
   random workers on the pooled budget, crash requeue, the strategy
   candidate set, the random-testing budget boundary, and the tree split
   and pooled budget as dartc prints them. *)

module Strategy = Dart.Strategy

let loc line = { Minic.Loc.file = "t.mc"; line; col = 1 }

let site fn pc line = { Machine.site_fn = fn; site_pc = pc; site_loc = loc line }

let bug ?(fault = Machine.Abort) ?(run = 1) fn pc =
  { Dart.Driver.bug_fault = fault;
    bug_site = site fn pc 1;
    bug_run = run;
    bug_inputs = [ (0, 7) ] }

let stats ~queries ~sat = Solver.of_assoc [ ("queries", queries); ("sat", sat) ]

let fake_report ?(verdict = Dart.Driver.Budget_exhausted) ?(runs = 10) ?(restarts = 1)
    ?(steps = 100) ?(coverage = []) ?(paths = 5) ?(all_linear = true)
    ?(all_locs_definite = true) ?(stats = Solver.create_stats ()) ?(bugs = []) () =
  { Dart.Driver.verdict;
    runs;
    restarts;
    total_steps = steps;
    branches_covered = List.length coverage;
    coverage_sites = coverage;
    paths_explored = paths;
    resource_limited = 0;
    all_linear;
    all_locs_definite;
    solver_stats = stats;
    metrics = Dart.Telemetry.create_metrics ();
    bugs }

(* ---- merge layer ---------------------------------------------------------- *)

let test_merge_bug_dedup () =
  let b1 = bug ~run:5 "f" 3 in
  let b2 = bug ~run:2 "f" 3 (* same defect, cheaper witness *) in
  let b3 = bug ~run:9 "g" 1 in
  let b4 = bug ~fault:Machine.Null_deref ~run:4 "f" 3 (* same site, different fault *) in
  let m =
    Dart.Parallel.merge
      [ fake_report ~bugs:[ b1 ] (); fake_report ~bugs:[ b2; b3 ] ();
        fake_report ~bugs:[ b4 ] () ]
  in
  Alcotest.(check int) "three distinct bugs" 3 (List.length m.Dart.Driver.bugs);
  let keys = List.map Dart.Driver.bug_key m.Dart.Driver.bugs in
  Alcotest.(check bool) "keys sorted" true (keys = List.sort compare keys);
  let kept =
    List.find (fun b -> Dart.Driver.bug_key b = ("f", 3, Machine.Abort)) m.Dart.Driver.bugs
  in
  Alcotest.(check int) "cheapest witness kept" 2 kept.Dart.Driver.bug_run;
  (match m.Dart.Driver.verdict with
   | Dart.Driver.Bug_found b ->
     Alcotest.(check bool) "representative is min-key bug" true
       (Dart.Driver.bug_key b = List.hd keys)
   | _ -> Alcotest.fail "expected Bug_found")

let test_merge_coverage_union () =
  let c1 = [ ("f", 0, true); ("f", 0, false); ("f", 2, true) ] in
  let c2 = [ ("f", 0, true); ("g", 1, true) ] in
  let m = Dart.Parallel.merge [ fake_report ~coverage:c1 (); fake_report ~coverage:c2 () ] in
  Alcotest.(check int) "union size" 4 m.Dart.Driver.branches_covered;
  Alcotest.(check bool) "sites sorted" true
    (m.Dart.Driver.coverage_sites = List.sort compare m.Dart.Driver.coverage_sites);
  Alcotest.(check int) "sites length matches" 4 (List.length m.Dart.Driver.coverage_sites)

let test_merge_counter_sums () =
  let r1 =
    fake_report ~runs:10 ~restarts:1 ~steps:100 ~paths:5 ~stats:(stats ~queries:7 ~sat:3) ()
  in
  let r2 =
    fake_report ~runs:4 ~restarts:2 ~steps:50 ~paths:2 ~all_linear:false
      ~stats:(stats ~queries:5 ~sat:1) ()
  in
  let m = Dart.Parallel.merge [ r1; r2 ] in
  Alcotest.(check int) "runs summed" 14 m.Dart.Driver.runs;
  Alcotest.(check int) "restarts summed" 3 m.Dart.Driver.restarts;
  Alcotest.(check int) "steps summed" 150 m.Dart.Driver.total_steps;
  Alcotest.(check int) "paths summed" 7 m.Dart.Driver.paths_explored;
  Alcotest.(check int) "queries summed" 12 (Solver.queries m.Dart.Driver.solver_stats);
  Alcotest.(check int) "sat summed" 4 (Solver.sat_count m.Dart.Driver.solver_stats);
  Alcotest.(check bool) "all_linear conjoined" false m.Dart.Driver.all_linear;
  Alcotest.(check bool) "all_locs_definite conjoined" true m.Dart.Driver.all_locs_definite

let test_merge_verdict () =
  let budget = fake_report ~verdict:Dart.Driver.Budget_exhausted () in
  let complete = fake_report ~verdict:Dart.Driver.Complete () in
  let check name expected reports =
    let m = Dart.Parallel.merge reports in
    let got =
      match m.Dart.Driver.verdict with
      | Dart.Driver.Bug_found _ -> "bug"
      | Dart.Driver.Complete -> "complete"
      | Dart.Driver.Budget_exhausted -> "budget"
      | Dart.Driver.Time_exhausted -> "time"
      | Dart.Driver.Interrupted -> "interrupted"
    in
    Alcotest.(check string) name expected got
  in
  check "all budget" "budget" [ budget; budget ];
  check "one complete wins" "complete" [ budget; complete; budget ];
  check "bug wins" "bug"
    [ complete; fake_report ~bugs:[ bug "f" 0 ] () ];
  Alcotest.check_raises "empty merge rejected" (Invalid_argument "Parallel.merge: empty report list")
    (fun () -> ignore (Dart.Parallel.merge []))

(* ---- worker seeds ---------------------------------------------------------- *)

let test_worker_seeds () =
  let s1 = Dart.Parallel.worker_seeds ~base_seed:42 4 in
  let s2 = Dart.Parallel.worker_seeds ~base_seed:42 4 in
  Alcotest.(check (list int)) "deterministic" (Array.to_list s1) (Array.to_list s2);
  Alcotest.(check int) "worker 0 inherits base seed" 42 s1.(0);
  let distinct = List.sort_uniq compare (Array.to_list s1) in
  Alcotest.(check int) "all distinct" 4 (List.length distinct)

(* ---- determinism contract -------------------------------------------------- *)

let norm (r : Dart.Driver.report) =
  ( r.Dart.Driver.verdict,
    r.Dart.Driver.runs,
    r.Dart.Driver.restarts,
    r.Dart.Driver.total_steps,
    r.Dart.Driver.paths_explored,
    List.sort compare r.Dart.Driver.coverage_sites,
    r.Dart.Driver.bugs )

let prepare_workload (src, toplevel) ~depth =
  Dart.Driver.prepare ~toplevel ~depth (Minic.Parser.parse_program src)

let test_jobs1_equals_sequential () =
  (* Two seed workloads: one buggy, one that terminates Complete. *)
  List.iter
    (fun (workload, depth) ->
      let prog = prepare_workload workload ~depth in
      let base = Dart.Driver.Options.make ~depth () in
      let seq = Dart.Driver.run ~options:base prog in
      let par = Dart.Parallel.run ~options:(Dart.Parallel.options ~jobs:1 base) prog in
      Alcotest.(check int) "one worker" 1 par.Dart.Parallel.jobs;
      Alcotest.(check bool) "report identical to Driver.run" true
        (norm seq = norm par.Dart.Parallel.merged))
    [ (Workloads.Paper_examples.ac_controller, 2); (Workloads.Paper_examples.section_2_4, 1) ]

let bug_keys (r : Dart.Driver.report) =
  List.sort_uniq compare (List.map Dart.Driver.bug_key r.Dart.Driver.bugs)

let verdict_tag (r : Dart.Driver.report) =
  match r.Dart.Driver.verdict with
  | Dart.Driver.Bug_found _ -> "bug"
  | Dart.Driver.Complete -> "complete"
  | Dart.Driver.Budget_exhausted -> "budget"
  | Dart.Driver.Time_exhausted -> "time"
  | Dart.Driver.Interrupted -> "interrupted"

let test_jobs4_same_bug_set () =
  List.iter
    (fun (workload, depth) ->
      let prog = prepare_workload workload ~depth in
      let base = Dart.Driver.Options.make ~depth ~max_runs:2_000 () in
      let r1 = Dart.Parallel.run ~options:(Dart.Parallel.options ~jobs:1 base) prog in
      let r4 = Dart.Parallel.run ~options:(Dart.Parallel.options ~jobs:4 base) prog in
      Alcotest.(check string) "same verdict" (verdict_tag r1.Dart.Parallel.merged)
        (verdict_tag r4.Dart.Parallel.merged);
      Alcotest.(check bool) "same deduped bug set" true
        (bug_keys r1.Dart.Parallel.merged = bug_keys r4.Dart.Parallel.merged))
    [ (Workloads.Paper_examples.section_2_1, 1); (Workloads.Paper_examples.section_2_4, 1);
      (Workloads.Paper_examples.ac_controller, 2);
      ((Workloads.Sip_parser.vulnerable, Workloads.Sip_parser.toplevel), 1) ]

(* NS with Lowe's fix under the Dolev-Yao intruder: no bug, and depth 3
   exhausts its tree in a few hundred runs. *)
let ns_depth3 () =
  prepare_workload
    ( Workloads.Needham_schroeder.dolev_yao ~fix:`Correct,
      Workloads.Needham_schroeder.dolev_yao_toplevel )
    ~depth:3

let sorted_sites (r : Dart.Driver.report) = List.sort compare r.Dart.Driver.coverage_sites

let test_shared_store_ablation () =
  (* The shared cross-worker store and pooled budget are accelerations,
     not search changes: at jobs=4 the deduped bug set and coverage must
     match the --no-cache reference (no store at all). *)
  let prog = prepare_workload Workloads.Paper_examples.ac_controller ~depth:2 in
  let opts ~use_cache =
    Dart.Driver.Options.make ~depth:2 ~max_runs:2_000 ~stop_on_first_bug:false ~use_cache ()
  in
  let shared =
    Dart.Parallel.run ~options:(Dart.Parallel.options ~jobs:4 (opts ~use_cache:true)) prog
  in
  let reference =
    Dart.Parallel.run ~options:(Dart.Parallel.options ~jobs:4 (opts ~use_cache:false)) prog
  in
  Alcotest.(check bool) "same deduped bug set" true
    (bug_keys shared.Dart.Parallel.merged = bug_keys reference.Dart.Parallel.merged);
  Alcotest.(check bool) "same coverage" true
    (List.sort compare shared.Dart.Parallel.merged.Dart.Driver.coverage_sites
    = List.sort compare reference.Dart.Parallel.merged.Dart.Driver.coverage_sites);
  (* Workers walk disjoint subtrees, so whether they pose a common
     sliced query depends on the program: on NS they do. *)
  let ns =
    Dart.Parallel.run
      ~options:(Dart.Parallel.options ~jobs:4 (Dart.Driver.Options.make ~depth:3 ()))
      (ns_depth3 ())
  in
  Alcotest.(check bool) "peers answer each other" true
    (Solver.shared_hits ns.Dart.Parallel.merged.Dart.Driver.solver_stats > 0)

(* The shared store has no in-flight claim: two workers that miss the
   same key before either publishes both solve it, so the merged
   solver/accel counters of identical jobs-2 runs may differ. The
   verdict, the deduped bug set and the coverage may not. *)
let test_jobs2_repeats_agree () =
  let prog = prepare_workload Workloads.Paper_examples.ac_controller ~depth:2 in
  let base = Dart.Driver.Options.make ~depth:2 ~stop_on_first_bug:false () in
  let observe () =
    let m =
      (Dart.Parallel.run ~options:(Dart.Parallel.options ~jobs:2 base) prog).Dart.Parallel.merged
    in
    (verdict_tag m, bug_keys m, sorted_sites m)
  in
  let first = observe () in
  for i = 2 to 10 do
    Alcotest.(check bool) (Printf.sprintf "run %d agrees with run 1" i) true (observe () = first)
  done

let test_parallel_divides_tree () =
  (* Every feasible path is run once, by some worker: an exhausted
     search merges to jobs 1's run count and coverage at any job count,
     whichever worker walked which subtree. *)
  let prog = ns_depth3 () in
  let base = Dart.Driver.Options.make ~depth:3 () in
  let seq = Dart.Driver.run ~options:base prog in
  Alcotest.(check bool) "jobs 1 complete" true (seq.Dart.Driver.verdict = Dart.Driver.Complete);
  List.iter
    (fun jobs ->
      let r = Dart.Parallel.run ~options:(Dart.Parallel.options ~jobs base) prog in
      let m = r.Dart.Parallel.merged in
      let tag what = Printf.sprintf "jobs %d: %s" jobs what in
      Alcotest.(check bool) (tag "complete") true (m.Dart.Driver.verdict = Dart.Driver.Complete);
      Alcotest.(check int) (tag "runs = jobs 1 runs") seq.Dart.Driver.runs m.Dart.Driver.runs;
      Alcotest.(check int) (tag "paths = jobs 1 paths") seq.Dart.Driver.paths_explored
        m.Dart.Driver.paths_explored;
      Alcotest.(check bool) (tag "coverage = jobs 1 coverage") true
        (sorted_sites seq = sorted_sites m);
      let taken, donated =
        List.fold_left
          (fun (t, d) w ->
            match w.Dart.Parallel.w_jobs with
            | Some j -> (t + j.Dart.Parallel.j_taken, d + j.Dart.Parallel.j_donated)
            | None -> Alcotest.fail "every DFS worker is a pool member")
          (0, 0) r.Dart.Parallel.workers
      in
      Alcotest.(check int) (tag "every donated job was taken") donated taken)
    [ 2; 3; 4 ]

let test_crash_holding_job () =
  (* A library call that raises the first time a domain other than the
     first caller's runs the program. Only the root worker runs before
     any donation, so this kills a worker in the first run of a job it
     took (at jobs 2: worker 1). Its job goes back to the pool and the
     survivor walks it: the crash costs work, not results. *)
  let src =
    {|
int ping(int x);
int acc;
void step(char a, char b, char c) {
  acc = acc + ping(0);
  if (a > b) { acc = acc + 1; } else { acc = acc - 1; }
  if (b > c) { acc = acc + 2; } else { acc = acc - 2; }
  if (c > a) { acc = acc + 3; } else { acc = acc - 3; }
  if (a + b > c) { acc = acc + 4; } else { acc = acc - 4; }
}
|}
  in
  let ping_sig =
    { Minic.Tast.sig_name = "ping"; sig_ret = Minic.Ctype.Tint; sig_params = [ Minic.Ctype.Tint ] }
  in
  let prog =
    Dart.Driver.prepare ~library_sigs:[ ping_sig ] ~toplevel:"step" ~depth:3
      (Minic.Parser.parse_program src)
  in
  let first_caller = Atomic.make None and fired = Atomic.make false in
  let ping _ _ =
    let me = Domain.self () in
    ignore (Atomic.compare_and_set first_caller None (Some me));
    if Atomic.get first_caller <> Some me && Atomic.compare_and_set fired false true then
      failwith "killed while holding a job";
    0
  in
  let base =
    Dart.Driver.Options.make ~depth:3
      ~exec:{ Dart.Concolic.default_exec_options with Dart.Concolic.library = [ ("ping", ping) ] }
      ()
  in
  let seq = Dart.Driver.run ~options:base prog in
  Alcotest.(check bool) "jobs 1 complete" true (seq.Dart.Driver.verdict = Dart.Driver.Complete);
  Atomic.set first_caller None;
  let r = Dart.Parallel.run ~options:(Dart.Parallel.options ~jobs:2 base) prog in
  (match r.Dart.Parallel.crashes with
   | [ c ] ->
     Alcotest.(check int) "worker 1 crashed" 1 c.Dart.Parallel.c_worker;
     Alcotest.(check bool) "respawned" true c.Dart.Parallel.c_respawned
   | l -> Alcotest.failf "expected one crash record, got %d" (List.length l));
  let m = r.Dart.Parallel.merged in
  Alcotest.(check bool) "merged verdict complete" true
    (m.Dart.Driver.verdict = Dart.Driver.Complete);
  Alcotest.(check bool) "jobs 1 coverage" true (sorted_sites seq = sorted_sites m);
  Alcotest.(check bool) "the requeued subtree was walked again" true
    (m.Dart.Driver.runs >= seq.Dart.Driver.runs)

let test_parallel_non_dfs () =
  (* BFS and random-branch workers are not pool members: each searches
     on its own, claiming runs from the pooled budget until it is gone.
     The budget is spent exactly, and the deduped bug set is jobs 1's. *)
  let prog = prepare_workload Workloads.Paper_examples.ac_controller ~depth:2 in
  List.iter
    (fun strategy ->
      let base =
        Dart.Driver.Options.make ~depth:2 ~max_runs:400 ~stop_on_first_bug:false ~strategy ()
      in
      let seq = Dart.Driver.run ~options:base prog in
      List.iter
        (fun jobs ->
          let r = Dart.Parallel.run ~options:(Dart.Parallel.options ~jobs base) prog in
          let m = r.Dart.Parallel.merged in
          let tag what =
            Printf.sprintf "%s jobs %d: %s" (Strategy.to_string strategy) jobs what
          in
          Alcotest.(check int) (tag "workers") jobs (List.length r.Dart.Parallel.workers);
          Alcotest.(check bool) (tag "no pool member") true
            (List.for_all (fun w -> w.Dart.Parallel.w_jobs = None) r.Dart.Parallel.workers);
          Alcotest.(check int) (tag "pooled budget spent exactly") 400 m.Dart.Driver.runs;
          Alcotest.(check bool) (tag "same deduped bug set as jobs 1") true
            (bug_keys seq = bug_keys m))
        [ 2; 3 ])
    [ Strategy.Bfs; Strategy.Random_branch ]

(* ---- strategy candidate set ------------------------------------------------ *)

let test_candidates_dfs () =
  let rng = Dart_util.Prng.create 1 in
  let c = Strategy.candidates_of_list [ 0; 2; 5; 9 ] in
  Alcotest.(check (option int)) "deepest first" (Some 9) (Strategy.choose Strategy.Dfs rng c);
  Strategy.remove_failed Strategy.Dfs c;
  Alcotest.(check (option int)) "then next deepest" (Some 5)
    (Strategy.choose Strategy.Dfs rng c);
  Strategy.remove_failed Strategy.Dfs c;
  ignore (Strategy.choose Strategy.Dfs rng c);
  Strategy.remove_failed Strategy.Dfs c;
  Alcotest.(check (option int)) "down to the shallowest" (Some 0)
    (Strategy.choose Strategy.Dfs rng c);
  Strategy.remove_failed Strategy.Dfs c;
  Alcotest.(check (option int)) "exhausted" None (Strategy.choose Strategy.Dfs rng c)

let test_candidates_bfs () =
  let rng = Dart_util.Prng.create 1 in
  let c = Strategy.candidates_of_list [ 1; 4; 6 ] in
  Alcotest.(check (option int)) "shallowest first" (Some 1)
    (Strategy.choose Strategy.Bfs rng c);
  Strategy.remove_failed Strategy.Bfs c;
  Alcotest.(check (option int)) "then next" (Some 4) (Strategy.choose Strategy.Bfs rng c);
  Alcotest.(check int) "two left" 2 (Strategy.cardinal c)

let test_candidates_random () =
  let rng = Dart_util.Prng.create 7 in
  let c = Strategy.candidates_of_list [ 3; 8; 11; 20 ] in
  let seen = ref [] in
  let rec drain () =
    match Strategy.choose Strategy.Random_branch rng c with
    | None -> ()
    | Some j ->
      seen := j :: !seen;
      Strategy.remove_failed Strategy.Random_branch c;
      drain ()
  in
  drain ();
  Alcotest.(check (list int)) "every candidate drained exactly once" [ 3; 8; 11; 20 ]
    (List.sort compare !seen)

let test_candidates_empty_remove () =
  let rng = Dart_util.Prng.create 1 in
  let c = Strategy.candidates_of_list [] in
  Alcotest.(check (option int)) "empty set" None (Strategy.choose Strategy.Dfs rng c);
  Alcotest.check_raises "remove without choose"
    (Invalid_argument "Strategy.remove_failed: no preceding choose") (fun () ->
      Strategy.remove_failed Strategy.Dfs c)

(* ---- random testing budget boundary ---------------------------------------- *)

let test_random_budget_boundary () =
  (* Random testing is the search with the symbolic shadow off. *)
  let random ~max_runs =
    Dart.Driver.Options.make ~seed:3 ~max_runs
      ~exec:{ Dart.Concolic.default_exec_options with symbolic = false } ()
  in
  (* No findable bug: the budget must be exactly consumed, not
     max_runs - 1 or max_runs + 1. *)
  let src = "void f(int x) { if (x == 123456789) abort(); }" in
  let prog = prepare_workload (src, "f") ~depth:1 in
  let r = Dart.Driver.run ~options:(random ~max_runs:17) prog in
  Alcotest.(check bool) "no bug" true (r.Dart.Driver.verdict = Dart.Driver.Budget_exhausted);
  Alcotest.(check int) "runs = max_runs exactly" 17 r.Dart.Driver.runs;
  (* A bug on the very first run: the boundary run still counts. *)
  let prog = prepare_workload ("void g(int x) { abort(); }", "g") ~depth:1 in
  let r = Dart.Driver.run ~options:(random ~max_runs:1) prog in
  (match r.Dart.Driver.verdict with
   | Dart.Driver.Bug_found b -> Alcotest.(check int) "found on run 1" 1 b.Dart.Driver.bug_run
   | _ -> Alcotest.fail "expected the unconditional abort");
  Alcotest.(check int) "runs = 1" 1 r.Dart.Driver.runs

(* ---- dartc at several job counts ------------------------------------------- *)

(* The contracts above as the command line shows them. DFS workers split
   one path tree, so an exhausted no-bug search prints the same [runs:]
   line (runs, paths, steps, branch coverage) at every job count. BFS
   and random-branch workers search on their own, claiming runs from
   one pooled budget, and together spend it exactly. *)
let test_dartc_jobs () =
  let split args =
    Dartc_cli.run ([ "../examples/split.mc"; "--toplevel"; "walk"; "--depth"; "3" ] @ args)
  in
  let runs_line out =
    List.find_opt (String.starts_with ~prefix:"runs: ") (String.split_on_char '\n' out)
  in
  let at jobs =
    let code, out, _ = split [ "--jobs"; string_of_int jobs ] in
    Alcotest.(check int) (Printf.sprintf "jobs %d: exit 0" jobs) 0 code;
    Alcotest.(check bool) (Printf.sprintf "jobs %d: COMPLETE" jobs) true
      (String.starts_with ~prefix:"COMPLETE" out);
    runs_line out
  in
  let one = at 1 in
  Alcotest.(check bool) "jobs 1 prints a runs: line" true (one <> None);
  List.iter
    (fun jobs ->
      Alcotest.(check (option string)) (Printf.sprintf "jobs %d: runs: line of jobs 1" jobs) one
        (at jobs))
    [ 2; 4 ];
  List.iter
    (fun strategy ->
      let _, out, _ = split [ "--jobs"; "2"; "--strategy"; strategy; "--max-runs"; "300" ] in
      Alcotest.(check bool) (strategy ^ " --jobs 2 spends --max-runs 300 exactly") true
        (match runs_line out with
         | Some l -> String.starts_with ~prefix:"runs: 300 " l
         | None -> false))
    [ "random"; "bfs" ]

let suite =
  [ Alcotest.test_case "merge: bug dedup" `Quick test_merge_bug_dedup;
    Alcotest.test_case "merge: coverage union" `Quick test_merge_coverage_union;
    Alcotest.test_case "merge: counter sums" `Quick test_merge_counter_sums;
    Alcotest.test_case "merge: verdict rules" `Quick test_merge_verdict;
    Alcotest.test_case "worker seeds" `Quick test_worker_seeds;
    Alcotest.test_case "jobs=1 = sequential" `Quick test_jobs1_equals_sequential;
    Alcotest.test_case "jobs=4 same bug set" `Quick test_jobs4_same_bug_set;
    Alcotest.test_case "shared store ablation" `Quick test_shared_store_ablation;
    Alcotest.test_case "jobs=2 repeats agree on verdict, bugs, coverage" `Quick
      test_jobs2_repeats_agree;
    Alcotest.test_case "parallel divides the tree" `Quick test_parallel_divides_tree;
    Alcotest.test_case "crash while holding a job" `Quick test_crash_holding_job;
    Alcotest.test_case "parallel non-DFS workers" `Quick test_parallel_non_dfs;
    Alcotest.test_case "candidates: dfs" `Quick test_candidates_dfs;
    Alcotest.test_case "candidates: bfs" `Quick test_candidates_bfs;
    Alcotest.test_case "candidates: random" `Quick test_candidates_random;
    Alcotest.test_case "candidates: edge cases" `Quick test_candidates_empty_remove;
    Alcotest.test_case "random budget boundary" `Quick test_random_budget_boundary;
    Alcotest.test_case "dartc: runs line at jobs 1, 2, 4" `Quick test_dartc_jobs ]
