(* End-to-end directed search: every example the paper walks through,
   search strategies, solve_path_constraint behaviour, and the random
   baseline. *)

let options ?(depth = 1) ?(max_runs = 20_000) ?(strategy = Dart.Strategy.Dfs) ?seed
    ?stop_on_first_bug () =
  Dart.Driver.Options.make ~depth ~max_runs ~strategy ?seed ?stop_on_first_bug ()

let dart ?depth ?max_runs ?strategy (src, toplevel) =
  Dart.Driver.test_source ~options:(options ?depth ?max_runs ?strategy ()) ~toplevel src

let expect_bug name (r : Dart.Driver.report) =
  match r.Dart.Driver.verdict with
  | Dart.Driver.Bug_found _ -> ()
  | Dart.Driver.Complete -> Alcotest.failf "%s: expected bug, got Complete" name
  | Dart.Driver.Budget_exhausted -> Alcotest.failf "%s: expected bug, got budget" name
  | Dart.Driver.Time_exhausted | Dart.Driver.Interrupted ->
    Alcotest.failf "%s: expected bug, got a partial verdict" name

let expect_complete name (r : Dart.Driver.report) =
  match r.Dart.Driver.verdict with
  | Dart.Driver.Complete -> ()
  | Dart.Driver.Bug_found b ->
    Alcotest.failf "%s: unexpected bug %s in %s" name
      (Machine.fault_to_string b.Dart.Driver.bug_fault)
      b.Dart.Driver.bug_site.Machine.site_fn
  | Dart.Driver.Budget_exhausted -> Alcotest.failf "%s: expected Complete, got budget" name
  | Dart.Driver.Time_exhausted | Dart.Driver.Interrupted ->
    Alcotest.failf "%s: expected Complete, got a partial verdict" name

let expect_no_bug name (r : Dart.Driver.report) =
  match r.Dart.Driver.verdict with
  | Dart.Driver.Bug_found b ->
    Alcotest.failf "%s: unexpected bug %s" name (Machine.fault_to_string b.Dart.Driver.bug_fault)
  | Dart.Driver.Complete | Dart.Driver.Budget_exhausted
  | Dart.Driver.Time_exhausted | Dart.Driver.Interrupted -> ()

let test_section_2_1 () =
  let r = dart Workloads.Paper_examples.section_2_1 in
  expect_bug "2.1" r;
  (* The paper's narrative: random first run, bug on the second. *)
  (match r.Dart.Driver.verdict with
   | Dart.Driver.Bug_found b -> Alcotest.(check int) "found on run 2" 2 b.Dart.Driver.bug_run
   | _ -> assert false);
  (* The witness must satisfy f(x) = x + 10, i.e. x = 10. *)
  (match r.Dart.Driver.verdict with
   | Dart.Driver.Bug_found b ->
     let x = List.assoc 0 b.Dart.Driver.bug_inputs in
     Alcotest.(check int) "x = 10" 10 x
   | _ -> assert false)

let test_section_2_4 () =
  let r = dart Workloads.Paper_examples.section_2_4 in
  expect_complete "2.4" r;
  Alcotest.(check int) "terminates after two runs" 2 r.Dart.Driver.runs

let test_section_2_5_cast () = expect_bug "cast" (dart Workloads.Paper_examples.section_2_5_cast)

let test_section_2_5_foobar () =
  let r = dart Workloads.Paper_examples.section_2_5_foobar in
  expect_bug "foobar" r;
  Alcotest.(check bool) "non-linearity detected" false r.Dart.Driver.all_linear;
  (* The paper calls the else-branch abort (y = 20) unreachable — over
     ideal integers. Over real 32-bit C arithmetic it IS reachable:
     x = 2^21 makes x*x*x wrap to 0, taking the else branch with
     x > 0. Our machine is faithful to wraparound, so both witnesses
     are legitimate; whichever was found must be consistent. *)
  match r.Dart.Driver.verdict with
  | Dart.Driver.Bug_found b ->
    let x = List.assoc 0 b.Dart.Driver.bug_inputs in
    let y = List.assoc 1 b.Dart.Driver.bug_inputs in
    let cube = Dart_util.Word32.mul (Dart_util.Word32.mul x x) x in
    Alcotest.(check bool) "x > 0" true (x > 0);
    (match y with
     | 10 -> Alcotest.(check bool) "then-branch: cube positive" true (cube > 0)
     | 20 -> Alcotest.(check bool) "else-branch: cube wrapped" true (cube <= 0)
     | _ -> Alcotest.failf "unexpected witness y = %d" y)
  | _ -> assert false

let test_eq_filter () =
  let r = dart Workloads.Paper_examples.eq_filter in
  expect_bug "eq" r;
  (match r.Dart.Driver.verdict with
   | Dart.Driver.Bug_found b ->
     Alcotest.(check bool) "within 2 runs" true (b.Dart.Driver.bug_run <= 2)
   | _ -> assert false);
  (* Random testing virtually never finds x == 10. *)
  let rr =
    Dart.Random_search.test_source ~seed:5 ~max_runs:5_000 ~toplevel:"check"
      (fst Workloads.Paper_examples.eq_filter)
  in
  Alcotest.(check bool) "random search fails" true (rr.Dart.Random_search.verdict = `No_bug)

let test_ac_controller () =
  let r = dart ~depth:1 Workloads.Paper_examples.ac_controller in
  expect_complete "ac depth 1" r;
  Alcotest.(check bool) "few runs (paper: 6)" true (r.Dart.Driver.runs <= 10);
  let r = dart ~depth:2 Workloads.Paper_examples.ac_controller in
  expect_bug "ac depth 2" r;
  (match r.Dart.Driver.verdict with
   | Dart.Driver.Bug_found b ->
     Alcotest.(check bool) "few runs (paper: 7)" true (b.Dart.Driver.bug_run <= 12);
     (* The witness must be message sequence (3, 0). *)
     let m1 = List.assoc 0 b.Dart.Driver.bug_inputs in
     let m2 = List.assoc 1 b.Dart.Driver.bug_inputs in
     Alcotest.(check (pair int int)) "attack sequence" (3, 0) (m1, m2)
   | _ -> assert false);
  (* Random search cannot find the (3, 0) sequence in reasonable time. *)
  let ast = Minic.Parser.parse_program (fst Workloads.Paper_examples.ac_controller) in
  let prog = Dart.Driver.prepare ~toplevel:"ac_controller" ~depth:2 ast in
  let rr = Dart.Random_search.run ~seed:11 ~max_runs:5_000 prog in
  Alcotest.(check bool) "random fails at depth 2" true
    (rr.Dart.Random_search.verdict = `No_bug)

let test_strategies () =
  (* DFS and random-branch find the AC bug. Single-stack BFS cannot:
     flipping the earliest pending branch permanently constrains its
     prefix and discards the sibling subtrees — the structural reason
     the paper's search is depth-first (footnote 4 notwithstanding).
     BFS still finds bugs one shallow flip away. *)
  List.iter
    (fun strategy ->
      expect_bug
        (Dart.Strategy.to_string strategy)
        (dart ~depth:2 ~strategy Workloads.Paper_examples.ac_controller))
    [ Dart.Strategy.Dfs; Dart.Strategy.Random_branch ];
  expect_bug "bfs shallow flip"
    (dart ~strategy:Dart.Strategy.Bfs Workloads.Paper_examples.eq_filter);
  List.iter
    (fun strategy ->
      expect_no_bug
        (Dart.Strategy.to_string strategy)
        (dart ~depth:1 ~max_runs:2_000 ~strategy Workloads.Paper_examples.section_2_4))
    [ Dart.Strategy.Bfs; Dart.Strategy.Random_branch ];
  expect_complete "dfs claims completeness"
    (dart ~depth:1 ~strategy:Dart.Strategy.Dfs Workloads.Paper_examples.section_2_4);
  (match (dart ~depth:1 ~max_runs:500 ~strategy:Dart.Strategy.Bfs
            Workloads.Paper_examples.section_2_4).Dart.Driver.verdict
   with
   | Dart.Driver.Complete -> Alcotest.fail "BFS must not claim completeness"
   | Dart.Driver.Bug_found _ | Dart.Driver.Budget_exhausted
   | Dart.Driver.Time_exhausted | Dart.Driver.Interrupted -> ())

let test_library_black_box () =
  (* lib_hash is executed concretely; the y == 42 bug behind it is
     found when the concrete hash happens to be 7 on some restart; at
     minimum the search must not crash and must flag incompleteness. *)
  let src, toplevel = Workloads.Paper_examples.library_example in
  let opts =
    { (options ~max_runs:2_000 ()) with
      exec =
        { Dart.Concolic.default_exec_options with
          library = [ ("lib_hash", Workloads.Paper_examples.lib_hash_impl) ] } }
  in
  let r =
    Dart.Driver.test_source ~options:opts
      ~library_sigs:[ Workloads.Paper_examples.lib_hash_sig ] ~toplevel src
  in
  Alcotest.(check bool) "incompleteness flagged" false r.Dart.Driver.all_linear

let test_depth_semantics () =
  (* depth = number of toplevel invocations per run: a bug requiring
     two calls is invisible at depth 1. *)
  let src = {|
int phase = 0;
void step(int msg) {
  if (phase == 0 && msg == 7) { phase = 1; return; }
  if (phase == 1 && msg == 9) abort();
}
|} in
  expect_no_bug "depth 1 blind" (dart ~depth:1 (src, "step"));
  expect_bug "depth 2 sees it" (dart ~depth:2 (src, "step"))

let test_stop_on_first_bug_false () =
  (* Collect multiple distinct bugs in one search. *)
  let src = {|
void f(int x) {
  if (x == 10) abort();
  if (x == 20) { int *p = NULL; *p = 1; }
}
|} in
  let opts = options ~stop_on_first_bug:false () in
  let r = Dart.Driver.test_source ~options:opts ~toplevel:"f" src in
  Alcotest.(check int) "two distinct bugs" 2 (List.length r.Dart.Driver.bugs)

let test_random_search_finds_easy_bug () =
  let r =
    Dart.Random_search.test_source ~seed:3 ~max_runs:2_000 ~toplevel:"f"
      "void f(int x) { if (x > 0) abort(); }"
  in
  match r.Dart.Random_search.verdict with
  | `Bug_found _ -> ()
  | `No_bug | `Time_exhausted | `Interrupted ->
    Alcotest.fail "random search should find x > 0"

let test_determinism () =
  let run () = dart ~depth:2 Workloads.Paper_examples.ac_controller in
  let r1 = run () and r2 = run () in
  Alcotest.(check int) "same run count" r1.Dart.Driver.runs r2.Dart.Driver.runs;
  Alcotest.(check int) "same steps" r1.Dart.Driver.total_steps r2.Dart.Driver.total_steps

let test_seed_sensitivity () =
  (* Different seeds still find the bug (robustness of the search). *)
  List.iter
    (fun seed ->
      let opts = options ~depth:2 ~seed () in
      let r =
        Dart.Driver.test_source ~options:opts ~toplevel:"ac_controller"
          (fst Workloads.Paper_examples.ac_controller)
      in
      expect_bug (Printf.sprintf "seed %d" seed) r)
    [ 1; 7; 1234; 999983 ]

let test_report_rendering () =
  let r = dart Workloads.Paper_examples.section_2_1 in
  let s = Dart.Driver.report_to_string r in
  Alcotest.(check bool) "mentions BUG" true (Str_contains.contains s "BUG FOUND");
  Alcotest.(check bool) "mentions runs" true (Str_contains.contains s "runs:")

let test_assume_prunes () =
  (* assume() halts uninteresting runs without reporting a bug, and
     the pruned branch is still directed through. *)
  let src = {|
void f(int x) {
  assume(x > 0);
  if (x == 77) abort();
}
|} in
  expect_bug "assume + abort" (dart (src, "f"))

let test_coverage_report () =
  (* h's two conditionals are both reachable in both directions; a
     search that keeps going after the first bug covers all four. *)
  let src, toplevel = Workloads.Paper_examples.section_2_1 in
  let opts = options ~stop_on_first_bug:false () in
  let r = Dart.Driver.test_source ~options:opts ~toplevel src in
  let ast = Minic.Parser.parse_program src in
  let prog = Dart.Driver.prepare ~toplevel ~depth:1 ast in
  let cov = Dart.Coverage.compute prog ~covered:r.Dart.Driver.coverage_sites in
  Alcotest.(check (float 0.01)) "full branch coverage" 100.0 (Dart.Coverage.percent cov);
  (* The driver-internal functions are excluded from the report. *)
  List.iter
    (fun (e : Dart.Coverage.entry) ->
      if String.length e.cov_fn >= 6 && String.sub e.cov_fn 0 6 = "__dart" then
        Alcotest.fail "driver function leaked into coverage")
    cov.Dart.Coverage.entries;
  (* A single random run covers strictly less. *)
  let rr = Dart.Random_search.run ~seed:3 ~max_runs:1 prog in
  let cov1 = Dart.Coverage.compute prog ~covered:rr.Dart.Random_search.coverage_sites in
  Alcotest.(check bool) "partial coverage" true (Dart.Coverage.percent cov1 < 100.0)

let test_directed_switch () =
  (* Every arm of a switch (including fallthrough composition) is found
     by the directed search. *)
  let src = {|
int classify(int msg) {
  int r = 0;
  switch (msg) {
  case 10: r = 1; break;
  case 20: r = 2; break;
  case 30:
    r = 3;
    /* fallthrough */
  case 40: r = r + 10; break;
  default: r = -1;
  }
  return r;
}
|} in
  let r = dart (src, "classify") in
  expect_complete "switch exploration" r;
  (* paths: 10, 20, 30(+40), 40, default = 5 *)
  Alcotest.(check int) "five paths" 5 r.Dart.Driver.paths_explored

let test_coverage_count_consistency () =
  (* Regression: [branches_covered] used to count driver-wrapper sites
     that [Coverage.compute] filters out, so the headline number and
     the per-function report disagreed. They must count the same set. *)
  let src, toplevel = Workloads.Paper_examples.section_2_1 in
  let opts = options ~stop_on_first_bug:false () in
  let r = Dart.Driver.test_source ~options:opts ~toplevel src in
  let prog = Dart.Driver.prepare ~toplevel ~depth:1 (Minic.Parser.parse_program src) in
  let cov = Dart.Coverage.compute prog ~covered:r.Dart.Driver.coverage_sites in
  Alcotest.(check int) "headline = per-function total" cov.Dart.Coverage.total_directions
    r.Dart.Driver.branches_covered;
  Alcotest.(check int) "sites list has the same cardinality"
    r.Dart.Driver.branches_covered
    (List.length (List.sort_uniq compare r.Dart.Driver.coverage_sites));
  List.iter
    (fun (fn, _, _) ->
      if Dart.Coverage.is_driver_function fn then
        Alcotest.failf "driver site %s leaked into coverage_sites" fn)
    r.Dart.Driver.coverage_sites

let test_bug_witness_minimal_and_replays () =
  (* Regression: [bug_inputs] used to snapshot all of IM, including
     stale entries left behind by earlier solver iterations. Here DFS
     explores the ext() subtree (persisting an input for ext's result)
     before flipping x == 3; the faulting run reads only x, so the
     witness must be exactly [(0, 3)] — and must replay on its own. *)
  let src = {|
int ext();
void f(int x) {
  if (x == 3) abort();
  if (x == 0) {
    int t = ext();
    if (t == 5) { t = 6; }
  }
}
|} in
  let r = dart (src, "f") in
  expect_bug "ext witness" r;
  match r.Dart.Driver.verdict with
  | Dart.Driver.Bug_found b ->
    Alcotest.(check bool) "bug found after exploring the ext subtree" true
      (b.Dart.Driver.bug_run > 2);
    Alcotest.(check (list (pair int int))) "minimal witness" [ (0, 3) ]
      b.Dart.Driver.bug_inputs;
    (* Replay from the witness alone: a fresh IM holding only the
       recorded inputs reproduces the same fault at the same site. *)
    let prog = Dart.Driver.prepare ~toplevel:"f" ~depth:1 (Minic.Parser.parse_program src) in
    let im = Dart.Inputs.create () in
    List.iter (fun (id, v) -> Dart.Inputs.set im ~id v) b.Dart.Driver.bug_inputs;
    let data =
      Dart.Concolic.run_once ~opts:Dart.Concolic.default_exec_options
        ~rng:(Dart_util.Prng.create 0) ~im ~prev_stack:[||]
        ~entry:Dart.Driver_gen.wrapper_name prog
    in
    (match data.Dart.Concolic.outcome with
     | Dart.Concolic.Run_fault (fault, site) ->
       Alcotest.(check bool) "same fault" true (fault = b.Dart.Driver.bug_fault);
       Alcotest.(check string) "same function" b.Dart.Driver.bug_site.Machine.site_fn
         site.Machine.site_fn;
       Alcotest.(check int) "same pc" b.Dart.Driver.bug_site.Machine.site_pc
         site.Machine.site_pc
     | _ -> Alcotest.fail "witness did not replay the fault");
    Alcotest.(check int) "replay reads only the witness inputs" 1
      data.Dart.Concolic.inputs_read
  | _ -> assert false

let test_list_shapes_via_restarts () =
  (* The sum3 bug needs a length-3 list (shape found by restarts) with
     payloads summing to 300 (values found by the solver). *)
  let r = dart ~max_runs:100_000 Workloads.Paper_examples.list_example in
  expect_bug "list shapes" r

let test_list_shapes_symbolic_pointers () =
  let opts =
    { (options ~max_runs:100_000 ()) with
      exec = { Dart.Concolic.default_exec_options with symbolic_pointers = true } }
  in
  let src, toplevel = Workloads.Paper_examples.list_example in
  let r = Dart.Driver.test_source ~options:opts ~toplevel src in
  expect_bug "list shapes (symbolic pointers)" r

let test_unknown_voids_complete () =
  (* One query of this search comes back Unknown, and the same
     solve_path_constraint call then finds a Sat candidate and moves on.
     The branch it gave up on was never explored, so the search must not
     end Complete or report all_linear. *)
  let src =
    "int acc; void step(char a, char b, char c) { acc = acc + 3*a - 2*b + c; \
     if (acc > 5*a + 7) { acc = acc - b; } if (2*acc - 3*c < a + b + 11) { acc = acc + c; } \
     if (a + 2*b - c > acc - 40) { acc = acc - a; } \
     if (4*a - 6*b + acc == 10 + c) { acc = 0; } }"
  in
  let r =
    Dart.Driver.test_source ~options:(options ~depth:2 ~seed:3 ()) ~toplevel:"step" src
  in
  Alcotest.(check bool) "an Unknown occurred" true
    (Solver.unknown_count r.Dart.Driver.solver_stats > 0);
  Alcotest.(check bool) "not Complete" true (r.Dart.Driver.verdict <> Dart.Driver.Complete);
  Alcotest.(check bool) "all_linear voided" false r.Dart.Driver.all_linear

let test_solver_mix () =
  (* The solver-heavy search of the perf benchmark: an accumulator
     couples every guard to all earlier inputs, so nearly every
     negation is a fresh simplex query. Pins the solver's models: a
     change in any answer moves these counts. *)
  let src = In_channel.with_open_bin "../examples/solver_mix.mc" In_channel.input_all in
  let r =
    Dart.Driver.test_source
      ~options:(Dart.Driver.Options.make ~depth:2 ~seed:7 ~stop_on_first_bug:false ())
      ~toplevel:"step" src
  in
  let st = r.Dart.Driver.solver_stats in
  Alcotest.(check (list int)) "runs, branch directions" [ 94; 8 ]
    [ r.Dart.Driver.runs; r.Dart.Driver.branches_covered ];
  Alcotest.(check (list int)) "queries, sat, unsat, unknown, fast-path, simplex"
    [ 102; 93; 9; 0; 2; 100 ]
    [ Solver.queries st; Solver.sat_count st; Solver.unsat_count st; Solver.unknown_count st;
      Solver.fast_path st; Solver.simplex_queries st ];
  match r.Dart.Driver.bugs with
  | [ b ] ->
    Alcotest.(check bool) "abort" true (b.Dart.Driver.bug_fault = Machine.Abort);
    Alcotest.(check int) "line" 7 b.Dart.Driver.bug_site.Machine.site_loc.Minic.Loc.line;
    Alcotest.(check int) "run" 2 b.Dart.Driver.bug_run;
    let prog =
      Dart.Driver.prepare ~toplevel:"step" ~depth:2 (Minic.Parser.parse_program src)
    in
    let im = Dart.Inputs.create () in
    List.iter (fun (id, v) -> Dart.Inputs.set im ~id v) b.Dart.Driver.bug_inputs;
    let data =
      Dart.Concolic.run_once ~opts:Dart.Concolic.default_exec_options
        ~rng:(Dart_util.Prng.create 0) ~im ~prev_stack:[||]
        ~entry:Dart.Driver_gen.wrapper_name prog
    in
    (match data.Dart.Concolic.outcome with
     | Dart.Concolic.Run_fault (fault, site) ->
       Alcotest.(check bool) "replay: same fault" true (fault = b.Dart.Driver.bug_fault);
       Alcotest.(check int) "replay: same pc" b.Dart.Driver.bug_site.Machine.site_pc
         site.Machine.site_pc
     | _ -> Alcotest.fail "witness did not replay the fault")
  | bugs -> Alcotest.failf "expected one bug, got %d" (List.length bugs)

let suite =
  [ Alcotest.test_case "paper 2.1" `Quick test_section_2_1;
    Alcotest.test_case "paper 2.4" `Quick test_section_2_4;
    Alcotest.test_case "paper 2.5 cast" `Quick test_section_2_5_cast;
    Alcotest.test_case "paper 2.5 foobar" `Quick test_section_2_5_foobar;
    Alcotest.test_case "eq filter vs random" `Quick test_eq_filter;
    Alcotest.test_case "AC controller" `Quick test_ac_controller;
    Alcotest.test_case "strategies" `Quick test_strategies;
    Alcotest.test_case "library black box" `Quick test_library_black_box;
    Alcotest.test_case "depth semantics" `Quick test_depth_semantics;
    Alcotest.test_case "collect all bugs" `Quick test_stop_on_first_bug_false;
    Alcotest.test_case "random finds easy bugs" `Quick test_random_search_finds_easy_bug;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "seed robustness" `Quick test_seed_sensitivity;
    Alcotest.test_case "report rendering" `Quick test_report_rendering;
    Alcotest.test_case "assume pruning" `Quick test_assume_prunes;
    Alcotest.test_case "coverage report" `Quick test_coverage_report;
    Alcotest.test_case "directed switch" `Quick test_directed_switch;
    Alcotest.test_case "coverage count consistency" `Quick test_coverage_count_consistency;
    Alcotest.test_case "minimal bug witness replays" `Quick test_bug_witness_minimal_and_replays;
    Alcotest.test_case "unknown voids complete" `Quick test_unknown_voids_complete;
    Alcotest.test_case "solver mix" `Quick test_solver_mix;
    Alcotest.test_case "list shapes via restarts" `Slow test_list_shapes_via_restarts;
    Alcotest.test_case "list shapes symbolic ptrs" `Slow test_list_shapes_symbolic_pointers ]
