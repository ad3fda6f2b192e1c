(* Benchmark harness: regenerates every table of the paper's evaluation
   (plus the count-based ablations listed in DESIGN.md), printing
   paper-reported numbers next to measured ones.

   Usage:
     dune exec bench/main.exe                 -- all experiments
     dune exec bench/main.exe -- --quick      -- reduced budgets
     dune exec bench/main.exe -- e5 e7        -- selected experiments

   Every cell is machine-independent: verdicts, run counts, witnesses
   and solver query/hit counts. Iteration counts are the primary metric,
   as in the paper's Figures 9 and 10 ("Iterations (runtime)"). Seeds
   are fixed, so the output is a function of the budgets alone, and
   test/golden/experiments.expected pins the --quick output. Wall clock
   is measured by bench/perf. An unknown experiment id exits 2. *)

let quick = ref false

(* ---- table printing -------------------------------------------------------- *)

let header title = Printf.printf "\n=== %s ===\n" title

let row ~id ~desc ~paper ~measured =
  Printf.printf "%-22s %-48s | paper: %-32s | measured: %s\n" id desc paper measured

let verdict_cell (r : Dart.Driver.report) =
  match r.Dart.Driver.verdict with
  | Dart.Driver.Bug_found b ->
    Printf.sprintf "BUG on run %d (%s)" b.Dart.Driver.bug_run
      (Machine.fault_to_string b.Dart.Driver.bug_fault)
  | Dart.Driver.Complete -> Printf.sprintf "complete, %d runs" r.Dart.Driver.runs
  | Dart.Driver.Budget_exhausted -> Printf.sprintf "no bug in %d runs" r.Dart.Driver.runs
  | Dart.Driver.Time_exhausted ->
    Printf.sprintf "time budget exhausted after %d runs" r.Dart.Driver.runs
  | Dart.Driver.Interrupted -> Printf.sprintf "interrupted after %d runs" r.Dart.Driver.runs

let dart ?(depth = 1) ?(max_runs = 20_000) ?(strategy = Dart.Strategy.Dfs)
    ?(symbolic_pointers = false) ~toplevel src =
  let options =
    Dart.Driver.Options.make ~depth ~max_runs ~strategy
      ~exec:{ Dart.Concolic.default_exec_options with symbolic_pointers } ()
  in
  Dart.Driver.test_source ~options ~toplevel src

(* The paper's random-testing baseline: the same search with the
   symbolic shadow off. *)
let random_options ~seed ~max_runs =
  Dart.Driver.Options.make ~seed ~max_runs
    ~exec:{ Dart.Concolic.default_exec_options with symbolic = false } ()

let random_baseline ?(depth = 1) ~max_runs ~toplevel src =
  let ast = Minic.Parser.parse_program src in
  let prog = Dart.Driver.prepare ~toplevel ~depth ast in
  Dart.Driver.run ~options:(random_options ~seed:1 ~max_runs) prog

(* ---- E1-E4, E11: the Section 2 example programs --------------------------- *)

let experiment_section2 () =
  header "E1-E4, E11: Section 2 example programs";
  let r =
    dart
      ~toplevel:(snd Workloads.Paper_examples.section_2_1)
      (fst Workloads.Paper_examples.section_2_1)
  in
  row ~id:"section2.1-h" ~desc:"h(x,y): abort behind f(x) == x+10"
    ~paper:"error on run 2 (x = 10)" ~measured:(verdict_cell r);
  let r =
    dart
      ~toplevel:(snd Workloads.Paper_examples.section_2_4)
      (fst Workloads.Paper_examples.section_2_4)
  in
  row ~id:"section2.4-f" ~desc:"x==z, y==x+10 unsat: search terminates"
    ~paper:"complete, no error" ~measured:(verdict_cell r);
  let r =
    dart
      ~toplevel:(snd Workloads.Paper_examples.section_2_5_cast)
      (fst Workloads.Paper_examples.section_2_5_cast)
  in
  row ~id:"section2.5-cast" ~desc:"char-cast aliasing (static analysis can't)"
    ~paper:"abort found easily" ~measured:(verdict_cell r);
  let r =
    dart
      ~toplevel:(snd Workloads.Paper_examples.section_2_5_foobar)
      (fst Workloads.Paper_examples.section_2_5_foobar)
  in
  row ~id:"section2.5-foobar" ~desc:"non-linear x*x*x guard, graceful degradation"
    ~paper:"reachable abort found w.h.p." ~measured:(verdict_cell r);
  let budget = if !quick then 10_000 else 100_000 in
  let r =
    dart ~toplevel:(snd Workloads.Paper_examples.eq_filter) (fst Workloads.Paper_examples.eq_filter)
  in
  row ~id:"eq-filter" ~desc:"if (x == 10): directed"
    ~paper:"~2 runs (prob. 0.5 per branch)" ~measured:(verdict_cell r);
  let r =
    random_baseline ~max_runs:budget
      ~toplevel:(snd Workloads.Paper_examples.eq_filter)
      (fst Workloads.Paper_examples.eq_filter)
  in
  row ~id:"eq-filter-random" ~desc:"if (x == 10): random baseline"
    ~paper:"1 in 2^32 per run" ~measured:(verdict_cell r)

(* ---- E5: AC-controller (Section 4.1) --------------------------------------- *)

let experiment_ac () =
  header "E5: AC-controller (Section 4.1)";
  let src, toplevel = Workloads.Paper_examples.ac_controller in
  let r = dart ~depth:1 ~toplevel src in
  row ~id:"ac-depth1" ~desc:"depth 1: all paths, no violation"
    ~paper:"6 iterations, <1s, no error" ~measured:(verdict_cell r);
  let r = dart ~depth:2 ~toplevel src in
  row ~id:"ac-depth2" ~desc:"depth 2: violation at inputs (3, 0)"
    ~paper:"7 iterations, <1s" ~measured:(verdict_cell r);
  let budget = if !quick then 20_000 else 200_000 in
  let r = random_baseline ~depth:2 ~max_runs:budget ~toplevel src in
  row ~id:"ac-random" ~desc:"depth 2: random baseline"
    ~paper:"hours, not found (1 in 2^64)" ~measured:(verdict_cell r)

(* ---- E6: Needham-Schroeder, possibilistic intruder (Figure 9) -------------- *)

let experiment_ns_poss () =
  header "E6: Needham-Schroeder, possibilistic intruder (Figure 9)";
  let src = Workloads.Needham_schroeder.possibilistic ~fix:`None in
  let toplevel = Workloads.Needham_schroeder.possibilistic_toplevel in
  let r = dart ~depth:1 ~toplevel src in
  row ~id:"ns-poss-depth1" ~desc:"depth 1: exhaustive, no error"
    ~paper:"no error, 69 runs (<1s)" ~measured:(verdict_cell r);
  let r = dart ~depth:2 ~max_runs:50_000 ~toplevel src in
  row ~id:"ns-poss-depth2" ~desc:"depth 2: attack projection (steps 2 and 6)"
    ~paper:"error, 664 runs (2s)" ~measured:(verdict_cell r);
  let budget = if !quick then 5_000 else 50_000 in
  let r = random_baseline ~depth:2 ~max_runs:budget ~toplevel src in
  row ~id:"ns-poss-random" ~desc:"depth 2: random baseline" ~paper:"hours, not found"
    ~measured:(verdict_cell r)

(* ---- E7: Needham-Schroeder, Dolev-Yao intruder (Figure 10) ----------------- *)

let experiment_ns_dy () =
  header "E7: Needham-Schroeder, Dolev-Yao intruder (Figure 10)";
  let src = Workloads.Needham_schroeder.dolev_yao ~fix:`None in
  let toplevel = Workloads.Needham_schroeder.dolev_yao_toplevel in
  let paper =
    [| "no error, 5 runs (<1s)"; "no error, 85 runs (<1s)"; "no error, 6,260 runs (22s)";
       "error, 328,459 runs (18min)" |]
  in
  let max_depth = if !quick then 3 else 4 in
  for depth = 1 to max_depth do
    let r = dart ~depth ~max_runs:500_000 ~toplevel src in
    row
      ~id:(Printf.sprintf "ns-dy-depth%d" depth)
      ~desc:(Printf.sprintf "depth %d" depth)
      ~paper:paper.(depth - 1) ~measured:(verdict_cell r)
  done;
  if !quick then print_endline "(depth 4 skipped in --quick mode)"

(* ---- E8: Lowe's fix (Section 4.2 anecdote) ---------------------------------- *)

let experiment_lowe_fix () =
  header "E8: Lowe's fix (Section 4.2)";
  let toplevel = Workloads.Needham_schroeder.dolev_yao_toplevel in
  let depth = 4 and max_runs = if !quick then 50_000 else 500_000 in
  let r = dart ~depth ~max_runs ~toplevel (Workloads.Needham_schroeder.dolev_yao ~fix:`Buggy) in
  row ~id:"ns-fix-buggy" ~desc:"incomplete implementation of Lowe's fix"
    ~paper:"violation found (22min) - new bug" ~measured:(verdict_cell r);
  let r = dart ~depth ~max_runs ~toplevel (Workloads.Needham_schroeder.dolev_yao ~fix:`Correct) in
  row ~id:"ns-fix-correct" ~desc:"corrected fix" ~paper:"no violation found"
    ~measured:(verdict_cell r)

(* ---- E9: oSIP function sweep (Section 4.3) ---------------------------------- *)

let experiment_osip_sweep () =
  header "E9: oSIP simulacrum sweep (Section 4.3)";
  let n = if !quick then 40 else 120 in
  let per_function_budget = if !quick then 300 else 1_000 in
  let src, funcs = Workloads.Osip_sim.generate ~seed:7 ~n in
  (* One typecheck and lowering for the whole library; each target only
     links its driver, as campaigns do. *)
  let library = Dart.Driver.lower_library (Minic.Parser.parse_program src) in
  let crashed = ref 0 and vulnerable = ref 0 and dart_tp = ref 0 in
  let random_crashed = ref 0 in
  let faults : (string, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (f : Workloads.Osip_sim.gen_func) ->
      if f.gf_vulnerable then incr vulnerable;
      let prog = Dart.Driver.link library ~toplevel:f.gf_toplevel ~depth:1 in
      let options = Dart.Driver.Options.make ~max_runs:per_function_budget () in
      let r = Dart.Driver.run ~options prog in
      (match r.Dart.Driver.verdict with
       | Dart.Driver.Bug_found b ->
         incr crashed;
         if f.gf_vulnerable then incr dart_tp;
         let name = Machine.fault_to_string b.Dart.Driver.bug_fault in
         Hashtbl.replace faults name (1 + Option.value ~default:0 (Hashtbl.find_opt faults name))
       | Dart.Driver.Complete | Dart.Driver.Budget_exhausted | Dart.Driver.Time_exhausted
       | Dart.Driver.Interrupted -> ());
      let rr =
        Dart.Driver.run ~options:(random_options ~seed:1 ~max_runs:per_function_budget) prog
      in
      match rr.Dart.Driver.verdict with
      | Dart.Driver.Bug_found _ -> incr random_crashed
      | Dart.Driver.Complete | Dart.Driver.Budget_exhausted | Dart.Driver.Time_exhausted
      | Dart.Driver.Interrupted -> ())
    funcs;
  let pct a b = 100.0 *. float_of_int a /. float_of_int b in
  row ~id:"osip-sweep"
    ~desc:(Printf.sprintf "%d functions, <=%d runs each" n per_function_budget)
    ~paper:"65% of ~600 functions crash"
    ~measured:(Printf.sprintf "DART: %d/%d (%.0f%%) crash" !crashed n (pct !crashed n));
  row ~id:"osip-sweep-truth" ~desc:"against generator ground truth"
    ~paper:"n/a (real library)"
    ~measured:
      (Printf.sprintf "%d/%d vulnerable by construction; DART found %d (%.0f%%)" !vulnerable
         n !dart_tp (pct !dart_tp !vulnerable));
  row ~id:"osip-sweep-random" ~desc:"random baseline, same budgets" ~paper:"n/a"
    ~measured:(Printf.sprintf "random: %d/%d (%.0f%%) crash" !random_crashed n (pct !random_crashed n));
  print_string "  crash causes: ";
  Hashtbl.fold (fun f c acc -> (f, c) :: acc) faults []
  |> List.sort compare
  |> List.iter (fun (f, c) -> Printf.printf "%s x%d;  " f c);
  print_newline ()

(* ---- E10: the oSIP parser attack -------------------------------------------- *)

let experiment_parser_attack () =
  header "E10: osip_message_parse attack (Section 4.3)";
  let r =
    dart ~max_runs:2_000 ~toplevel:Workloads.Osip_sim.parser_toplevel
      Workloads.Osip_sim.parser_vulnerable
  in
  let extra =
    match r.Dart.Driver.verdict with
    | Dart.Driver.Bug_found b ->
      let len = Option.value ~default:0 (List.assoc_opt 0 b.Dart.Driver.bug_inputs) in
      Printf.sprintf " [Content-Length witness = %d]" len
    | Dart.Driver.Complete | Dart.Driver.Budget_exhausted
    | Dart.Driver.Time_exhausted | Dart.Driver.Interrupted -> ""
  in
  row ~id:"osip-parser-attack" ~desc:"unchecked alloca of attacker-controlled size"
    ~paper:">2.5MB message kills any oSIP app"
    ~measured:(verdict_cell r ^ extra);
  let r =
    dart ~max_runs:2_000 ~toplevel:Workloads.Osip_sim.parser_toplevel
      Workloads.Osip_sim.parser_fixed
  in
  row ~id:"osip-parser-fixed" ~desc:"parser as fixed in oSIP 2.2.0"
    ~paper:"fixed in v2.2.0 ChangeLog" ~measured:(verdict_cell r)

(* ---- A1: search-strategy ablation -------------------------------------------- *)

let experiment_strategy_ablation () =
  header "A1: search-strategy ablation (paper footnote 4)";
  let budget = if !quick then 50_000 else 200_000 in
  let src, toplevel = Workloads.Paper_examples.ac_controller in
  List.iter
    (fun strategy ->
      let r = dart ~depth:2 ~max_runs:budget ~strategy ~toplevel src in
      row
        ~id:(Printf.sprintf "ablation-%s" (Dart.Strategy.to_string strategy))
        ~desc:"AC-controller depth 2, runs to violation"
        ~paper:"DFS is the paper's default" ~measured:(verdict_cell r))
    [ Dart.Strategy.Dfs; Dart.Strategy.Random_branch; Dart.Strategy.Bfs ];
  let src, toplevel = Workloads.Paper_examples.list_example in
  let r = dart ~max_runs:budget ~toplevel src in
  row ~id:"ablation-coins-random" ~desc:"sum3 list bug: random shapes (paper Fig. 8)"
    ~paper:"shapes from coin tosses" ~measured:(verdict_cell r);
  let r = dart ~max_runs:budget ~symbolic_pointers:true ~toplevel src in
  row ~id:"ablation-coins-symbolic" ~desc:"sum3 list bug: symbolic coins (extension)"
    ~paper:"n/a (our extension)" ~measured:(verdict_cell r)

(* ---- A3: string-directed packet construction ---------------------------------- *)

let experiment_packet_construction () =
  header "A3: packet construction through string routines (input filters, Section 4.1)";
  let budget = if !quick then 20_000 else 50_000 in
  let r =
    dart ~max_runs:budget ~toplevel:Workloads.Sip_parser.toplevel
      Workloads.Sip_parser.vulnerable
  in
  let extra =
    match r.Dart.Driver.verdict with
    | Dart.Driver.Bug_found b ->
      let char_at i = Option.value ~default:0 (List.assoc_opt i b.Dart.Driver.bug_inputs) in
      let packet =
        String.init 11 (fun i ->
            let c = char_at i land 255 in
            if c >= 32 && c < 127 then Char.chr c else '.')
      in
      Printf.sprintf " [packet %S]" packet
    | Dart.Driver.Complete | Dart.Driver.Budget_exhausted
    | Dart.Driver.Time_exhausted | Dart.Driver.Interrupted -> ""
  in
  row ~id:"packet-dart" ~desc:"SIP parser OOB behind strncmp/atoi filters"
    ~paper:"directed search passes input filters" ~measured:(verdict_cell r ^ extra);
  let r =
    random_baseline ~max_runs:budget ~toplevel:Workloads.Sip_parser.toplevel
      Workloads.Sip_parser.vulnerable
  in
  row ~id:"packet-random" ~desc:"same parser, random testing"
    ~paper:"stuck in the filter (1 in 256^7)" ~measured:(verdict_cell r);
  let r =
    dart ~max_runs:2_000 ~toplevel:Workloads.Sip_parser.toplevel Workloads.Sip_parser.fixed
  in
  row ~id:"packet-fixed" ~desc:"bounds-checked parser" ~paper:"n/a"
    ~measured:(verdict_cell r)

(* ---- A2: solver ablation ------------------------------------------------------ *)

let experiment_solver_ablation () =
  header "A2: solver ablation (interval fast path vs simplex)";
  (* A workload whose path constraints defeat both the interval fast
     path and Gaussian elimination: non-unit coefficients force the
     rational relaxation + branch-and-bound. *)
  let src =
    {|
void f(int a, int b, int c) {
  if (2*a + 3*b == 10000)
    if (5*b + 7*c == 20000)
      if (a > 0 && b > 0 && c > 0)
        abort();
}
|}
  in
  let run_with use_simplex =
    let stats = Solver.create_stats () in
    let ast = Minic.Parser.parse_program src in
    let prog = Dart.Driver.prepare ~toplevel:"f" ~depth:1 ast in
    (* Drive the flip loop manually so the ablated solver can be
       injected (Driver always uses the full solver). *)
    let rng = Dart_util.Prng.create 42 in
    let im = Dart.Inputs.create () in
    let opts = Dart.Concolic.default_exec_options in
    let entry = Dart.Driver_gen.wrapper_name in
    let bug = ref false in
    let rec loop budget prev =
      if budget = 0 then ()
      else begin
        let d = Dart.Concolic.run_once ~opts ~rng ~im ~prev_stack:prev ~entry prog in
        match d.Dart.Concolic.outcome with
        | Dart.Concolic.Run_fault _ -> bug := true
        | Dart.Concolic.Run_prediction_failure -> ()
        | Dart.Concolic.Run_halted ->
          let rec try_flip j =
            if j < 0 then ()
            else if
              d.Dart.Concolic.stack.(j).Dart.Concolic.br_done
              || d.Dart.Concolic.path_constraint.(j) = None
            then try_flip (j - 1)
            else begin
              let pivot =
                Symbolic.Constr.negate (Option.get d.Dart.Concolic.path_constraint.(j))
              in
              let prefix =
                List.filter_map
                  (fun h -> d.Dart.Concolic.path_constraint.(h))
                  (List.init j Fun.id)
              in
              match Solver.solve ~stats ~use_simplex (pivot :: prefix) with
              | Solver.Sat model ->
                List.iter
                  (fun (v, z) ->
                    Dart.Inputs.set im ~id:v (Dart_util.Word32.of_zint_trunc z))
                  model;
                let stack' =
                  Array.init (j + 1) (fun i ->
                      if i = j then
                        { Dart.Concolic.br_branch =
                            not d.Dart.Concolic.stack.(j).Dart.Concolic.br_branch;
                          br_done = false }
                      else d.Dart.Concolic.stack.(i))
                in
                loop (budget - 1) stack'
              | Solver.Unsat | Solver.Unknown -> try_flip (j - 1)
            end
          in
          try_flip (Array.length d.Dart.Concolic.stack - 1)
      end
    in
    loop 100 [||];
    (!bug, stats)
  in
  let found, stats = run_with true in
  row ~id:"solver-full" ~desc:"simplex + branch-and-bound enabled"
    ~paper:"lp_solve (real+integer programming)"
    ~measured:
      (Printf.sprintf "bug=%b, %d queries (%d simplex, %d fast-path)" found
         (Solver.queries stats) (Solver.simplex_queries stats) (Solver.fast_path stats));
  let found, stats = run_with false in
  row ~id:"solver-intervals-only" ~desc:"interval fast path only (ablated)" ~paper:"n/a"
    ~measured:
      (Printf.sprintf "bug=%b, %d queries (%d unknown)" found (Solver.queries stats)
         (Solver.unknown_count stats))

(* ---- E13: constraint slicing + solve cache ------------------------------------- *)

(* The two hot-path accelerations are exact, so every use_slicing x
   use_cache combo must agree on verdict, bug set and coverage; the
   payoff is fewer solver/simplex queries on deep workloads, where
   sibling subtrees re-issue the same sliced sub-queries. Every search
   keeps every bug, so it runs until its tree or its budget runs out. *)
let experiment_accel_ablation () =
  header "E13: independence slicing + solve cache, every use_slicing x use_cache combo";
  let fingerprint (r : Dart.Driver.report) =
    ( verdict_cell r,
      List.map Dart.Driver.bug_key r.Dart.Driver.bugs,
      List.sort compare r.Dart.Driver.coverage_sites )
  in
  let case ~id ~desc ~depth ~max_runs ~toplevel src =
    let run (use_slicing, use_cache) =
      let options =
        Dart.Driver.Options.make ~depth ~max_runs ~stop_on_first_bug:false ~use_slicing
          ~use_cache ()
      in
      Dart.Driver.test_source ~options ~toplevel src
    in
    let reports =
      List.map (fun combo -> (combo, run combo))
        [ (true, true); (true, false); (false, true); (false, false) ]
    in
    let default = List.assoc (true, true) reports in
    let identical = List.for_all (fun (_, r) -> fingerprint r = fingerprint default) reports in
    row ~id
      ~desc:(Printf.sprintf "%s, depth %d, <=%d runs" desc depth max_runs)
      ~paper:"n/a (our extension; exactness required)"
      ~measured:(Printf.sprintf "%s, identical across combos: %b" (verdict_cell default) identical);
    List.iter
      (fun ((use_slicing, use_cache), r) ->
        let s = r.Dart.Driver.solver_stats in
        row ~id:""
          ~desc:(Printf.sprintf "  use_slicing %b, use_cache %b" use_slicing use_cache)
          ~paper:"n/a"
          ~measured:
            (Printf.sprintf "%d queries (%d simplex), %d hits, %d misses, %d sliced away"
               (Solver.queries s) (Solver.simplex_queries s) (Solver.cache_hits s)
               (Solver.cache_misses s) (Solver.constraints_sliced_away s)))
      reports;
    row ~id:(id ^ "-counters") ~desc:"solver counters (both accelerations on)" ~paper:"n/a"
      ~measured:
        (String.concat ", "
           (List.map
              (fun (k, v) -> Printf.sprintf "%s=%d" k v)
              (Solver.to_assoc default.Dart.Driver.solver_stats)))
  in
  let ac_src, ac_top = Workloads.Paper_examples.ac_controller in
  List.iter
    (fun depth ->
      case ~id:(Printf.sprintf "accel-ac-depth%d" depth) ~desc:"AC controller" ~depth
        ~max_runs:20_000 ~toplevel:ac_top ac_src)
    [ 2; 3; 4 ];
  case ~id:"accel-step-depth4" ~desc:"independent per-call branches" ~depth:4
    ~max_runs:20_000 ~toplevel:"step" "void step(int m) { if (m == 1) { m = 0; } }";
  let examples_budget = if !quick then 300 else 10_000 in
  List.iter
    (fun (name, src, toplevel, depth) ->
      case ~id:("accel-" ^ name) ~desc:(Printf.sprintf "examples/%s.mc" name) ~depth
        ~max_runs:examples_budget ~toplevel src)
    Example_sources.
      [ ("split", split, "walk", 3); ("churn", churn, "step", 2); ("mix", mix, "mix", 2);
        ("walk", walk, "osip_list_find", 2); ("gate", gate, "gate", 4) ];
  if not !quick then begin
    let ns_src = Workloads.Needham_schroeder.possibilistic ~fix:`None in
    case ~id:"accel-ns-poss-depth3" ~desc:"NS possibilistic intruder" ~depth:3
      ~max_runs:50_000 ~toplevel:Workloads.Needham_schroeder.possibilistic_toplevel ns_src
  end
  else print_endline "(NS depth 3 skipped in --quick mode)"

(* ---- E17: whole-library campaign (paper section 4.3 as a workflow) ------------- *)

(* The paper tested oSIP by looping an external script over every
   exported function; the campaign makes that one invocation. Measure
   discovery, detection against the generator's ground truth, crash
   dedup, and that jobs change nothing in the result — the aggregate
   JSON must be byte-identical at jobs 1 and 4. *)
let experiment_campaign () =
  header "E17: library campaign over the oSIP simulacrum";
  let n = if !quick then 20 else 60 in
  let source, funcs = Workloads.Osip_sim.generate ~seed:7 ~n in
  let vulnerable =
    List.filter (fun f -> f.Workloads.Osip_sim.gf_vulnerable) funcs
  in
  let options =
    Dart.Driver.Options.make ~seed:11 ~max_runs:600 ~per_function_runs:150 ()
  in
  let campaign ~jobs =
    match Dart.Campaign.run ~jobs ~options source with
    | Ok r -> r
    | Error msg -> failwith ("campaign: " ^ msg)
  in
  let r1 = campaign ~jobs:1 in
  let r4 = campaign ~jobs:4 in
  let retired which =
    List.length
      (List.filter (fun tr -> tr.Dart.Campaign.tr_retired = which) r1.Dart.Campaign.cam_results)
  in
  row ~id:"e17-discovery"
    ~desc:(Printf.sprintf "targets discovered over %d generated functions" (List.length funcs))
    ~paper:"n/a (oSIP: ~600 externally visible)"
    ~measured:
      (Printf.sprintf "%d targets, %d skipped"
         (List.length r1.Dart.Campaign.cam_targets)
         (List.length r1.Dart.Campaign.cam_skipped));
  row ~id:"e17-detection" ~desc:"crashing targets vs generator ground truth"
    ~paper:"paper found one real oSIP crash"
    ~measured:
      (Printf.sprintf "%d vulnerable by construction, %d retired with a bug, %d deduped crashes"
         (List.length vulnerable) (retired Dart.Campaign.Bug)
         (List.length r1.Dart.Campaign.cam_crashes));
  row ~id:"e17-retirement" ~desc:"how the remaining targets retired"
    ~paper:"n/a (our extension)"
    ~measured:
      (Printf.sprintf "%d complete, %d saturated, %d budget-capped"
         (retired Dart.Campaign.Complete) (retired Dart.Campaign.Saturated)
         (retired Dart.Campaign.Budget_capped));
  (* The "phases" line is wall clock — the documented exception to
     to_json determinism — so the identity check drops it, as the
     campaign goldens' rules do. *)
  let is_phases_line l =
    let t = String.trim l in
    String.length t >= 9 && String.sub t 0 9 = "\"phases\":"
  in
  let json_sans_phases r =
    String.split_on_char '\n' (Dart.Campaign.to_json r)
    |> List.filter (fun l -> not (is_phases_line l))
    |> String.concat "\n"
  in
  row ~id:"e17-determinism" ~desc:"aggregate JSON, jobs 1 vs jobs 4"
    ~paper:"byte-identical required"
    ~measured:(if json_sans_phases r1 = json_sans_phases r4 then "identical" else "MISMATCH")

(* ---- E14: coverage over time (directed vs random) ------------------------------ *)

(* Sample the Cover_point stream of a directed and a random search on
   the same prepared program and compare how coverage accumulates. The
   measured cell carries the compressed trajectory (run:directions
   pairs at every coverage gain). *)
let experiment_coverage_trajectory () =
  header "E14: coverage over time (directed vs random testing, depth >= 3)";
  let gains points =
    let _, rev =
      List.fold_left
        (fun (prev, acc) (p : Dart.Telemetry.cover_point) ->
          if p.Dart.Telemetry.cp_covered > prev then (p.Dart.Telemetry.cp_covered, p :: acc)
          else (prev, acc))
        (0, []) points
    in
    List.rev rev
  in
  let traj points =
    let gs = gains points in
    let shown, elided =
      if List.length gs <= 16 then (gs, 0)
      else (List.filteri (fun i _ -> i < 16) gs, List.length gs - 16)
    in
    String.concat " "
      (List.map
         (fun (p : Dart.Telemetry.cover_point) ->
           Printf.sprintf "%d:%d" p.Dart.Telemetry.cp_run p.Dart.Telemetry.cp_covered)
         shown)
    ^ if elided > 0 then Printf.sprintf " (+%d more gains)" elided else ""
  in
  let summary_of points total_runs possible =
    match List.rev points with
    | [] -> "no cover points"
    | (last : Dart.Telemetry.cover_point) :: _ ->
      Printf.sprintf "%d/%d dirs in %d runs (last gain at run %d): %s"
        last.Dart.Telemetry.cp_covered possible total_runs
        (match List.rev (gains points) with
         | g :: _ -> g.Dart.Telemetry.cp_run
         | [] -> 0)
        (traj points)
  in
  let case ~id ~desc ~depth ~max_runs ~toplevel src =
    let ast = Minic.Parser.parse_program src in
    let prog = Dart.Driver.prepare ~toplevel ~depth ast in
    let possible =
      2 * (Dart.Coverage.compute prog ~covered:[]).Dart.Coverage.total_sites
    in
    (* Both searches trace into a ring; a ring that overwrote events
       would cut the start off the curve, so the cell says so. *)
    let traced options =
      let sink = Dart.Telemetry.ring ~capacity:(1 lsl 20) in
      let options =
        { options with Dart.Driver.Options.telemetry = Dart.Telemetry.with_sink sink }
      in
      let r = Dart.Driver.run ~options prog in
      let points =
        (Dart.Telemetry.summarize (Dart.Telemetry.events sink)).Dart.Telemetry.timeline
      in
      let dropped = Dart.Telemetry.dropped sink in
      summary_of points r.Dart.Driver.runs possible
      ^ if dropped > 0 then Printf.sprintf " [trace ring dropped %d events]" dropped else ""
    in
    row ~id:(id ^ "-directed")
      ~desc:(desc ^ ", directed")
      ~paper:"coverage grows with directed flips"
      ~measured:(traced (Dart.Driver.Options.make ~depth ~max_runs ~stop_on_first_bug:false ()));
    row ~id:(id ^ "-random")
      ~desc:(desc ^ ", random testing")
      ~paper:"plateaus below directed"
      ~measured:(traced (random_options ~seed:42 ~max_runs))
  in
  let ac_src, ac_top = Workloads.Paper_examples.ac_controller in
  case ~id:"cover-ac-depth3" ~desc:"AC controller, depth 3" ~depth:3
    ~max_runs:(if !quick then 2_000 else 20_000)
    ~toplevel:ac_top ac_src;
  if not !quick then
    case ~id:"cover-ns-poss-depth3" ~desc:"NS possibilistic intruder, depth 3" ~depth:3
      ~max_runs:10_000 ~toplevel:Workloads.Needham_schroeder.possibilistic_toplevel
      (Workloads.Needham_schroeder.possibilistic ~fix:`None)
  else print_endline "(NS depth 3 skipped in --quick mode)"

(* ---- main ----------------------------------------------------------------------- *)

let experiments =
  [ ("e1", experiment_section2);
    ("e5", experiment_ac);
    ("e6", experiment_ns_poss);
    ("e7", experiment_ns_dy);
    ("e8", experiment_lowe_fix);
    ("e9", experiment_osip_sweep);
    ("e10", experiment_parser_attack);
    ("e13", experiment_accel_ablation);
    ("e14", experiment_coverage_trajectory);
    ("e17", experiment_campaign);
    ("a1", experiment_strategy_ablation);
    ("a2", experiment_solver_ablation);
    ("a3", experiment_packet_construction) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  quick := List.mem "--quick" args;
  let ids = List.filter (fun a -> a <> "--quick") args in
  (* Check every id before running any, so a typo costs no search time. *)
  List.iter
    (fun id ->
      if not (List.mem_assoc id experiments) then begin
        Printf.eprintf "dart-bench: unknown experiment id %s (known: %s)\n" id
          (String.concat " " (List.map fst experiments));
        exit 2
      end)
    ids;
  let selected = if ids = [] then List.map fst experiments else ids in
  print_endline "DART reproduction benchmarks (see DESIGN.md for the experiment index)";
  if !quick then print_endline "[--quick mode: reduced budgets]";
  List.iter (fun id -> (List.assoc id experiments) ()) selected
