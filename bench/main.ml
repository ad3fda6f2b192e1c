(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (plus the ablations listed in DESIGN.md), printing
   paper-reported numbers next to measured ones.

   Usage:
     dune exec bench/main.exe                 -- all experiments
     dune exec bench/main.exe -- --quick      -- reduced budgets
     dune exec bench/main.exe -- e5 e7        -- selected experiments
     dune exec bench/main.exe -- timing       -- Bechamel timing benches only

   Iteration counts are the primary metric, as in the paper's Figures
   9 and 10 ("Iterations (runtime)"): they are machine-independent.
   Absolute wall-clock differs from a 2005 Pentium III, but who wins,
   by what rough factor, and how counts grow with depth should match. *)

let quick = ref false
let json_file : string option ref = ref None

(* ---- table printing -------------------------------------------------------- *)

let header title = Printf.printf "\n=== %s ===\n" title

(* Every printed row is also collected so --json can dump the whole
   bench result as a machine-readable artifact (CI uploads it). *)
let collected_rows : (string * string * string * string) list ref = ref []

let row ~id ~desc ~paper ~measured =
  collected_rows := (id, desc, paper, measured) :: !collected_rows;
  Printf.printf "%-22s %-48s | paper: %-32s | measured: %s\n" id desc paper measured

let write_json file =
  let rows = List.rev !collected_rows in
  let oc = open_out file in
  output_string oc "[\n";
  List.iteri
    (fun i (id, desc, paper, measured) ->
      Printf.fprintf oc "  {\"id\": %s, \"desc\": %s, \"paper\": %s, \"measured\": %s}%s\n"
        (Dart.Telemetry.json_string id) (Dart.Telemetry.json_string desc)
        (Dart.Telemetry.json_string paper) (Dart.Telemetry.json_string measured)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "]\n";
  close_out oc

let time_it f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let verdict_cell (r : Dart.Driver.report) seconds =
  match r.Dart.Driver.verdict with
  | Dart.Driver.Bug_found b ->
    Printf.sprintf "BUG on run %d (%.2fs, %s)" b.Dart.Driver.bug_run seconds
      (Machine.fault_to_string b.Dart.Driver.bug_fault)
  | Dart.Driver.Complete -> Printf.sprintf "complete, %d runs (%.2fs)" r.Dart.Driver.runs seconds
  | Dart.Driver.Budget_exhausted ->
    Printf.sprintf "no bug in %d runs (%.2fs)" r.Dart.Driver.runs seconds
  | Dart.Driver.Time_exhausted ->
    Printf.sprintf "time budget exhausted after %d runs (%.2fs)" r.Dart.Driver.runs seconds
  | Dart.Driver.Interrupted ->
    Printf.sprintf "interrupted after %d runs (%.2fs)" r.Dart.Driver.runs seconds

let dart ?(depth = 1) ?(max_runs = 20_000) ?(strategy = Dart.Strategy.Dfs)
    ?(symbolic_pointers = false) ~toplevel src =
  let options =
    Dart.Driver.Options.make ~depth ~max_runs ~strategy
      ~exec:{ Dart.Concolic.default_exec_options with symbolic_pointers } ()
  in
  time_it (fun () -> Dart.Driver.test_source ~options ~toplevel src)

let random_baseline ?(depth = 1) ~max_runs ~toplevel src =
  let ast = Minic.Parser.parse_program src in
  let prog = Dart.Driver.prepare ~toplevel ~depth ast in
  time_it (fun () -> Dart.Random_search.run ~seed:1 ~max_runs prog)

let random_cell (r : Dart.Random_search.report) seconds =
  match r.Dart.Random_search.verdict with
  | `Bug_found b -> Printf.sprintf "BUG on run %d (%.2fs)" b.Dart.Driver.bug_run seconds
  | `No_bug -> Printf.sprintf "no bug in %d runs (%.2fs)" r.Dart.Random_search.runs seconds
  | `Time_exhausted ->
    Printf.sprintf "time budget exhausted after %d runs (%.2fs)" r.Dart.Random_search.runs seconds
  | `Interrupted ->
    Printf.sprintf "interrupted after %d runs (%.2fs)" r.Dart.Random_search.runs seconds

(* ---- E1-E4, E11: the Section 2 example programs --------------------------- *)

let experiment_section2 () =
  header "E1-E4, E11: Section 2 example programs";
  let r, s =
    dart
      ~toplevel:(snd Workloads.Paper_examples.section_2_1)
      (fst Workloads.Paper_examples.section_2_1)
  in
  row ~id:"section2.1-h" ~desc:"h(x,y): abort behind f(x) == x+10"
    ~paper:"error on run 2 (x = 10)" ~measured:(verdict_cell r s);
  let r, s =
    dart
      ~toplevel:(snd Workloads.Paper_examples.section_2_4)
      (fst Workloads.Paper_examples.section_2_4)
  in
  row ~id:"section2.4-f" ~desc:"x==z, y==x+10 unsat: search terminates"
    ~paper:"complete, no error" ~measured:(verdict_cell r s);
  let r, s =
    dart
      ~toplevel:(snd Workloads.Paper_examples.section_2_5_cast)
      (fst Workloads.Paper_examples.section_2_5_cast)
  in
  row ~id:"section2.5-cast" ~desc:"char-cast aliasing (static analysis can't)"
    ~paper:"abort found easily" ~measured:(verdict_cell r s);
  let r, s =
    dart
      ~toplevel:(snd Workloads.Paper_examples.section_2_5_foobar)
      (fst Workloads.Paper_examples.section_2_5_foobar)
  in
  row ~id:"section2.5-foobar" ~desc:"non-linear x*x*x guard, graceful degradation"
    ~paper:"reachable abort found w.h.p." ~measured:(verdict_cell r s);
  let budget = if !quick then 10_000 else 100_000 in
  let r, s =
    dart ~toplevel:(snd Workloads.Paper_examples.eq_filter) (fst Workloads.Paper_examples.eq_filter)
  in
  row ~id:"eq-filter" ~desc:"if (x == 10): directed"
    ~paper:"~2 runs (prob. 0.5 per branch)" ~measured:(verdict_cell r s);
  let r, s =
    random_baseline ~max_runs:budget
      ~toplevel:(snd Workloads.Paper_examples.eq_filter)
      (fst Workloads.Paper_examples.eq_filter)
  in
  row ~id:"eq-filter-random" ~desc:"if (x == 10): random baseline"
    ~paper:"1 in 2^32 per run" ~measured:(random_cell r s)

(* ---- E5: AC-controller (Section 4.1) --------------------------------------- *)

let experiment_ac () =
  header "E5: AC-controller (Section 4.1)";
  let src, toplevel = Workloads.Paper_examples.ac_controller in
  let r, s = dart ~depth:1 ~toplevel src in
  row ~id:"ac-depth1" ~desc:"depth 1: all paths, no violation"
    ~paper:"6 iterations, <1s, no error" ~measured:(verdict_cell r s);
  let r, s = dart ~depth:2 ~toplevel src in
  row ~id:"ac-depth2" ~desc:"depth 2: violation at inputs (3, 0)"
    ~paper:"7 iterations, <1s" ~measured:(verdict_cell r s);
  let budget = if !quick then 20_000 else 200_000 in
  let r, s = random_baseline ~depth:2 ~max_runs:budget ~toplevel src in
  row ~id:"ac-random" ~desc:"depth 2: random baseline"
    ~paper:"hours, not found (1 in 2^64)" ~measured:(random_cell r s)

(* ---- E6: Needham-Schroeder, possibilistic intruder (Figure 9) -------------- *)

let experiment_ns_poss () =
  header "E6: Needham-Schroeder, possibilistic intruder (Figure 9)";
  let src = Workloads.Needham_schroeder.possibilistic ~fix:`None in
  let toplevel = Workloads.Needham_schroeder.possibilistic_toplevel in
  let r, s = dart ~depth:1 ~toplevel src in
  row ~id:"ns-poss-depth1" ~desc:"depth 1: exhaustive, no error"
    ~paper:"no error, 69 runs (<1s)" ~measured:(verdict_cell r s);
  let r, s = dart ~depth:2 ~max_runs:50_000 ~toplevel src in
  row ~id:"ns-poss-depth2" ~desc:"depth 2: attack projection (steps 2 and 6)"
    ~paper:"error, 664 runs (2s)" ~measured:(verdict_cell r s);
  let budget = if !quick then 5_000 else 50_000 in
  let r, s = random_baseline ~depth:2 ~max_runs:budget ~toplevel src in
  row ~id:"ns-poss-random" ~desc:"depth 2: random baseline" ~paper:"hours, not found"
    ~measured:(random_cell r s)

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
    let r, s = dart ~depth ~max_runs:500_000 ~toplevel src in
    row
      ~id:(Printf.sprintf "ns-dy-depth%d" depth)
      ~desc:(Printf.sprintf "depth %d" depth)
      ~paper:paper.(depth - 1) ~measured:(verdict_cell r s)
  done;
  if !quick then print_endline "(depth 4 skipped in --quick mode)"

(* ---- E8: Lowe's fix (Section 4.2 anecdote) ---------------------------------- *)

let experiment_lowe_fix () =
  header "E8: Lowe's fix (Section 4.2)";
  let toplevel = Workloads.Needham_schroeder.dolev_yao_toplevel in
  let depth = 4 and max_runs = if !quick then 50_000 else 500_000 in
  let r, s =
    dart ~depth ~max_runs ~toplevel (Workloads.Needham_schroeder.dolev_yao ~fix:`Buggy)
  in
  row ~id:"ns-fix-buggy" ~desc:"incomplete implementation of Lowe's fix"
    ~paper:"violation found (22min) - new bug" ~measured:(verdict_cell r s);
  let r, s =
    dart ~depth ~max_runs ~toplevel (Workloads.Needham_schroeder.dolev_yao ~fix:`Correct)
  in
  row ~id:"ns-fix-correct" ~desc:"corrected fix" ~paper:"no violation found"
    ~measured:(verdict_cell r s)

(* ---- E9: oSIP function sweep (Section 4.3) ---------------------------------- *)

let experiment_osip_sweep () =
  header "E9: oSIP simulacrum sweep (Section 4.3)";
  let n = if !quick then 40 else 120 in
  let per_function_budget = if !quick then 300 else 1_000 in
  let src, funcs = Workloads.Osip_sim.generate ~seed:7 ~n in
  let ast = Minic.Parser.parse_program src in
  let crashed = ref 0 and vulnerable = ref 0 and dart_tp = ref 0 in
  let random_crashed = ref 0 in
  let faults : (Machine.fault, int) Hashtbl.t = Hashtbl.create 8 in
  let (), seconds =
    time_it (fun () ->
        List.iter
          (fun (f : Workloads.Osip_sim.gen_func) ->
            if f.gf_vulnerable then incr vulnerable;
            let prog = Dart.Driver.prepare ~toplevel:f.gf_toplevel ~depth:1 ast in
            let options = Dart.Driver.Options.make ~max_runs:per_function_budget () in
            let r = Dart.Driver.run ~options prog in
            (match r.Dart.Driver.verdict with
             | Dart.Driver.Bug_found b ->
               incr crashed;
               if f.gf_vulnerable then incr dart_tp;
               Hashtbl.replace faults b.Dart.Driver.bug_fault
                 (1 + Option.value ~default:0 (Hashtbl.find_opt faults b.Dart.Driver.bug_fault))
             | Dart.Driver.Complete | Dart.Driver.Budget_exhausted
             | Dart.Driver.Time_exhausted | Dart.Driver.Interrupted -> ());
            let rr = Dart.Random_search.run ~seed:1 ~max_runs:per_function_budget prog in
            match rr.Dart.Random_search.verdict with
            | `Bug_found _ -> incr random_crashed
            | `No_bug | `Time_exhausted | `Interrupted -> ())
          funcs)
  in
  let pct a b = 100.0 *. float_of_int a /. float_of_int b in
  row ~id:"osip-sweep"
    ~desc:(Printf.sprintf "%d functions, <=%d runs each" n per_function_budget)
    ~paper:"65% of ~600 functions crash"
    ~measured:
      (Printf.sprintf "DART: %d/%d (%.0f%%) crash (%.0fs total)" !crashed n (pct !crashed n)
         seconds);
  row ~id:"osip-sweep-truth" ~desc:"against generator ground truth"
    ~paper:"n/a (real library)"
    ~measured:
      (Printf.sprintf "%d/%d vulnerable by construction; DART found %d (%.0f%%)" !vulnerable
         n !dart_tp (pct !dart_tp !vulnerable));
  row ~id:"osip-sweep-random" ~desc:"random baseline, same budgets" ~paper:"n/a"
    ~measured:(Printf.sprintf "random: %d/%d (%.0f%%) crash" !random_crashed n (pct !random_crashed n));
  print_string "  crash causes: ";
  Hashtbl.iter (fun f c -> Printf.printf "%s x%d;  " (Machine.fault_to_string f) c) faults;
  print_newline ()

(* ---- E10: the oSIP parser attack -------------------------------------------- *)

let experiment_parser_attack () =
  header "E10: osip_message_parse attack (Section 4.3)";
  let r, s =
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
    ~measured:(verdict_cell r s ^ extra);
  let r, s =
    dart ~max_runs:2_000 ~toplevel:Workloads.Osip_sim.parser_toplevel
      Workloads.Osip_sim.parser_fixed
  in
  row ~id:"osip-parser-fixed" ~desc:"parser as fixed in oSIP 2.2.0"
    ~paper:"fixed in v2.2.0 ChangeLog" ~measured:(verdict_cell r s)

(* ---- A1: search-strategy ablation -------------------------------------------- *)

let experiment_strategy_ablation () =
  header "A1: search-strategy ablation (paper footnote 4)";
  let src, toplevel = Workloads.Paper_examples.ac_controller in
  List.iter
    (fun strategy ->
      let r, s = dart ~depth:2 ~max_runs:200_000 ~strategy ~toplevel src in
      row
        ~id:(Printf.sprintf "ablation-%s" (Dart.Strategy.to_string strategy))
        ~desc:"AC-controller depth 2, runs to violation"
        ~paper:"DFS is the paper's default" ~measured:(verdict_cell r s))
    [ Dart.Strategy.Dfs; Dart.Strategy.Random_branch; Dart.Strategy.Bfs ];
  let src, toplevel = Workloads.Paper_examples.list_example in
  let budget = if !quick then 50_000 else 200_000 in
  let r, s = dart ~max_runs:budget ~toplevel src in
  row ~id:"ablation-coins-random" ~desc:"sum3 list bug: random shapes (paper Fig. 8)"
    ~paper:"shapes from coin tosses" ~measured:(verdict_cell r s);
  let r, s = dart ~max_runs:budget ~symbolic_pointers:true ~toplevel src in
  row ~id:"ablation-coins-symbolic" ~desc:"sum3 list bug: symbolic coins (extension)"
    ~paper:"n/a (our extension)" ~measured:(verdict_cell r s)

(* ---- A3: string-directed packet construction ---------------------------------- *)

let experiment_packet_construction () =
  header "A3: packet construction through string routines (input filters, Section 4.1)";
  let budget = if !quick then 20_000 else 50_000 in
  let r, s =
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
    ~paper:"directed search passes input filters" ~measured:(verdict_cell r s ^ extra);
  let r, s =
    random_baseline ~max_runs:budget ~toplevel:Workloads.Sip_parser.toplevel
      Workloads.Sip_parser.vulnerable
  in
  row ~id:"packet-random" ~desc:"same parser, random testing"
    ~paper:"stuck in the filter (1 in 256^7)" ~measured:(random_cell r s);
  let r, s =
    dart ~max_runs:2_000 ~toplevel:Workloads.Sip_parser.toplevel Workloads.Sip_parser.fixed
  in
  row ~id:"packet-fixed" ~desc:"bounds-checked parser" ~paper:"n/a"
    ~measured:(verdict_cell r s)

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

(* ---- E12: parallel jobs scaling ------------------------------------------------ *)

(* A multi-path no-bug workload with genuine per-run cost: a deep
   conditional chain whose every run carries an N-deep stack, capped so
   the run budget (not completeness) ends the search. The pooled budget
   makes J workers share the runs, so wall clock should shrink toward
   1/min(J, cores). *)
let deep_chain_src n =
  Printf.sprintf
    {|
int deep(int x) {
  int acc = 0;
  int i = 0;
  while (i < %d) {
    if (x > i) acc = acc + 1;
    i = i + 1;
  }
  return acc;
}
|}
    n

(* An exhausted workload for the work pool: NS with Lowe's fix under
   the Dolev-Yao intruder has no bug, so DFS walks its whole tree. The
   workers split the tree, so every job count must merge to exactly the
   jobs 1 run count (Theorem 1(b) needs each feasible path run once). *)
let exhausted_ns_runs () =
  let depth = if !quick then 3 else 4 in
  let prog =
    Dart.Driver.prepare ~toplevel:Workloads.Needham_schroeder.dolev_yao_toplevel ~depth
      (Minic.Parser.parse_program (Workloads.Needham_schroeder.dolev_yao ~fix:`Correct))
  in
  let base = Dart.Driver.Options.make ~depth ~max_runs:1_000_000 () in
  let results =
    List.map
      (fun jobs ->
        let r, t =
          time_it (fun () -> Dart.Parallel.run ~options:(Dart.Parallel.options ~jobs base) prog)
        in
        (jobs, r.Dart.Parallel.merged, t))
      [ 1; 2; 4 ]
  in
  let runs_at_1 =
    match results with (_, m, _) :: _ -> m.Dart.Driver.runs | [] -> assert false
  in
  let all_complete =
    List.for_all (fun (_, m, _) -> m.Dart.Driver.verdict = Dart.Driver.Complete) results
  in
  let same_runs = List.for_all (fun (_, m, _) -> m.Dart.Driver.runs = runs_at_1) results in
  (depth, results, all_complete, same_runs)

let experiment_jobs_scaling () =
  header "E12: parallel jobs scaling (pooled run budget, one path tree split across workers)";
  Printf.printf "  cores available (Domain.recommended_domain_count): %d\n"
    (Domain.recommended_domain_count ());
  let chain = if !quick then 80 else 150 in
  let budget = if !quick then 60 else 120 in
  let prog =
    Dart.Driver.prepare ~toplevel:"deep" ~depth:1
      (Minic.Parser.parse_program (deep_chain_src chain))
  in
  let base = Dart.Driver.Options.make ~max_runs:budget () in
  let t1 = ref 1.0 in
  let bugs_at_1 = ref [] in
  let speedups = ref [] in
  List.iter
    (fun jobs ->
      let r, s =
        time_it (fun () -> Dart.Parallel.run ~options:(Dart.Parallel.options ~jobs base) prog)
      in
      let m = r.Dart.Parallel.merged in
      if jobs = 1 then begin
        t1 := s;
        bugs_at_1 := List.map Dart.Driver.bug_key m.Dart.Driver.bugs
      end;
      speedups := (jobs, !t1 /. s) :: !speedups;
      let same_bugs = List.map Dart.Driver.bug_key m.Dart.Driver.bugs = !bugs_at_1 in
      row
        ~id:(Printf.sprintf "jobs-%d" jobs)
        ~desc:
          (Printf.sprintf "%d-deep chain, %d total runs, %d workers" chain
             m.Dart.Driver.runs jobs)
        ~paper:"n/a (our extension)"
        ~measured:
          (Printf.sprintf
             "%.2fs (%.2fx vs jobs=1), bug set identical: %b, global hits %d (%d from \
              peers)"
             s (!t1 /. s) same_bugs
             (Solver.cache_hits m.Dart.Driver.solver_stats)
             (Solver.shared_hits m.Dart.Driver.solver_stats)))
    [ 1; 2; 4 ];
  let speedup j = try List.assoc j !speedups with Not_found -> 0.0 in
  row ~id:"jobs-scaling" ~desc:"speedup monotonicity across worker counts"
    ~paper:"n/a (target: jobs=4 >= jobs=2)"
    ~measured:
      (Printf.sprintf "jobs=2 %.2fx, jobs=4 %.2fx, monotone: %b" (speedup 2) (speedup 4)
         (speedup 4 >= speedup 2));
  let depth, results, all_complete, same_runs = exhausted_ns_runs () in
  row ~id:"jobs-divide"
    ~desc:(Printf.sprintf "NS Lowe-fixed Dolev-Yao depth %d, exhausted, jobs 1/2/4" depth)
    ~paper:"n/a (Thm 1(b): each feasible path run once)"
    ~measured:
      (Printf.sprintf "runs %s, %s; all complete: %b, runs = jobs 1 at jobs 2 and 4: %b"
         (String.concat " / "
            (List.map (fun (_, m, _) -> string_of_int m.Dart.Driver.runs) results))
         (String.concat " / " (List.map (fun (_, _, t) -> Printf.sprintf "%.2fs" t) results))
         all_complete same_runs)

(* ---- E13: constraint slicing + solve cache ------------------------------------- *)

(* The two hot-path accelerations are exact, so every ablation combo
   must agree on verdict, bug set and coverage; the payoff is fewer
   solver/simplex queries on deep workloads, where sibling subtrees
   re-issue the same sliced sub-queries. *)
let experiment_accel_ablation () =
  header "E13: independence slicing + solve cache (depth >= 3 workloads)";
  let fingerprint (r : Dart.Driver.report) =
    ( (match r.Dart.Driver.verdict with
       | Dart.Driver.Bug_found _ -> "bug"
       | Dart.Driver.Complete -> "complete"
       | Dart.Driver.Budget_exhausted -> "budget"
       | Dart.Driver.Time_exhausted -> "time"
       | Dart.Driver.Interrupted -> "interrupted"),
      List.map Dart.Driver.bug_key r.Dart.Driver.bugs,
      List.sort compare r.Dart.Driver.coverage_sites )
  in
  let case ~id ~desc ~depth ~max_runs ~toplevel src =
    let run use_slicing use_cache =
      let options = Dart.Driver.Options.make ~depth ~max_runs ~use_slicing ~use_cache () in
      time_it (fun () -> Dart.Driver.test_source ~options ~toplevel src)
    in
    let accel, ta = run true true in
    let plain, tp = run false false in
    let sa = accel.Dart.Driver.solver_stats and sp = plain.Dart.Driver.solver_stats in
    let reduction a b =
      if b = 0 then 0.0 else 100.0 *. (1.0 -. (float_of_int a /. float_of_int b))
    in
    let identical = fingerprint accel = fingerprint plain in
    row ~id ~desc ~paper:"n/a (our extension; exactness required)"
      ~measured:
        (Printf.sprintf
           "queries %d -> %d (-%.0f%%), simplex %d -> %d (-%.0f%%), %d hits, %d sliced, \
            %.2fs -> %.2fs, identical: %b"
           (Solver.queries sp) (Solver.queries sa)
           (reduction (Solver.queries sa) (Solver.queries sp))
           (Solver.simplex_queries sp) (Solver.simplex_queries sa)
           (reduction (Solver.simplex_queries sa) (Solver.simplex_queries sp))
           (Solver.cache_hits sa)
           (Solver.constraints_sliced_away sa)
           tp ta identical);
    (* Machine-readable companion row: the full counter/timing vectors
       land in the --json artifact through the same row channel. *)
    row ~id:(id ^ "-counters") ~desc:"solver counters + phase seconds (accelerated run)"
      ~paper:"n/a"
      ~measured:
        (String.concat ", "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) (Solver.to_assoc sa)
            @ [ Printf.sprintf "incremental_hits=%d" (Solver.incremental_hits sa);
                Printf.sprintf "pops_saved=%d" (Solver.pops_saved sa) ]
            @ List.map
                (fun (k, v) -> Printf.sprintf "%s=%.3f" k v)
                (Dart.Telemetry.metrics_to_assoc accel.Dart.Driver.metrics)))
  in
  let ac_src, ac_top = Workloads.Paper_examples.ac_controller in
  case ~id:"accel-ac-depth3" ~desc:"AC controller, depth 3" ~depth:3 ~max_runs:20_000
    ~toplevel:ac_top ac_src;
  case ~id:"accel-step-depth4"
    ~desc:"independent per-call branches, depth 4" ~depth:4 ~max_runs:20_000 ~toplevel:"step"
    "void step(int m) { if (m == 1) { m = 0; } }";
  if not !quick then begin
    let ns_src = Workloads.Needham_schroeder.possibilistic ~fix:`None in
    case ~id:"accel-ns-poss-depth3" ~desc:"NS possibilistic intruder, depth 3" ~depth:3
      ~max_runs:50_000 ~toplevel:Workloads.Needham_schroeder.possibilistic_toplevel ns_src
  end
  else print_endline "(NS depth 3 skipped in --quick mode)"

(* ---- E16: shared cross-worker solve store -------------------------------------- *)

(* Jobs scaling with globally counted cache hits: the shared store lets
   any worker answer any worker's query, so the merged hit counter is a
   fleet-wide number instead of a sum of private hoards, and the pooled
   run budget keeps every worker busy until the whole pool drains. Every
   job count must agree with jobs 1 on the bug set — the store is an
   acceleration, not a search change. The exhausted row shows the store
   paying off between workers that walk disjoint subtrees. *)
let experiment_shared_store () =
  header "E16: shared cross-worker solve store (pooled budget, work pool, global hit accounting)";
  let ac_src, ac_top = Workloads.Paper_examples.ac_controller in
  let prog =
    Dart.Driver.prepare ~toplevel:ac_top ~depth:3 (Minic.Parser.parse_program ac_src)
  in
  let budget = if !quick then 400 else 2_000 in
  let base = Dart.Driver.Options.make ~depth:3 ~max_runs:budget ~stop_on_first_bug:false () in
  let run jobs =
    time_it (fun () -> Dart.Parallel.run ~options:(Dart.Parallel.options ~jobs base) prog)
  in
  let bug_keys (r : Dart.Parallel.report) =
    List.sort_uniq compare
      (List.map Dart.Driver.bug_key r.Dart.Parallel.merged.Dart.Driver.bugs)
  in
  let reference = bug_keys (fst (run 1)) in
  List.iter
    (fun jobs ->
      let r, t = run jobs in
      let s = r.Dart.Parallel.merged.Dart.Driver.solver_stats in
      row
        ~id:(Printf.sprintf "e16-jobs-%d" jobs)
        ~desc:(Printf.sprintf "AC controller depth 3, %d pooled runs, %d workers" budget jobs)
        ~paper:"n/a (our extension; exactness required)"
        ~measured:
          (Printf.sprintf "%d queries, %d hits (%d from peers), %.2fs; same bugs as jobs 1: %b"
             (Solver.queries s) (Solver.cache_hits s) (Solver.shared_hits s) t
             (bug_keys r = reference)))
    [ 1; 2; 4 ];
  let depth, results, all_complete, same_runs = exhausted_ns_runs () in
  row ~id:"e16-exhausted"
    ~desc:(Printf.sprintf "NS Lowe-fixed Dolev-Yao depth %d, exhausted, jobs 1/2/4" depth)
    ~paper:"n/a (our extension; exactness required)"
    ~measured:
      (Printf.sprintf "queries %s, peer hits %s; all complete: %b, runs = jobs 1: %b"
         (String.concat " / "
            (List.map (fun (_, m, _) -> string_of_int (Solver.queries m.Dart.Driver.solver_stats))
               results))
         (String.concat " / "
            (List.map
               (fun (_, m, _) -> string_of_int (Solver.shared_hits m.Dart.Driver.solver_stats))
               results))
         all_complete same_runs)

(* ---- E17: whole-library campaign (paper section 4.3 as a workflow) ------------- *)

(* The paper tested oSIP by looping an external script over every
   exported function; the campaign makes that one invocation. Measure
   discovery, detection against the generator's ground truth, crash
   dedup, and that jobs only buy wall clock — the aggregate JSON must
   be byte-identical at jobs 1 and 4. *)
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
    time_it (fun () ->
        match Dart.Campaign.run ~jobs ~options source with
        | Ok r -> r
        | Error msg -> failwith ("campaign: " ^ msg))
  in
  let r1, t1 = campaign ~jobs:1 in
  let r4, t4 = campaign ~jobs:4 in
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
     to_json determinism — so the identity check drops it, exactly as
     CI's diffs use grep -v '"phases"'. *)
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
    ~measured:
      (Printf.sprintf "%s; %.2fs at jobs 1, %.2fs at jobs 4"
         (if json_sans_phases r1 = json_sans_phases r4 then "identical"
          else "MISMATCH")
         t1 t4)

(* ---- E18: flight recorder (tracing overhead, latency attribution) -------------- *)

(* Observability must be pay-for-what-you-use. With the null sink the
   only recorder cost left in the hot path is two monotonic clock
   reads per run feeding the latency histograms, so untraced execs/sec
   is the baseline number — the traced run shows what a full ring
   recording costs relative to it, and pays for itself by also
   yielding the percentile lines and the profiler's attribution. *)
let experiment_observability () =
  header "E18: flight recorder (tracing overhead, latency histograms, profiler)";
  (* Five independent branches per call: the search consumes its whole
     run budget, so the measurement window is runs, not a quick
     completion (a short search would bill the ring's one-time buffer
     allocation as per-run overhead). *)
  let churn_src =
    "int acc;\n\
     void step(int a, int b, int c) {\n\
    \  if (a > b) { acc = acc + 1; } else { acc = acc - 1; }\n\
    \  if (b > c) { acc = acc + 2; } else { acc = acc - 2; }\n\
    \  if (c > a) { acc = acc + 3; } else { acc = acc - 3; }\n\
    \  if (a + b > c) { acc = acc + 4; } else { acc = acc - 4; }\n\
    \  if (b + c > a) { acc = acc + 5; } else { acc = acc - 5; }\n\
     }\n"
  in
  let depth = 4 in
  let max_runs = if !quick then 2_000 else 10_000 in
  let prog =
    Dart.Driver.prepare ~toplevel:"step" ~depth (Minic.Parser.parse_program churn_src)
  in
  let search sink () =
    let options =
      Dart.Driver.Options.make ~depth ~max_runs ~stop_on_first_bug:false
        ~telemetry:(Dart.Telemetry.with_sink sink) ()
    in
    Dart.Driver.search ~ctx:(Dart.Driver.make_ctx ~seed:42 ~max_runs ()) ~options prog
  in
  ignore (search Dart.Telemetry.null ()) (* warm-up *);
  let r_off, t_off = time_it (search Dart.Telemetry.null) in
  let ring = Dart.Telemetry.ring ~capacity:(1 lsl 20) in
  let r_on, t_on = time_it (search ring) in
  let eps (r : Dart.Driver.report) t = float_of_int r.Dart.Driver.runs /. t in
  row ~id:"e18-overhead"
    ~desc:(Printf.sprintf "branch churn depth %d, %d runs: untraced vs ring-traced" depth max_runs)
    ~paper:"n/a (tracing off must cost nothing)"
    ~measured:
      (Printf.sprintf
         "untraced %.0f execs/sec (the baseline), traced %.0f execs/sec (%.1f%% overhead, \
          %d events)"
         (eps r_off t_off) (eps r_on t_on)
         (100.0 *. (t_on -. t_off) /. t_off)
         (Dart.Telemetry.emitted ring));
  let m = r_on.Dart.Driver.metrics in
  row ~id:"e18-latency" ~desc:"latency histograms accumulated by the same search"
    ~paper:"n/a (our extension)"
    ~measured:
      (Printf.sprintf "solve p50 <=%s p99 <=%s (%d samples); run p50 <=%s p99 <=%s (%d samples)"
         (Dart.Telemetry.ns_to_string (Dart.Telemetry.Hist.p50 m.Dart.Telemetry.solve_hist))
         (Dart.Telemetry.ns_to_string (Dart.Telemetry.Hist.p99 m.Dart.Telemetry.solve_hist))
         (Dart.Telemetry.Hist.count m.Dart.Telemetry.solve_hist)
         (Dart.Telemetry.ns_to_string (Dart.Telemetry.Hist.p50 m.Dart.Telemetry.run_hist))
         (Dart.Telemetry.ns_to_string (Dart.Telemetry.Hist.p99 m.Dart.Telemetry.run_hist))
         (Dart.Telemetry.Hist.count m.Dart.Telemetry.run_hist));
  let p = Dart.Telemetry.summarize (Dart.Telemetry.events ring) in
  row ~id:"e18-profile" ~desc:"post-hoc attribution over the recorded ring"
    ~paper:"n/a (our extension)"
    ~measured:
      (match p.Dart.Telemetry.sites with
       | [] -> "no solver sites in trace"
       | ((fn, pc), a) :: _ ->
         Printf.sprintf "hottest solver site %s:%d — %d queries, %s total" fn pc
           a.Dart.Telemetry.s_count
           (Dart.Telemetry.ns_to_string a.Dart.Telemetry.s_ns))

(* ---- E19: chaos soak (graceful degradation under injected faults) -------------- *)

(* The campaign's fault-tolerance contract, measured: under injected
   worker crashes at increasing rates, the wall clock and the bug count
   may degrade, but every discovered target stays in the ledger
   (quarantined at worst, never lost) and no bug is invented that the
   fault-free run does not know. The chaos schedule is a pure function
   of (spec, seed), so the degradation numbers are reproducible. *)
let experiment_chaos_soak () =
  header "E19: chaos soak (campaign under injected worker crashes)";
  let n = if !quick then 12 else 30 in
  let source, _ = Workloads.Osip_sim.generate ~seed:7 ~n in
  let campaign ?faultsim () =
    time_it (fun () ->
        let options =
          Dart.Driver.Options.make ~seed:11 ~max_runs:600 ~per_function_runs:150
            ~retry_limit:2 ?faultsim ()
        in
        match Dart.Campaign.run ~options source with
        | Ok r -> r
        | Error msg -> failwith ("campaign: " ^ msg))
  in
  let clean, t_clean = campaign () in
  let clean_keys =
    List.map (fun (_, b) -> Dart.Driver.bug_key b) clean.Dart.Campaign.cam_crashes
  in
  let quarantined r =
    List.length
      (List.filter
         (fun tr ->
           match tr.Dart.Campaign.tr_retired with
           | Dart.Campaign.Quarantined _ -> true
           | _ -> false)
         r.Dart.Campaign.cam_results)
  in
  let describe r t =
    let keys = List.map (fun (_, b) -> Dart.Driver.bug_key b) r.Dart.Campaign.cam_crashes in
    let invented = List.filter (fun k -> not (List.mem k clean_keys)) keys in
    Printf.sprintf
      "%.2fs, %d bugs (%d lost, %d invented), %d quarantined, oracle %s"
      t (List.length keys)
      (List.length (List.filter (fun k -> not (List.mem k keys)) clean_keys))
      (List.length invented) (quarantined r)
      (if Dart.Campaign.no_lost_targets r && invented = [] then "PASS" else "VIOLATED")
  in
  row ~id:"e19-chaos-off"
    ~desc:(Printf.sprintf "oSIP simulacrum (%d functions), no injection: the baseline" n)
    ~paper:"n/a (our extension)"
    ~measured:(describe clean t_clean);
  List.iter
    (fun bp ->
      let fs = Dart_util.Faultsim.chaos ~seed:23 [ (Dart_util.Faultsim.Worker_crash, bp) ] in
      let r, t = campaign ~faultsim:fs () in
      row
        ~id:(Printf.sprintf "e19-chaos-%d" bp)
        ~desc:
          (Printf.sprintf "worker_crash at %.1f%% of slices, retry_limit 2, chaos-seed 23"
             (float_of_int bp /. 100.))
        ~paper:"no lost targets, no invented bugs"
        ~measured:(describe r t))
    [ 100; 500 ]

(* ---- E14: coverage over time (directed vs random) ------------------------------ *)

(* Sample the Cover_point stream of a directed and a random search on
   the same prepared program and compare how coverage accumulates. The
   compressed trajectory (run:directions pairs at every coverage gain)
   rides in the measured cell, so the --json artifact carries the whole
   curve for offline plotting. *)
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
    let sink = Dart.Telemetry.ring ~capacity:(1 lsl 20) in
    let options =
      Dart.Driver.Options.make ~depth ~max_runs ~stop_on_first_bug:false
        ~telemetry:(Dart.Telemetry.with_sink sink) ()
    in
    let ctx = Dart.Driver.make_ctx ~seed:42 ~max_runs () in
    let r, s = time_it (fun () -> Dart.Driver.search ~ctx ~options prog) in
    let points =
      (Dart.Telemetry.summarize (Dart.Telemetry.events sink)).Dart.Telemetry.timeline
    in
    row ~id:(id ^ "-directed")
      ~desc:(desc ^ ", directed")
      ~paper:"coverage grows with directed flips"
      ~measured:(Printf.sprintf "%s (%.2fs)" (summary_of points r.Dart.Driver.runs possible) s);
    let sink = Dart.Telemetry.ring ~capacity:(1 lsl 20) in
    let rr, s =
      time_it (fun () -> Dart.Random_search.run ~seed:42 ~max_runs ~telemetry:sink prog)
    in
    let points =
      (Dart.Telemetry.summarize (Dart.Telemetry.events sink)).Dart.Telemetry.timeline
    in
    row ~id:(id ^ "-random")
      ~desc:(desc ^ ", random testing")
      ~paper:"plateaus below directed"
      ~measured:
        (Printf.sprintf "%s (%.2fs)" (summary_of points rr.Dart.Random_search.runs possible) s)
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

(* ---- A4: deep-path regression guard -------------------------------------------- *)

let experiment_deep_path () =
  header "A4: deep-path sanity (candidate selection must stay O(1) per probe)";
  let chain = if !quick then 100 else 150 in
  let prog =
    Dart.Driver.prepare ~toplevel:"deep" ~depth:1
      (Minic.Parser.parse_program (deep_chain_src chain))
  in
  let options = Dart.Driver.Options.make ~max_runs:(2 * chain) () in
  let r, s = time_it (fun () -> Dart.Driver.run ~options prog) in
  let per_run = s /. float_of_int r.Dart.Driver.runs *. 1000.0 in
  (* Generous ceiling: a quadratic candidate representation pushes the
     full exploration of a 150-deep chain well past this. *)
  let ceiling = 30.0 in
  row ~id:"deep-path"
    ~desc:(Printf.sprintf "%d-deep chain, full exploration (%d runs)" chain r.Dart.Driver.runs)
    ~paper:"n/a (regression guard)"
    ~measured:
      (Printf.sprintf "%.2fs (%.1fms/run), %d solver queries [%s]" s per_run
         (Solver.queries r.Dart.Driver.solver_stats)
         (if s <= ceiling then "PASS" else Printf.sprintf "FAIL > %.0fs" ceiling))

(* ---- Bechamel timing benches -------------------------------------------------- *)

let timing_benches () =
  header "Timing (Bechamel; OLS estimate per operation)";
  let open Bechamel in
  let ac_src, ac_top = Workloads.Paper_examples.ac_controller in
  let ac_prog =
    Dart.Driver.prepare ~toplevel:ac_top ~depth:2 (Minic.Parser.parse_program ac_src)
  in
  let ns_src = Workloads.Needham_schroeder.possibilistic ~fix:`None in
  let ns_prog =
    Dart.Driver.prepare ~toplevel:Workloads.Needham_schroeder.possibilistic_toplevel ~depth:1
      (Minic.Parser.parse_program ns_src)
  in
  let run_prog prog symbolic rng () =
    let im = Dart.Inputs.create () in
    let opts = { Dart.Concolic.default_exec_options with symbolic } in
    Dart.Concolic.run_once ~opts ~rng ~im ~prev_stack:[||]
      ~entry:Dart.Driver_gen.wrapper_name prog
  in
  let parse_test =
    Test.make ~name:"e6 frontend: parse+typecheck+lower NS source"
      (Staged.stage (fun () -> Ram.Lower.lower_source ns_src))
  in
  let concrete_test =
    Test.make ~name:"e5 machine: one concrete AC run"
      (Staged.stage (run_prog ac_prog false (Dart_util.Prng.create 7)))
  in
  let concolic_test =
    Test.make ~name:"e5 concolic: one instrumented AC run"
      (Staged.stage (run_prog ac_prog true (Dart_util.Prng.create 7)))
  in
  let ns_run_test =
    Test.make ~name:"e6 concolic: one instrumented NS run"
      (Staged.stage (run_prog ns_prog true (Dart_util.Prng.create 7)))
  in
  let solver_fast_test =
    let open Symbolic in
    let z = Zarith_lite.Zint.of_int in
    let cs =
      [ Constr.make (Linexpr.add_const (z (-10)) (Linexpr.var 0)) Constr.Eq0;
        Constr.make (Linexpr.add_const (z 3) (Linexpr.neg (Linexpr.var 1))) Constr.Le0 ]
    in
    Test.make ~name:"a2 solver: univariate query (fast path)"
      (Staged.stage (fun () -> Solver.solve cs))
  in
  let solver_simplex_test =
    let open Symbolic in
    let z = Zarith_lite.Zint.of_int in
    let mk c terms =
      List.fold_left
        (fun acc (v, k) -> Linexpr.add acc (Linexpr.scale (z k) (Linexpr.var v)))
        (Linexpr.const (z c)) terms
    in
    let cs =
      [ Constr.make (mk (-1000) [ (0, 1); (1, 1) ]) Constr.Eq0;
        Constr.make (mk (-2000) [ (1, 2); (2, 1) ]) Constr.Le0;
        Constr.make (mk 0 [ (0, -1); (2, 1) ]) Constr.Le0 ]
    in
    Test.make ~name:"a2 solver: multivariate query (simplex)"
      (Staged.stage (fun () -> Solver.solve cs))
  in
  let osip_test =
    let src, funcs = Workloads.Osip_sim.generate ~seed:7 ~n:10 in
    let f = List.hd funcs in
    let prog =
      Dart.Driver.prepare ~toplevel:f.Workloads.Osip_sim.gf_toplevel ~depth:1
        (Minic.Parser.parse_program src)
    in
    Test.make ~name:"e9 concolic: one instrumented oSIP-function run"
      (Staged.stage (run_prog prog true (Dart_util.Prng.create 7)))
  in
  let tests =
    [ parse_test; concrete_test; concolic_test; ns_run_test; solver_fast_test;
      solver_simplex_test; osip_test ]
  in
  let quota = if !quick then 0.2 else 0.5 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"dart" ~fmt:"%s %s" tests) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        match Analyze.OLS.estimates ols with
        | Some [ t ] -> (name, t) :: acc
        | Some _ | None -> (name, nan) :: acc)
      results []
    |> List.sort compare
  in
  List.iter
    (fun (name, t) ->
      if Float.is_nan t then Printf.printf "  %-55s (no estimate)\n" name
      else if t > 1_000_000.0 then Printf.printf "  %-55s %10.2f ms/op\n" name (t /. 1e6)
      else if t > 1_000.0 then Printf.printf "  %-55s %10.2f us/op\n" name (t /. 1e3)
      else Printf.printf "  %-55s %10.0f ns/op\n" name t)
    rows

(* ---- E15: compiled execution engine ---------------------------------------- *)

(* Our extension (ROADMAP item 2): the RAM machine compiled once to
   cached closures versus the tree-walking interpreter. Concrete runs
   (symbolic off) isolate machine throughput — the execute phase the
   directed search repeats thousands of times; the identity rows check
   that the end-to-end report does not change by a byte when the
   engine switches. *)
let experiment_exec_throughput () =
  header "E15: compiled execution engine (interpreter vs compiled closures)";
  (* One exec = machine load + concrete run — the unit the search's
     execute phase repeats thousands of times. The two engines run in
     interleaved batches (best of several rounds each) so CPU frequency
     drift hits both equally, and every batch re-seeds the same PRNG so
     both see identical external-input streams. *)
  let speed ~id ~desc ~depth ~toplevel src =
    let prog = Dart.Driver.prepare ~toplevel ~depth (Minic.Parser.parse_program src) in
    Machine.precompile prog;
    let entry = Dart.Driver_gen.wrapper_name in
    let iters = if !quick then 300 else 2_000 in
    let batch compile =
      let rng = Dart_util.Prng.create 42 in
      let listener =
        { Machine.null_listener with
          Machine.on_external =
            (fun m _ ~dst ->
              match dst with
              | Some d -> Machine.write_word m d (Dart_util.Prng.int_range rng (-100) 100)
              | None -> ()) }
      in
      let (), secs =
        time_it (fun () ->
            for _ = 1 to iters do
              let m = Machine.load ~compile prog in
              ignore (Machine.run ~listener m ~entry)
            done)
      in
      secs
    in
    (* Warm both paths (one-time compile, allocator state) off the clock. *)
    ignore (batch true);
    ignore (batch false);
    let bc = ref infinity and bi = ref infinity in
    for _ = 1 to 5 do
      bc := min !bc (batch true);
      bi := min !bi (batch false)
    done;
    let compiled = float_of_int iters /. !bc in
    let interp = float_of_int iters /. !bi in
    row ~id ~desc ~paper:"n/a (our extension; target >= 5x)"
      ~measured:
        (Printf.sprintf "interp %.0f execs/sec, compiled %.0f execs/sec, %.1fx" interp
           compiled (compiled /. interp))
  in
  let ac_src, ac_top = Workloads.Paper_examples.ac_controller in
  speed ~id:"e15-ns-depth4" ~desc:"NS protocol depth 4, concrete execs/sec" ~depth:4
    ~toplevel:Workloads.Needham_schroeder.possibilistic_toplevel
    (Workloads.Needham_schroeder.possibilistic ~fix:`None);
  speed ~id:"e15-ac-depth4" ~desc:"AC controller depth 4, concrete execs/sec" ~depth:4
    ~toplevel:ac_top ac_src;
  speed ~id:"e15-osip-depth4" ~desc:"oSIP message parse depth 4, concrete execs/sec" ~depth:4
    ~toplevel:Workloads.Osip_sim.parser_toplevel Workloads.Osip_sim.parser_vulnerable;
  let identity ~id ~desc ~depth ~max_runs ~toplevel src =
    let report compile =
      let exec = { Dart.Concolic.default_exec_options with compile } in
      let options = Dart.Driver.Options.make ~depth ~max_runs ~exec () in
      Dart.Driver.report_to_string (Dart.Driver.test_source ~options ~toplevel src)
    in
    row ~id ~desc ~paper:"byte-identical required"
      ~measured:(if report true = report false then "identical" else "MISMATCH")
  in
  identity ~id:"e15-id-ac" ~desc:"report identity: AC controller" ~depth:2 ~max_runs:2_000
    ~toplevel:ac_top ac_src;
  identity ~id:"e15-id-ns" ~desc:"report identity: NS protocol" ~depth:2 ~max_runs:2_000
    ~toplevel:Workloads.Needham_schroeder.possibilistic_toplevel
    (Workloads.Needham_schroeder.possibilistic ~fix:`None);
  identity ~id:"e15-id-osip" ~desc:"report identity: oSIP parser" ~depth:1 ~max_runs:2_000
    ~toplevel:Workloads.Osip_sim.parser_toplevel Workloads.Osip_sim.parser_vulnerable;
  identity ~id:"e15-id-sip" ~desc:"report identity: SIP parser" ~depth:1 ~max_runs:2_000
    ~toplevel:Workloads.Sip_parser.toplevel Workloads.Sip_parser.vulnerable

(* ---- main ----------------------------------------------------------------------- *)

let experiments =
  [ ("e1", experiment_section2);
    ("e5", experiment_ac);
    ("e6", experiment_ns_poss);
    ("e7", experiment_ns_dy);
    ("e8", experiment_lowe_fix);
    ("e9", experiment_osip_sweep);
    ("e10", experiment_parser_attack);
    ("e12", experiment_jobs_scaling);
    ("e13", experiment_accel_ablation);
    ("e14", experiment_coverage_trajectory);
    ("e15", experiment_exec_throughput);
    ("e16", experiment_shared_store);
    ("e17", experiment_campaign);
    ("e18", experiment_observability);
    ("e19", experiment_chaos_soak);
    ("a1", experiment_strategy_ablation);
    ("a2", experiment_solver_ablation);
    ("a3", experiment_packet_construction);
    ("a4", experiment_deep_path);
    ("timing", timing_benches) ]

let () =
  let rec parse = function
    | [] -> []
    | "--quick" :: rest ->
      quick := true;
      parse rest
    | "--json" :: file :: rest ->
      json_file := Some file;
      parse rest
    | [ "--json" ] ->
      prerr_endline "dart-bench: --json requires a file argument";
      exit 2
    | a :: rest -> a :: parse rest
  in
  let args = parse (List.tl (Array.to_list Sys.argv)) in
  let selected = if args = [] then List.map fst experiments else args in
  print_endline "DART reproduction benchmarks (see DESIGN.md for the experiment index)";
  if !quick then print_endline "[--quick mode: reduced budgets]";
  List.iter
    (fun id ->
      match List.assoc_opt id experiments with
      | Some f -> f ()
      | None -> Printf.eprintf "unknown experiment id %s\n" id)
    selected;
  Option.iter write_json !json_file
