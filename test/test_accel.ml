(* Solver acceleration layer: independence slicing of path constraints
   and the solve store. The key invariant throughout: both
   optimisations are *exact* — verdicts, bug sets and coverage must be
   identical with and without them. *)

open Zarith_lite

let zi = Zint.of_int

(* ---- cache canonicalisation -------------------------------------------------- *)

let c_eq v k =
  Symbolic.Constr.make
    (Symbolic.Linexpr.add_const (zi (-k)) (Symbolic.Linexpr.var v))
    Symbolic.Constr.Eq0

let c_le v k =
  Symbolic.Constr.make
    (Symbolic.Linexpr.add_const (zi (-k)) (Symbolic.Linexpr.var v))
    Symbolic.Constr.Le0

let key cs = (Solver.Cache.canonical cs).Solver.Cache.key
let same_key a b = Solver.Cache.Key.equal (key a) (key b)

let test_canonical_key () =
  let a = c_eq 0 10 and b = c_le 1 3 in
  Alcotest.(check bool) "order and duplicates ignored" true (same_key [ a; b ] [ b; a; b; a ]);
  Alcotest.(check int) "hash agrees"
    (Solver.Cache.Key.hash (key [ a; b ]))
    (Solver.Cache.Key.hash (key [ b; a; b; a ]));
  Alcotest.(check bool) "different set, different key" false (same_key [ a; b ] [ a; c_le 1 4 ])

(* Regression: syntactically different spellings of the same constraint
   set must canonicalise to the same key — commuted term order, scaled
   coefficients, Lt-vs-Le spelling and variable renaming all used to
   produce distinct keys (and therefore spurious cache misses). *)
let test_canonical_key_normalises () =
  let lx terms k =
    List.fold_left
      (fun acc (v, c) ->
        Symbolic.Linexpr.add acc (Symbolic.Linexpr.scale (zi c) (Symbolic.Linexpr.var v)))
      (Symbolic.Linexpr.const (zi k)) terms
  in
  let mk terms k op = Symbolic.Constr.make (lx terms k) op in
  (* Commuted equations: a - b = 0 and b - a = 0. *)
  Alcotest.(check bool) "a-b=0 equals b-a=0" true
    (same_key [ mk [ (0, 1); (1, -1) ] 0 Symbolic.Constr.Eq0 ]
       [ mk [ (1, 1); (0, -1) ] 0 Symbolic.Constr.Eq0 ]);
  (* Scaled inequalities: 2a - 4 <= 0 and a - 2 <= 0. *)
  Alcotest.(check bool) "2a<=4 equals a<=2" true
    (same_key [ mk [ (0, 2) ] (-4) Symbolic.Constr.Le0 ]
       [ mk [ (0, 1) ] (-2) Symbolic.Constr.Le0 ]);
  (* Integer Lt/Le spelling: a - 3 < 0 and a - 2 <= 0. *)
  Alcotest.(check bool) "a<3 equals a<=2" true
    (same_key [ mk [ (0, 1) ] (-3) Symbolic.Constr.Lt0 ]
       [ mk [ (0, 1) ] (-2) Symbolic.Constr.Le0 ]);
  (* Variable renaming: x5 = 10 alone is the same shape as x0 = 10. *)
  Alcotest.(check bool) "x5=10 equals x0=10" true (same_key [ c_eq 5 10 ] [ c_eq 0 10 ]);
  (* ... but renaming respects sharing: {x0=1, x0<=2} is not {x0=1, x1<=2}. *)
  Alcotest.(check bool) "shared var distinguishes" false
    (same_key [ c_eq 0 1; c_le 0 2 ] [ c_eq 0 1; c_le 1 2 ]);
  (* Negated disequalities: a - b != 0 and b - a != 0. *)
  Alcotest.(check bool) "a<>b equals b<>a" true
    (same_key [ mk [ (0, 1); (1, -1) ] 0 Symbolic.Constr.Ne0 ]
       [ mk [ (1, 1); (0, -1) ] 0 Symbolic.Constr.Ne0 ])

(* ---- solve store ------------------------------------------------------------- *)

(* Renamed hits must hand back models over the *caller's* variables,
   not the canonical ones — also for the worker that published. *)
let test_cache_renamed_model () =
  let st = Solver.Store.create ~workers:1 in
  Solver.Store.publish st ~worker:0 (Solver.Cache.canonical [ c_eq 0 10 ])
    (Solver.Cache.Sat [ (0, zi 10) ]);
  match Solver.Store.lookup st (Solver.Cache.canonical [ c_eq 7 10 ]) with
  | Solver.Store.Hit (Solver.Cache.Sat [ (7, z) ], 0) ->
    Alcotest.(check int) "model remapped to x7" 10 (Zint.to_int z)
  | Solver.Store.Hit _ -> Alcotest.fail "hit with wrong model shape"
  | _ -> Alcotest.fail "renamed query missed"

(* A solo store is a plain memo of Sat models and Unsat verdicts. *)
let test_cache_roundtrip () =
  let st = Solver.Store.create ~workers:1 in
  let keyed = Solver.Cache.canonical [ c_eq 0 10 ] in
  (match Solver.Store.lookup st keyed with
   | Solver.Store.Miss -> ()
   | _ -> Alcotest.fail "miss on empty");
  Solver.Store.publish st ~worker:0 keyed (Solver.Cache.Sat [ (0, zi 10) ]);
  (match Solver.Store.lookup st (Solver.Cache.canonical [ c_eq 0 10 ]) with
   | Solver.Store.Hit (Solver.Cache.Sat [ (0, z) ], 0) ->
     Alcotest.(check int) "model value" 10 (Zint.to_int z)
   | _ -> Alcotest.fail "expected cached Sat model");
  let ukeyed = Solver.Cache.canonical [ c_eq 0 1; c_eq 0 2 ] in
  Solver.Store.publish st ~worker:0 ukeyed Solver.Cache.Unsat;
  (match Solver.Store.lookup st ukeyed with
   | Solver.Store.Hit (Solver.Cache.Unsat, 0) -> ()
   | _ -> Alcotest.fail "unsat cached");
  Alcotest.(check int) "two entries" 2 (Solver.Store.length st)

let test_shared_store_protocol () =
  let st = Solver.Store.create ~workers:3 in
  let k = Solver.Cache.canonical [ c_eq 0 10 ] in
  (* An unsolved key is a miss for every worker: there is no claim, a
     peer solves it locally and never waits. *)
  List.iter
    (fun _ ->
      match Solver.Store.lookup st k with
      | Solver.Store.Miss -> ()
      | _ -> Alcotest.fail "unsolved key must miss")
    [ 0; 1 ];
  Alcotest.(check int) "a miss stores nothing" 0 (Solver.Store.length st);
  Solver.Store.publish st ~worker:0 k (Solver.Cache.Sat [ (0, zi 10) ]);
  Alcotest.(check int) "one solved cell" 1 (Solver.Store.length st);
  (* A renamed spelling of the same query hits, carries the publisher's
     id, and the model comes back over the caller's variables. *)
  (match Solver.Store.lookup st (Solver.Cache.canonical [ c_eq 3 10 ]) with
   | Solver.Store.Hit (Solver.Cache.Sat [ (3, z) ], 0) ->
     Alcotest.(check int) "model remapped" 10 (Zint.to_int z)
   | _ -> Alcotest.fail "expected a renamed hit published by worker 0");
  (* First publisher wins: a late conflicting publish is a no-op. *)
  Solver.Store.publish st ~worker:1 k Solver.Cache.Unsat;
  (match Solver.Store.lookup st k with
   | Solver.Store.Hit (Solver.Cache.Sat _, 0) -> ()
   | _ -> Alcotest.fail "first published verdict must stand");
  Alcotest.(check int) "still one cell" 1 (Solver.Store.length st)

(* ---- slicing: dependency closure --------------------------------------------- *)

let lin terms k =
  List.fold_left
    (fun acc (v, c) ->
      Symbolic.Linexpr.add acc (Symbolic.Linexpr.scale (zi c) (Symbolic.Linexpr.var v)))
    (Symbolic.Linexpr.const (zi k)) terms

let test_slice_components () =
  (* pivot over x0; prefix has one constraint chained to x0 through x1
     and one constraint over an unrelated x9. *)
  let pivot = c_eq 0 1 in
  let chain01 = Symbolic.Constr.make (lin [ (0, 1); (1, -1) ] 0) Symbolic.Constr.Le0 in
  let alone9 = c_le 9 5 in
  let kept, dropped = Slice_ref.slice ~pivot ~prefix:[ chain01; alone9 ] in
  Alcotest.(check int) "one constraint sliced away" 1 dropped;
  Alcotest.(check int) "pivot + chained kept" 2 (List.length kept);
  Alcotest.(check bool) "pivot kept first" true (Symbolic.Constr.equal (List.hd kept) pivot);
  Alcotest.(check bool) "unrelated dropped" true
    (not (List.exists (Symbolic.Constr.equal alone9) kept));
  (* Transitive closure: x0-x1, x1-x2 pulls the x2 constraint in. *)
  let chain12 = Symbolic.Constr.make (lin [ (1, 1); (2, -1) ] 0) Symbolic.Constr.Le0 in
  let kept, dropped =
    Slice_ref.slice ~pivot ~prefix:[ chain01; chain12; alone9; c_eq 2 7 ]
  in
  Alcotest.(check int) "only x9 dropped" 1 dropped;
  Alcotest.(check int) "closure kept" 4 (List.length kept)

(* Differential: the rollback slicer against a fresh union-find per
   query, on seeded random path constraints. The arrays mix missing
   entries, variable-free atoms (including ones whose terms cancel),
   repeated variables within one atom and variable-free pivots; each is
   queried at every candidate depth in descending, ascending and random
   order, so the slicer moves down, up and both ways. *)
let test_slicer_matches_reference () =
  let rng = Random.State.make [| 17 |] in
  let atom () =
    let terms =
      List.init (Random.State.int rng 4) (fun _ ->
          (Random.State.int rng 16, Random.State.int rng 5 - 2))
    in
    let rel = Symbolic.Constr.[| Eq0; Ne0; Le0; Lt0 |].(Random.State.int rng 4) in
    Symbolic.Constr.make (lin terms (Random.State.int rng 7 - 3)) rel
  in
  let shuffle a =
    for i = Array.length a - 1 downto 1 do
      let k = Random.State.int rng (i + 1) in
      let t = a.(i) in
      a.(i) <- a.(k);
      a.(k) <- t
    done;
    a
  in
  let free_pivots = ref 0 and dropping = ref 0 in
  for case = 1 to 300 do
    let pc =
      Array.init (Random.State.int rng 61) (fun _ ->
          if Random.State.int rng 5 = 0 then None else Some (atom ()))
    in
    let candidates =
      List.filter (fun j -> pc.(j) <> None) (List.init (Array.length pc) Fun.id)
    in
    let orders =
      [ ("descending", List.rev candidates);
        ("ascending", candidates);
        ("random", Array.to_list (shuffle (Array.of_list candidates))) ]
    in
    List.iter
      (fun (order, js) ->
        let slicer = Dart.Solve_pc.Slicer.create pc in
        List.iter
          (fun j ->
            let c = Option.get pc.(j) in
            let pivot = Symbolic.Constr.negate c in
            let prefix = List.filter_map (fun h -> pc.(h)) (List.init j Fun.id) in
            let ref_kept, ref_dropped = Slice_ref.slice ~pivot ~prefix in
            let kept, dropped = Dart.Solve_pc.Slicer.prefix slicer j in
            if Symbolic.Constr.vars c = [] then incr free_pivots;
            if ref_dropped > 0 then incr dropping;
            let label = Printf.sprintf "case %d, %s, depth %d" case order j in
            Alcotest.(check int) (label ^ ": dropped") ref_dropped dropped;
            Alcotest.(check bool) (label ^ ": kept, in order") true
              (List.equal Symbolic.Constr.equal (List.tl ref_kept) kept))
          js)
      orders
  done;
  Alcotest.(check bool) "variable-free pivots exercised" true (!free_pivots > 0);
  Alcotest.(check bool) "constraints sliced away" true (!dropping > 0)

let test_slice_preserves_im () =
  (* Flipping the deepest branch (over x1) must not disturb the
     unrelated x0, which stays at its IM value. *)
  let im = Dart.Inputs.create () in
  Dart.Inputs.set im ~id:0 5;
  Dart.Inputs.set im ~id:1 6;
  let stack =
    [| { Dart.Concolic.br_branch = true; br_done = false };
       { Dart.Concolic.br_branch = true; br_done = false } |]
  in
  let path_constraint = [| Some (c_eq 0 5); Some (c_eq 1 6) |] in
  let stats = Solver.create_stats () in
  let next =
    Dart.Solve_pc.solve ~slicing:true ~strategy:Dart.Strategy.Dfs
      ~rng:(Dart_util.Prng.create 1) ~stats ~im ~stack ~path_constraint ()
  in
  (match next with
   | Dart.Solve_pc.Next_run stack' ->
     Alcotest.(check int) "stack truncated to flip" 2 (Array.length stack');
     Alcotest.(check bool) "deepest flipped" false stack'.(1).Dart.Concolic.br_branch
   | Dart.Solve_pc.Exhausted _ -> Alcotest.fail "x1 <> 6 is satisfiable");
  Alcotest.(check (option int)) "x0 untouched" (Some 5) (Dart.Inputs.value_of im 0);
  (match Dart.Inputs.value_of im 1 with
   | Some v -> Alcotest.(check bool) "x1 re-solved away from 6" true (v <> 6)
   | None -> Alcotest.fail "x1 must be set");
  Alcotest.(check int) "prefix constraint sliced away" 1
    (Solver.constraints_sliced_away stats)

(* ---- end-to-end: ablation combos agree --------------------------------------- *)

let opts ?(depth = 1) ?(max_runs = 20_000) ?strategy ~use_slicing ~use_cache () =
  Dart.Driver.Options.make ~depth ~max_runs ?strategy ~use_slicing ~use_cache ()

let combos = [ (true, true); (true, false); (false, true); (false, false) ]

let run_combo ?depth ?max_runs ?strategy (src, toplevel) (use_slicing, use_cache) =
  Dart.Driver.test_source
    ~options:(opts ?depth ?max_runs ?strategy ~use_slicing ~use_cache ())
    ~toplevel src

let fingerprint (r : Dart.Driver.report) =
  let verdict =
    match r.Dart.Driver.verdict with
    | Dart.Driver.Bug_found _ -> "bug"
    | Dart.Driver.Complete -> "complete"
    | Dart.Driver.Budget_exhausted -> "budget"
    | Dart.Driver.Time_exhausted -> "time"
    | Dart.Driver.Interrupted -> "interrupted"
  in
  ( verdict,
    List.map Dart.Driver.bug_key r.Dart.Driver.bugs,
    List.sort compare r.Dart.Driver.coverage_sites )

let test_ablation_equivalence () =
  let nested =
    ({| void f(int a, int b) { if (a == 1) { if (b == 2) { if (a == 3) abort(); } } } |}, "f")
  in
  let step3 = ({| void step(int m) { if (m == 1) { m = 0; } } |}, "step") in
  let cases =
    [ ("2.1", Workloads.Paper_examples.section_2_1, 1);
      ("2.4", Workloads.Paper_examples.section_2_4, 1);
      ("ac", Workloads.Paper_examples.ac_controller, 2);
      ("eq", Workloads.Paper_examples.eq_filter, 1);
      ("nested", nested, 1);
      ("step3", step3, 3) ]
  in
  (* BFS and random-branch move the slicer up the path constraint and
     at random, where DFS only moves it down. They restart rather than
     finish, so they get a smaller run budget. *)
  let strategies = Dart.Strategy.[ (Dfs, 20_000); (Bfs, 2_000); (Random_branch, 2_000) ] in
  List.iter
    (fun (strategy, max_runs) ->
      List.iter
        (fun (name, case, depth) ->
          let run = run_combo ~depth ~max_runs ~strategy case in
          let reference = fingerprint (run (false, false)) in
          List.iter
            (fun combo ->
              let got = fingerprint (run combo) in
              let sl, ca = combo in
              Alcotest.(check bool)
                (Printf.sprintf "%s %s: slicing=%b cache=%b matches baseline" name
                   (Dart.Strategy.to_string strategy) sl ca)
                true (got = reference))
            combos)
        cases)
    strategies

let test_unsat_slicing_complete () =
  (* a == 3 under prefix a == 1 is Unsat; slicing must still prove it
     (the pivot's own component keeps the a-constraints) and DFS must
     terminate Complete, with the unrelated b-constraint sliced away. *)
  let src = {| void f(int a, int b) { if (a == 1) { if (b == 2) { if (a == 3) abort(); } } } |} in
  List.iter
    (fun use_slicing ->
      let options = opts ~use_slicing ~use_cache:false () in
      let r = Dart.Driver.test_source ~options ~toplevel:"f" src in
      (match r.Dart.Driver.verdict with
       | Dart.Driver.Complete -> ()
       | _ -> Alcotest.failf "slicing=%b: expected Complete" use_slicing);
      if use_slicing then
        Alcotest.(check bool) "some constraint sliced away" true
          (Solver.constraints_sliced_away r.Dart.Driver.solver_stats > 0))
    [ true; false ]

(* ---- cache effectiveness ------------------------------------------------------ *)

let test_cache_hits_and_query_reduction () =
  (* Depth-3 driver over independent per-call inputs: sibling subtrees
     re-issue the same sliced queries, so slicing + caching must
     answer some from the cache and reduce solver queries. *)
  let case = ({| void step(int m) { if (m == 1) { m = 0; } } |}, "step") in
  let accel = run_combo ~depth:3 case (true, true) in
  let plain = run_combo ~depth:3 case (false, false) in
  let qa = Solver.queries accel.Dart.Driver.solver_stats in
  let qp = Solver.queries plain.Dart.Driver.solver_stats in
  Alcotest.(check bool) "cache hits occurred" true
    (Solver.cache_hits accel.Dart.Driver.solver_stats > 0);
  Alcotest.(check bool)
    (Printf.sprintf "fewer queries with accel (%d < %d)" qa qp)
    true (qa < qp);
  (* With the cache on, every real solve was a recorded miss. *)
  Alcotest.(check int) "queries = cache misses" qa
    (Solver.cache_misses accel.Dart.Driver.solver_stats);
  (* Both runs explored the same 8 paths. *)
  Alcotest.(check int) "same paths" plain.Dart.Driver.paths_explored
    accel.Dart.Driver.paths_explored

let test_cache_determinism () =
  (* Bit-for-bit determinism with the cache on: identical reports from
     identical runs. *)
  let run () = run_combo ~depth:2 Workloads.Paper_examples.ac_controller (true, true) in
  let r1 = run () and r2 = run () in
  Alcotest.(check int) "same runs" r1.Dart.Driver.runs r2.Dart.Driver.runs;
  Alcotest.(check int) "same steps" r1.Dart.Driver.total_steps r2.Dart.Driver.total_steps;
  Alcotest.(check int) "same hits"
    (Solver.cache_hits r1.Dart.Driver.solver_stats)
    (Solver.cache_hits r2.Dart.Driver.solver_stats);
  Alcotest.(check bool) "same witness" true
    (match (r1.Dart.Driver.verdict, r2.Dart.Driver.verdict) with
     | Dart.Driver.Bug_found a, Dart.Driver.Bug_found b ->
       a.Dart.Driver.bug_inputs = b.Dart.Driver.bug_inputs
     | _ -> false)

let test_per_worker_caches () =
  (* The merged stats sum the per-worker counters, and jobs=1 with
     caching stays identical to the sequential driver. *)
  let src, toplevel = Workloads.Paper_examples.section_2_4 in
  let ast = Minic.Parser.parse_program src in
  let prog = Dart.Driver.prepare ~toplevel ~depth:1 ast in
  let base = Dart.Driver.Options.make ~max_runs:100 () in
  let seq = Dart.Driver.run ~options:base prog in
  let par1 = Dart.Parallel.run ~options:(Dart.Parallel.options ~jobs:1 base) prog in
  (* Structural equality would compare the wall-clock metrics records;
     the printed report carries everything deterministic. *)
  Alcotest.(check string) "jobs=1 report identical"
    (Dart.Driver.report_to_string seq)
    (Dart.Driver.report_to_string par1.Dart.Parallel.merged);
  let par4 = Dart.Parallel.run ~options:(Dart.Parallel.options ~jobs:4 base) prog in
  let merged_hits =
    List.fold_left
      (fun acc (w : Dart.Parallel.worker_report) ->
        acc + Solver.cache_hits w.Dart.Parallel.w_report.Dart.Driver.solver_stats)
      0 par4.Dart.Parallel.workers
  in
  Alcotest.(check int) "merged hits = sum of worker hits" merged_hits
    (Solver.cache_hits par4.Dart.Parallel.merged.Dart.Driver.solver_stats)

let suite =
  [ Alcotest.test_case "canonical key" `Quick test_canonical_key;
    Alcotest.test_case "canonical key normalisation" `Quick test_canonical_key_normalises;
    Alcotest.test_case "renamed cache hit" `Quick test_cache_renamed_model;
    Alcotest.test_case "cache roundtrip" `Quick test_cache_roundtrip;
    Alcotest.test_case "shared store protocol" `Quick test_shared_store_protocol;
    Alcotest.test_case "slice components" `Quick test_slice_components;
    Alcotest.test_case "slicer matches reference" `Quick test_slicer_matches_reference;
    Alcotest.test_case "slice preserves IM" `Quick test_slice_preserves_im;
    Alcotest.test_case "ablation equivalence" `Quick test_ablation_equivalence;
    Alcotest.test_case "unsat under slicing" `Quick test_unsat_slicing_complete;
    Alcotest.test_case "cache hits reduce queries" `Quick test_cache_hits_and_query_reduction;
    Alcotest.test_case "cache determinism" `Quick test_cache_determinism;
    Alcotest.test_case "per-worker caches" `Quick test_per_worker_caches ]
