(* The concolic executor: symbolic tracking across assignments, calls
   and returns; path constraints; prediction checking; completeness
   flags; random initialization of every C type. *)

open Symbolic

let run_first src ~toplevel ?(opts = Dart.Concolic.default_exec_options) ?(seed = 42) () =
  let ast = Minic.Parser.parse_program src in
  let prog = Dart.Driver.prepare ~toplevel ~depth:1 ast in
  let rng = Dart_util.Prng.create seed in
  let im = Dart.Inputs.create () in
  let data =
    Dart.Concolic.run_once ~opts ~rng ~im ~prev_stack:[||]
      ~entry:Dart.Driver_gen.wrapper_name prog
  in
  (data, im)

let constraint_strings (data : Dart.Concolic.run_data) =
  Array.to_list data.Dart.Concolic.path_constraint
  |> List.filter_map (Option.map Constr.to_string)

let test_pc_stack_parallel () =
  let data, _ = run_first "void f(int x) { if (x == 3) { } if (x > 5) { } }" ~toplevel:"f" () in
  Alcotest.(check int) "stack length = pc length"
    (Array.length data.Dart.Concolic.stack)
    (Array.length data.Dart.Concolic.path_constraint);
  Alcotest.(check int) "k matches" data.Dart.Concolic.conditionals
    (Array.length data.Dart.Concolic.stack)

let test_symbolic_conditions_collected () =
  let data, _ = run_first "void f(int x) { if (x == 3) { } }" ~toplevel:"f" () in
  (* Among the conditionals (driver loop + program), exactly one has a
     symbolic constraint: x == 3 (or its negation). *)
  Alcotest.(check int) "one symbolic constraint" 1 (List.length (constraint_strings data))

let test_interprocedural_tracking () =
  (* The f(x) == x+10 pattern from §2.1: the constraint must mention
     2*x, i.e. symbolic values flow through the call and the return. *)
  let data, _ =
    run_first "int dbl(int x) { return 2 * x; } void f(int x) { if (dbl(x) == x + 10) { } }"
      ~toplevel:"f" ()
  in
  match constraint_strings data with
  | [ s ] ->
    (* The normalized constraint is (2x) - (x+10) rel 0 = x - 10 rel 0. *)
    Alcotest.(check bool) ("mentions x: " ^ s) true (Str_contains.contains s "x")
  | l -> Alcotest.failf "expected one constraint, got %d" (List.length l)

let test_nonlinear_fallback () =
  let data, _ = run_first "void f(int x, int y) { if (x * y == 12) { } }" ~toplevel:"f" () in
  Alcotest.(check bool) "all_linear cleared" false data.Dart.Concolic.all_linear;
  Alcotest.(check int) "no constraint for nonlinear branch" 0
    (List.length (constraint_strings data))

let test_linear_multiplication_kept () =
  let data, _ = run_first "void f(int x) { if (3 * x == 12) { } }" ~toplevel:"f" () in
  Alcotest.(check bool) "const*x stays linear" true data.Dart.Concolic.all_linear;
  Alcotest.(check int) "constraint collected" 1 (List.length (constraint_strings data))

let test_division_fallback () =
  let data, _ = run_first "void f(int x) { if (x / 2 == 3) { } }" ~toplevel:"f" () in
  Alcotest.(check bool) "division clears all_linear" false data.Dart.Concolic.all_linear

let test_shift_linear () =
  let data, _ = run_first "void f(int x) { if (x << 2 == 12) { } }" ~toplevel:"f" () in
  Alcotest.(check bool) "x << const stays linear" true data.Dart.Concolic.all_linear;
  Alcotest.(check int) "constraint collected" 1 (List.length (constraint_strings data))

let test_bitnot_linear () =
  let data, _ = run_first "void f(int x) { if (~x == -4) { } }" ~toplevel:"f" () in
  Alcotest.(check bool) "bitnot stays linear" true data.Dart.Concolic.all_linear;
  Alcotest.(check int) "constraint collected" 1 (List.length (constraint_strings data))

let test_symbolic_deref_fallback () =
  (* Dereference through an input-dependent address: all_locs_definite
     is cleared (paper Figure 1). The guarded index needs the directed
     search to be reached, so run the full driver and inspect the
     aggregated flags. *)
  let report =
    Dart.Driver.test_source
      ~options:(Dart.Driver.Options.make ~max_runs:50 ())
      ~toplevel:"f"
      "int g[10]; void f(int i) { if (i >= 0) { if (i < 10) { int v = g[i]; } } }"
  in
  Alcotest.(check bool) "all_locs_definite cleared" false report.Dart.Driver.all_locs_definite

let test_pointer_coin_flag () =
  let data, _ =
    run_first "struct s { int a; }; void f(struct s *p) { }" ~toplevel:"f" ()
  in
  Alcotest.(check bool) "pointer input voids completeness" false
    data.Dart.Concolic.all_locs_definite;
  let data, _ = run_first "void f(int x) { }" ~toplevel:"f" () in
  Alcotest.(check bool) "scalar-only program keeps it" true
    data.Dart.Concolic.all_locs_definite

let test_self_referential_store () =
  (* h = h->next must evaluate its source against pre-store memory; a
     regression here crashes immediately (this was a real bug found
     during bring-up). *)
  let src =
    {|
struct cell { int v; struct cell *next; };
int len(struct cell *h) {
  int n = 0;
  while (h != NULL) { n = n + 1; h = h->next; }
  return n;
}
|}
  in
  for seed = 0 to 30 do
    let data, _ = run_first src ~toplevel:"len" ~seed () in
    match data.Dart.Concolic.outcome with
    | Dart.Concolic.Run_fault (f, _) ->
      Alcotest.failf "walker crashed (seed %d): %s" seed (Machine.fault_to_string f)
    | Dart.Concolic.Run_halted | Dart.Concolic.Run_prediction_failure -> ()
  done

let test_library_clears_linear () =
  let src = "int lib_hash(int x);\nvoid f(int x) { if (lib_hash(x) == 7) { } }" in
  let ast = Minic.Parser.parse_program src in
  let prog =
    Dart.Driver.prepare ~library_sigs:[ Workloads.Paper_examples.lib_hash_sig ] ~toplevel:"f"
      ~depth:1 ast
  in
  let opts =
    { Dart.Concolic.default_exec_options with
      library = [ ("lib_hash", Workloads.Paper_examples.lib_hash_impl) ] }
  in
  let data =
    Dart.Concolic.run_once ~opts ~rng:(Dart_util.Prng.create 1) ~im:(Dart.Inputs.create ())
      ~prev_stack:[||] ~entry:Dart.Driver_gen.wrapper_name prog
  in
  Alcotest.(check bool) "library on symbolic arg clears all_linear" false
    data.Dart.Concolic.all_linear

let test_inputs_persist_and_replay () =
  (* Same IM => same path: stack of run 2 must equal stack of run 1
     when predictions are passed back. *)
  let src = "void f(int x) { if (x > 100) { if (x > 1000) { } } }" in
  let ast = Minic.Parser.parse_program src in
  let prog = Dart.Driver.prepare ~toplevel:"f" ~depth:1 ast in
  let rng = Dart_util.Prng.create 9 in
  let im = Dart.Inputs.create () in
  let opts = Dart.Concolic.default_exec_options in
  let entry = Dart.Driver_gen.wrapper_name in
  let d1 = Dart.Concolic.run_once ~opts ~rng ~im ~prev_stack:[||] ~entry prog in
  (* Replay with the full stack as prediction: all must match. *)
  let d2 = Dart.Concolic.run_once ~opts ~rng ~im ~prev_stack:d1.Dart.Concolic.stack ~entry prog in
  Alcotest.(check bool) "no prediction failure" true
    (d2.Dart.Concolic.outcome <> Dart.Concolic.Run_prediction_failure);
  Alcotest.(check int) "same number of conditionals" d1.Dart.Concolic.conditionals
    d2.Dart.Concolic.conditionals

let test_prediction_failure_detected () =
  (* Forge a wrong prediction: flip the branch without changing inputs. *)
  let src = "void f(int x) { if (x > 100) { } }" in
  let ast = Minic.Parser.parse_program src in
  let prog = Dart.Driver.prepare ~toplevel:"f" ~depth:1 ast in
  let rng = Dart_util.Prng.create 9 in
  let im = Dart.Inputs.create () in
  let opts = Dart.Concolic.default_exec_options in
  let entry = Dart.Driver_gen.wrapper_name in
  let d1 = Dart.Concolic.run_once ~opts ~rng ~im ~prev_stack:[||] ~entry prog in
  let forged =
    Array.map
      (fun (r : Dart.Concolic.branch_record) ->
        { r with Dart.Concolic.br_branch = not r.Dart.Concolic.br_branch })
      d1.Dart.Concolic.stack
  in
  let d2 = Dart.Concolic.run_once ~opts ~rng ~im ~prev_stack:forged ~entry prog in
  Alcotest.(check bool) "prediction failure" true
    (d2.Dart.Concolic.outcome = Dart.Concolic.Run_prediction_failure)

let test_randinit_types () =
  (* Structs, nested arrays, chars and pointers all get initialized:
     the program reads every field and must not hit uninitialized
     memory. *)
  let src =
    {|
struct inner { char tag; int data[3]; };
struct outer { int id; struct inner in; struct outer *next; };
int consume(struct outer *o) {
  int acc = 0;
  while (o != NULL) {
    acc = acc + o->id + o->in.tag + o->in.data[0] + o->in.data[1] + o->in.data[2];
    o = o->next;
  }
  return acc;
}
|}
  in
  for seed = 0 to 30 do
    let data, _ = run_first src ~toplevel:"consume" ~seed () in
    match data.Dart.Concolic.outcome with
    | Dart.Concolic.Run_fault (f, _) ->
      Alcotest.failf "randinit left a hole (seed %d): %s" seed (Machine.fault_to_string f)
    | Dart.Concolic.Run_halted | Dart.Concolic.Run_prediction_failure -> ()
  done

let test_char_inputs_in_range () =
  let _, im = run_first "char env_char(); void f(int n) { char c = env_char(); }" ~toplevel:"f" () in
  List.iter
    (fun (id, v) ->
      match Dart.Inputs.kind_of im id with
      | Some Dart.Inputs.Kchar ->
        if v < 0 || v > 255 then Alcotest.failf "char input out of range: %d" v
      | Some Dart.Inputs.Kcoin ->
        if v <> 0 && v <> 1 then Alcotest.failf "coin out of range: %d" v
      | Some Dart.Inputs.Kint | None -> ())
    (Dart.Inputs.to_alist im)

let test_symbolic_pointers_extension () =
  (* With the extension on, the NULL/non-NULL coin becomes a stack
     entry with a constraint the search can flip. *)
  let opts = { Dart.Concolic.default_exec_options with symbolic_pointers = true } in
  let data, _ =
    run_first "struct s { int a; }; void f(struct s *p) { }" ~toplevel:"f" ~opts ()
  in
  Alcotest.(check bool) "coin branch recorded" true
    (List.length (constraint_strings data) >= 1)

let test_external_pointer_function () =
  (* An external function returning a pointer: Figure 8's rules build a
     NULL or a fresh recursively-initialized object at call time. *)
  let src = {|
struct node { int v; struct node *next; };
struct node *get_node();
int use(int k) {
  struct node *n = get_node();
  int sum = 0;
  while (n != NULL) {
    sum = sum + n->v;
    n = n->next;
  }
  return sum;
}
|} in
  for seed = 0 to 20 do
    let data, _ = run_first src ~toplevel:"use" ~seed () in
    match data.Dart.Concolic.outcome with
    | Dart.Concolic.Run_fault (f, _) ->
      Alcotest.failf "external pointer init broke (seed %d): %s" seed
        (Machine.fault_to_string f)
    | Dart.Concolic.Run_halted | Dart.Concolic.Run_prediction_failure -> ()
  done

let test_depth_input_ordering () =
  (* With depth 2, the second call's argument is a distinct input. *)
  let src = "void f(int x) { if (x == 5) { } }" in
  let ast = Minic.Parser.parse_program src in
  let prog = Dart.Driver.prepare ~toplevel:"f" ~depth:2 ast in
  let im = Dart.Inputs.create () in
  let data =
    Dart.Concolic.run_once ~opts:Dart.Concolic.default_exec_options
      ~rng:(Dart_util.Prng.create 3) ~im ~prev_stack:[||]
      ~entry:Dart.Driver_gen.wrapper_name prog
  in
  ignore data;
  Alcotest.(check int) "two inputs consumed" 2 (List.length (Dart.Inputs.to_alist im))

let test_external_variables_initialized () =
  let data, _ =
    run_first "extern int config; void f(int x) { if (config == 5) { } }" ~toplevel:"f" ()
  in
  (match data.Dart.Concolic.outcome with
   | Dart.Concolic.Run_fault (f, _) ->
     Alcotest.failf "extern read faulted: %s" (Machine.fault_to_string f)
   | _ -> ());
  (* config is an input: the branch on it must carry a constraint. *)
  Alcotest.(check int) "constraint on extern var" 1 (List.length (constraint_strings data))

(* ---- run resume ------------------------------------------------------------- *)

(* Every field of a run's data: constraints through [Constr.equal],
   coverage as a set. *)
let same_run (a : Dart.Concolic.run_data) (b : Dart.Concolic.run_data) =
  let open Dart.Concolic in
  a.outcome = b.outcome && a.stack = b.stack
  && Array.length a.path_constraint = Array.length b.path_constraint
  && Array.for_all2 (Option.equal Constr.equal) a.path_constraint b.path_constraint
  && a.cond_sites = b.cond_sites && a.conditionals = b.conditionals && a.steps = b.steps
  && a.inputs_read = b.inputs_read && a.all_linear = b.all_linear
  && a.all_locs_definite = b.all_locs_definite
  && List.sort compare a.branch_sites = List.sort compare b.branch_sites

(* The first [runs] runs of a depth-first search as [Driver.search]
   walks it: solve after a halt or fault, restart from fresh inputs
   after a prediction failure, a resource-limited run or an exhausted
   tree. *)
let search_runs ?store ~opts ~runs prog =
  let rng = Dart_util.Prng.create 5 in
  let im = Dart.Inputs.create () in
  let stats = Solver.create_stats () in
  let rec go n prev_stack acc =
    if n = 0 then List.rev acc
    else begin
      let d =
        Dart.Concolic.run_once ?store ~opts ~rng ~im ~prev_stack
          ~entry:Dart.Driver_gen.wrapper_name prog
      in
      let restart () =
        Dart.Inputs.clear im;
        go (n - 1) [||] (d :: acc)
      in
      match d.Dart.Concolic.outcome with
      | Dart.Concolic.Run_prediction_failure
      | Dart.Concolic.Run_fault ((Machine.Step_limit | Machine.Call_depth), _) ->
        restart ()
      | Dart.Concolic.Run_fault _ | Dart.Concolic.Run_halted ->
        (match
           Dart.Solve_pc.solve ~strategy:Dart.Strategy.Dfs ~rng ~stats ~im
             ~stack:d.Dart.Concolic.stack ~path_constraint:d.Dart.Concolic.path_constraint ()
         with
         | Dart.Solve_pc.Next_run stack -> go (n - 1) stack (d :: acc)
         | Dart.Solve_pc.Exhausted _ -> restart ())
    end
  in
  go runs [||] []

(* A search with a snapshot store must produce the same runs as one
   without, on both engines, and its snapshots must copy at most 16
   cells per step (the runs' reported steps bound the steps they
   executed); returns the resumed-run count (summed over the engines)
   and the runs. *)
let check_resume_identical ~name ?(opts = Dart.Concolic.default_exec_options) ~runs ~depth
    ~toplevel src =
  let prog = Dart.Driver.prepare ~toplevel ~depth (Minic.Parser.parse_program src) in
  List.fold_left
    (fun (resumed, _) compile ->
      let opts = { opts with Dart.Concolic.compile } in
      let full = search_runs ~opts ~runs prog in
      let store = Dart.Concolic.create_store () in
      let resumed_runs = search_runs ~store ~opts ~runs prog in
      List.iteri
        (fun i (a, b) ->
          if not (same_run a b) then
            Alcotest.failf "%s (compile %b): run %d differs when resumed" name compile (i + 1))
        (List.combine full resumed_runs);
      let steps = List.fold_left (fun n d -> n + d.Dart.Concolic.steps) 0 full in
      let copied = Dart.Concolic.copied store in
      if copied > 16 * steps then
        Alcotest.failf "%s (compile %b): snapshots copied %d cells over %d steps" name compile
          copied steps;
      (resumed + Dart.Concolic.resumed store, full))
    (0, []) [ true; false ]

let check_resumed name resumed =
  Alcotest.(check bool) (Printf.sprintf "%s: %d runs resumed" name resumed) true (resumed > 0)

let test_resume_differential () =
  let ns = "NS Dolev-Yao d3" in
  check_resumed ns
    (fst
       (check_resume_identical ~name:ns ~runs:300 ~depth:3
          ~toplevel:Workloads.Needham_schroeder.dolev_yao_toplevel
          (Workloads.Needham_schroeder.dolev_yao ~fix:`Correct)));
  let osip = "oSIP fixed parser d1" in
  check_resumed osip
    (fst
       (check_resume_identical ~name:osip ~runs:200 ~depth:1
          ~toplevel:Workloads.Osip_sim.parser_toplevel Workloads.Osip_sim.parser_fixed));
  let ac_src, ac_top = Workloads.Paper_examples.ac_controller in
  check_resumed "ac_controller d2"
    (fst (check_resume_identical ~name:"ac_controller" ~runs:100 ~depth:2 ~toplevel:ac_top ac_src));
  (* [g] carries one call's input into the next call's first branch,
     and two branches on each call's own input make the search resume
     from the last call's snapshot twice in a row: a second resume
     from a snapshot whose symbolic memory the first one changed reads
     the wrong expression for [g]. The loop spaces the calls out past
     the snapshot spacing. *)
  let carry =
    "int g; void f(int x) { int i = 0; while (i < 8) { i = i + 1; } \
     if (g == 7) { } if (x > 10) { } if (x > 20) { } g = x; }"
  in
  check_resumed "global carry d3"
    (fst (check_resume_identical ~name:"global carry" ~runs:60 ~depth:3 ~toplevel:"f" carry));
  (* Every run maps a 65,536-cell global table and reads an input per
     loop iteration: a snapshot at each spaced read would copy the
     table hundreds of times per run, far past the 16 cells per step
     that [check_resume_identical] allows. *)
  let table =
    "int table[65536]; int read_byte(); \
     void scan(int n) { int acc = 0; \
     for (int i = 0; i < 1000; i = i + 1) { \
     int c = read_byte(); table[i] = c; if (c == i) { acc = acc + 1; } } }"
  in
  check_resumed "large memory d1"
    (fst (check_resume_identical ~name:"large memory" ~runs:12 ~depth:1 ~toplevel:"scan" table))

let test_resume_store_reuse () =
  (* A store filled under one program or options record must not
     resume a run under another: a restore rebuilds the snapshot's own
     machine. [b] agrees with [a] up to the last call's snapshot and
     records one more branch after it; the step limit makes the same
     inputs fault where [a]'s options halt. *)
  let src tail =
    Printf.sprintf
      "int g; void f(int x) { int i = 0; while (i < 8) { i = i + 1; } \
       if (g == 7) { } g = x; %s }"
      tail
  in
  let prepare tail =
    Dart.Driver.prepare ~toplevel:"f" ~depth:3 (Minic.Parser.parse_program (src tail))
  in
  let a = prepare "" and b = prepare "if (x > 20) { }" in
  let rng = Dart_util.Prng.create 3 in
  let im = Dart.Inputs.create () in
  let opts = Dart.Concolic.default_exec_options in
  let run ?store ~opts prog prev_stack =
    Dart.Concolic.run_once ?store ~opts ~rng ~im ~prev_stack ~entry:Dart.Driver_gen.wrapper_name
      prog
  in
  let store = Dart.Concolic.create_store () in
  let first = run ~store ~opts a [||] in
  let stack = first.Dart.Concolic.stack in
  let check what ~opts:other prog =
    let full = run ~opts:other prog stack in
    ignore (run ~store ~opts a stack);
    let before = Dart.Concolic.resumed store in
    let d = run ~store ~opts:other prog stack in
    if not (same_run full d) then Alcotest.failf "%s differs when run with a stale store" what;
    Alcotest.(check int) (what ^ ": nothing resumed") before (Dart.Concolic.resumed store)
  in
  check "another program" ~opts b;
  let limited =
    { opts with
      Dart.Concolic.machine_config =
        { opts.Dart.Concolic.machine_config with
          Machine.step_limit = first.Dart.Concolic.steps - 1 } }
  in
  check "another options record" ~opts:limited a;
  (* Control: the same program and options do resume, once a run
     under them has refilled the store. *)
  ignore (run ~store ~opts a stack);
  let before = Dart.Concolic.resumed store in
  ignore (run ~store ~opts a stack);
  Alcotest.(check int) "same program and options resume" (before + 1)
    (Dart.Concolic.resumed store)

let test_resume_differential_pointers () =
  (* Under the extension the pointer coins are pseudo-branches recorded
     inside [rand_init], i.e. after the snapshot of the call that draws
     them. *)
  let opts = { Dart.Concolic.default_exec_options with symbolic_pointers = true } in
  let list_src, list_top = Workloads.Paper_examples.list_example in
  check_resumed "list shapes d2"
    (fst
       (check_resume_identical ~name:"list shapes" ~opts ~runs:150 ~depth:2 ~toplevel:list_top
          list_src));
  check_resumed "walk d3"
    (fst
       (check_resume_identical ~name:"walk" ~opts ~runs:150 ~depth:3 ~toplevel:"osip_list_find"
          (Example_programs.read "walk.mc")));
  let resumed = ref 0 in
  for seed = 0 to 11 do
    let src = Progen.generate_source (Dart_util.Prng.create seed) in
    let r, _ =
      check_resume_identical ~name:(Printf.sprintf "progen seed %d" seed) ~opts ~runs:40
        ~depth:2 ~toplevel:Progen.toplevel_name src
    in
    resumed := !resumed + r
  done;
  check_resumed "progen" !resumed

let test_resume_replay () =
  (* Replays of a run's own inputs under stacks a search would never
     pass but a caller may: each prefix of the run's stack (a snapshot
     right after the prefix's last branch agrees with every prediction,
     but resuming there would skip confirming the flip and recording
     the branches beyond), the same inputs with every kind forged (a
     full run re-records the kinds it reads), and the prefix with its
     first direction flipped (a full run fails that prediction at
     once). Each replay follows one that left the prefix's snapshots. *)
  let src =
    "int g; void f(int x) { int i = 0; while (i < 8) { i = i + 1; } if (x > g) { } g = x; }"
  in
  let prog = Dart.Driver.prepare ~toplevel:"f" ~depth:3 (Minic.Parser.parse_program src) in
  let rng = Dart_util.Prng.create 3 in
  let im = Dart.Inputs.create () in
  let run ?store prev_stack =
    Dart.Concolic.run_once ?store ~opts:Dart.Concolic.default_exec_options ~rng ~im ~prev_stack
      ~entry:Dart.Driver_gen.wrapper_name prog
  in
  let store = Dart.Concolic.create_store () in
  let first = run ~store [||] in
  let image = Dart.Inputs.to_full_alist im in
  let forged = List.map (fun (id, v, _) -> (id, v, Dart.Inputs.Kchar)) image in
  let replay ?store ~inputs prev_stack =
    Dart.Inputs.restore im inputs;
    let d = run ?store prev_stack in
    (d, Dart.Inputs.to_full_alist im)
  in
  let check what ~inputs prev_stack =
    let full, im_full = replay ~inputs prev_stack in
    let resumed, im_resumed = replay ~store ~inputs prev_stack in
    if not (same_run full resumed && im_full = im_resumed) then
      Alcotest.failf "%s differs when resumed" what
  in
  for j = 1 to first.Dart.Concolic.conditionals do
    let prefix = Array.sub first.Dart.Concolic.stack 0 j in
    check (Printf.sprintf "replay of %d branches" j) ~inputs:image prefix;
    check (Printf.sprintf "replay of %d branches, kinds forged" j) ~inputs:forged prefix;
    check (Printf.sprintf "replay of %d branches" j) ~inputs:image prefix;
    let flipped = Array.copy prefix in
    let r = flipped.(0) in
    flipped.(0) <- { r with Dart.Concolic.br_branch = not r.Dart.Concolic.br_branch };
    check (Printf.sprintf "replay of %d branches, first flipped" j) ~inputs:image flipped
  done;
  check_resumed "prefix replays" (Dart.Concolic.resumed store)

let test_resume_after_prediction_failure () =
  (* [x * y > 0] is outside the linear theory, so forcing [y == 0]
     while keeping x can flip it: a prediction failure, after which
     the search restarts and the store must not resume a stale run. *)
  let src = "void f(int x, int y) { if (x * y > 0) { } if (y == 0) { } }" in
  let resumed, runs =
    check_resume_identical ~name:"prediction failure" ~runs:120 ~depth:3 ~toplevel:"f" src
  in
  check_resumed "prediction failure" resumed;
  Alcotest.(check bool) "a prediction failure happened" true
    (List.exists (fun d -> d.Dart.Concolic.outcome = Dart.Concolic.Run_prediction_failure) runs)

let suite =
  [ Alcotest.test_case "pc/stack parallel" `Quick test_pc_stack_parallel;
    Alcotest.test_case "symbolic conditions" `Quick test_symbolic_conditions_collected;
    Alcotest.test_case "interprocedural tracking" `Quick test_interprocedural_tracking;
    Alcotest.test_case "nonlinear fallback" `Quick test_nonlinear_fallback;
    Alcotest.test_case "const multiplication linear" `Quick test_linear_multiplication_kept;
    Alcotest.test_case "division fallback" `Quick test_division_fallback;
    Alcotest.test_case "shift by const linear" `Quick test_shift_linear;
    Alcotest.test_case "bitnot linear" `Quick test_bitnot_linear;
    Alcotest.test_case "symbolic deref fallback" `Quick test_symbolic_deref_fallback;
    Alcotest.test_case "pointer coin flag" `Quick test_pointer_coin_flag;
    Alcotest.test_case "self-referential store" `Quick test_self_referential_store;
    Alcotest.test_case "library clears all_linear" `Quick test_library_clears_linear;
    Alcotest.test_case "replay stability" `Quick test_inputs_persist_and_replay;
    Alcotest.test_case "prediction failure" `Quick test_prediction_failure_detected;
    Alcotest.test_case "randinit covers all types" `Quick test_randinit_types;
    Alcotest.test_case "input ranges by kind" `Quick test_char_inputs_in_range;
    Alcotest.test_case "symbolic pointers extension" `Quick test_symbolic_pointers_extension;
    Alcotest.test_case "external pointer function" `Quick test_external_pointer_function;
    Alcotest.test_case "depth input ordering" `Quick test_depth_input_ordering;
    Alcotest.test_case "external variables" `Quick test_external_variables_initialized;
    Alcotest.test_case "resume differential" `Quick test_resume_differential;
    Alcotest.test_case "resume differential: pointers" `Quick test_resume_differential_pointers;
    Alcotest.test_case "resume replays stack prefixes" `Quick test_resume_replay;
    Alcotest.test_case "resume after prediction failure" `Quick
      test_resume_after_prediction_failure;
    Alcotest.test_case "resume: stale store" `Quick test_resume_store_reuse ]
