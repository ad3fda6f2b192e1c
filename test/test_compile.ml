(* The compiled closure engine (Machine ~compile:true, the default)
   against the tree-walking interpreter: identical concolic run data on
   the workloads, byte-identical driver reports, correct runtime
   behaviour of compile-time constant folding, and the shared compile
   cache. *)

(* Everything [run_once] observes about one execution, with path
   constraints rendered to strings so the comparison is structural. *)
let digest_run (d : Dart.Concolic.run_data) =
  ( (match d.Dart.Concolic.outcome with
    | Dart.Concolic.Run_fault (f, s) ->
      Printf.sprintf "fault %s at %s:%d" (Machine.fault_tag f) s.Machine.site_fn
        s.Machine.site_pc
    | Dart.Concolic.Run_prediction_failure -> "prediction_failure"
    | Dart.Concolic.Run_halted -> "halted"),
    Array.to_list d.Dart.Concolic.stack,
    Array.to_list d.Dart.Concolic.path_constraint
    |> List.map (Option.map Symbolic.Constr.to_string),
    Array.to_list d.Dart.Concolic.cond_sites,
    d.Dart.Concolic.conditionals,
    d.Dart.Concolic.steps,
    ( d.Dart.Concolic.inputs_read,
      d.Dart.Concolic.all_linear,
      d.Dart.Concolic.all_locs_definite,
      d.Dart.Concolic.branch_sites ) )

(* Several fresh concolic runs from one deterministic PRNG stream: the
   two engines must produce the same digests run for run. *)
let concolic_digests ~compile ~runs ?(symbolic = true) prog =
  let opts = { Dart.Concolic.default_exec_options with symbolic; compile } in
  let rng = Dart_util.Prng.create 11 in
  let im = Dart.Inputs.create () in
  List.init runs (fun _ ->
      Dart.Inputs.clear im;
      digest_run
        (Dart.Concolic.run_once ~opts ~rng ~im ~prev_stack:[||]
           ~entry:Dart.Driver_gen.wrapper_name prog))

let check_concolic_identical ~name ?(depth = 1) ?(runs = 8) ~toplevel src =
  let prog = Dart.Driver.prepare ~toplevel ~depth (Minic.Parser.parse_program src) in
  let interp = concolic_digests ~compile:false ~runs prog in
  let compiled = concolic_digests ~compile:true ~runs prog in
  Alcotest.(check bool) (name ^ ": concolic runs identical") true (interp = compiled)

let test_workload_differentials () =
  let src, toplevel = Workloads.Paper_examples.ac_controller in
  check_concolic_identical ~name:"ac_controller" ~depth:2 ~toplevel src;
  check_concolic_identical ~name:"section_2_1"
    ~toplevel:(snd Workloads.Paper_examples.section_2_1)
    (fst Workloads.Paper_examples.section_2_1);
  check_concolic_identical ~name:"oSIP parser" ~toplevel:Workloads.Osip_sim.parser_toplevel
    Workloads.Osip_sim.parser_vulnerable;
  check_concolic_identical ~name:"SIP parser" ~toplevel:Workloads.Sip_parser.toplevel
    Workloads.Sip_parser.vulnerable;
  check_concolic_identical ~name:"NS protocol"
    ~toplevel:Workloads.Needham_schroeder.possibilistic_toplevel
    (Workloads.Needham_schroeder.possibilistic ~fix:`None)

(* End to end: the printed report of a whole directed search must not
   change by a byte when the engine switches. *)
let report_identity ~name ?(depth = 1) ?(max_runs = 200) ~toplevel src =
  let report compile =
    let exec = { Dart.Concolic.default_exec_options with compile } in
    let options = Dart.Driver.Options.make ~depth ~max_runs ~exec () in
    Dart.Driver.report_to_string (Dart.Driver.test_source ~options ~toplevel src)
  in
  Alcotest.(check string) (name ^ ": report bytes") (report false) (report true)

let test_report_identity () =
  let src, toplevel = Workloads.Paper_examples.ac_controller in
  report_identity ~name:"ac_controller" ~depth:2 ~toplevel src;
  report_identity ~name:"oSIP parser" ~toplevel:Workloads.Osip_sim.parser_toplevel
    Workloads.Osip_sim.parser_vulnerable;
  (* Full searches that keep every bug, at dartc's default budget. *)
  List.iter
    (fun ((file, _, _) as program) ->
      let report compile =
        Example_programs.report
          ~exec:{ Dart.Concolic.default_exec_options with compile } program
      in
      Alcotest.(check string) (file ^ " all bugs: report bytes") (report false) (report true))
    Example_programs.identity_programs

(* A constant division by zero folds to a raising closure, not a
   compile-time crash: the fault fires only if the statement is
   reached, at the same site as the interpreter's. *)
let test_folding_faults_at_runtime () =
  let src = "void f(int x) { if (x > 0) { int r = 10 / 0; } }" in
  let prog = Ram.Lower.lower_source src in
  (match Diff_engines.run ~args:[ 0 ] prog ~entry:"f" with
   | Machine.Halted, _ -> ()
   | Machine.Faulted _, _ -> Alcotest.fail "unreached constant division faulted");
  match Diff_engines.run ~args:[ 1 ] prog ~entry:"f" with
  | Machine.Faulted (Machine.Div_by_zero, _), _ -> ()
  | _ -> Alcotest.fail "reached constant division must fault"

(* Deep recursion: exercises frame push/pop switching in the compiled
   dispatch loop (and the O(depth) call-depth counter) well past any
   fused straight-line run. *)
let test_deep_recursion () =
  let src =
    "int result = 0;\n\
     int down(int n) { if (n == 0) return 7; return down(n - 1); }\n\
     void f(int n) { result = down(n); }"
  in
  let prog = Ram.Lower.lower_source src in
  let outcome, m = Diff_engines.run ~args:[ 400 ] prog ~entry:"f" in
  Alcotest.(check bool) "halted" true (outcome = Machine.Halted);
  match Machine.read_word m (Machine.global_addr m "result") with
  | Ok v -> Alcotest.(check int) "value through 400 frames" 7 v
  | Error _ -> Alcotest.fail "result unreadable"

(* Goto fusion interacts with the step budget: an infinite loop of
   pure jumps must still exhaust the budget, identically under both
   engines (checked by Diff_engines, including the step count). *)
let test_goto_cycle_step_limit () =
  let config = { Machine.default_config with step_limit = 777 } in
  let prog = Ram.Lower.lower_source "void f() { while (1) { } }" in
  match Diff_engines.run ~config prog ~entry:"f" with
  | Machine.Faulted (Machine.Step_limit, _), _ -> ()
  | _ -> Alcotest.fail "expected step-limit fault"

let test_cache_and_flag () =
  let prog = Ram.Lower.lower_source "void f(int x) { if (x > 0) { } }" in
  Machine.precompile prog;
  let m1 = Machine.load prog in
  let m2 = Machine.load prog in
  Alcotest.(check bool) "default is compiled" true
    (Machine.is_compiled m1 && Machine.is_compiled m2);
  let m3 = Machine.load ~compile:false prog in
  Alcotest.(check bool) "~compile:false loads the interpreter" false (Machine.is_compiled m3);
  (* A structurally equal but physically distinct program compiles on
     its own cache entry; behaviour stays put. *)
  let prog' = Ram.Lower.lower_source "void f(int x) { if (x > 0) { } }" in
  let outcome, _ = Diff_engines.run ~args:[ 1 ] prog' ~entry:"f" in
  Alcotest.(check bool) "fresh program runs" true (outcome = Machine.Halted)

(* Shapes without a superinstruction run through the generic arms:
   Diff_engines' fixture, on arguments that hit both directions of its
   conditions and wrap its arithmetic. *)
let test_generic_paths () =
  let prog = Ram.Lower.lower_source Diff_engines.generic_paths_fixture in
  List.iter
    (fun args ->
      match Diff_engines.run ~args prog ~entry:"shapes" with
      | Machine.Halted, _ -> ()
      | Machine.Faulted (f, _), _ ->
        Alcotest.failf "fixture faulted: %s" (Machine.fault_to_string f))
    [ [ 0; 0; 0 ]; [ 3; 5; 1 ]; [ 5; 3; 2 ]; [ -7; 4; 3 ]; [ 2147483647; -2147483648; 5 ] ]

let suite =
  [ Alcotest.test_case "workload differentials" `Quick test_workload_differentials;
    Alcotest.test_case "driver report identity" `Quick test_report_identity;
    Alcotest.test_case "folding faults at runtime" `Quick test_folding_faults_at_runtime;
    Alcotest.test_case "deep recursion" `Quick test_deep_recursion;
    Alcotest.test_case "goto cycle hits step limit" `Quick test_goto_cycle_step_limit;
    Alcotest.test_case "cache and engine flag" `Quick test_cache_and_flag;
    Alcotest.test_case "generic paths against the interpreter" `Quick test_generic_paths ]
