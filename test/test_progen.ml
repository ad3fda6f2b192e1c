(* Random-program testing: the generator, round-trips, and the
   soundness of DART's bug witnesses (Theorem 1(a): every reported bug
   replays concretely). *)

let gen_at seed =
  let rng = Dart_util.Prng.create seed in
  Progen.generate rng

let test_generator_typechecks () =
  for seed = 0 to 199 do
    let ast = gen_at seed in
    match Minic.Typecheck.check ast with
    | _ -> ()
    | exception Minic.Typecheck.Error (loc, msg) ->
      Alcotest.failf "seed %d does not typecheck: %s: %s\n%s" seed
        (Minic.Loc.to_string loc) msg
        (Minic.Pretty.program_to_string ast)
  done

let test_generator_roundtrip () =
  (* The parser normalizes literal negations (it folds [-(-100)] to
     [100] even through parentheses), so the right round-trip property
     is idempotency after one normalization: parse(print(ast)) printed
     once and twice must agree. *)
  for seed = 0 to 99 do
    let ast = gen_at seed in
    let s1 = Minic.Pretty.program_to_string ast in
    let s2 = Minic.Pretty.program_to_string (Minic.Parser.parse_program s1) in
    let s3 = Minic.Pretty.program_to_string (Minic.Parser.parse_program s2) in
    if s2 <> s3 then Alcotest.failf "seed %d: print/parse not idempotent" seed
  done

let test_generator_deterministic () =
  let s1 = Progen.generate_source (Dart_util.Prng.create 5) in
  let s2 = Progen.generate_source (Dart_util.Prng.create 5) in
  Alcotest.(check string) "same seed, same program" s1 s2

let test_witness_replay_soundness () =
  (* Theorem 1(a): when DART reports a bug, replaying the recorded
     input vector concretely (no symbolic machinery, no solver) must
     reproduce a fault of the same kind. *)
  let replayed = ref 0 in
  for seed = 0 to 79 do
    let ast = gen_at seed in
    let prog = Dart.Driver.prepare ~toplevel:Progen.toplevel_name ~depth:1 ast in
    let options = Dart.Driver.Options.make ~max_runs:300 ~seed () in
    let report = Dart.Driver.run ~options prog in
    match report.Dart.Driver.verdict with
    | Dart.Driver.Bug_found bug ->
      incr replayed;
      let im = Dart.Inputs.create () in
      List.iter (fun (id, v) -> Dart.Inputs.set im ~id v) bug.Dart.Driver.bug_inputs;
      let opts = { Dart.Concolic.default_exec_options with symbolic = false } in
      let data =
        Dart.Concolic.run_once ~opts
          ~rng:(Dart_util.Prng.create 0) (* must not matter: all inputs recorded *)
          ~im ~prev_stack:[||] ~entry:Dart.Driver_gen.wrapper_name prog
      in
      (match data.Dart.Concolic.outcome with
       | Dart.Concolic.Run_fault (fault, _) ->
         if fault <> bug.Dart.Driver.bug_fault then
           Alcotest.failf "seed %d: witness replays a different fault (%s vs %s)" seed
             (Machine.fault_to_string fault)
             (Machine.fault_to_string bug.Dart.Driver.bug_fault)
       | Dart.Concolic.Run_halted ->
         Alcotest.failf "seed %d: witness does not reproduce the bug" seed
       | Dart.Concolic.Run_prediction_failure -> assert false)
    | Dart.Driver.Complete | Dart.Driver.Budget_exhausted
    | Dart.Driver.Time_exhausted | Dart.Driver.Interrupted -> ()
  done;
  (* The abort-injection probability makes bugs common; make sure the
     property was actually exercised. *)
  Alcotest.(check bool) (Printf.sprintf "replayed %d witnesses" !replayed) true (!replayed >= 10)

let test_dart_never_crashes_on_generated () =
  for seed = 200 to 279 do
    let ast = gen_at seed in
    let prog = Dart.Driver.prepare ~toplevel:Progen.toplevel_name ~depth:1 ast in
    let options = Dart.Driver.Options.make ~max_runs:200 ~seed () in
    match Dart.Driver.run ~options prog with
    | _ -> ()
    | exception e ->
      Alcotest.failf "seed %d: engine raised %s\n%s" seed (Printexc.to_string e)
        (Minic.Pretty.program_to_string ast)
  done

let suite =
  [ Alcotest.test_case "generated programs typecheck" `Quick test_generator_typechecks;
    Alcotest.test_case "generated programs roundtrip" `Quick test_generator_roundtrip;
    Alcotest.test_case "generator determinism" `Quick test_generator_deterministic;
    Alcotest.test_case "witness replay soundness" `Slow test_witness_replay_soundness;
    Alcotest.test_case "engine robustness" `Slow test_dart_never_crashes_on_generated ]
