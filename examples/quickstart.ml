(* Quickstart: the paper's introductory example (§2.1), end to end.

   DART needs no test driver or harness: point it at a program and a
   toplevel function. This example shows the three techniques in
   order: interface extraction, test-driver generation, and the
   directed search.

   Run with: dune exec examples/quickstart.exe *)

let source =
  {|
int f(int x) { return 2 * x; }

int h(int x, int y) {
  if (x != y)
    if (f(x) == x + 10)
      abort();
  return 0;
}
|}

let () =
  print_endline "=== Program under test ===";
  print_string source;
  (* Technique 1: interface extraction by static parsing. *)
  let ast = Minic.Parser.parse_program source in
  let typed = Minic.Typecheck.check ast in
  let interface = Dart.Interface.extract typed ~toplevel:"h" in
  print_endline "=== Extracted interface ===";
  print_string (Dart.Interface.to_string interface);
  (* Technique 2: the generated random test driver. *)
  print_endline "=== Generated test driver ===";
  print_string (Dart.Driver_gen.driver_source ast ~toplevel:"h" ~depth:1);
  (* Technique 3: directed automated random testing. *)
  print_endline "\n=== Directed search ===";
  let report = Dart.Driver.test_source ~toplevel:"h" source in
  print_endline (Dart.Driver.report_to_string report);
  (match report.Dart.Driver.verdict with
   | Dart.Driver.Bug_found bug ->
     print_endline "\nWitness input vector:";
     List.iter
       (fun (id, v) -> Printf.printf "  x%d = %d%s\n" id v (if v = 10 then "   (the solver forced f(x) = x + 10, i.e. x = 10)" else ""))
       bug.Dart.Driver.bug_inputs
   | Dart.Driver.Complete | Dart.Driver.Budget_exhausted
   | Dart.Driver.Time_exhausted | Dart.Driver.Interrupted -> ());
  (* Contrast with plain random testing, the same search with the
     symbolic shadow off: 2^-32 chance per run of hitting x = 10 after
     x != y. *)
  print_endline "\n=== Random-testing baseline (10,000 runs) ===";
  let options =
    Dart.Driver.Options.make ~max_runs:10_000
      ~exec:{ Dart.Concolic.default_exec_options with symbolic = false } ()
  in
  let r = Dart.Driver.test_source ~options ~toplevel:"h" source in
  print_endline (Dart.Driver.report_to_string r)
