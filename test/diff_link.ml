(* Identity suite for linked preparation: every target of a library is
   prepared twice, by [Driver.link] against the library lowered once
   and by [Prepare_ref.prepare] from the whole source, and the two
   programs must be the same. Every function prints the same and is
   the same record, the function table iterates in the same order (so
   [dartc --dump-ram] prints alike), and the external interface (in
   order: the typechecker sorts it by name, so the driver's
   [__dart_argN] prototypes land among the library's own), the
   interned strings and the globals are equal. A linked program shares
   the library's lowered functions rather than copies of them. Run on
   the compiled engine from the same random inputs, both programs end
   in the same outcome after the same number of steps. *)

open Dart

(* A library with the parts the driver's stub must fit between: external
   functions and an extern variable whose names sort on both sides of
   [__dart_argN], a target with more than ten parameters (so
   [__dart_arg10] sorts before [__dart_arg2]), a string literal, a
   struct, an enum and an initialized global. *)
let externals_lib =
  {|
struct pt { int x; int y; };
enum mode { OFF, ON = 4 };
extern int level;
int sensor();
int Reading(int k);
int hist[4] = {1, 2, 3};

int probe(int k) {
  char *s = "probe";
  if (sensor() > k + ON) return s[1];
  return Reading(k) + level + hist[2];
}

int wide(int a0, int a1, int a2, int a3, int a4, int a5, int a6, int a7, int a8, int a9,
         int a10, int a11) {
  if (a11 > a0 + a10) abort();
  return a2 + a9;
}

void touch(struct pt *p, char c) {
  if (p != 0 && c == 'x') { p->x = OFF; }
}
|}

let libraries () =
  [ ("osip_library.mc", Example_programs.read "osip_library.mc");
    ("Osip_sim seed 7 n 16", fst (Workloads.Osip_sim.generate ~seed:7 ~n:16));
    ("externals", externals_lib) ]
  @ List.map
      (fun f -> (f, Example_programs.read f))
      [ "split.mc"; "churn.mc"; "mix.mc"; "walk.mc"; "gate.mc" ]

let funcs_in_order (p : Ram.Instr.program) =
  List.rev (Hashtbl.fold (fun name _ acc -> name :: acc) p.Ram.Instr.funcs [])

let run_inputs prog ~seed =
  let data =
    Concolic.run_once
      ~opts:{ Concolic.default_exec_options with Concolic.symbolic = false }
      ~rng:(Dart_util.Prng.create seed) ~im:(Inputs.create ()) ~prev_stack:[||]
      ~entry:Driver_gen.wrapper_name prog
  in
  (Concolic.outcome_to_string data.Concolic.outcome, data.Concolic.outcome, data.Concolic.steps)

let check_target ~name ~lib ast ~toplevel ~depth =
  let what = Printf.sprintf "%s: %s depth %d" name toplevel depth in
  let linked = Driver.link lib ~toplevel ~depth in
  let oracle = Prepare_ref.prepare ~toplevel ~depth ast in
  let base =
    match linked.Ram.Instr.linked_from with
    | Some base -> base
    | None -> Alcotest.failf "%s: the linked program records no library" what
  in
  Alcotest.(check (list string)) (what ^ ": function table order") (funcs_in_order oracle)
    (funcs_in_order linked);
  Hashtbl.iter
    (fun fname (f : Ram.Instr.func) ->
      let g = Hashtbl.find linked.Ram.Instr.funcs fname in
      Alcotest.(check string) (what ^ ": " ^ fname) (Ram.Instr.func_to_string f)
        (Ram.Instr.func_to_string g);
      if f <> g then Alcotest.failf "%s: %s differs beyond its code" what fname;
      match Hashtbl.find_opt base.Ram.Instr.funcs fname with
      | Some b when b != g -> Alcotest.failf "%s: %s is a copy of the library's" what fname
      | Some _ | None -> ())
    oracle.Ram.Instr.funcs;
  let sig_names l = List.map (fun (s : Minic.Tast.fsig) -> s.Minic.Tast.sig_name) l in
  Alcotest.(check (list string)) (what ^ ": externals in order")
    (sig_names oracle.Ram.Instr.externals) (sig_names linked.Ram.Instr.externals);
  if oracle.Ram.Instr.externals <> linked.Ram.Instr.externals then
    Alcotest.failf "%s: external signatures differ" what;
  Alcotest.(check (array string)) (what ^ ": strings") oracle.Ram.Instr.strings
    linked.Ram.Instr.strings;
  if oracle.Ram.Instr.globals <> linked.Ram.Instr.globals then
    Alcotest.failf "%s: globals differ" what;
  List.iter
    (fun seed ->
      let tag, o, steps = run_inputs oracle ~seed in
      let tag', o', steps' = run_inputs linked ~seed in
      let run = Printf.sprintf "%s: seed %d" what seed in
      Alcotest.(check string) (run ^ ": outcome") tag tag';
      if o <> o' then Alcotest.failf "%s: outcomes differ" run;
      Alcotest.(check int) (run ^ ": steps") steps steps')
    [ 1; 2; 3 ]

let test_linked_equals_whole_program () =
  List.iter
    (fun (name, src) ->
      let ast = Minic.Parser.parse_program src in
      let lib = Driver.lower_library ast in
      let targets, _ = Campaign.discover ast in
      if targets = [] then Alcotest.failf "%s: no targets" name;
      List.iter
        (fun toplevel ->
          List.iter (fun depth -> check_target ~name ~lib ast ~toplevel ~depth) [ 1; 2 ])
        targets)
    (libraries ())

(* A checked program is extended by functions only, and a new function
   may not reuse a name the program already gives meaning to. *)
let test_extend_rejects () =
  let base = Minic.Typecheck.check (Minic.Parser.parse_program externals_lib) in
  List.iter
    (fun decls ->
      match Minic.Typecheck.extend base (Minic.Parser.parse_program decls) with
      | _ -> Alcotest.failf "extended by %S" decls
      | exception Minic.Typecheck.Error _ -> ())
    [ "int g;";
      "struct q { int a; };";
      "enum e { A };";
      "int probe(int k) { return k; }";
      "int sensor() { return 1; }";
      "int sensor(int x);";
      "void f() { g(); }" ]

(* Linked code reuses the library's interned strings; a string the
   library lacks has no cell in its memory image, so it is refused. *)
let test_lower_extend_strings () =
  let typed = Minic.Typecheck.check (Minic.Parser.parse_program externals_lib) in
  let lowered = Ram.Lower.lower_program typed in
  let link decls =
    Ram.Lower.extend lowered (Minic.Typecheck.extend typed (Minic.Parser.parse_program decls))
  in
  let linked = link "int h() { char *s = \"probe\"; return s[0]; }" in
  Alcotest.(check bool) "library strings shared" true
    (linked.Ram.Instr.strings == lowered.Ram.Instr.strings);
  match link "int h() { char *s = \"fresh\"; return s[0]; }" with
  | _ -> Alcotest.fail "linked a new string"
  | exception Ram.Lower.Error _ -> ()

let suite =
  [ Alcotest.test_case "linked program = whole-program oracle" `Quick
      test_linked_equals_whole_program;
    Alcotest.test_case "extend rejects what it cannot link" `Quick test_extend_rejects;
    Alcotest.test_case "linked code shares the library's strings" `Quick
      test_lower_extend_strings ]
