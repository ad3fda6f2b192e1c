(* Differential harness: execute a program under both the tree-walking
   interpreter and the compiled closure engine and require identical
   observable behaviour — outcome, step count, branch trace, and the
   full final memory. [Test_machine] routes every program it runs
   through here, so each machine-semantics fixture doubles as a
   compiler-correctness fixture. *)

type observation = {
  outcome : string;
  steps : int;
  branch_count : int;
  branches : (string * int * bool) list; (* chronological (fn, pc, taken) *)
  memory : (int * int option) list;
}

let outcome_to_string = function
  | Machine.Halted -> "halted"
  | Machine.Faulted (f, s) ->
    Printf.sprintf "fault %s at %s:%d" (Machine.fault_to_string f) s.Machine.site_fn
      s.Machine.site_pc

let observe ~compile ?config ?library ?args prog ~entry =
  let m = Machine.load ?config ?library ~compile prog in
  let branches = ref [] in
  let listener =
    { Machine.null_listener with
      Machine.on_branch =
        (fun _ ~cond:_ ~base:_ ~taken ~site ->
          branches := (site.Machine.site_fn, site.Machine.site_pc, taken) :: !branches) }
  in
  let outcome = Machine.run ?args ~listener m ~entry in
  ( { outcome = outcome_to_string outcome;
      steps = Machine.steps m;
      branch_count = Machine.branch_count m;
      branches = List.rev !branches;
      memory = Machine.memory_snapshot m },
    outcome,
    m )

let check_equal (interp : observation) (compiled : observation) =
  Alcotest.(check string) "outcome (interp vs compiled)" interp.outcome compiled.outcome;
  Alcotest.(check int) "step count" interp.steps compiled.steps;
  Alcotest.(check int) "branch count" interp.branch_count compiled.branch_count;
  Alcotest.(check (list (triple string int bool))) "branch trace" interp.branches
    compiled.branches;
  Alcotest.(check bool) "final memory" true (interp.memory = compiled.memory)

(* Run under both engines, check them against each other, and return
   the compiled run's outcome and machine (so callers can inspect
   memory exactly as they would after a plain [Machine.run]). *)
let run ?config ?library ?args prog ~entry =
  let interp, _, _ = observe ~compile:false ?config ?library ?args prog ~entry in
  let compiled, outcome, m = observe ~compile:true ?config ?library ?args prog ~entry in
  check_equal interp compiled;
  (outcome, m)

(* A fixture for the compiled engine's generic arms: no shape below has
   a superinstruction (DESIGN.md, "Compiled execution engine"), so
   running it under [run] holds those arms to the interpreter.
   Conditions cover every comparison operator in an [if], a [while], a
   [||], an [assert] and a [switch], over frame slots, constants, a
   field and an indexed element. Field [g] sits at offset 1, so [p->g]
   lowers to a load from [p + 1]. *)
let generic_paths_fixture =
  let ops = [ "<"; "<="; ">"; ">="; "=="; "!=" ] in
  let per_op op =
    (* [lo] is 1 and [hi] is 2, so each assertion holds. *)
    let l, r, k =
      match op with
      | ">" | ">=" -> ("hi", "lo", 0)
      | "==" -> ("lo", "lo", 1)
      | _ -> ("lo", "hi", 2)
    in
    String.concat "\n"
      [ Printf.sprintf "  if (a %s b) s = s + 1;" op;
        Printf.sprintf "  if (a %s 3) s = s + 2;" op;
        Printf.sprintf "  n = 0; while (n %s b) { n = n + 1; if (n > 5) break; } s = s + n;" op;
        Printf.sprintf "  if (p->g %s 1 || buf[i] %s 0) s = s + 4;" op op;
        Printf.sprintf "  if (buf[i] %s 0 || a %s 3) s = s + 32;" op op;
        Printf.sprintf "  assert(%s %s %s); assert(lo %s %d);" l op r op k;
        Printf.sprintf "  switch (a %s b) { case 0: s = s + 8; break; case 1: s = s + 16; break; }"
          op ]
  in
  String.concat "\n"
    ([ "struct cell { int f; int g; };";
       "int result;";
       "void shapes(int a, int b, int i) {";
       "  struct cell *p; int *buf; int x; int y; int s; int n; int lo; int hi;";
       "  p = (struct cell *)malloc(2);";
       "  buf = (int *)malloc(4);";
       "  buf[0] = 7; buf[1] = -3; buf[2] = 0; buf[3] = 2147483647;";
       "  i = i & 3; lo = 1; hi = 2; s = 0; assert(hi);";
       "  p->g = a - b;";
       "  x = -a; y = ~b; s = s + x + y;";
       "  x = y; x = a + b; s = s + x; x = a - 3; s = s + x; x = buf[i]; s = s + x;";
       "  s = s + (p->g < 5) + (p->g > -5) + (a != b) + (a - b) + (a * b) + (a * 3);";
       "  result = a - 3; result = a + 3; result = (a + 1) != (b + 2);" ]
    @ List.map per_op ops
    @ [ "  result = result + s;"; "}" ])
