(* Concrete execution: semantics of the RAM machine, every fault kind,
   the alloca failure model, and recursion. Every program goes through
   [Diff_engines.run], which executes it under both the interpreter and
   the compiled engine and asserts identical observable behaviour. *)

let run ?config ?(args = []) src ~entry =
  let prog = Ram.Lower.lower_source src in
  Diff_engines.run ?config ~args prog ~entry

(* Run [entry] with [args] and return the value left in a global named
   "result". *)
let run_result ?config ?(args = []) src ~entry =
  let src = "int result = 0;\n" ^ src in
  let prog = Ram.Lower.lower_source src in
  match Diff_engines.run ?config ~args prog ~entry with
  | Machine.Halted, m ->
    (match Machine.read_word m (Machine.global_addr m "result") with
     | Ok v -> v
     | Error _ -> Alcotest.fail "result unreadable")
  | Machine.Faulted (f, site), _ ->
    Alcotest.failf "unexpected fault: %s at %s" (Machine.fault_to_string f)
      site.Machine.site_fn

let expect_fault ?config ?(args = []) src ~entry expected =
  let outcome, _ = run ?config ~args src ~entry in
  match outcome with
  | Machine.Faulted (f, _) when f = expected -> ()
  | Machine.Faulted (f, _) ->
    Alcotest.failf "wrong fault: got %s, wanted %s" (Machine.fault_to_string f)
      (Machine.fault_to_string expected)
  | Machine.Halted -> Alcotest.fail "expected a fault but the run halted"

let test_arithmetic () =
  Alcotest.(check int) "sum" 15
    (run_result ~args:[ 5 ] "void f(int n) { int i; for (i = 1; i <= n; i++) result += i; }"
       ~entry:"f");
  Alcotest.(check int) "division trunc" (-3)
    (run_result ~args:[ -7; 2 ] "void f(int a, int b) { result = a / b; }" ~entry:"f");
  Alcotest.(check int) "modulo" 1
    (run_result ~args:[ 7; 2 ] "void f(int a, int b) { result = a % b; }" ~entry:"f");
  Alcotest.(check int) "wraparound" (-2147483648)
    (run_result ~args:[ 2147483647 ] "void f(int x) { result = x + 1; }" ~entry:"f");
  Alcotest.(check int) "ternary" 10
    (run_result ~args:[ 1 ] "void f(int c) { result = c ? 10 : 20; }" ~entry:"f")

let test_short_circuit_semantics () =
  (* The right operand of && must not run when the left is false: here
     it would divide by zero. *)
  Alcotest.(check int) "and skips rhs" 0
    (run_result ~args:[ 0 ] "void f(int x) { result = (x != 0 && 10 / x > 0); }" ~entry:"f");
  Alcotest.(check int) "or skips rhs" 1
    (run_result ~args:[ 5 ] "void f(int x) { result = (x == 5 || 10 / 0 > 0); }" ~entry:"f")

let test_recursion () =
  Alcotest.(check int) "factorial" 120
    (run_result ~args:[ 5 ]
       "int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); } void f(int n) { result = fact(n); }"
       ~entry:"f");
  Alcotest.(check int) "fib" 55
    (run_result ~args:[ 10 ]
       "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } void f(int n) { result = fib(n); }"
       ~entry:"f")

let test_pointers_and_structs () =
  Alcotest.(check int) "swap via pointers" 1
    (run_result
       {|
void swap(int *a, int *b) { int t; t = *a; *a = *b; *b = t; }
void f() {
  int x = 1;
  int y = 2;
  swap(&x, &y);
  if (x == 2 && y == 1) result = 1;
}
|}
       ~entry:"f");
  Alcotest.(check int) "struct fields" 30
    (run_result
       {|
struct pair { int a; int b; };
void f() {
  struct pair p;
  p.a = 10;
  p.b = 20;
  result = p.a + p.b;
}
|}
       ~entry:"f");
  Alcotest.(check int) "heap list" 6
    (run_result
       {|
struct cell { int v; struct cell *next; };
void f() {
  struct cell *a = (struct cell *)malloc(sizeof(struct cell));
  struct cell *b = (struct cell *)malloc(sizeof(struct cell));
  a->v = 2; b->v = 4;
  a->next = b; b->next = NULL;
  struct cell *p = a;
  while (p != NULL) { result += p->v; p = p->next; }
}
|}
       ~entry:"f")

let test_arrays () =
  Alcotest.(check int) "array sum" 60
    (run_result
       {|
void f() {
  int a[3];
  int i;
  a[0] = 10; a[1] = 20; a[2] = 30;
  for (i = 0; i < 3; i++) result += a[i];
}
|}
       ~entry:"f");
  Alcotest.(check int) "2d array" 7
    (run_result
       {|
void f() {
  int m[2][3];
  m[1][2] = 7;
  result = m[1][2];
}
|}
       ~entry:"f");
  Alcotest.(check int) "pointer arithmetic" 20
    (run_result
       {|
void f() {
  int a[3];
  int *p;
  a[0] = 10; a[1] = 20;
  p = a;
  result = *(p + 1);
}
|}
       ~entry:"f")

let test_strings () =
  Alcotest.(check int) "string literal chars" 1
    (run_result
       {|
void f() {
  char *s = "AB";
  if (s[0] == 'A' && s[1] == 'B' && s[2] == 0) result = 1;
}
|}
       ~entry:"f")

let test_globals () =
  Alcotest.(check int) "global init and update" 8
    (run_result "int g = 3; void f() { g = g + 5; result = g; }" ~entry:"f");
  Alcotest.(check int) "global array zero-filled" 0
    (run_result "int arr[4]; void f() { result = arr[2]; }" ~entry:"f")

let test_initializer_lists () =
  Alcotest.(check int) "local array init" 60
    (run_result
       {|
void f() {
  int a[3] = { 10, 20, 30 };
  result = a[0] + a[1] + a[2];
}
|}
       ~entry:"f");
  Alcotest.(check int) "short list zero-fills" 10
    (run_result "void f() { int a[4] = { 10 }; result = a[0] + a[1] + a[2] + a[3]; }"
       ~entry:"f");
  Alcotest.(check int) "global array init" 111
    (run_result "int tab[4] = { 1, 10, 100 };\nvoid f() { result = tab[0] + tab[1] + tab[2] + tab[3]; }"
       ~entry:"f");
  Alcotest.(check int) "char array init" 1
    (run_result
       "void f() { char sep[3] = { ' ', ',', 0 }; if (sep[0] == 32 && sep[1] == 44 && sep[2] == 0) result = 1; }"
       ~entry:"f")

let test_switch_semantics () =
  let src = {|
void f(int msg) {
  switch (msg) {
  case 1:
  case 2:
    result = 100;
    break;
  case 7:
    result = 7;
    /* fallthrough */
  case 8:
    result = result + 10;
    break;
  default:
    result = -1;
  }
}
|} in
  Alcotest.(check int) "case 1" 100 (run_result ~args:[ 1 ] src ~entry:"f");
  Alcotest.(check int) "case 2 shares body" 100 (run_result ~args:[ 2 ] src ~entry:"f");
  Alcotest.(check int) "case 7 falls through" 17 (run_result ~args:[ 7 ] src ~entry:"f");
  Alcotest.(check int) "case 8 alone" 10 (run_result ~args:[ 8 ] src ~entry:"f");
  Alcotest.(check int) "default" (-1) (run_result ~args:[ 42 ] src ~entry:"f");
  (* switch without default falls out *)
  let src2 = "void f(int m) { switch (m) { case 1: result = 5; break; } }" in
  Alcotest.(check int) "no default, no match" 0 (run_result ~args:[ 9 ] src2 ~entry:"f");
  (* break binds to switch, continue passes through to the loop *)
  let src3 = {|
void f(int n) {
  int i;
  for (i = 0; i < 5; i++) {
    switch (i) {
    case 2:
      continue;
    case 3:
      break;
    default:
      result = result + 1;
    }
    result = result + 10;
  }
}
|} in
  (* i=0,1,4: default +1 then +10; i=2: continue (nothing); i=3: break out of switch then +10 *)
  Alcotest.(check int) "switch/loop interaction" 43 (run_result ~args:[ 0 ] src3 ~entry:"f")

(* An explicit cast and every implicit conversion into a [char] keep
   the low 8 bits: 511 becomes 255 and 300 becomes 44. *)
let test_char_cast () =
  Alcotest.(check int) "cast truncates to byte" 1
    (run_result "void f() { int big = 511; result = ((char)big == 255); }" ~entry:"f");
  let check name src = Alcotest.(check int) name 44 (run_result src ~entry:"f") in
  check "assignment" "void f() { char c; c = 300; result = c; }";
  check "assignment of an int variable" "void f() { int x = 300; char c; c = x; result = c; }";
  check "local initialiser" "void f() { char c = 300; result = c; }";
  check "array initialiser" "void f() { char a[2] = {1, 300}; result = a[1]; }";
  check "argument" "int id(char c) { return c; } void f() { result = id(300); }";
  check "return" "char low(int v) { return v; } void f() { result = low(300); }";
  check "struct field" "struct s { char f; }; void f() { struct s v; v.f = 300; result = v.f; }";
  check "global initialiser" "char g = 300; void f() { result = g; }";
  check "global array initialiser" "char g[2] = {300, 556}; void f() { result = g[0] + g[1] - 44; }"

let test_fault_null_deref () =
  expect_fault "void f() { int *p = NULL; *p = 1; }" ~entry:"f" Machine.Null_deref

let test_fault_div_zero () =
  expect_fault ~args:[ 0 ] "void f(int x) { int r = 10 / x; }" ~entry:"f" Machine.Div_by_zero

let test_fault_abort () = expect_fault "void f() { abort(); }" ~entry:"f" Machine.Abort

let test_fault_assert () =
  expect_fault ~args:[ 0 ] "void f(int x) { assert(x == 1); }" ~entry:"f" Machine.Abort;
  let outcome, _ = run ~args:[ 1 ] "void f(int x) { assert(x == 1); }" ~entry:"f" in
  Alcotest.(check bool) "assert passes" true (outcome = Machine.Halted)

let test_assume_halts () =
  let outcome, _ = run ~args:[ 0 ] "void f(int x) { assume(x == 1); abort(); }" ~entry:"f" in
  Alcotest.(check bool) "assume failure halts silently" true (outcome = Machine.Halted);
  expect_fault ~args:[ 1 ] "void f(int x) { assume(x == 1); abort(); }" ~entry:"f"
    Machine.Abort

let test_fault_uninitialized () =
  expect_fault "void f() { int x; int y = x + 1; }" ~entry:"f" Machine.Uninitialized_read;
  expect_fault "void f() { int *p = (int *)malloc(1); int v = *p; }" ~entry:"f"
    Machine.Uninitialized_read

let test_fault_use_after_free () =
  expect_fault "void f() { int *p = (int *)malloc(1); *p = 5; free(p); int v = *p; }"
    ~entry:"f" Machine.Invalid_deref

let test_fault_double_free () =
  expect_fault "void f() { int *p = (int *)malloc(1); free(p); free(p); }" ~entry:"f"
    Machine.Bad_free;
  expect_fault "void f() { int x; free(&x); }" ~entry:"f" Machine.Bad_free;
  let outcome, _ = run "void f() { free(NULL); }" ~entry:"f" in
  Alcotest.(check bool) "free(NULL) ok" true (outcome = Machine.Halted)

let test_fault_heap_overflow () =
  expect_fault "void f() { int *p = (int *)malloc(2); p[2] = 1; }" ~entry:"f"
    Machine.Invalid_deref

let test_fault_step_limit () =
  let config = { Machine.default_config with step_limit = 1000 } in
  expect_fault ~config "void f() { while (1) { } }" ~entry:"f" Machine.Step_limit

let test_fault_call_depth () =
  expect_fault "int f(int n) { return f(n + 1); } void g() { int r = f(0); }" ~entry:"g"
    Machine.Call_depth

let test_fault_missing_return () =
  expect_fault ~args:[ 0 ]
    "int f(int x) { if (x > 0) return 1; } void g(int x) { int r = f(x); }" ~entry:"g"
    Machine.Missing_return

let test_dangling_stack_pointer () =
  expect_fault
    {|
int *leak() { int local = 5; return &local; }
void f() { int *p = leak(); int v = *p; }
|}
    ~entry:"f" Machine.Invalid_deref

let test_alloca_model () =
  (* Small request succeeds; request beyond the stack limit returns
     NULL — the behaviour behind the paper's oSIP parser attack. *)
  Alcotest.(check int) "small alloca ok" 1
    (run_result
       "void f() { char *p = (char *)alloca(16); if (p != NULL) { p[0] = 'x'; result = 1; } }"
       ~entry:"f");
  let config = { Machine.default_config with stack_limit = 4096 } in
  Alcotest.(check int) "huge alloca returns NULL" 1
    (run_result ~config
       "void f() { char *p = (char *)alloca(1000000); if (p == NULL) result = 1; }"
       ~entry:"f");
  Alcotest.(check int) "negative alloca returns NULL" 1
    (run_result "void f() { char *p = (char *)alloca(-5); if (p == NULL) result = 1; }"
       ~entry:"f")

let test_malloc_edge_cases () =
  Alcotest.(check int) "malloc negative is NULL" 1
    (run_result "void f() { void *p = malloc(-1); if (p == NULL) result = 1; }" ~entry:"f");
  Alcotest.(check int) "malloc(0) non-NULL" 1
    (run_result "void f() { void *p = malloc(0); if (p != NULL) result = 1; }" ~entry:"f");
  expect_fault "void f() { int *p = (int *)malloc(0); int v = *p; }" ~entry:"f"
    Machine.Invalid_deref

let test_library_call () =
  let src = "int lib_inc(int x);\nint result = 0;\nvoid f(int x) { result = lib_inc(x); }" in
  let ast = Minic.Parser.parse_program src in
  let lib_sig =
    { Minic.Tast.sig_name = "lib_inc"; sig_ret = Minic.Ctype.Tint; sig_params = [ Minic.Ctype.Tint ] }
  in
  let tp = Minic.Typecheck.check ~library:[ lib_sig ] ast in
  let prog = Ram.Lower.lower_program tp in
  let library = [ ("lib_inc", fun _ args -> match args with [ x ] -> x + 1 | _ -> 0) ] in
  let outcome, m = Diff_engines.run ~library ~args:[ 41 ] prog ~entry:"f" in
  (match outcome with
   | Machine.Halted -> ()
   | Machine.Faulted _ -> Alcotest.fail "library call faulted");
  (match Machine.read_word m (Machine.global_addr m "result") with
   | Ok v -> Alcotest.(check int) "lib_inc(41)" 42 v
   | Error _ -> Alcotest.fail "no result")

let test_single_shot () =
  let prog = Ram.Lower.lower_source "void f() { }" in
  let m = Machine.load prog in
  ignore (Machine.run ~args:[] m ~entry:"f");
  Alcotest.(check bool) "second run rejected" true
    (try
       ignore (Machine.run ~args:[] m ~entry:"f");
       false
     with Invalid_argument _ -> true)

let test_steps_counted () =
  let prog = Ram.Lower.lower_source "void f() { int i; for (i = 0; i < 10; i++) { } }" in
  let m = Machine.load prog in
  ignore (Machine.run ~args:[] m ~entry:"f");
  Alcotest.(check bool) "steps > 20" true (Machine.steps m > 20);
  Alcotest.(check int) "11 branch evaluations" 11 (Machine.branch_count m)

let suite =
  [ Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "short-circuit semantics" `Quick test_short_circuit_semantics;
    Alcotest.test_case "recursion" `Quick test_recursion;
    Alcotest.test_case "pointers and structs" `Quick test_pointers_and_structs;
    Alcotest.test_case "arrays" `Quick test_arrays;
    Alcotest.test_case "strings" `Quick test_strings;
    Alcotest.test_case "globals" `Quick test_globals;
    Alcotest.test_case "initializer lists" `Quick test_initializer_lists;
    Alcotest.test_case "switch semantics" `Quick test_switch_semantics;
    Alcotest.test_case "char cast" `Quick test_char_cast;
    Alcotest.test_case "fault: NULL deref" `Quick test_fault_null_deref;
    Alcotest.test_case "fault: division by zero" `Quick test_fault_div_zero;
    Alcotest.test_case "fault: abort" `Quick test_fault_abort;
    Alcotest.test_case "fault: assert" `Quick test_fault_assert;
    Alcotest.test_case "assume halts" `Quick test_assume_halts;
    Alcotest.test_case "fault: uninitialized read" `Quick test_fault_uninitialized;
    Alcotest.test_case "fault: use after free" `Quick test_fault_use_after_free;
    Alcotest.test_case "fault: double free" `Quick test_fault_double_free;
    Alcotest.test_case "fault: heap overflow" `Quick test_fault_heap_overflow;
    Alcotest.test_case "fault: step limit" `Quick test_fault_step_limit;
    Alcotest.test_case "fault: call depth" `Quick test_fault_call_depth;
    Alcotest.test_case "fault: missing return" `Quick test_fault_missing_return;
    Alcotest.test_case "fault: dangling stack pointer" `Quick test_dangling_stack_pointer;
    Alcotest.test_case "alloca failure model" `Quick test_alloca_model;
    Alcotest.test_case "malloc edge cases" `Quick test_malloc_edge_cases;
    Alcotest.test_case "library call" `Quick test_library_call;
    Alcotest.test_case "machines are single-shot" `Quick test_single_shot;
    Alcotest.test_case "step accounting" `Quick test_steps_counted ]
