(* The paper's evaluation workloads: Needham-Schroeder under both
   intruder models and fix levels, and the oSIP simulacrum. These are
   the same configurations the bench harness sweeps; here they run with
   reduced budgets as integration tests. *)

let options ?(depth = 1) ?(max_runs = 50_000) () =
  Dart.Driver.Options.make ~depth ~max_runs ()

(* Random testing: the directed search with the symbolic shadow off. *)
let random_exec = { Dart.Concolic.default_exec_options with symbolic = false }

let ns_poss ~fix ~depth ~max_runs =
  Dart.Driver.test_source
    ~options:(options ~depth ~max_runs ())
    ~toplevel:Workloads.Needham_schroeder.possibilistic_toplevel
    (Workloads.Needham_schroeder.possibilistic ~fix)

let ns_dy ~fix ~depth ~max_runs =
  Dart.Driver.test_source
    ~options:(options ~depth ~max_runs ())
    ~toplevel:Workloads.Needham_schroeder.dolev_yao_toplevel
    (Workloads.Needham_schroeder.dolev_yao ~fix)

let is_bug (r : Dart.Driver.report) =
  match r.Dart.Driver.verdict with Dart.Driver.Bug_found _ -> true | _ -> false

let is_complete (r : Dart.Driver.report) =
  match r.Dart.Driver.verdict with Dart.Driver.Complete -> true | _ -> false

let test_ns_possibilistic_depth1 () =
  let r = ns_poss ~fix:`None ~depth:1 ~max_runs:5_000 in
  Alcotest.(check bool) "complete" true (is_complete r);
  Alcotest.(check bool) "no bug" true (not (is_bug r))

let test_ns_possibilistic_depth2 () =
  let r = ns_poss ~fix:`None ~depth:2 ~max_runs:20_000 in
  Alcotest.(check bool) "attack found" true (is_bug r)

let test_ns_possibilistic_random_fails () =
  let ast =
    Minic.Parser.parse_program (Workloads.Needham_schroeder.possibilistic ~fix:`None)
  in
  let prog =
    Dart.Driver.prepare ~toplevel:Workloads.Needham_schroeder.possibilistic_toplevel
      ~depth:2 ast
  in
  let options =
    Dart.Driver.Options.make ~seed:17 ~max_runs:3_000 ~exec:random_exec ()
  in
  let r = Dart.Driver.run ~options prog in
  Alcotest.(check bool) "random cannot guess nonces" true
    (r.Dart.Driver.verdict = Dart.Driver.Budget_exhausted)

let test_ns_dolev_yao_depths () =
  (* Figure 10's shape: no error up to depth 3, error at depth 4, run
     counts growing with depth. *)
  let r1 = ns_dy ~fix:`None ~depth:1 ~max_runs:5_000 in
  let r2 = ns_dy ~fix:`None ~depth:2 ~max_runs:5_000 in
  let r3 = ns_dy ~fix:`None ~depth:3 ~max_runs:20_000 in
  Alcotest.(check bool) "depth1 complete, no bug" true (is_complete r1);
  Alcotest.(check bool) "depth2 complete, no bug" true (is_complete r2);
  Alcotest.(check bool) "depth3 complete, no bug" true (is_complete r3);
  Alcotest.(check bool) "growth 1->2" true (r2.Dart.Driver.runs > r1.Dart.Driver.runs);
  Alcotest.(check bool) "growth 2->3" true (r3.Dart.Driver.runs > r2.Dart.Driver.runs)

let test_ns_dolev_yao_attack_depth4 () =
  let r = ns_dy ~fix:`None ~depth:4 ~max_runs:100_000 in
  Alcotest.(check bool) "Lowe's attack found" true (is_bug r)

let test_ns_lowe_fix_story () =
  (* §4.2's anecdote: the incomplete fix is still attackable; the
     corrected fix closes the protocol. *)
  let buggy = ns_dy ~fix:`Buggy ~depth:4 ~max_runs:100_000 in
  Alcotest.(check bool) "buggy fix still attackable" true (is_bug buggy);
  let fixed = ns_dy ~fix:`Correct ~depth:4 ~max_runs:100_000 in
  Alcotest.(check bool) "correct fix closes it" true (is_complete fixed)

let test_osip_sweep_small () =
  let src, funcs = Workloads.Osip_sim.generate ~seed:3 ~n:25 in
  let crashed, missed_vuln, false_crash =
    List.fold_left
      (fun (c, mv, fc) (f : Workloads.Osip_sim.gen_func) ->
        let r =
          Dart.Driver.test_source
            ~options:(options ~depth:1 ~max_runs:400 ())
            ~toplevel:f.gf_toplevel src
        in
        let bug = is_bug r in
        ( (if bug then c + 1 else c),
          (if f.gf_vulnerable && not bug then mv + 1 else mv),
          if (not f.gf_vulnerable) && bug then fc + 1 else fc ))
      (0, 0, 0) funcs
  in
  Alcotest.(check int) "no false crashes" 0 false_crash;
  Alcotest.(check int) "no missed vulnerable function" 0 missed_vuln;
  Alcotest.(check bool) "crash rate in the paper's region" true
    (let rate = float_of_int crashed /. float_of_int (List.length funcs) in
     rate > 0.4 && rate < 0.9)

let test_osip_generator_determinism () =
  let s1, f1 = Workloads.Osip_sim.generate ~seed:12 ~n:30 in
  let s2, f2 = Workloads.Osip_sim.generate ~seed:12 ~n:30 in
  Alcotest.(check string) "same source" s1 s2;
  Alcotest.(check int) "same count" (List.length f1) (List.length f2);
  let s3, _ = Workloads.Osip_sim.generate ~seed:13 ~n:30 in
  Alcotest.(check bool) "seed changes output" true (s1 <> s3)

let test_osip_generated_compiles () =
  let src, funcs = Workloads.Osip_sim.generate ~seed:99 ~n:120 in
  (* Whole library typechecks and lowers with any toplevel. *)
  let ast = Minic.Parser.parse_program src in
  let first = List.hd funcs in
  ignore (Dart.Driver.prepare ~toplevel:first.Workloads.Osip_sim.gf_toplevel ~depth:1 ast)

let test_osip_parser_attack () =
  let r =
    Dart.Driver.test_source
      ~options:(options ~depth:1 ~max_runs:2_000 ())
      ~toplevel:Workloads.Osip_sim.parser_toplevel Workloads.Osip_sim.parser_vulnerable
  in
  (match r.Dart.Driver.verdict with
   | Dart.Driver.Bug_found b ->
     (* The attack is externally controllable: content_length is the
        only non-char input; the crash requires it out of safe range. *)
     let len = List.assoc 0 b.Dart.Driver.bug_inputs in
     Alcotest.(check bool) "attack length out of validated range" true
       (len < 0 || len > 4096)
   | _ -> Alcotest.fail "parser attack not found");
  let r =
    Dart.Driver.test_source
      ~options:(options ~depth:1 ~max_runs:2_000 ())
      ~toplevel:Workloads.Osip_sim.parser_toplevel Workloads.Osip_sim.parser_fixed
  in
  Alcotest.(check bool) "fixed parser survives" true (not (is_bug r))

let test_libc_prelude () =
  (* The prelude functions behave like their C counterparts. *)
  let src =
    Workloads.Libc_prelude.with_prelude
      {|
int result = 0;
void check() {
  char buf[8];
  mc_strcpy(buf, "abc");
  if (mc_strlen(buf) != 3) return;
  if (mc_strcmp(buf, "abc") != 0) return;
  if (mc_strcmp(buf, "abd") >= 0) return;
  if (mc_strncmp(buf, "abX", 2) != 0) return;
  if (mc_strchr(buf, 'c') != 2) return;
  if (mc_strchr(buf, 'z') != -1) return;
  if (mc_atoi("1234") != 1234) return;
  if (mc_atoi("x") != -1) return;
  if (mc_isdigit('5') == 0) return;
  if (mc_isalpha('5') != 0) return;
  mc_memset(buf, 'z', 3);
  if (buf[0] != 'z' || buf[2] != 'z') return;
  result = 1;
}
|}
  in
  let prog = Ram.Lower.lower_source src in
  let m = Machine.load prog in
  (match Machine.run ~args:[] m ~entry:"check" with
   | Machine.Halted -> ()
   | Machine.Faulted (f, _) -> Alcotest.failf "prelude faulted: %s" (Machine.fault_to_string f));
  (match Machine.read_word m (Machine.global_addr m "result") with
   | Ok 1 -> ()
   | Ok v -> Alcotest.failf "prelude checks failed (result=%d)" v
   | Error _ -> Alcotest.fail "no result")

let test_sip_packet_construction () =
  (* DART must synthesize "INVITE <big-id>" through the string
     routines; random testing with the same budget must not. *)
  let r =
    Dart.Driver.test_source
      ~options:(options ~depth:1 ~max_runs:50_000 ())
      ~toplevel:Workloads.Sip_parser.toplevel Workloads.Sip_parser.vulnerable
  in
  (match r.Dart.Driver.verdict with
   | Dart.Driver.Bug_found bug ->
     (* The witness really spells a valid method token. *)
     let char_at i = Option.value ~default:0 (List.assoc_opt i bug.Dart.Driver.bug_inputs) in
     let prefix = String.init 7 (fun i -> Char.chr (char_at i land 255)) in
     Alcotest.(check string) "method token synthesized" "INVITE " prefix
   | _ -> Alcotest.fail "packet not constructed");
  let rr =
    Dart.Driver.test_source
      ~options:(Dart.Driver.Options.make ~seed:9 ~max_runs:10_000 ~exec:random_exec ())
      ~toplevel:Workloads.Sip_parser.toplevel Workloads.Sip_parser.vulnerable
  in
  Alcotest.(check bool) "random cannot pass the filter" true
    (rr.Dart.Driver.verdict = Dart.Driver.Budget_exhausted);
  let rf =
    Dart.Driver.test_source
      ~options:(options ~depth:1 ~max_runs:2_000 ())
      ~toplevel:Workloads.Sip_parser.toplevel Workloads.Sip_parser.fixed
  in
  Alcotest.(check bool) "fixed parser has no OOB" true (not (is_bug rf))

let suite =
  [ Alcotest.test_case "NS possibilistic depth 1" `Quick test_ns_possibilistic_depth1;
    Alcotest.test_case "NS possibilistic depth 2" `Quick test_ns_possibilistic_depth2;
    Alcotest.test_case "NS possibilistic random fails" `Quick test_ns_possibilistic_random_fails;
    Alcotest.test_case "NS Dolev-Yao depths 1-3" `Slow test_ns_dolev_yao_depths;
    Alcotest.test_case "NS Dolev-Yao attack depth 4" `Slow test_ns_dolev_yao_attack_depth4;
    Alcotest.test_case "NS Lowe fix story" `Slow test_ns_lowe_fix_story;
    Alcotest.test_case "oSIP sweep" `Slow test_osip_sweep_small;
    Alcotest.test_case "oSIP generator determinism" `Quick test_osip_generator_determinism;
    Alcotest.test_case "oSIP library compiles" `Quick test_osip_generated_compiles;
    Alcotest.test_case "oSIP parser attack" `Quick test_osip_parser_attack;
    Alcotest.test_case "libc prelude" `Quick test_libc_prelude;
    Alcotest.test_case "SIP packet construction" `Quick test_sip_packet_construction ]
