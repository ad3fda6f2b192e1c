(* Campaign mode: discovery (harness helpers and non-scalar signatures
   excluded), per-target determinism across jobs, source locations
   carried from the campaign's one parse into every target's report,
   checkpoint codec round-trips, resume equivalence, fault tolerance,
   the campaign-wide time budget, and `dartc campaign` end to end.
   Small generated libraries keep most tests deterministic and fast. *)

module Campaign = Dart.Campaign
module O = Dart.Driver.Options

(* A tiny deterministic "library": one guarded getter (no bug to find),
   one unguarded getter (NULL deref), one gated bug the directed search
   has to solve for, and a prototype (not a target). MiniC's typechecker
   rejects non-scalar parameters outright, so a runnable library never
   contains one — the skip path is exercised on a parse-only AST below. *)
let lib_src =
  "struct msg { int status; int len; };\n\
   int get_status(struct msg *m) {\n\
  \  if (m == NULL) { return -1; }\n\
  \  return m->status;\n\
   }\n\
   int get_len(struct msg *m) { return m->len; }\n\
   int gated(int x, int y) {\n\
  \  if (x == 77) { if (y == 12) { abort(); } }\n\
  \  return x + y;\n\
   }\n\
   int proto(int x);\n"

let opts ?(seed = 7) ?(max_runs = 400) ?(per_function_runs = 100) ?retire_after () =
  O.make ~seed ~max_runs ~per_function_runs ?retire_after ()

let run_campaign ?(jobs = 1) ?options ?checkpoint ?resume src =
  match Campaign.run ~jobs ?options ?checkpoint ?resume src with
  | Ok r -> r
  | Error msg -> Alcotest.failf "campaign failed: %s" msg

(* ---- discovery ------------------------------------------------------------- *)

let test_discover () =
  (* Parse-only: struct-by-value would not typecheck, but discovery must
     still classify it with a readable reason. *)
  let src = lib_src ^ "int by_value(struct msg m) { return m.status; }\n" in
  let ast = Minic.Parser.parse_program src in
  let targets, skipped = Campaign.discover ast in
  Alcotest.(check (list string))
    "declaration order, scalar-parameter functions only"
    [ "get_status"; "get_len"; "gated" ] targets;
  (match skipped with
   | [ (name, reason) ] ->
     Alcotest.(check string) "skipped function" "by_value" name;
     Alcotest.(check bool) "reason names the type" true
       (Str_contains.contains reason "struct msg")
   | _ -> Alcotest.fail "expected exactly one skipped function")

let test_discover_excludes_harness () =
  (* A source that embeds driver-style helpers: the is_harness_site
     predicate must keep them out of the target list. *)
  let src =
    "int __dart_arg_0(int x) { return x; }\n\
     void __dart_main(int x) { __dart_arg_0(x); }\n\
     int real(int x) { return x; }\n"
  in
  let targets, skipped = Campaign.discover (Minic.Parser.parse_program src) in
  Alcotest.(check (list string)) "only the real function" [ "real" ] targets;
  Alcotest.(check int) "harness helpers are invisible, not skipped" 0
    (List.length skipped)

let test_zero_targets () =
  match Campaign.run "int proto(int x);\n" with
  | Error msg ->
    Alcotest.(check bool) "error names the cause" true
      (Str_contains.contains msg "no testable targets")
  | Ok _ -> Alcotest.fail "expected zero-target campaign to error"

(* ---- campaign results ------------------------------------------------------ *)

let find_result r name =
  match List.find_opt (fun tr -> tr.Campaign.tr_name = name) r.Campaign.cam_results with
  | Some tr -> tr
  | None -> Alcotest.failf "no result for %s" name

let test_campaign_outcomes () =
  let r = run_campaign ~options:(opts ()) lib_src in
  Alcotest.(check bool) "finished" true (r.Campaign.cam_status = Campaign.Finished);
  Alcotest.(check int) "three targets tested" 3 (List.length r.Campaign.cam_results);
  Alcotest.(check bool) "unguarded getter crashed" true
    ((find_result r "get_len").Campaign.tr_retired = Campaign.Bug);
  Alcotest.(check bool) "gated bug needs the directed search and is found" true
    ((find_result r "gated").Campaign.tr_retired = Campaign.Bug);
  (* get_status is bugless: it either proves complete or saturates. *)
  Alcotest.(check bool) "guarded getter retires clean" true
    (match (find_result r "get_status").Campaign.tr_retired with
     | Campaign.Complete | Campaign.Saturated | Campaign.Budget_capped -> true
     | Campaign.Bug | Campaign.Quarantined _ -> false);
  Alcotest.(check int) "two distinct crashes" 2 (List.length r.Campaign.cam_crashes)

let strip_resumed r = { r with Campaign.cam_resumed = 0 }

(* The "phases" line carries wall clock (the documented exception to
   to_json's determinism): byte-level comparisons drop it, exactly as
   CI's diffs use grep -v '"phases"'. *)
let json_sans_phases r =
  Campaign.to_json r
  |> String.split_on_char '\n'
  |> List.filter (fun l -> not (Str_contains.contains l "\"phases\""))
  |> String.concat "\n"

let test_jobs_determinism () =
  let r1 = run_campaign ~jobs:1 ~options:(opts ()) lib_src in
  let r4 = run_campaign ~jobs:4 ~options:(opts ()) lib_src in
  Alcotest.(check string) "aggregate JSON identical at jobs 1 and 4"
    (json_sans_phases r1) (json_sans_phases r4);
  Alcotest.(check string) "text report identical too"
    (Campaign.report_to_string r1) (Campaign.report_to_string r4)

let test_slicing_is_result_neutral_for_crashes () =
  (* Different slice sizes change restart boundaries (and so coverage
     trajectories), but every reachable crash must still be found. *)
  let fat = run_campaign ~options:(opts ~per_function_runs:400 ()) lib_src in
  let thin = run_campaign ~options:(opts ~per_function_runs:50 ()) lib_src in
  let keys r =
    List.map (fun (_, b) -> Dart.Driver.bug_key b) r.Campaign.cam_crashes
  in
  Alcotest.(check int) "same crash count" (List.length (keys fat))
    (List.length (keys thin));
  Alcotest.(check bool) "same crash keys" true (keys fat = keys thin)

(* ---- checkpoint codec and resume ------------------------------------------- *)

let test_codec_roundtrip () =
  let options = opts () in
  let r = run_campaign ~options lib_src in
  let text = Campaign.to_string ~options ~library:lib_src r in
  match Campaign.of_string text with
  | Error msg -> Alcotest.failf "re-parse failed: %s" msg
  | Ok (meta, results) ->
    Alcotest.(check string) "meta line survives"
      (Campaign.meta_line ~options ~library:lib_src) meta;
    Alcotest.(check int) "every finished target survives"
      (List.length r.Campaign.cam_results) (List.length results);
    let again = { r with Campaign.cam_results = results } in
    Alcotest.(check string) "results identical after round-trip"
      (Campaign.to_string ~options ~library:lib_src r)
      (Campaign.to_string ~options ~library:lib_src again);
    (* A record after [end] is not part of the checkpoint: the strict
       parse refuses it rather than restoring a target that was never
       checksummed. *)
    match Campaign.of_string (text ^ "target gated 2 1 1 bug 0 0\nend\n") with
    | Ok _ -> Alcotest.fail "record after end accepted"
    | Error msg ->
      Alcotest.(check bool) "names the line after end" true
        (Str_contains.contains msg "after \"end\"")

let test_codec_rejects_single_shot () =
  (* A real single-run checkpoint: the final snapshot of a search cut
     short by its run budget. *)
  let prog =
    Dart.Driver.prepare ~toplevel:"gated" ~depth:1 (Minic.Parser.parse_program lib_src)
  in
  let options = O.make ~seed:7 ~max_runs:2 ~stop_on_first_bug:false () in
  let snap = ref None in
  ignore (Dart.Driver.run ~on_checkpoint:(fun s -> snap := Some s) ~options prog);
  let text =
    match !snap with
    | Some s -> Dart.Checkpoint.to_string ~meta:(Dart.Checkpoint.meta_line options) s
    | None -> Alcotest.fail "no snapshot taken"
  in
  Alcotest.(check bool) "a valid single-run checkpoint" true
    (Result.is_ok (Dart.Checkpoint.of_string text));
  match Campaign.of_string text with
  | Ok _ -> Alcotest.fail "single-shot checkpoint accepted"
  | Error msg ->
    Alcotest.(check bool) "points at plain --resume" true
      (Str_contains.contains msg "dartc --resume")

let test_checkpoint_meta_guard () =
  let options = opts () in
  let path = Filename.temp_file "dart_campaign" ".ck" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let r = run_campaign ~options ~checkpoint:path lib_src in
      Alcotest.(check bool) "checkpoint written" true (Sys.file_exists path);
      (match Campaign.load ~path ~options ~library:lib_src () with
       | Error msg -> Alcotest.failf "clean reload failed: %s" msg
       | Ok results ->
         Alcotest.(check int) "all finished targets recorded"
           (List.length r.Campaign.cam_results) (List.length results));
      match Campaign.load ~path ~options:(opts ~seed:8 ()) ~library:lib_src () with
      | Ok _ -> Alcotest.fail "seed mismatch accepted"
      | Error msg ->
        Alcotest.(check string) "mismatch names the key, both values"
          "checkpoint was taken with seed=7, not seed=8" msg)

let test_resume_equivalence () =
  let options = opts () in
  let uninterrupted = run_campaign ~options lib_src in
  let path = Filename.temp_file "dart_campaign" ".ck" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* Simulate an interruption after one finished target: keep only
         the first target record of the full checkpoint. *)
      let full = Campaign.to_string ~options ~library:lib_src uninterrupted in
      let truncated =
        match Campaign.of_string full with
        | Error msg -> Alcotest.failf "re-parse failed: %s" msg
        | Ok (_, results) ->
          { uninterrupted with
            Campaign.cam_results = [ List.hd results ];
            cam_crashes = [] }
      in
      Campaign.save ~path ~options ~library:lib_src truncated;
      let resumed = run_campaign ~options ~resume:path lib_src in
      Alcotest.(check int) "one target restored" 1 resumed.Campaign.cam_resumed;
      Alcotest.(check string) "resumed aggregate equals the uninterrupted one"
        (json_sans_phases (strip_resumed uninterrupted))
        (json_sans_phases (strip_resumed resumed)))

let test_aggregate_sites () =
  let r = run_campaign ~options:(opts ()) lib_src in
  let sites = Campaign.aggregate_sites r in
  Alcotest.(check bool) "non-empty" true (sites <> []);
  Alcotest.(check bool) "sorted and distinct" true
    (List.sort_uniq compare sites = sites);
  Alcotest.(check bool) "no harness sites" true
    (List.for_all (fun (fn, _, _) -> not (Dart.Driver_gen.is_harness_site fn)) sites)

(* The library is parsed once, with the caller's file name: every
   target prepared from that one AST reports its bug sites in that
   file. *)
let test_locations_keep_file_name () =
  let src =
    "int ok(int x) { return x + 1; }\n\
     int f(int x) { if (x == 5) { abort(); } return x; }\n"
  in
  match Campaign.run ~file:"lib.mc" ~options:(opts ()) src with
  | Error msg -> Alcotest.failf "campaign failed: %s" msg
  | Ok r -> (
    match r.Campaign.cam_crashes with
    | [ (target, b) ] ->
      Alcotest.(check string) "crash attributed to f" "f" target;
      Alcotest.(check string) "site keeps the file name" "lib.mc"
        b.Dart.Driver.bug_site.Machine.site_loc.Minic.Loc.file
    | l -> Alcotest.failf "expected one crash, got %d" (List.length l))

let test_osip_campaign_smoke () =
  (* The checked-in example's generator, at a smaller n: the campaign
     must find every vulnerable-by-construction function and nothing
     else. *)
  let source, funcs = Workloads.Osip_sim.generate ~seed:3 ~n:12 in
  let r =
    run_campaign ~jobs:2 ~options:(opts ~max_runs:600 ~per_function_runs:150 ()) source
  in
  let vulnerable =
    List.filter (fun f -> f.Workloads.Osip_sim.gf_vulnerable) funcs
    |> List.map (fun f -> f.Workloads.Osip_sim.gf_name)
  in
  let bugged =
    List.filter (fun tr -> tr.Campaign.tr_bugs <> []) r.Campaign.cam_results
    |> List.map (fun tr -> tr.Campaign.tr_name)
  in
  List.iter
    (fun name ->
      Alcotest.(check bool) (Printf.sprintf "%s crashes" name) true
        (List.mem name bugged))
    vulnerable;
  List.iter
    (fun name ->
      Alcotest.(check bool) (Printf.sprintf "%s is a true positive" name) true
        (List.mem name vulnerable || not (List.mem name bugged)))
    bugged

(* ---- observability --------------------------------------------------------- *)

module T = Dart.Telemetry

(* Strip the wall-clock content out of an event so traces can be
   compared structurally: durations vary run to run, and cache_hit /
   sliced can shift with cross-worker store interleavings, but the
   event sequence itself is scheduled deterministically. *)
let canon = function
  | T.Run_end e -> T.Run_end { e with dur_ns = 0L }
  | T.Solve_query e -> T.Solve_query { e with dur_ns = 0L; cache_hit = false; sliced = 0 }
  | T.Slice_end e -> T.Slice_end { e with dur_ns = 0L }
  | T.Round_end e -> T.Round_end { e with dur_ns = 0L }
  | T.Phase_total e -> T.Phase_total { e with dur_ns = 0L }
  | T.Cover_point e -> T.Cover_point { e with elapsed_ns = 0L }
  | e -> e

let trace_of_campaign ~jobs src =
  let ring = T.ring ~capacity:(1 lsl 18) in
  let options =
    O.make ~seed:7 ~max_runs:400 ~per_function_runs:100 ~telemetry:(T.with_sink ring) ()
  in
  let r = run_campaign ~jobs ~options src in
  (r, T.events ring)

let test_trace_structure_jobs_invariant () =
  let r1, ev1 = trace_of_campaign ~jobs:1 lib_src in
  let r2, ev2 = trace_of_campaign ~jobs:2 lib_src in
  Alcotest.(check string) "reports agree"
    (Campaign.report_to_string r1) (Campaign.report_to_string r2);
  Alcotest.(check int) "same event count" (List.length ev1) (List.length ev2);
  Alcotest.(check bool) "traces identical modulo durations" true
    (List.map canon ev1 = List.map canon ev2);
  (* Framing: each of the three targets is scheduled, sliced and
     retired exactly once, in declaration order within the (1-based)
     first round. *)
  let scheduled =
    List.filter_map
      (function T.Target_scheduled { target; round = 1 } -> Some target | _ -> None)
      ev1
  in
  Alcotest.(check (list string)) "round 1 schedules all targets in order"
    [ "get_status"; "get_len"; "gated" ] scheduled;
  let retired =
    List.filter_map (function T.Target_retired { target; _ } -> Some target | _ -> None) ev1
  in
  Alcotest.(check int) "every target retires once" 3 (List.length retired);
  List.iter
    (fun t -> Alcotest.(check bool) (t ^ " retired") true (List.mem t retired))
    [ "get_status"; "get_len"; "gated" ];
  (* Slice_end run counts are per-slice deltas: summed per target they
     equal the report's per-target totals. *)
  List.iter
    (fun (tr : Campaign.target_result) ->
      let slice_runs =
        List.fold_left
          (fun acc ev ->
            match ev with
            | T.Slice_end { target; runs; _ } when target = tr.Campaign.tr_name ->
              acc + runs
            | _ -> acc)
          0 ev1
      in
      Alcotest.(check int)
        (Printf.sprintf "slice runs of %s sum to the report" tr.Campaign.tr_name)
        tr.Campaign.tr_runs slice_runs)
    r1.Campaign.cam_results;
  (* The trace closes on the campaign-wide phase totals. *)
  match List.rev ev1 with
  | T.Phase_total _ :: _ -> ()
  | _ -> Alcotest.fail "trace must end with phase totals"

let test_json_phases_line () =
  let r, _ = trace_of_campaign ~jobs:1 lib_src in
  let json = Campaign.to_json r in
  let phases_lines =
    List.filter
      (fun l -> Str_contains.contains l "\"phases\"")
      (String.split_on_char '\n' json)
  in
  (match phases_lines with
   | [ line ] ->
     (* One line, so determinism diffs can drop it with a single
        grep -v, and it carries every phase and percentile key. *)
     List.iter
       (fun key ->
         Alcotest.(check bool) ("phases line has " ^ key) true
           (Str_contains.contains line ("\"" ^ key ^ "\":")))
       [ "execute_ns"; "solve_ns"; "lower_ns"; "merge_ns"; "total_ns";
         "solve_p50_ns"; "solve_p99_ns"; "run_p50_ns"; "run_p99_ns" ]
   | ls -> Alcotest.failf "expected exactly one phases line, got %d" (List.length ls));
  (* The latency histograms fed that line: every slice contributed. *)
  Alcotest.(check bool) "run samples accumulated" true
    (T.Hist.count r.Campaign.cam_metrics.T.run_hist > 0);
  Alcotest.(check bool) "solve samples accumulated" true
    (T.Hist.count r.Campaign.cam_metrics.T.solve_hist > 0)

let test_campaign_status_file () =
  let path = Filename.temp_file "dart_campaign_status" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let options =
        O.make ~seed:7 ~max_runs:400 ~per_function_runs:100
          ~telemetry:{ T.default_config with T.status_path = Some path }
          ()
      in
      let r = run_campaign ~jobs:2 ~options lib_src in
      match Dart.Status.read ~path with
      | Error msg -> Alcotest.failf "status unreadable after campaign: %s" msg
      | Ok st ->
        Alcotest.(check bool) "campaign mode" true (st.Dart.Status.st_mode = Dart.Status.Campaign);
        Alcotest.(check int) "all targets done" 3 st.Dart.Status.st_done;
        Alcotest.(check int) "none active at exit" 0 st.Dart.Status.st_active;
        Alcotest.(check int) "none remaining" 0 st.Dart.Status.st_remaining;
        Alcotest.(check int) "bugs = deduped crashes"
          (List.length r.Campaign.cam_crashes)
          st.Dart.Status.st_bugs;
        Alcotest.(check int) "runs = summed target runs"
          (List.fold_left
             (fun acc (tr : Campaign.target_result) -> acc + tr.Campaign.tr_runs)
             0 r.Campaign.cam_results)
          st.Dart.Status.st_runs;
        Alcotest.(check int) "covered = aggregate coverage"
          (List.length (Campaign.aggregate_sites r))
          st.Dart.Status.st_covered;
        Alcotest.(check int) "no frontier left at exit" 0 st.Dart.Status.st_frontier)

(* A resumed campaign's status rate covers this session only: the
   restored targets' runs ran in an earlier session. *)
let test_resume_status_rate () =
  let options = opts () in
  let uninterrupted = run_campaign ~options lib_src in
  let ck = Filename.temp_file "dart_campaign" ".ck" in
  let path = Filename.temp_file "dart_campaign_status" ".json" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ ck; path ])
    (fun () ->
      let first = List.hd uninterrupted.Campaign.cam_results in
      Campaign.save ~path:ck ~options ~library:lib_src
        { uninterrupted with Campaign.cam_results = [ first ]; cam_crashes = [] };
      let options =
        { options with O.telemetry = { T.default_config with T.status_path = Some path } }
      in
      let resumed = run_campaign ~options ~resume:ck lib_src in
      Alcotest.(check int) "one target restored" 1 resumed.Campaign.cam_resumed;
      match Dart.Status.read ~path with
      | Error msg -> Alcotest.failf "status unreadable after resume: %s" msg
      | Ok st ->
        Alcotest.(check int) "covered = aggregate coverage, restored target included"
          (List.length (Campaign.aggregate_sites resumed))
          st.Dart.Status.st_covered;
        let restored = first.Campaign.tr_runs in
        let secs = Int64.to_float st.Dart.Status.st_elapsed_ns /. 1e9 in
        let bound = (float_of_int (st.Dart.Status.st_runs - restored) /. secs) +. 1.0 in
        Alcotest.(check bool)
          (Printf.sprintf "execs/sec %d <= this session's %.0f"
             st.Dart.Status.st_execs_per_sec bound)
          true
          (float_of_int st.Dart.Status.st_execs_per_sec <= bound))

(* ---- fault tolerance -------------------------------------------------------- *)

module Faultsim = Dart_util.Faultsim

(* Three keyed one-shot crashes at target index 0 (the campaign probes
   Worker_crash once per slice, keyed by declaration index): with
   retry_limit 3 the third consecutive fault quarantines get_status, and
   the injections never touch the other targets. *)
let test_quarantine () =
  let options =
    O.make ~seed:7 ~max_runs:400 ~per_function_runs:100 ~retry_limit:3
      ~faultsim:
        (Faultsim.make
           [ (Faultsim.Worker_crash, Some 0, Faultsim.Nth 1);
             (Faultsim.Worker_crash, Some 0, Faultsim.Nth 2);
             (Faultsim.Worker_crash, Some 0, Faultsim.Nth 3) ])
      ()
  in
  let r = run_campaign ~options lib_src in
  Alcotest.(check bool) "campaign finished" true (r.Campaign.cam_status = Campaign.Finished);
  let q = find_result r "get_status" in
  (match q.Campaign.tr_retired with
   | Campaign.Quarantined reason ->
     Alcotest.(check bool) "reason names the injected fault" true
       (Str_contains.contains reason "worker_crash")
   | _ -> Alcotest.fail "expected get_status to be quarantined");
  Alcotest.(check int) "exactly retry_limit slices were burned" 3 q.Campaign.tr_slices;
  Alcotest.(check int) "no run survived a crashed slice" 0 q.Campaign.tr_runs;
  (* One bad target never starves the rest: the others retire exactly as
     in a fault-free campaign. *)
  Alcotest.(check bool) "get_len still found its bug" true
    ((find_result r "get_len").Campaign.tr_retired = Campaign.Bug);
  Alcotest.(check bool) "gated still found its bug" true
    ((find_result r "gated").Campaign.tr_retired = Campaign.Bug);
  Alcotest.(check bool) "no target lost or double-counted" true
    (Campaign.no_lost_targets r);
  let text = Campaign.report_to_string r in
  Alcotest.(check bool) "text report counts the quarantine" true
    (Str_contains.contains text "1 quarantined");
  Alcotest.(check bool) "and names the target with its reason" true
    (Str_contains.contains text "get_status: ");
  let json = Campaign.to_json r in
  Alcotest.(check bool) "json counts the quarantine" true
    (Str_contains.contains json "\"quarantined\": 1");
  Alcotest.(check bool) "json carries the reason" true
    (Str_contains.contains json "\"reason\"")

(* A transient fault (fewer consecutive crashes than retry_limit) is
   retried with backoff and the target still finishes with the same
   result; the only trace left is the one burned slice. *)
let test_fault_retry_recovers () =
  let clean = run_campaign ~options:(opts ()) lib_src in
  let options =
    O.make ~seed:7 ~max_runs:400 ~per_function_runs:100 ~retry_limit:3
      ~faultsim:(Faultsim.make [ (Faultsim.Worker_crash, Some 0, Faultsim.Nth 1) ])
      ()
  in
  let r = run_campaign ~options lib_src in
  let hit = find_result r "get_status" and ref_hit = find_result clean "get_status" in
  Alcotest.(check bool) "no quarantine for a one-off fault" true
    (match hit.Campaign.tr_retired with Campaign.Quarantined _ -> false | _ -> true);
  Alcotest.(check bool) "same retirement as the fault-free campaign" true
    (hit.Campaign.tr_retired = ref_hit.Campaign.tr_retired);
  Alcotest.(check int) "same runs" ref_hit.Campaign.tr_runs hit.Campaign.tr_runs;
  Alcotest.(check bool) "same coverage" true
    (hit.Campaign.tr_coverage = ref_hit.Campaign.tr_coverage);
  Alcotest.(check int) "exactly one extra (faulted) slice"
    (ref_hit.Campaign.tr_slices + 1) hit.Campaign.tr_slices;
  let keys c = List.map (fun (_, b) -> Dart.Driver.bug_key b) c.Campaign.cam_crashes in
  Alcotest.(check bool) "same crash set" true (keys clean = keys r);
  Alcotest.(check bool) "nothing lost" true (Campaign.no_lost_targets r)

(* The chaos soak invariants, on the osip simulacrum: whatever the
   injection schedule does, no target is lost and no bug is invented. *)
let test_chaos_oracle () =
  let source, _ = Workloads.Osip_sim.generate ~seed:3 ~n:12 in
  let run ?faultsim ?(retry_limit = 3) () =
    let options =
      O.make ~seed:7 ~max_runs:600 ~per_function_runs:150 ~retry_limit ?faultsim ()
    in
    run_campaign ~options source
  in
  let clean = run () in
  let chaotic =
    run ~faultsim:(Faultsim.make ~seed:11 [ (Faultsim.Worker_crash, None, Faultsim.Rate 2500) ])
      ~retry_limit:2 ()
  in
  Alcotest.(check bool) "clean oracle holds" true (Campaign.no_lost_targets clean);
  Alcotest.(check bool) "chaos oracle holds" true (Campaign.no_lost_targets chaotic);
  Alcotest.(check bool) "chaos campaign finished" true
    (chaotic.Campaign.cam_status = Campaign.Finished);
  (* A 25% crash rate against retry_limit 2 must actually exercise the
     quarantine path (the schedule is a pure function of the seeds, so
     this is not a flaky assertion). *)
  let quarantined r =
    List.filter
      (fun tr ->
        match tr.Campaign.tr_retired with Campaign.Quarantined _ -> true | _ -> false)
      r.Campaign.cam_results
  in
  Alcotest.(check int) "fault-free campaign quarantines nothing" 0
    (List.length (quarantined clean));
  Alcotest.(check bool) "chaos campaign quarantined something" true
    (quarantined chaotic <> []);
  (* Injected worker crashes may lose bugs (with the slices that found
     them); they can never add one. *)
  let keys r = List.map (fun (_, b) -> Dart.Driver.bug_key b) r.Campaign.cam_crashes in
  List.iter
    (fun k ->
      Alcotest.(check bool) "chaos bug exists in the fault-free run" true
        (List.mem k (keys clean)))
    (keys chaotic)

(* io_error at rate 1.0: every status/checkpoint write fails, and the
   campaign degrades to warnings — same results, no checkpoint. *)
let test_io_error_degrades_to_warning () =
  let clean = run_campaign ~options:(opts ()) lib_src in
  let status_path = Filename.temp_file "dart_status" ".json" in
  let ck_path = Filename.temp_file "dart_campaign" ".ck" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ status_path; ck_path ])
    (fun () ->
      let warnings = ref [] in
      let options =
        O.make ~seed:7 ~max_runs:400 ~per_function_runs:100
          ~faultsim:(Faultsim.make ~seed:1 [ (Faultsim.Io_error, None, Faultsim.Rate 10000) ])
          ~telemetry:{ Dart.Telemetry.default_config with
                       Dart.Telemetry.status_path = Some status_path }
          ()
      in
      let r =
        match
          Campaign.run ~options ~checkpoint:ck_path
            ~progress:(fun m -> warnings := m :: !warnings)
            lib_src
        with
        | Ok r -> r
        | Error msg -> Alcotest.failf "campaign failed under io_error chaos: %s" msg
      in
      Alcotest.(check string) "results identical to the fault-free campaign"
        (json_sans_phases clean) (json_sans_phases r);
      Alcotest.(check bool) "the failures were reported" true
        (List.exists (fun m -> Str_contains.contains m "warning") !warnings);
      Alcotest.(check int) "status file never written" 0
        (let ic = open_in_bin status_path in
         Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> in_channel_length ic));
      Alcotest.(check int) "checkpoint never written" 0
        (let ic = open_in_bin ck_path in
         Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> in_channel_length ic)))

(* Salvage sweep: for EVERY line-prefix of a valid checkpoint, salvage
   recovers exactly the CRC-complete records of the prefix — and plain
   strict parsing refuses anything short of the whole file. *)
let test_salvage_recovers_longest_prefix () =
  let options = opts () in
  let r = run_campaign ~options lib_src in
  let full = Campaign.to_string ~options ~library:lib_src r in
  let all =
    match Campaign.of_string full with
    | Ok (_, results) -> List.map (fun tr -> tr.Campaign.tr_name) results
    | Error e -> Alcotest.failf "full checkpoint unreadable: %s" e
  in
  Alcotest.(check int) "three records to salvage from" 3 (List.length all);
  let path = Filename.temp_file "dart_salvage" ".ck" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let load_salvaged text =
        let oc = open_out_bin path in
        output_string oc text;
        close_out oc;
        let warnings = ref [] in
        let res =
          Campaign.load
            ~salvage:(fun m -> warnings := m :: !warnings)
            ~path ~options ~library:lib_src ()
        in
        (res, !warnings)
      in
      let starts_with p l =
        String.length l >= String.length p && String.sub l 0 (String.length p) = p
      in
      let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' full) in
      let n = List.length lines in
      for i = 0 to n do
        let prefix = List.filteri (fun j _ -> j < i) lines in
        let text = String.concat "" (List.map (fun l -> l ^ "\n") prefix) in
        (* A record only survives once its crc trailer is on disk; a
           prefix that cuts the header salvages nothing at all. *)
        let expected =
          if i < 3 then 0 else List.length (List.filter (starts_with "crc ") prefix)
        in
        (match load_salvaged text with
         | (Ok results, warnings) ->
           Alcotest.(check (list string))
             (Printf.sprintf "prefix of %d/%d lines keeps the first %d records" i n expected)
             (List.filteri (fun j _ -> j < expected) all)
             (List.map (fun tr -> tr.Campaign.tr_name) results);
           if i < n then
             Alcotest.(check bool)
               (Printf.sprintf "truncation at line %d is reported" i)
               true (warnings <> [])
           else
             Alcotest.(check (list string)) "intact checkpoint salvages silently" [] warnings
         | (Error msg, _) ->
           Alcotest.failf "salvage refused the prefix of %d lines: %s" i msg);
        if i < n then begin
          match Campaign.of_string text with
          | Ok _ -> Alcotest.failf "strict parse accepted a %d-line truncation" i
          | Error _ -> ()
        end
      done;
      (* Salvage reads up to [end] and ignores whatever follows it. *)
      match load_salvaged (full ^ "target gated 2 1 1 bug 0 0\nend\n") with
      | Ok results, warnings ->
        Alcotest.(check (list string)) "lines after end ignored" all
          (List.map (fun tr -> tr.Campaign.tr_name) results);
        Alcotest.(check (list string)) "and not reported" [] warnings
      | Error msg, _ -> Alcotest.failf "salvage refused lines after end: %s" msg)

(* A bit-flip inside a record: the CRC catches what structural parsing
   would let through, and salvage keeps everything before the damage. *)
let test_salvage_detects_corruption () =
  let options = opts () in
  let r = run_campaign ~options lib_src in
  let full = Campaign.to_string ~options ~library:lib_src r in
  let lines = String.split_on_char '\n' full in
  let target_seen = ref 0 in
  let corrupted =
    List.map
      (fun l ->
        if String.length l >= 7 && String.sub l 0 7 = "target " then begin
          incr target_seen;
          if !target_seen = 2 then begin
            (* Bump the trailing digit (runs/bopens field): still a
               perfectly well-formed record, only the checksum knows. *)
            let last = String.length l - 1 in
            String.sub l 0 last ^ (if l.[last] = '0' then "1" else "0")
          end
          else l
        end
        else l)
      lines
    |> String.concat "\n"
  in
  (match Campaign.of_string corrupted with
   | Ok _ -> Alcotest.fail "strict parse accepted a corrupted record"
   | Error msg ->
     Alcotest.(check bool) "error names the checksum" true
       (Str_contains.contains msg "checksum mismatch"));
  let path = Filename.temp_file "dart_salvage" ".ck" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc corrupted;
      close_out oc;
      let warnings = ref [] in
      (match
         Campaign.load
           ~salvage:(fun m -> warnings := m :: !warnings)
           ~path ~options ~library:lib_src ()
       with
       | Ok [ kept ] ->
         Alcotest.(check string) "only the record before the damage survives"
           "get_status" kept.Campaign.tr_name
       | Ok l -> Alcotest.failf "salvaged %d records, wanted 1" (List.length l)
       | Error msg -> Alcotest.failf "salvage refused: %s" msg);
      Alcotest.(check bool) "the warning names the checksum" true
        (List.exists (fun m -> Str_contains.contains m "checksum mismatch") !warnings);
      (* Salvage repairs corruption, never configuration mismatches:
         silently dropping a healthy checkpoint of a different campaign
         would destroy real work. *)
      let oc = open_out_bin path in
      output_string oc full;
      close_out oc;
      match
        Campaign.load ~salvage:(fun _ -> ()) ~path ~options:(opts ~seed:8 ()) ~library:lib_src ()
      with
      | Ok _ -> Alcotest.fail "salvage ignored a configuration mismatch"
      | Error msg ->
        Alcotest.(check bool) "mismatch still names the key" true
          (Str_contains.contains msg "seed=7"))

(* SIGTERM mid-write: the checkpoint on disk is always the old or the
   new complete file, never a torn one — the write-then-rename pair the
   codec tests assume, exercised under a real asynchronous kill. The
   victim is the ckwriter helper executable (OCaml 5 forbids Unix.fork
   once domains have been created), which runs the same campaign with
   the same options and rewrites its checkpoint in a tight loop. *)
let test_sigterm_checkpoint_atomicity () =
  let options = opts () in
  let r = run_campaign ~options lib_src in
  let expected = Campaign.to_string ~options ~library:lib_src r in
  let path = Filename.temp_file "dart_sigterm" ".ck" in
  let lib_file = Filename.temp_file "dart_sigterm" ".mc" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".tmp"; lib_file ])
    (fun () ->
      let oc = open_out_bin lib_file in
      output_string oc lib_src;
      close_out oc;
      Sys.remove path;
      let exe = Filename.concat (Sys.getcwd ()) "ckwriter.exe" in
      let pid =
        Unix.create_process exe
          [| exe; path; lib_file |]
          Unix.stdin Unix.stdout Unix.stderr
      in
      (* Wait for the writer's first complete checkpoint, then let the
         kill land somewhere inside a later rewrite. *)
      let rec wait_ready n =
        if n = 0 then Alcotest.fail "ckwriter never produced a checkpoint"
        else if not (Sys.file_exists path) then begin
          Unix.sleepf 0.01;
          wait_ready (n - 1)
        end
      in
      wait_ready 3000;
      Unix.sleepf 0.05;
      Unix.kill pid Sys.sigterm;
      let _, status = Unix.waitpid [] pid in
      Alcotest.(check bool) "the kill landed mid-loop" true
        (status = Unix.WSIGNALED Sys.sigterm);
      Alcotest.(check bool) "a checkpoint exists" true (Sys.file_exists path);
      let ic = open_in_bin path in
      let text =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Alcotest.(check string) "and it is a complete one" expected text;
      match Campaign.of_string text with
      | Ok (_, results) ->
        Alcotest.(check int) "parseable, all records present" 3 (List.length results)
      | Error msg -> Alcotest.failf "checkpoint torn by SIGTERM: %s" msg)

(* ---- the campaign-wide time budget ---------------------------------------- *)

(* [options.budget.time_budget_ns] is one deadline for the whole
   campaign. Were it a fresh budget for every slice instead, a slice the
   clock cuts would leave its target unfinished, to be refilled in the
   next round and cut again, forever. The rounds are counted through
   [progress]: a campaign past [max_rounds] fails the test instead of
   hanging it. *)
exception Too_many_rounds

let time_budget_campaign ~max_rounds ~options src =
  let rounds = ref 0 in
  let progress line =
    if String.starts_with ~prefix:"round " line then begin
      incr rounds;
      if !rounds > max_rounds then raise Too_many_rounds
    end
  in
  match Campaign.run ~options ~progress src with
  | Ok r -> (r, !rounds)
  | Error msg -> Alcotest.failf "campaign failed: %s" msg
  | exception Too_many_rounds ->
    Alcotest.failf "still running after %d rounds: the time budget never ended it" max_rounds

let stopped_by_the_clock r =
  Alcotest.(check bool) "stopped early by the time budget" true
    (r.Campaign.cam_status = Campaign.Stopped_early "time budget exhausted");
  Alcotest.(check bool) "every target accounted for" true (Campaign.no_lost_targets r)

let test_time_budget_ends_library_campaign () =
  let options =
    O.make ~seed:11 ~per_function_runs:50_000 ~time_budget_ns:1_000_000L ()
  in
  let r, _ =
    time_budget_campaign ~max_rounds:50 ~options (Example_programs.read "osip_library.mc")
  in
  stopped_by_the_clock r;
  Alcotest.(check bool) "targets left unfinished" true (r.Campaign.cam_unfinished <> [])

(* A slice the campaign's deadline cuts ends [Time_exhausted] and leaves
   its target unfinished, and no round follows it. [endless] has a path
   per loop count, so no slice of it ever completes. *)
let test_deadline_cuts_slices () =
  let src =
    "int endless(int n) {\n\
    \  int i = 0;\n\
    \  while (i < n) { i = i + 1; }\n\
    \  return i;\n\
     }\n"
  in
  let ring = Dart.Telemetry.ring ~capacity:4096 in
  let options =
    O.make ~seed:7 ~max_runs:10_000_000 ~per_function_runs:10_000_000
      ~time_budget_ns:200_000_000L
      ~telemetry:{ (Dart.Telemetry.with_sink ring) with Dart.Telemetry.worker_buffer = 16 }
      ()
  in
  let r, rounds = time_budget_campaign ~max_rounds:1 ~options src in
  stopped_by_the_clock r;
  Alcotest.(check int) "one round" 1 rounds;
  Alcotest.(check (list string)) "the cut target is unfinished" [ "endless" ]
    r.Campaign.cam_unfinished;
  Alcotest.(check (list string)) "its slice ended on the clock" [ "time" ]
    (List.filter_map
       (function
         | Dart.Telemetry.Slice_end { target = "endless"; outcome; _ } -> Some outcome
         | _ -> None)
       (Dart.Telemetry.events ring))

(* ---- dartc campaign at the command line ------------------------------------ *)

(* A time budget the campaign cannot meet stops it with exit 3 and
   still leaves a checkpoint. *)
let test_dartc_time_budget_exit () =
  Dartc_cli.with_temp_files 1 (function
    | [ ck ] ->
      let code, _, _ =
        Dartc_cli.run
          (Dartc_cli.osip_campaign @ [ "--time-budget"; "0.001"; "--checkpoint"; ck ])
      in
      Alcotest.(check int) "exit 3: stopped by the time budget" 3 code;
      Alcotest.(check bool) "a non-empty checkpoint" true (Dartc_cli.read_file ck <> "")
    | _ -> assert false)

(* A checkpoint's first [k] target records, re-framed with their count
   and the end line: what a campaign stopped after [k] finished targets
   leaves, cut from an uninterrupted one's so that no clock is raced. *)
let first_records k text =
  let buf = Buffer.create (String.length text) in
  let seen = ref 0 in
  List.iter
    (fun line ->
      if String.starts_with ~prefix:"records " line then
        Buffer.add_string buf (Printf.sprintf "records %d\n" k)
      else begin
        if !seen < k then Buffer.add_string buf (line ^ "\n");
        if String.starts_with ~prefix:"crc " line then incr seen
      end)
    (String.split_on_char '\n' text);
  Buffer.add_string buf "end\n";
  Buffer.contents buf

let json_lines_sans ~keys path =
  Dartc_cli.read_file path
  |> String.split_on_char '\n'
  |> List.filter (fun l -> not (List.exists (Str_contains.contains l) keys))

(* Discovery finds a real library's worth of targets; a campaign
   stopped after 20 finished targets resumes to the uninterrupted
   aggregate; a campaign checkpoint handed to a single-target resume is
   a usage error. *)
let test_dartc_list_and_resume () =
  let code, out, _ = Dartc_cli.run [ "campaign"; "../examples/osip_library.mc"; "--list" ] in
  Alcotest.(check int) "--list exits 0" 0 code;
  let targets = List.filter (( <> ) "") (String.split_on_char '\n' out) in
  Alcotest.(check bool) "at least 50 targets discovered" true (List.length targets >= 50);
  Dartc_cli.with_temp_files 4 (function
    | [ full_ck; full_json; cut_ck; resumed_json ] ->
      let code, _, _ =
        Dartc_cli.run
          (Dartc_cli.osip_campaign @ [ "--checkpoint"; full_ck; "--json"; full_json ])
      in
      Alcotest.(check int) "uninterrupted campaign finds bugs" 1 code;
      Out_channel.with_open_bin cut_ck (fun oc ->
          output_string oc
            (first_records 20 (Dartc_cli.read_file full_ck)));
      let code, _, _ =
        Dartc_cli.run
          (Dartc_cli.osip_campaign @ [ "--resume"; cut_ck; "--json"; resumed_json ])
      in
      Alcotest.(check int) "resumed campaign finds bugs" 1 code;
      Alcotest.(check bool) "20 targets restored" true
        (List.mem "  \"resumed\": 20," (json_lines_sans ~keys:[] resumed_json));
      Alcotest.(check (list string)) "the resumed aggregate is the uninterrupted one"
        (json_lines_sans ~keys:[ "\"resumed\""; "\"phases\"" ] full_json)
        (json_lines_sans ~keys:[ "\"resumed\""; "\"phases\"" ] resumed_json);
      let code, _, _ =
        Dartc_cli.run
          [ "../examples/ac_controller.mc"; "--toplevel"; "ac_controller"; "--resume"; cut_ck ]
      in
      Alcotest.(check int) "wrong checkpoint kind: usage error" 2 code
    | _ -> assert false)

(* Fault schedules on the seed-11 campaign: each seed x schedule pair
   costs retries and warnings, never a target or the verdict (a lost
   target would exit 2). *)
let test_dartc_fault_schedules () =
  Dartc_cli.with_temp_files 1 (function
    | [ json ] ->
      List.iter
        (fun (spec, seed) ->
          let code, _, err =
            Dartc_cli.run
              (Dartc_cli.osip_campaign
              @ [ "--retry-limit"; "2"; "--faultsim"; spec; "--faultsim-seed";
                  string_of_int seed; "--json"; json ])
          in
          Alcotest.(check int) (Printf.sprintf "%s at seed %d: exit 1 (%s)" spec seed err) 1
            code)
        (List.concat_map
           (fun seed ->
             [ ("worker_crash=0.05", seed); ("worker_crash=0.1,io_error=0.02", seed) ])
           [ 3; 5; 7 ])
    | _ -> assert false)

(* A hostile schedule against a tight retry limit quarantines targets,
   visibly in the report and the aggregate JSON, and still exits 1. *)
let test_dartc_hostile_schedule () =
  Dartc_cli.with_temp_files 1 (function
    | [ json ] ->
      let code, out, _ =
        Dartc_cli.run
          (Dartc_cli.osip_campaign
          @ [ "--retry-limit"; "1"; "--faultsim"; "worker_crash=0.2"; "--faultsim-seed"; "7";
              "--json"; json ])
      in
      Alcotest.(check int) "exit 1" 1 code;
      Alcotest.(check bool) "the report names quarantined targets" true
        (Str_contains.contains out "quarantined");
      Alcotest.(check bool) "the JSON counts them" true
        (Str_contains.contains (Dartc_cli.read_file json) "\"quarantined\":")
    | _ -> assert false)

(* A checkpoint torn inside its 21st record: everything up to the 20th
   record's crc line, then the first line of the next record. *)
let tear_after k text =
  let rec go seen = function
    | [] -> []
    | line :: _ when seen = k -> [ line ]
    | line :: rest ->
      line :: go (if String.starts_with ~prefix:"crc " line then seen + 1 else seen) rest
  in
  String.concat "\n" (go 0 (String.split_on_char '\n' text)) ^ "\n"

(* The degradation ladder of a torn checkpoint: strict --resume refuses
   it, --resume-salvage restores the 20 intact records with a warning
   and finishes with the uninterrupted campaign's aggregate. *)
let test_dartc_salvage_ladder () =
  Dartc_cli.with_temp_files 4 (function
    | [ ck; base_json; cut_ck; salvaged_json ] ->
      let code, _, _ =
        Dartc_cli.run (Dartc_cli.osip_campaign @ [ "--json"; base_json; "--checkpoint"; ck ])
      in
      Alcotest.(check int) "uninterrupted campaign finds bugs" 1 code;
      Out_channel.with_open_bin cut_ck (fun oc ->
          output_string oc (tear_after 20 (Dartc_cli.read_file ck)));
      let code, _, _ = Dartc_cli.run (Dartc_cli.osip_campaign @ [ "--resume"; cut_ck ]) in
      Alcotest.(check int) "strict resume refuses a torn checkpoint" 2 code;
      let code, _, err =
        Dartc_cli.run
          (Dartc_cli.osip_campaign
          @ [ "--resume"; cut_ck; "--resume-salvage"; "--json"; salvaged_json ])
      in
      Alcotest.(check int) "salvaged campaign finds bugs" 1 code;
      Alcotest.(check bool) "warns what it salvaged" true
        (Str_contains.contains err "salvaged 20 of 62 records");
      Alcotest.(check (list string)) "the salvaged aggregate is the uninterrupted one"
        (json_lines_sans ~keys:[ "\"resumed\""; "\"phases\"" ] base_json)
        (json_lines_sans ~keys:[ "\"resumed\""; "\"phases\"" ] salvaged_json)
    | _ -> assert false)

(* A library that embeds a generated driver: each target's own driver
   redeclares [__dart_main], so every target is dropped when its driver
   links, and listed as skipped with the front end's message. *)
let two_fn_src =
  "int f(int x) {\n\
  \  if (x == 3) { return 1; }\n\
  \  return 0;\n\
   }\n\
   int g(int y) {\n\
  \  if (y > 10) { return y; }\n\
  \  return -y;\n\
   }\n"

let test_dartc_dropped_targets () =
  Dartc_cli.with_temp_files 3 (function
    | [ lib; trace; status ] ->
      Out_channel.with_open_bin lib (fun oc -> output_string oc two_fn_src);
      let code, driver, _ = Dartc_cli.run [ lib; "--toplevel"; "f"; "--show-driver" ] in
      Alcotest.(check int) "--show-driver exits 0" 0 code;
      let src = two_fn_src ^ driver in
      Out_channel.with_open_bin lib (fun oc -> output_string oc src);
      let reason =
        "<none>:0:0: '__dart_main' is already declared by the program being extended"
      in
      let r = run_campaign src in
      Alcotest.(check (list (pair string string))) "both targets skipped with the reason"
        [ ("f", reason); ("g", reason) ] r.Campaign.cam_skipped;
      Alcotest.(check bool) "no target lost" true (Campaign.no_lost_targets r);
      let code, out, _ =
        Dartc_cli.run [ "campaign"; lib; "--trace"; trace; "--status"; status ]
      in
      Alcotest.(check int) "dropped targets exit 0" 0 code;
      Alcotest.(check bool) "the report lists them" true
        (Str_contains.contains out
           (Printf.sprintf "skipped:\n  - f: %s\n  - g: %s\n" reason reason));
      let events =
        List.filter_map
          (fun line -> Result.to_option (T.event_of_json line))
          (String.split_on_char '\n' (Dartc_cli.read_file trace))
      in
      List.iter
        (fun name ->
          Alcotest.(check (list string)) (name ^ ": one failed slice, one failed retirement")
            [ "slice_end failed"; "retired failed" ]
            (List.filter_map
               (function
                 | T.Slice_end { target; outcome; _ } when target = name ->
                   Some ("slice_end " ^ outcome)
                 | T.Target_retired { target; reason } when target = name ->
                   Some ("retired " ^ reason)
                 | _ -> None)
               events))
        [ "f"; "g" ];
      (match Dart.Status.read ~path:status with
       | Error msg -> Alcotest.failf "status unreadable: %s" msg
       | Ok st ->
         Alcotest.(check int) "none done" 0 st.Dart.Status.st_done;
         Alcotest.(check int) "the dropped targets remain" 2 st.Dart.Status.st_remaining)
    | _ -> assert false)

(* The aggregate lcov and HTML views of the seed-11 campaign: the lcov
   parses and counts the report's aggregate coverage, the HTML carries
   the per-target heatmap. *)
let test_dartc_lcov_html () =
  Dartc_cli.with_temp_files 2 (function
    | [ lcov; html ] ->
      let code, out, _ =
        Dartc_cli.run (Dartc_cli.osip_campaign @ [ "--lcov"; lcov; "--html"; html ])
      in
      Alcotest.(check int) "campaign finds bugs" 1 code;
      let aggregate =
        List.find_map
          (fun line ->
            Scanf.sscanf_opt line "aggregate coverage: %d branch directions" Fun.id)
          (String.split_on_char '\n' out)
      in
      (match (Dart.Cover_report.parse_lcov (Dartc_cli.read_file lcov), aggregate) with
       | Ok t, Some n ->
         Alcotest.(check int) "BRH total = aggregate coverage" n t.Dart.Cover_report.lt_brh
       | Error msg, _ -> Alcotest.failf "lcov rejected: %s" msg
       | _, None -> Alcotest.fail "no aggregate coverage line");
      let page = Dartc_cli.read_file html in
      Alcotest.(check bool) "HTML holds the heatmap" true
        (Str_contains.contains page "<h2>per-target time</h2>"
        && Str_contains.contains page "class=\"hm-cell hm-bug\"")
    | _ -> assert false)

let suite =
  [ Alcotest.test_case "discover: scalar signatures in declaration order" `Quick
      test_discover;
    Alcotest.test_case "discover: harness helpers excluded" `Quick
      test_discover_excludes_harness;
    Alcotest.test_case "zero targets is an error" `Quick test_zero_targets;
    Alcotest.test_case "campaign outcomes on a mixed library" `Quick
      test_campaign_outcomes;
    Alcotest.test_case "time budget ends a library campaign" `Quick
      test_time_budget_ends_library_campaign;
    Alcotest.test_case "jobs 1 and jobs 4 agree byte-for-byte" `Quick
      test_jobs_determinism;
    Alcotest.test_case "dartc campaign drops targets whose driver fails to link" `Quick
      test_dartc_dropped_targets;
    Alcotest.test_case "dartc campaign lcov and HTML" `Quick test_dartc_lcov_html;
    Alcotest.test_case "slice size never changes the crash set" `Quick
      test_slicing_is_result_neutral_for_crashes;
    Alcotest.test_case "trace structure is jobs-invariant" `Quick
      test_trace_structure_jobs_invariant;
    Alcotest.test_case "aggregate JSON carries one phases line" `Quick
      test_json_phases_line;
    Alcotest.test_case "status snapshot at campaign exit" `Quick
      test_campaign_status_file;
    Alcotest.test_case "resumed status rate counts this session only" `Quick
      test_resume_status_rate;
    Alcotest.test_case "checkpoint codec round-trips" `Quick test_codec_roundtrip;
    Alcotest.test_case "codec rejects single-shot checkpoints" `Quick
      test_codec_rejects_single_shot;
    Alcotest.test_case "checkpoint meta guard" `Quick test_checkpoint_meta_guard;
    Alcotest.test_case "resume equals the uninterrupted campaign" `Quick
      test_resume_equivalence;
    Alcotest.test_case "aggregate sites: sorted, distinct, program-only" `Quick
      test_aggregate_sites;
    Alcotest.test_case "locations keep the file name" `Quick
      test_locations_keep_file_name;
    Alcotest.test_case "osip simulacrum: detection matches ground truth" `Quick
      test_osip_campaign_smoke;
    Alcotest.test_case "quarantine after consecutive faults" `Quick test_quarantine;
    Alcotest.test_case "transient fault: retry recovers byte-identically" `Quick
      test_fault_retry_recovers;
    Alcotest.test_case "chaos soak oracle on the osip simulacrum" `Quick
      test_chaos_oracle;
    Alcotest.test_case "io_error chaos degrades to warnings" `Quick
      test_io_error_degrades_to_warning;
    Alcotest.test_case "salvage recovers every truncation prefix" `Quick
      test_salvage_recovers_longest_prefix;
    Alcotest.test_case "salvage detects record corruption" `Quick
      test_salvage_detects_corruption;
    Alcotest.test_case "SIGTERM leaves an old-or-new complete checkpoint" `Quick
      test_sigterm_checkpoint_atomicity;
    Alcotest.test_case "campaign deadline cuts slices" `Quick test_deadline_cuts_slices;
    Alcotest.test_case "dartc campaign time budget exits 3" `Quick
      test_dartc_time_budget_exit;
    Alcotest.test_case "dartc campaign list, resume, wrong kind" `Quick
      test_dartc_list_and_resume;
    Alcotest.test_case "dartc campaign fault schedules exit 1" `Quick
      test_dartc_fault_schedules;
    Alcotest.test_case "dartc campaign hostile schedule quarantines" `Quick
      test_dartc_hostile_schedule;
    Alcotest.test_case "dartc campaign salvage ladder" `Quick test_dartc_salvage_ladder ]
