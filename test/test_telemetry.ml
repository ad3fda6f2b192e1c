(* The telemetry subsystem: sink semantics (null / ring / jsonl), the
   JSONL codec, phase metrics, and the end-to-end contracts — tracing
   must never perturb the search, and trace event counts must agree
   with the report's counters. *)

module T = Dart.Telemetry

(* ---- sinks ------------------------------------------------------------------- *)

let test_null_sink () =
  Alcotest.(check bool) "null disabled" false (T.enabled T.null);
  T.emit T.null (T.Run_start { run = 1 });
  Alcotest.(check int) "null buffers nothing" 0 (List.length (T.events T.null))

let test_ring_wraparound () =
  let r = T.ring ~capacity:4 in
  Alcotest.(check bool) "ring enabled" true (T.enabled r);
  for i = 1 to 10 do
    T.emit r (T.Run_start { run = i })
  done;
  Alcotest.(check int) "every emission kept or counted as dropped" 10
    (List.length (T.events r) + T.dropped r);
  let runs =
    List.filter_map (function T.Run_start { run } -> Some run | _ -> None) (T.events r)
  in
  Alcotest.(check (list int)) "most recent capacity events, oldest first" [ 7; 8; 9; 10 ]
    runs;
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Telemetry.ring: capacity < 1") (fun () ->
      ignore (T.ring ~capacity:0))

let test_ring_dropped () =
  let r = T.ring ~capacity:4 in
  for i = 1 to 4 do
    T.emit r (T.Run_start { run = i })
  done;
  Alcotest.(check int) "full ring, nothing dropped yet" 0 (T.dropped r);
  for i = 5 to 10 do
    T.emit r (T.Run_start { run = i })
  done;
  (* Each wraparound overwrite is a lost event, counted rather than
     silently forgotten. *)
  Alcotest.(check int) "one drop per overwrite" 6 (T.dropped r);
  Alcotest.(check int) "null never drops" 0 (T.dropped T.null)

let test_replay () =
  let src = T.ring ~capacity:8 and dst = T.ring ~capacity:8 in
  T.emit src (T.Run_start { run = 1 });
  T.emit src (T.Restart { restarts = 1 });
  T.emit dst (T.Run_start { run = 99 });
  T.replay src ~into:dst;
  Alcotest.(check int) "replayed in order" 3 (List.length (T.events dst));
  match T.events dst with
  | [ T.Run_start { run = 99 }; T.Run_start { run = 1 }; T.Restart _ ] -> ()
  | _ -> Alcotest.fail "replay appended source events in order"

(* ---- JSONL codec -------------------------------------------------------------- *)

let all_variants =
  [ T.Run_start { run = 1 };
    T.Run_end { run = 1; outcome = "halted"; steps = 42; dur_ns = 123_456_789L };
    T.Branch_taken { fn = "f"; pc = 3; dir = true };
    T.Branch_taken { fn = "__coin"; pc = 0; dir = false };
    T.Solve_query
      { fn = "g \"quoted\"\\path\t\r\n\001";
        pc = 7;
        result = T.R_sat;
        dur_ns = 5L;
        cache_hit = false;
        sliced = 2 };
    T.Solve_query
      { fn = "h"; pc = 0; result = T.R_unknown; dur_ns = 0L; cache_hit = true; sliced = 0 };
    T.Input_update { id = 0; value = 12345 };
    T.Restart { restarts = 2 };
    T.Bug_found { fn = "g"; pc = 9; fault = "abort"; run = 4 };
    T.Worker_spawn { worker = 0; seed = 42 };
    T.Worker_drain { worker = 3; runs = 10 };
    T.Phase_total { phase = T.Solve; dur_ns = 99L };
    T.Cover_point { run = 6; covered = 12; elapsed_ns = 987_654L };
    T.Target_scheduled { target = "osip_free"; round = 2 };
    T.Slice_end
      { target = "osip_free"; round = 2; outcome = "budget"; runs = 200; dur_ns = 55L };
    T.Target_retired { target = "osip \"free\""; reason = "saturated" };
    T.Round_end { round = 3; active = 7; dur_ns = 1_000_000L } ]

let test_json_roundtrip () =
  Alcotest.(check string) "escape spelling" {|"a\"\\\n\t\r\u0001"|}
    (T.json_string "a\"\\\n\t\r\001");
  List.iter
    (fun e ->
      let line = T.event_to_json e in
      Alcotest.(check bool) "single line" false (String.contains line '\n');
      match T.event_of_json line with
      | Ok e' -> Alcotest.(check bool) (T.event_to_json e) true (e = e')
      | Error msg -> Alcotest.failf "%s failed to parse: %s" line msg)
    all_variants

let test_json_rejects_malformed () =
  let bad =
    [ "{oops"; "[]"; "{}"; {|{"ev":"warp_drive"}|}; {|{"ev":"run_start"}|};
      {|{"ev":"run_start","run":"one"}|}; {|{"ev":"phase","phase":"think","ns":1}|};
      (* \u takes exactly four hex digits: no [_] separator, sign or
         prefix. *)
      {|{"ev":"branch","fn":"\u1_2_","pc":1,"dir":true}|};
      {|{"ev":"branch","fn":"\u_012","pc":1,"dir":true}|};
      {|{"ev":"branch","fn":"\u+041","pc":1,"dir":true}|};
      {|{"ev":"branch","fn":"\u00g1","pc":1,"dir":true}|};
      {|{"ev":"branch","fn":"\u004","pc":1,"dir":true}|} ]
  in
  (match T.event_of_json {|{"ev":"branch","fn":"\u004A\u004a","pc":1,"dir":true}|} with
   | Ok (T.Branch_taken { fn; _ }) -> Alcotest.(check string) "hex escapes decode" "JJ" fn
   | _ -> Alcotest.fail "well-formed \\u escapes rejected");
  List.iter
    (fun line ->
      match T.event_of_json line with
      | Ok _ -> Alcotest.failf "accepted malformed line %s" line
      | Error _ -> ())
    bad

(* ---- phase metrics ------------------------------------------------------------- *)

let test_metrics () =
  let m = T.create_metrics () in
  T.add_phase m T.Execute 100L;
  T.add_phase m T.Solve 50L;
  T.add_phase m T.Solve 25L;
  Alcotest.(check int64) "phases accumulate" 75L m.T.solve_ns;
  Alcotest.(check int64) "total sums all phases" 175L (T.total_ns m);
  let m2 = T.create_metrics () in
  T.add_phase m2 T.Lower 1_000L;
  T.add_metrics ~into:m m2;
  Alcotest.(check int64) "add_metrics folds in" 1_175L (T.total_ns m);
  let x = T.timed m T.Merge (fun () -> 17) in
  Alcotest.(check int) "timed returns the thunk's value" 17 x;
  Alcotest.(check bool) "timed attributed time" true (Int64.compare m.T.merge_ns 0L >= 0);
  let sink = T.ring ~capacity:8 in
  T.emit_phase_totals sink m;
  let phases =
    List.filter_map
      (function T.Phase_total { phase; _ } -> Some (T.phase_to_string phase) | _ -> None)
      (T.events sink)
  in
  Alcotest.(check (list string)) "one total per phase, declaration order"
    [ "execute"; "solve"; "lower"; "merge" ] phases

(* ---- tracing must not perturb the search ---------------------------------------- *)

let test_tracing_off_and_on_agree () =
  let src, toplevel = Workloads.Paper_examples.ac_controller in
  let run telemetry =
    let options = Dart.Driver.Options.make ~depth:2 ~telemetry () in
    Dart.Driver.test_source ~options ~toplevel src
  in
  let off = run T.default_config in
  let ring = T.ring ~capacity:(1 lsl 16) in
  let on = run (T.with_sink ring) in
  Alcotest.(check int) "null sink stayed empty" 0 (List.length (T.events T.null));
  Alcotest.(check string) "identical report with tracing on"
    (Dart.Driver.report_to_string off)
    (Dart.Driver.report_to_string on);
  Alcotest.(check bool) "enabled sink saw events" true (T.events ring <> [])

(* ---- golden JSONL trace ---------------------------------------------------------- *)

let read_trace path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let events = ref [] in
      (try
         while true do
           let line = input_line ic in
           match T.event_of_json line with
           | Ok e -> events := e :: !events
           | Error msg -> Alcotest.failf "malformed trace line %s: %s" line msg
         done
       with End_of_file -> ());
      List.rev !events)

let count p events = List.length (List.filter p events)

let test_jsonl_trace_counts () =
  let src, toplevel = Workloads.Paper_examples.ac_controller in
  let path = Filename.temp_file "dart_trace" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  let r =
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        let telemetry = T.with_sink (T.jsonl oc) in
        let options = Dart.Driver.Options.make ~depth:2 ~telemetry () in
        Dart.Driver.test_source ~options ~toplevel src)
  in
  let events = read_trace path in
  let is_run_start = function T.Run_start _ -> true | _ -> false in
  let is_run_end = function T.Run_end _ -> true | _ -> false in
  Alcotest.(check int) "run_start per run" r.Dart.Driver.runs (count is_run_start events);
  Alcotest.(check int) "run_end per run" r.Dart.Driver.runs (count is_run_end events);
  Alcotest.(check int) "non-hit solve events = solver queries"
    (Solver.queries r.Dart.Driver.solver_stats)
    (count (function T.Solve_query { cache_hit; _ } -> not cache_hit | _ -> false) events);
  Alcotest.(check int) "all solve events = queries + cache hits"
    (Solver.queries r.Dart.Driver.solver_stats
    + Solver.cache_hits r.Dart.Driver.solver_stats)
    (count (function T.Solve_query _ -> true | _ -> false) events);
  Alcotest.(check int) "restart events" r.Dart.Driver.restarts
    (count (function T.Restart _ -> true | _ -> false) events);
  Alcotest.(check bool) "bug event present" true
    (count (function T.Bug_found _ -> true | _ -> false) events >= 1);
  Alcotest.(check bool) "branch events present" true
    (count (function T.Branch_taken _ -> true | _ -> false) events > 0);
  Alcotest.(check int) "one phase total per phase" 4
    (count (function T.Phase_total _ -> true | _ -> false) events);
  (* The summary agrees with the report. *)
  let s = T.summarize events in
  Alcotest.(check int) "summary runs" r.Dart.Driver.runs s.T.runs;
  Alcotest.(check int) "summary real queries"
    (Solver.queries r.Dart.Driver.solver_stats)
    (s.T.solves - s.T.solve_hits);
  Alcotest.(check int) "summary bugs" 1 s.T.bugs;
  (* Per-site aggregation attributes every query. *)
  Alcotest.(check int) "site aggregation covers all queries" s.T.solves
    (List.fold_left (fun acc (_, a) -> acc + a.T.s_count) 0 s.T.sites);
  (* The run's own metrics cover execute + solve + lower. *)
  Alcotest.(check bool) "metrics collected" true
    (Int64.compare (T.total_ns r.Dart.Driver.metrics) 0L > 0);
  (* One cover point per run, monotone, ending at the report's
     coverage count; the trace-side distinct-direction count agrees
     with the report (the user/driver branch split at work). *)
  Alcotest.(check int) "cover point per run" r.Dart.Driver.runs (List.length s.T.timeline);
  let rec monotone prev = function
    | [] -> true
    | (p : T.cover_point) :: rest -> p.T.cp_covered >= prev && monotone p.T.cp_covered rest
  in
  Alcotest.(check bool) "timeline is monotone" true (monotone 0 s.T.timeline);
  (match List.rev s.T.timeline with
   | last :: _ ->
     Alcotest.(check int) "timeline ends at report coverage"
       r.Dart.Driver.branches_covered last.T.cp_covered
   | [] -> Alcotest.fail "no cover points in trace");
  Alcotest.(check int) "distinct trace dirs = report coverage"
    r.Dart.Driver.branches_covered (List.length s.T.covered)

(* ---- parallel trace merging ------------------------------------------------------ *)

let test_parallel_trace_merge () =
  let src, toplevel = Workloads.Paper_examples.section_2_4 in
  let prog = Dart.Driver.prepare ~toplevel ~depth:1 (Minic.Parser.parse_program src) in
  let ring = T.ring ~capacity:(1 lsl 16) in
  let base = Dart.Driver.Options.make ~max_runs:300 ~telemetry:(T.with_sink ring) () in
  let r = Dart.Parallel.run ~options:(Dart.Parallel.options ~jobs:3 base) prog in
  let events = T.events ring in
  let spawns =
    List.filter_map (function T.Worker_spawn { worker; _ } -> Some worker | _ -> None)
      events
  in
  let drains =
    List.filter_map
      (function T.Worker_drain { worker; runs } -> Some (worker, runs) | _ -> None)
      events
  in
  Alcotest.(check (list int)) "spawns in worker order" [ 0; 1; 2 ] spawns;
  Alcotest.(check (list int)) "drains in worker order" [ 0; 1; 2 ] (List.map fst drains);
  List.iter
    (fun (w : Dart.Parallel.worker_report) ->
      Alcotest.(check int)
        (Printf.sprintf "drain runs of worker %d" w.Dart.Parallel.w_id)
        w.Dart.Parallel.w_report.Dart.Driver.runs
        (List.assoc w.Dart.Parallel.w_id drains))
    r.Dart.Parallel.workers;
  Alcotest.(check int) "merged runs = run_start events"
    r.Dart.Parallel.merged.Dart.Driver.runs
    (count (function T.Run_start _ -> true | _ -> false) events);
  Alcotest.(check int) "merged queries = non-hit solve events"
    (Solver.queries r.Dart.Parallel.merged.Dart.Driver.solver_stats)
    (count (function T.Solve_query { cache_hit; _ } -> not cache_hit | _ -> false) events);
  (* The join emits the merge phase total after the worker replays. *)
  (match List.rev events with
   | T.Phase_total { phase = T.Merge; _ } :: _ -> ()
   | _ -> Alcotest.fail "trace must end with the merge phase total");
  (* jobs=1 hands the sink through without worker framing. *)
  let ring1 = T.ring ~capacity:(1 lsl 16) in
  let base1 = Dart.Driver.Options.make ~max_runs:300 ~telemetry:(T.with_sink ring1) () in
  let r1 = Dart.Parallel.run ~options:(Dart.Parallel.options ~jobs:1 base1) prog in
  Alcotest.(check int) "jobs=1: no worker events" 0
    (count
       (function T.Worker_spawn _ | T.Worker_drain _ -> true | _ -> false)
       (T.events ring1));
  Alcotest.(check int) "jobs=1: run_start per run" r1.Dart.Parallel.merged.Dart.Driver.runs
    (count (function T.Run_start _ -> true | _ -> false) (T.events ring1))

(* A worker ring that fills up overwrites its oldest events: the join
   counts what was lost, so that the caller can say the trace is
   incomplete. *)
let test_parallel_dropped_count () =
  let prog =
    Dart.Driver.prepare ~toplevel:"ac_controller" ~depth:3
      (Minic.Parser.parse_program (Example_programs.read "ac_controller.mc"))
  in
  let dropped worker_buffer =
    let base =
      Dart.Driver.Options.make ~depth:3 ~stop_on_first_bug:false
        ~telemetry:{ (T.with_sink (T.ring ~capacity:(1 lsl 16))) with T.worker_buffer }
        ()
    in
    (Dart.Parallel.run ~options:(Dart.Parallel.options ~jobs:2 base) prog).Dart.Parallel.dropped
  in
  Alcotest.(check bool) "64-event rings overflow" true (dropped 64 > 0);
  Alcotest.(check int) "nothing lost under the cap" 0 (dropped (1 lsl 16))

(* ---- dartc observability end to end ------------------------------------------------ *)

(* A trace line with every wall-clock ["ns"] value set to 0. *)
let zero_ns line =
  let key = "\"ns\":" in
  let n = String.length line and k = String.length key in
  let buf = Buffer.create n in
  let rec go i =
    if i < n then
      if i + k <= n && String.sub line i k = key then begin
        Buffer.add_string buf (key ^ "0");
        let j = ref (i + k) in
        while !j < n && line.[!j] >= '0' && line.[!j] <= '9' do
          incr j
        done;
        go !j
      end
      else begin
        Buffer.add_char buf line.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents buf

let check_exit what want (code, _, err) =
  Alcotest.(check int) (Printf.sprintf "%s (stderr: %s)" what err) want code

(* A traced run prints what an untraced one does; its status snapshot
   and trace render; malformed inputs to the readers are usage errors
   that name the file. *)
let test_dartc_single_run_observability () =
  let ac = [ "../examples/ac_controller.mc"; "--toplevel"; "ac_controller"; "--depth"; "2" ] in
  Dartc_cli.with_temp_files 4 (function
    | [ status; trace; bad_trace; bad_status ] ->
      let ((_, plain, _) as r) = Dartc_cli.run ac in
      check_exit "plain run finds the bug" 1 r;
      let ((_, traced, _) as r) =
        Dartc_cli.run (ac @ [ "--status"; status; "--trace"; trace ])
      in
      check_exit "traced run finds the bug" 1 r;
      Alcotest.(check string) "--status and --trace leave stdout as it was" plain traced;
      let ((_, watch, _) as r) = Dartc_cli.run [ "watch"; status; "--once" ] in
      check_exit "watch renders the snapshot" 0 r;
      Alcotest.(check bool) "status header" true
        (String.starts_with ~prefix:"DART run status" watch);
      Alcotest.(check bool) "one bug" true (Str_contains.contains watch "bugs       1");
      check_exit "profile reads the trace" 0 (Dartc_cli.run [ "profile"; trace ]);
      Out_channel.with_open_bin bad_trace (fun oc ->
          output_string oc "{\"ev\":\"warp_drive\"}\n");
      let ((_, _, err) as r) = Dartc_cli.run [ "profile"; bad_trace ] in
      check_exit "profile refuses an unknown event" 2 r;
      Alcotest.(check bool) "the error names file and line" true
        (Str_contains.contains err (bad_trace ^ ":1"));
      Out_channel.with_open_bin bad_status (fun oc ->
          output_string oc "{\"schema\":\"dart-status\"\n");
      check_exit "watch refuses a torn snapshot" 2
        (Dartc_cli.run [ "watch"; bad_status; "--once" ])
    | _ -> assert false)

(* A campaign's trace replays deterministically: at jobs 1 and jobs 2
   the same seed gives the same event stream once the wall-clock "ns"
   fields are zeroed. The jobs-2 run also keeps a status snapshot, and
   every reader renders what it wrote. *)
let test_dartc_campaign_trace_jobs_invariant () =
  Dartc_cli.with_temp_files 3 (function
    | [ status; trace2; trace1 ] ->
      check_exit "jobs 2 campaign finds bugs" 1
        (Dartc_cli.run
           (Dartc_cli.osip_campaign
           @ [ "--jobs"; "2"; "--status"; status; "--trace"; trace2 ]));
      check_exit "watch renders the campaign snapshot" 0
        (Dartc_cli.run [ "watch"; status; "--once" ]);
      check_exit "profile reads the campaign trace" 0
        (Dartc_cli.run [ "profile"; trace2; "--top"; "5" ]);
      check_exit "jobs 1 campaign finds bugs" 1
        (Dartc_cli.run (Dartc_cli.osip_campaign @ [ "--jobs"; "1"; "--trace"; trace1 ]));
      let lines path = List.map zero_ns (String.split_on_char '\n' (Dartc_cli.read_file path)) in
      Alcotest.(check (list string)) "jobs 1 and jobs 2 traces agree" (lines trace1)
        (lines trace2)
    | _ -> assert false)

(* --metrics prints the profile's phase table and histograms; the trace
   it records renders with profile and cover, a live cover run writes
   lcov and HTML, and the deleted trace-stats subcommand is a usage
   error. *)
let test_dartc_metrics_trace_cover () =
  let ac = [ "../examples/ac_controller.mc"; "--toplevel"; "ac_controller" ] in
  Dartc_cli.with_temp_files 3 (function
    | [ trace; lcov; html ] ->
      let ((_, out, _) as r) =
        Dartc_cli.run (ac @ [ "--depth"; "1"; "--metrics"; "--trace"; trace ])
      in
      check_exit "depth 1 explores every path clean" 0 r;
      List.iter
        (fun line ->
          Alcotest.(check bool) (Printf.sprintf "--metrics prints %S" line) true
            (Str_contains.contains out line))
        [ "phases:\n  execute "; "\nrun latency ("; "\nsolve latency ("; "\nincremental: " ];
      check_exit "profile reads the trace" 0 (Dartc_cli.run [ "profile"; trace ]);
      check_exit "trace-stats is gone" 2 (Dartc_cli.run [ "trace-stats"; trace ]);
      check_exit "live cover writes lcov and HTML" 0
        (Dartc_cli.run
           (("cover" :: ac) @ [ "--depth"; "2"; "--timeline"; "--lcov"; lcov; "--html"; html ]));
      Alcotest.(check bool) "HTML report is non-empty" true (Dartc_cli.read_file html <> "");
      (match Dart.Cover_report.parse_lcov (Dartc_cli.read_file lcov) with
       | Ok _ -> ()
       | Error msg -> Alcotest.failf "lcov rejected: %s" msg);
      check_exit "cover annotates from the trace" 0
        (Dartc_cli.run
           (("cover" :: ac) @ [ "--depth"; "1"; "--from-trace"; trace; "--annotate" ]))
    | _ -> assert false)

(* About 8,000 branch events per run (8 calls, each one symbolic branch
   and a 500-iteration loop of two concrete ones): 150 runs overflow the
   live cover ring of 2^20 events, 50 runs fit in it. *)
let flood_src =
  "int acc;\n\
   void step(int x) {\n\
  \  if (x > 0) { acc = acc + 1; }\n\
  \  for (int i = 0; i < 500; i = i + 1) {\n\
  \    if (i > 250) { acc = acc + 1; }\n\
  \  }\n\
   }\n"

let test_dartc_cover_ring_overflow () =
  Dartc_cli.with_temp_files 1 (function
    | [ src ] ->
      Out_channel.with_open_bin src (fun oc -> output_string oc flood_src);
      let cover runs =
        Dartc_cli.run
          [ "cover"; src; "--toplevel"; "step"; "--depth"; "8"; "--max-runs"; runs; "--timeline" ]
      in
      let ((_, _, err) as r) = cover "150" in
      check_exit "an overflowed curve still exits 0" 0 r;
      Alcotest.(check bool) "the dropped events are named" true
        (Str_contains.contains err "early events dropped; the curve starts at run ");
      Alcotest.(check bool) "the warning points at --from-trace" true
        (Str_contains.contains err "--from-trace FILE");
      let ((_, _, err) as r) = cover "50" in
      check_exit "a curve under the cap exits 0" 0 r;
      Alcotest.(check string) "no warning under the cap" "" err
    | _ -> assert false)

(* ---- latency histograms ----------------------------------------------------------- *)

let test_hist_buckets () =
  let h = T.Hist.create () in
  Alcotest.(check int) "empty count" 0 (T.Hist.count h);
  Alcotest.(check int64) "empty p99" 0L (T.Hist.p99 h);
  List.iter (T.Hist.add h) [ 0L; 1L; 5L; 1024L; 1500L; 1_000_000L ];
  Alcotest.(check int) "count" 6 (T.Hist.count h);
  Alcotest.(check int64) "sum" 1_002_530L (T.Hist.sum_ns h);
  Alcotest.(check int64) "max" 1_000_000L (T.Hist.max_ns h);
  Alcotest.(check int64) "mean" 167_088L (T.Hist.mean_ns h);
  (* p50 lands in the [4,8) bucket: its upper bound, 7ns. *)
  Alcotest.(check int64) "p50 is a bucket upper bound" 7L (T.Hist.p50 h);
  (* p99 would report the [2^19,2^20) bound but clamps to the max. *)
  Alcotest.(check int64) "p99 clamps to observed max" 1_000_000L (T.Hist.p99 h);
  Alcotest.(check (list (triple int64 int64 int)))
    "non-empty buckets ascending"
    [ (0L, 2L, 2); (4L, 8L, 1); (1024L, 2048L, 2); (524_288L, 1_048_576L, 1) ]
    (T.Hist.buckets h);
  (* Negative durations (clock skew) clamp to zero instead of escaping
     the bucket range. *)
  T.Hist.add h (-5L);
  Alcotest.(check int) "negative sample clamps into bucket 0" 3
    (match T.Hist.buckets h with (0L, 2L, n) :: _ -> n | _ -> 0)

(* The property Parallel/Campaign joins rely on: bucketwise merge is
   commutative and associative, so any partition of the same samples —
   one worker or four, merged in any order — yields identical buckets
   and percentiles. *)
let test_hist_merge_determinism () =
  let samples =
    (* Fixed synthetic workload, deliberately lumpy. *)
    List.init 100 (fun i -> Int64.of_int ((i * 7919 mod 977) * (1 + (i mod 13))))
  in
  let whole = T.Hist.create () in
  List.iter (T.Hist.add whole) samples;
  let parts = Array.init 4 (fun _ -> T.Hist.create ()) in
  List.iteri (fun i ns -> T.Hist.add parts.(i mod 4) ns) samples;
  let merged = T.Hist.create () in
  (* Merge in a scrambled order on purpose. *)
  List.iter (fun i -> T.Hist.merge ~into:merged parts.(i)) [ 2; 0; 3; 1 ];
  Alcotest.(check int) "count" (T.Hist.count whole) (T.Hist.count merged);
  Alcotest.(check int64) "sum" (T.Hist.sum_ns whole) (T.Hist.sum_ns merged);
  Alcotest.(check int64) "max" (T.Hist.max_ns whole) (T.Hist.max_ns merged);
  Alcotest.(check (list (triple int64 int64 int)))
    "buckets" (T.Hist.buckets whole) (T.Hist.buckets merged);
  List.iter
    (fun p ->
      Alcotest.(check int64)
        (Printf.sprintf "p%g" p)
        (T.Hist.percentile whole p) (T.Hist.percentile merged p))
    [ 50.0; 90.0; 99.0; 100.0 ]

(* ---- plateau over a two-target trace ------------------------------------------- *)

(* A campaign trace concatenates targets, each numbering its runs from
   1. The plateau counts Run_end events across the whole trace, and the
   last gain is the run that first added a direction to [covered]. *)
let test_plateau_two_targets () =
  let run ~target_run fn pc dir ~covered =
    [ T.Run_start { run = target_run };
      T.Branch_taken { fn; pc; dir };
      T.Run_end { run = target_run; outcome = "halted"; steps = 1; dur_ns = 1L };
      T.Cover_point { run = target_run; covered; elapsed_ns = 1L } ]
  in
  let events =
    List.concat
      [ (* target a: gains in its runs 1 and 2 *)
        run ~target_run:1 "a" 0 true ~covered:1;
        run ~target_run:2 "a" 0 false ~covered:2;
        run ~target_run:3 "a" 0 false ~covered:2;
        (* target b: gains in its run 1, the trace's run 4 *)
        run ~target_run:1 "b" 0 true ~covered:1;
        run ~target_run:2 "b" 0 true ~covered:1 ]
  in
  let s = T.summarize events in
  Alcotest.(check (option (pair int int))) "plateau" (Some (5, 1)) s.T.plateau;
  Alcotest.(check bool) "summary line" true
    (Str_contains.contains (Dart.Profile.to_string s)
       "coverage: 3 branch directions after 5 runs (5 cover points); plateau: 1 runs");
  Alcotest.(check (option (pair int int))) "no runs, no plateau" None
    (T.summarize [ T.Cover_point { run = 1; covered = 1; elapsed_ns = 1L } ]).T.plateau

let suite =
  [ Alcotest.test_case "null sink" `Quick test_null_sink;
    Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "ring dropped counter" `Quick test_ring_dropped;
    Alcotest.test_case "hist buckets" `Quick test_hist_buckets;
    Alcotest.test_case "hist merge determinism" `Quick test_hist_merge_determinism;
    Alcotest.test_case "replay" `Quick test_replay;
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json rejects malformed" `Quick test_json_rejects_malformed;
    Alcotest.test_case "phase metrics" `Quick test_metrics;
    Alcotest.test_case "tracing does not perturb search" `Quick test_tracing_off_and_on_agree;
    Alcotest.test_case "jsonl trace counts" `Quick test_jsonl_trace_counts;
    Alcotest.test_case "parallel trace merge" `Quick test_parallel_trace_merge;
    Alcotest.test_case "parallel dropped-event count" `Quick test_parallel_dropped_count;
    Alcotest.test_case "dartc single-run observability" `Quick
      test_dartc_single_run_observability;
    Alcotest.test_case "dartc campaign trace is jobs-invariant" `Quick
      test_dartc_campaign_trace_jobs_invariant;
    Alcotest.test_case "dartc metrics, trace and cover" `Quick test_dartc_metrics_trace_cover;
    Alcotest.test_case "dartc cover warns when its ring overflows" `Quick
      test_dartc_cover_ring_overflow;
    Alcotest.test_case "plateau over two targets" `Quick test_plateau_two_targets ]
