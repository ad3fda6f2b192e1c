(* The coverage explorer: source-line mapping of branch sites, the
   annotated listing, lcov export (validated by round-tripping through
   our own parser), the HTML report, and the coverage-over-time
   machinery — all pinned to agree with Coverage.compute, which is the
   single source of truth for every total. *)

module C = Dart.Cover_report
module T = Dart.Telemetry

let contains = Str_contains.contains

(* Directed search over [src], returning the prepared program, the
   report and the traced events (ring sink). *)
let search ?(depth = 1) ?(max_runs = 5_000) ~toplevel src =
  let ast = Minic.Parser.parse_program src in
  let prog = Dart.Driver.prepare ~toplevel ~depth ast in
  let sink = T.ring ~capacity:(1 lsl 18) in
  let options =
    Dart.Driver.Options.make ~depth ~max_runs ~stop_on_first_bug:false
      ~telemetry:(T.with_sink sink) ()
  in
  let report = Dart.Driver.run ~options prog in
  (prog, report, T.events sink)

(* ---- golden annotated listing ---------------------------------------------------- *)

(* Known branch lines: two sites on line 3 (the short-circuit && is two
   Iif sites), one on line 5. A full DFS search covers every
   direction. *)
let golden_src =
  "int classify(int x, int y) {\n\
  \  int r = 0;\n\
  \  if (x > 0 && y > 0)\n\
  \    r = 1;\n\
  \  if (x == 12345)\n\
  \    abort();\n\
  \  return r;\n\
   }\n"

let golden_expected =
  "annotated source (one two-glyph marker per branch site, taken direction first):\n\
  \  \u{2713}\u{2713} full   \u{2713}\u{00b7} fall-through missing (frontier)   \
   \u{00b7}\u{2713} taken missing (frontier)   \u{00b7}\u{00b7} unreached\n\n\
  \       |    1 | int classify(int x, int y) {\n\
  \       |    2 |   int r = 0;\n\
  \ \u{2713}\u{2713} \u{2713}\u{2713} |    3 |   if (x > 0 && y > 0)\n\
  \       |    4 |     r = 1;\n\
  \ \u{2713}\u{2713}    |    5 |   if (x == 12345)\n\
  \       |    6 |     abort();\n\
  \       |    7 |   return r;\n\
  \       |    8 | }\n\
   \n\
   branch coverage (directions taken / possible):\n\
  \  classify                         6/  6  (3 sites fully covered)\n\
  \  total: 100.0%\n"

let test_annotate_golden () =
  let prog, r, _ = search ~toplevel:"classify" golden_src in
  let t = C.compute prog ~covered:r.Dart.Driver.coverage_sites in
  Alcotest.(check string) "golden annotated listing" golden_expected
    (C.annotate t ~source:golden_src)

let test_status_classification () =
  let prog, r, _ = search ~toplevel:"classify" golden_src in
  let full = C.compute prog ~covered:r.Dart.Driver.coverage_sites in
  Alcotest.(check int) "three sites" 3 (List.length full.C.sites);
  Alcotest.(check bool) "all full" true
    (List.for_all (fun s -> s.C.cs_status = C.Full) full.C.sites);
  Alcotest.(check (list int)) "sites mapped to source lines" [ 3; 3; 5 ]
    (List.map (fun s -> s.C.cs_loc.Minic.Loc.line) full.C.sites);
  (* No execution at all: every site unreached, listed with its line. *)
  let empty = C.compute prog ~covered:[] in
  Alcotest.(check bool) "all unreached" true
    (List.for_all (fun s -> s.C.cs_status = C.Unreached) empty.C.sites);
  Alcotest.(check int) "no frontier when unreached" 0 (List.length (C.frontier empty));
  Alcotest.(check int) "all sites in unreached list" 3 (List.length (C.unreached empty));
  let listing = C.annotate empty ~source:golden_src in
  Alcotest.(check bool) "unreached markers rendered" true
    (contains listing " \u{00b7}\u{00b7} \u{00b7}\u{00b7} |    3 |");
  Alcotest.(check bool) "unreached section present" true
    (contains listing "unreached sites:\n");
  (* Drop every taken-direction record: covered sites degrade to the
     fall-only frontier and the listing says so. *)
  let fall_only =
    List.filter (fun (_, _, dir) -> not dir) r.Dart.Driver.coverage_sites
  in
  let frontier = C.compute prog ~covered:fall_only in
  Alcotest.(check bool) "all fall-only" true
    (List.for_all (fun s -> s.C.cs_status = C.Fall_only) frontier.C.sites);
  Alcotest.(check int) "every site on the frontier" 3 (List.length (C.frontier frontier));
  let listing = C.annotate frontier ~source:golden_src in
  Alcotest.(check bool) "frontier markers rendered" true
    (contains listing " \u{00b7}\u{2713} \u{00b7}\u{2713} |    3 |");
  Alcotest.(check bool) "frontier section present" true
    (contains listing "frontier sites (one direction missing):\n")

(* ---- every report agrees with Coverage.compute ----------------------------------- *)

let workloads =
  [ ("section2.1", fst Workloads.Paper_examples.section_2_1,
     snd Workloads.Paper_examples.section_2_1, 1);
    ("section2.4", fst Workloads.Paper_examples.section_2_4,
     snd Workloads.Paper_examples.section_2_4, 1);
    ("section2.5-cast", fst Workloads.Paper_examples.section_2_5_cast,
     snd Workloads.Paper_examples.section_2_5_cast, 1);
    ("section2.5-foobar", fst Workloads.Paper_examples.section_2_5_foobar,
     snd Workloads.Paper_examples.section_2_5_foobar, 1);
    ("eq-filter", fst Workloads.Paper_examples.eq_filter,
     snd Workloads.Paper_examples.eq_filter, 1);
    ("ac-controller", fst Workloads.Paper_examples.ac_controller,
     snd Workloads.Paper_examples.ac_controller, 2);
    ("list-example", fst Workloads.Paper_examples.list_example,
     snd Workloads.Paper_examples.list_example, 1);
    ("sip-parser", Workloads.Sip_parser.vulnerable, Workloads.Sip_parser.toplevel, 1);
    ("ns-possibilistic", Workloads.Needham_schroeder.possibilistic ~fix:`None,
     Workloads.Needham_schroeder.possibilistic_toplevel, 1) ]

let dirs_of_status = function
  | C.Full -> 2
  | C.Taken_only | C.Fall_only -> 1
  | C.Unreached -> 0

let test_reports_agree_with_coverage () =
  List.iter
    (fun (name, src, toplevel, depth) ->
      let prog, r, _ = search ~depth ~max_runs:500 ~toplevel src in
      let covered = r.Dart.Driver.coverage_sites in
      let t = C.compute prog ~covered in
      let cov = Dart.Coverage.compute prog ~covered in
      Alcotest.(check bool) (name ^ ": embedded coverage is Coverage.compute") true
        (t.C.coverage = cov);
      Alcotest.(check int) (name ^ ": one site record per site") cov.Dart.Coverage.total_sites
        (List.length t.C.sites);
      Alcotest.(check int) (name ^ ": statuses sum to total directions")
        cov.Dart.Coverage.total_directions
        (List.fold_left (fun acc s -> acc + dirs_of_status s.C.cs_status) 0 t.C.sites);
      (* The annotated listing embeds the Coverage.to_string block
         byte-for-byte. *)
      Alcotest.(check bool) (name ^ ": annotate embeds coverage block") true
        (contains (C.annotate t ~source:src) (Dart.Coverage.to_string cov));
      (* The lcov export round-trips through our own parser and its
         totals are the coverage totals. *)
      (match C.parse_lcov (C.to_lcov t) with
       | Error msg -> Alcotest.failf "%s: lcov round-trip failed: %s" name msg
       | Ok lt ->
         Alcotest.(check int) (name ^ ": BRDA records = 2 * sites")
           (2 * cov.Dart.Coverage.total_sites) lt.C.lt_brda;
         Alcotest.(check int) (name ^ ": BRDA hits = directions")
           cov.Dart.Coverage.total_directions lt.C.lt_branches_hit;
         Alcotest.(check int) (name ^ ": summed BRF = 2 * sites")
           (2 * cov.Dart.Coverage.total_sites) lt.C.lt_brf;
         Alcotest.(check int) (name ^ ": summed BRH = directions")
           cov.Dart.Coverage.total_directions lt.C.lt_brh);
      (* The HTML report shows the same aggregate percent and every
         function with sites. *)
      let html = C.to_html t ~source:src ~title:name in
      Alcotest.(check bool) (name ^ ": html shows the percent") true
        (contains html (Printf.sprintf "%.1f%%" (Dart.Coverage.percent cov)));
      List.iter
        (fun (e : Dart.Coverage.entry) ->
          if e.Dart.Coverage.cov_sites > 0 then
            Alcotest.(check bool)
              (Printf.sprintf "%s: html lists %s" name e.Dart.Coverage.cov_fn)
              true
              (contains html (Printf.sprintf "<td>%s</td>" e.Dart.Coverage.cov_fn)))
        cov.Dart.Coverage.entries)
    workloads

(* ---- lcov parser rejects malformed input ----------------------------------------- *)

let test_lcov_parser_rejects () =
  let bad =
    [ "DA:1,1\n" (* record outside any SF block *);
      "SF:a.mc\nSF:b.mc\nend_of_record\n" (* nested SF *);
      "SF:a.mc\nDA:1\nend_of_record\n" (* DA missing count *);
      "SF:a.mc\nBRDA:1,0,0\nend_of_record\n" (* BRDA missing field *);
      "SF:a.mc\nBRDA:1,0,0,x\nend_of_record\n" (* non-numeric taken *);
      "SF:a.mc\nWAT:1\nend_of_record\n" (* unknown record *);
      "SF:a.mc\nDA:1,1\n" (* unterminated block *) ]
  in
  List.iter
    (fun text ->
      match C.parse_lcov text with
      | Ok _ -> Alcotest.failf "accepted malformed lcov %S" text
      | Error _ -> ())
    bad;
  match C.parse_lcov "TN:x\nSF:a.mc\nDA:3,1\nDA:4,0\nLF:2\nLH:1\nend_of_record\n" with
  | Ok lt ->
    Alcotest.(check int) "files" 1 lt.C.lt_files;
    Alcotest.(check int) "da records" 2 lt.C.lt_da;
    Alcotest.(check int) "lines hit" 1 lt.C.lt_lines_hit
  | Error msg -> Alcotest.failf "rejected valid lcov: %s" msg

(* ---- trace replay: recorded timeline == live timeline ---------------------------- *)

let test_trace_timeline_replay () =
  let src, toplevel = Workloads.Paper_examples.ac_controller in
  let _, r, events = search ~depth:2 ~toplevel src in
  (* Serialize the live events exactly as --trace writes them, parse
     them back, and the derived timeline must be identical — including
     the recorded timestamps. *)
  let parsed =
    List.map
      (fun e ->
        match T.event_of_json (T.event_to_json e) with
        | Ok e' -> e'
        | Error msg -> Alcotest.failf "event failed to round-trip: %s" msg)
      events
  in
  Alcotest.(check bool) "replayed timeline identical" true
    ((T.summarize parsed).T.timeline = (T.summarize events).T.timeline);
  let s = T.summarize parsed in
  Alcotest.(check int) "cover point per run" r.Dart.Driver.runs (List.length s.T.timeline);
  (match T.plateau s with
   | Some (last_run, stale) ->
     Alcotest.(check int) "plateau anchored at the last run" r.Dart.Driver.runs last_run;
     Alcotest.(check bool) "stale-run count within the run budget" true
       (stale >= 0 && stale < r.Dart.Driver.runs)
   | None -> Alcotest.fail "trace has cover points, plateau must exist");
  (* Frontier sites from the trace agree with the site classification
     from the coverage report. *)
  let s_live = T.summarize events in
  Alcotest.(check int) "trace dirs = report coverage" r.Dart.Driver.branches_covered
    (T.distinct_branch_dirs s_live)

let test_random_search_timeline () =
  let src, toplevel = Workloads.Paper_examples.ac_controller in
  let ast = Minic.Parser.parse_program src in
  let prog = Dart.Driver.prepare ~toplevel ~depth:2 ast in
  let sink = T.ring ~capacity:(1 lsl 16) in
  let r = Dart.Random_search.run ~seed:7 ~max_runs:50 ~telemetry:sink prog in
  let s = T.summarize (T.events sink) in
  Alcotest.(check int) "random search emits one cover point per run"
    r.Dart.Random_search.runs (List.length s.T.timeline);
  (match List.rev s.T.timeline with
   | last :: _ ->
     Alcotest.(check int) "random timeline ends at its coverage"
       r.Dart.Random_search.branches_covered last.T.cp_covered
   | [] -> Alcotest.fail "no cover points");
  (* Random traces carry no Branch_taken events; the summary's coverage
     line must fall back to the Cover_point curve, not print 0. *)
  Alcotest.(check int) "random trace has no branch events" 0 s.T.branches;
  Alcotest.(check bool) "summary coverage line uses the timeline" true
    (contains (T.summary_to_string s)
       (Printf.sprintf "coverage: %d branch directions"
          r.Dart.Random_search.branches_covered))

(* ---- Coverage.frontier_count ---------------------------------------------------- *)

let test_frontier_count () =
  let count = Dart.Coverage.frontier_count in
  Alcotest.(check int) "empty" 0 (count []);
  Alcotest.(check int) "one direction = frontier" 1 (count [ ("f", 0, true) ]);
  Alcotest.(check int) "both directions = full" 0
    (count [ ("f", 0, true); ("f", 0, false) ]);
  Alcotest.(check int) "duplicates don't double-count" 1
    (count [ ("f", 0, true); ("f", 0, true); ("g", 1, true); ("g", 1, false) ])

(* ---- Coverage.to_string sizes its columns from the data -------------------------- *)

let test_coverage_width () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "void tiny(int x) { if (x == 1) x = 2; }\n";
  Buffer.add_string buf "void many(int x) {\n";
  for i = 0 to 511 do
    Buffer.add_string buf (Printf.sprintf "  if (x == %d) x = x + 1;\n" i)
  done;
  Buffer.add_string buf "}\n";
  let prog =
    Dart.Driver.prepare ~toplevel:"tiny" ~depth:1
      (Minic.Parser.parse_program (Buffer.contents buf))
  in
  let cov = Dart.Coverage.compute prog ~covered:[] in
  Alcotest.(check bool) "512-site function present" true
    (List.exists
       (fun (e : Dart.Coverage.entry) -> e.Dart.Coverage.cov_sites = 512)
       cov.Dart.Coverage.entries);
  let rendered = Dart.Coverage.to_string cov in
  Alcotest.(check bool) "wide possible count rendered" true
    (contains rendered "/1024");
  (* Both entry rows must align: the '/' sits at the same column. *)
  let rows =
    List.filter
      (fun l -> contains l "tiny" || contains l "many")
      (String.split_on_char '\n' rendered)
  in
  (match rows with
   | [ a; b ] ->
     Alcotest.(check int) "columns align across magnitudes" (String.index a '/')
       (String.index b '/')
   | _ -> Alcotest.fail "expected exactly two entry rows");
  (* The historical small-report shape is untouched. *)
  let small =
    Dart.Driver.prepare ~toplevel:"tiny" ~depth:1
      (Minic.Parser.parse_program "void tiny(int x) { if (x == 1) x = 2; }")
  in
  Alcotest.(check string) "small report byte-stable"
    "branch coverage (directions taken / possible):\n\
    \  tiny                             0/  2  (0 sites fully covered)\n\
    \  total: 0.0%\n"
    (Dart.Coverage.to_string (Dart.Coverage.compute small ~covered:[]))

let suite =
  [ Alcotest.test_case "annotate golden" `Quick test_annotate_golden;
    Alcotest.test_case "status classification" `Quick test_status_classification;
    Alcotest.test_case "reports agree with Coverage.compute" `Quick
      test_reports_agree_with_coverage;
    Alcotest.test_case "lcov parser rejects malformed" `Quick test_lcov_parser_rejects;
    Alcotest.test_case "trace timeline replay" `Quick test_trace_timeline_replay;
    Alcotest.test_case "random search timeline" `Quick test_random_search_timeline;
    Alcotest.test_case "coverage column width" `Quick test_coverage_width;
    Alcotest.test_case "frontier counting" `Quick test_frontier_count ]
