(* dartc: run DART on a MiniC source file.

     dune exec bin/dartc.exe -- program.mc --toplevel f --depth 2

   Exit status (all subcommands):
     0  search finished clean, no bug found
     1  a bug was found
     2  usage or front-end error
     3  interrupted (SIGINT/SIGTERM) or the --time-budget expired;
        the partial report (and --checkpoint file, when given) was
        still written

   Subcommands: `dartc campaign library.mc` tests every discoverable
   function of a library in one invocation (see run_campaign below for
   its exit codes); `dartc profile trace.jsonl` summarizes a trace
   written with --trace and attributes wall clock across
   phases/targets/solver sites; `dartc watch status.json` follows a
   --status snapshot; `dartc cover` explores coverage. *)

open Cmdliner

let strategy_conv =
  let parse = function
    | "dfs" -> Ok Dart.Strategy.Dfs
    | "bfs" -> Ok Dart.Strategy.Bfs
    | "random" -> Ok Dart.Strategy.Random_branch
    | s -> Error (`Msg (Printf.sprintf "unknown strategy %S (dfs|bfs|random)" s))
  in
  let print fmt s = Format.pp_print_string fmt (Dart.Strategy.to_string s) in
  Arg.conv (parse, print)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MiniC source file.")

let toplevel_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "t"; "toplevel" ] ~docv:"FUNC"
        ~doc:"Function under test; its arguments become DART-controlled inputs.")

let depth_arg =
  Arg.(
    value & opt int 1
    & info [ "d"; "depth" ]
        ~doc:"Number of iterative calls to the toplevel function per run (paper \u{00a7}3.2).")

let max_runs_arg =
  Arg.(value & opt int 10_000 & info [ "max-runs" ] ~doc:"Budget of instrumented runs.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed (reproducible).")

let strategy_arg =
  Arg.(
    value
    & opt (some strategy_conv) None
    & info [ "strategy" ] ~docv:"STRAT"
        ~doc:"Branch-selection strategy: dfs (default), bfs or random.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Parallel search workers: N domains (0 = one per core) share the run budget, and \
           DFS workers split the path tree between them. With bfs or random, each worker \
           searches on its own. The deduped bug set and verdict match --jobs 1.")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:
          "Disable the solve cache (every query hits the solver). With it, a search \
           resumed from $(b,--checkpoint) repeats the uninterrupted run exactly: a warm \
           cache may hand back a different, equally valid model after a restart.")

let random_mode_arg =
  Arg.(
    value & flag
    & info [ "random-testing" ]
        ~doc:"Disable the directed search: plain random testing with the same driver.")

let symbolic_ptrs_arg =
  Arg.(
    value & flag
    & info [ "symbolic-pointers" ]
        ~doc:"Extension: make NULL/non-NULL pointer-shape coins directable branches.")

let all_bugs_arg =
  Arg.(
    value & flag
    & info [ "all-bugs" ] ~doc:"Keep searching after the first bug; report all distinct ones.")

let show_interface_arg =
  Arg.(value & flag & info [ "show-interface" ] ~doc:"Print the extracted interface and exit.")

let show_driver_arg =
  Arg.(
    value & flag
    & info [ "show-driver" ] ~doc:"Print the generated test driver (MiniC) and exit.")

let dump_ram_arg =
  Arg.(value & flag & info [ "dump-ram" ] ~doc:"Print the lowered RAM-machine code and exit.")

let coverage_arg =
  Arg.(
    value & flag
    & info [ "coverage" ] ~doc:"Print a per-function branch-coverage report after the search.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a structured event trace (one JSON object per line) of the whole search \
           to $(docv); inspect it with $(b,dartc profile).")

let status_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "status" ] ~docv:"FILE"
        ~doc:
          "Maintain a live status snapshot in $(docv): one small JSON object, atomically \
           rewritten (write-then-rename) as the search progresses. Follow it with \
           $(b,dartc watch).")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print per-phase wall-clock timings (execute/solve/lower/merge) after the run.")

let time_budget_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "time-budget" ] ~docv:"SEC"
        ~doc:
          "Wall-clock budget for the whole search (for a campaign: the whole campaign, \
           every slice of every target), in seconds. Checked at run boundaries: an \
           over-budget search stops cleanly with a complete partial report and exit code \
           3.")

let solver_timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "solver-timeout" ] ~docv:"MS"
        ~doc:
          "Per-solver-query deadline in milliseconds; an overrunning query degrades to \
           unknown (counted in the report) instead of stalling the search.")

let checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "Periodically write a resumable search checkpoint to $(docv) (atomic \
           write-then-rename), plus a final one when the search stops early; resume with \
           $(b,--resume).")

let checkpoint_every_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:"Checkpoint every $(docv) instrumented runs (default 256).")

let resume_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Resume a search from a checkpoint written by $(b,--checkpoint). The seed, \
           depth, strategy and $(b,--symbolic-pointers) must match the checkpointed \
           search; the run budget may grow. With $(b,--no-cache) the resumed search continues the exact run \
           sequence of the uninterrupted one.")

let faultsim_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faultsim" ] ~docv:"SPEC"
        ~doc:
          "Deterministic fault injection for resilience testing: comma-separated rules \
           $(i,point[@key][:nth]) (fire once, on the nth probe; \":?\" draws nth from \
           $(b,--faultsim-seed)) or $(i,point[@key]=rate) (fire on each probe with \
           probability rate in (0,1], drawn from $(b,--faultsim-seed)). Points: \
           solver_deadline, worker_crash (parallel workers and campaign slices, so not a \
           single run at $(b,--jobs) 1), machine_step_limit and io_error — e.g. \
           $(b,worker_crash=0.05,io_error=0.02). A campaign degrades, never fails: \
           faulted targets are retried, then quarantined.")

let faultsim_seed_arg =
  Arg.(
    value & opt int 0
    & info [ "faultsim-seed" ] ~docv:"N"
        ~doc:"Seed for the \":?\" occurrence and rate draws in $(b,--faultsim) rules.")

let usage_error msg =
  Printf.eprintf "dartc: %s\n" msg;
  2

(* The --faultsim plan: off without a spec, else the parsed spec or
   the usage error that names the flag. *)
let faultsim_plan ~seed = function
  | None -> Ok Dart_util.Faultsim.off
  | Some spec ->
    Result.map_error (Printf.sprintf "--faultsim: %s") (Dart_util.Faultsim.of_spec ~seed spec)

(* Conflicting-flag validation, as one declarative table: first row
   whose predicate fires wins, its message goes out with exit 2. Add
   new conflicts here, not as ad-hoc if/else chains in the driver. *)
let validate ~jobs ~strategy ~random_mode ~no_cache ~time_budget ~solver_timeout
    ~checkpoint ~checkpoint_every ~resume ~faultsim ~status =
  let table =
    [ (jobs < 0, "--jobs must be >= 0");
      (* Random testing flips no branch and asks no solver: reject
         flags that would silently be ignored. *)
      (random_mode && strategy <> None, "--strategy has no effect with --random-testing");
      (random_mode && no_cache, "--no-cache has no effect with --random-testing");
      ( (match time_budget with Some s -> s <= 0.0 | None -> false),
        "--time-budget must be positive" );
      ( (match solver_timeout with Some ms -> ms <= 0.0 | None -> false),
        "--solver-timeout must be positive" );
      ( (match checkpoint_every with Some n -> n <= 0 | None -> false),
        "--checkpoint-every must be positive" );
      ( checkpoint_every <> None && checkpoint = None,
        "--checkpoint-every requires --checkpoint" );
      (* The checkpoint meta line does not record the mode, so a
         random-testing snapshot would resume as a directed search. *)
      ( random_mode && (checkpoint <> None || resume <> None),
        "--checkpoint/--resume are not supported with --random-testing" );
      (* Checkpoints serialize one sequential search's state. *)
      ( jobs <> 1 && (checkpoint <> None || resume <> None),
        "--checkpoint/--resume require --jobs 1" );
      ( random_mode && solver_timeout <> None,
        "--solver-timeout has no effect with --random-testing (no solver)" );
      ( jobs = 1 && Dart_util.Faultsim.arms faultsim Dart_util.Faultsim.Worker_crash,
        "--faultsim worker_crash requires --jobs other than 1 (only parallel workers \
         crash)" );
      (* The status file has one writer: the sequential search.
         Parallel workers each run their own search loop. *)
      (status <> None && jobs <> 1, "--status requires --jobs 1") ]
  in
  List.find_opt fst table |> Option.map snd

let print_coverage prog covered =
  print_string (Dart.Coverage.to_string (Dart.Coverage.compute prog ~covered))

(* Run [f] with a telemetry sink for --trace: the null sink when
   tracing is off, else a JSONL writer whose channel is closed (after a
   final flush) whatever [f] does. The flush is explicit and the close
   is [close_out_noerr]: [close_out] raising from the [finally] (full
   disk, dropped pipe) would mask [f]'s outcome, and the
   interrupted/over-budget exits must still deliver every buffered
   event rather than a truncated trace. *)
let with_trace_sink trace f =
  match trace with
  | None -> f Dart.Telemetry.null
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () ->
        (try flush oc with Sys_error _ -> ());
        close_out_noerr oc)
      (fun () -> f (Dart.Telemetry.jsonl oc))

let ns_of_seconds s = Int64.of_float (s *. 1e9)
let ns_of_ms ms = Int64.of_float (ms *. 1e6)

(* SIGINT/SIGTERM flip the cooperative cancellation flag: the search
   drains at its next run boundary, prints the partial report, writes
   its artifacts (trace, checkpoint) and dartc exits 3 — instead of the
   process dying mid-write. The handler stays installed, so repeated
   signals are idempotent requests rather than a hard kill. *)
let install_signal_handlers () =
  let handle = Sys.Signal_handle (fun _ -> Dart.Cancel.request ()) in
  (try Sys.set_signal Sys.sigint handle with Invalid_argument _ | Sys_error _ -> ());
  try Sys.set_signal Sys.sigterm handle with Invalid_argument _ | Sys_error _ -> ()

exception Malformed of string

(* The front-end error handler of every subcommand: a lexer, parser or
   typechecker error, a missing toplevel, a malformed trace and an
   unreadable file each print one line on stderr and exit 2. [cmd]
   names the subcommand on the malformed-trace line. *)
let with_front_end_errors cmd f =
  try f () with
  | Minic.Lexer.Error (loc, msg) | Minic.Parser.Error (loc, msg)
  | Minic.Typecheck.Error (loc, msg) ->
    Printf.eprintf "%s: error: %s\n" (Minic.Loc.to_string loc) msg;
    2
  | Dart.Driver_gen.No_toplevel name ->
    Printf.eprintf "error: no function named %s with a body\n" name;
    2
  | Malformed msg ->
    Printf.eprintf "%s: %s\n" cmd msg;
    2
  | Sys_error msg ->
    Printf.eprintf "error: %s\n" msg;
    2

let run_dartc file toplevel depth max_runs seed strategy random_mode symbolic_ptrs all_bugs
    jobs no_cache time_budget solver_timeout checkpoint checkpoint_every resume faultsim
    faultsim_seed trace status metrics_flag show_interface show_driver dump_ram coverage =
  with_front_end_errors "dartc" @@ fun () ->
  let src = Dart_util.Fileio.read_all file in
  let ast = Minic.Parser.parse_program ~file src in
  if show_interface then begin
    let typed = Minic.Typecheck.check ast in
    print_string (Dart.Interface.to_string (Dart.Interface.extract typed ~toplevel));
    0
  end
  else if show_driver then begin
    print_string (Dart.Driver_gen.driver_source ast ~toplevel ~depth);
    0
  end
  else begin
    match
      Result.bind (faultsim_plan ~seed:faultsim_seed faultsim) (fun fs ->
          match
            validate ~jobs ~strategy ~random_mode ~no_cache ~time_budget ~solver_timeout
              ~checkpoint ~checkpoint_every ~resume ~faultsim:fs ~status
          with
          | Some msg -> Error msg
          | None -> Ok fs)
    with
    | Error msg -> usage_error msg
    | Ok fs ->
      if dump_ram then begin
        let prog = Dart.Driver.prepare ~toplevel ~depth ast in
        Hashtbl.iter
          (fun _ f -> print_string (Ram.Instr.func_to_string f))
          prog.Ram.Instr.funcs;
        0
      end
      else begin
        with_trace_sink trace @@ fun sink ->
        install_signal_handlers ();
        (* Preparation (driver generation, typecheck, lowering) is
           timed into the Lower phase of the same metrics record the
           search will use, so --metrics accounts for the whole
           pipeline. *)
        let prep = Dart.Telemetry.create_metrics () in
        let options =
          Dart.Driver.Options.make ~seed ~depth ~max_runs
            ~strategy:(Option.value ~default:Dart.Strategy.Dfs strategy)
            ~stop_on_first_bug:(not all_bugs) ~use_cache:(not no_cache)
            ?time_budget_ns:(Option.map ns_of_seconds time_budget)
            ?solver_deadline_ns:(Option.map ns_of_ms solver_timeout)
            ~exec:
              { Dart.Concolic.default_exec_options with
                symbolic_pointers = symbolic_ptrs;
                symbolic = not random_mode }
            ~telemetry:
              { (Dart.Telemetry.with_sink sink) with
                Dart.Telemetry.status_path = status }
            ~faultsim:fs ()
        in
        let prog = Dart.Driver.prepare ~metrics:prep ~toplevel ~depth ast in
        let resume_snapshot =
          match resume with
          | None -> Ok None
          | Some path ->
            (match Dart.Checkpoint.load ~path ~options with
             | Error msg -> Error (Printf.sprintf "--resume %s: %s" path msg)
             | Ok snap -> Ok (Some snap))
        in
        match resume_snapshot with
        | Error msg -> usage_error msg
        | Ok resume_snapshot ->
          let on_checkpoint =
            Option.map
              (fun path snapshot -> Dart.Checkpoint.save ~path ~options snapshot)
              checkpoint
          in
          let report =
            if jobs = 1 then begin
              let report =
                Dart.Driver.run ?resume:resume_snapshot ?on_checkpoint
                  ?checkpoint_every ~metrics:prep ~options prog
              in
              print_endline (Dart.Driver.report_to_string report);
              report
            end
            else begin
              let r =
                Dart.Parallel.run ~options:(Dart.Parallel.options ~jobs options) prog
              in
              (* Workers never see preparation time: fold it into
                 the merged metrics (and the trace) here. *)
              Dart.Telemetry.add_metrics ~into:r.Dart.Parallel.merged.Dart.Driver.metrics
                prep;
              if Dart.Telemetry.enabled sink then begin
                Dart.Telemetry.emit sink
                  (Dart.Telemetry.Phase_total
                     { phase = Dart.Telemetry.Lower;
                       dur_ns = prep.Dart.Telemetry.lower_ns });
                Dart.Telemetry.flush sink
              end;
              print_endline (Dart.Parallel.report_to_string r);
              (* At --jobs 1 the search traces straight into the file. *)
              if r.Dart.Parallel.dropped > 0 then
                Printf.eprintf "dartc: %s\n"
                  (Dart.Parallel.dropped_warning ~remedy:"trace with --jobs 1 to keep every event"
                     r.Dart.Parallel.dropped);
              r.Dart.Parallel.merged
            end
          in
          (* Phase timings, latency distributions and the
             incremental/shared-store counters ride with --metrics:
             the plain report stays byte-identical whether or not
             incremental solving ([accel.use_incremental]) is on. *)
          if metrics_flag then begin
            print_string (Dart.Profile.metrics_to_string report.Dart.Driver.metrics);
            let st = report.Dart.Driver.solver_stats in
            Printf.printf
              "incremental: %d prepared-state hits, %d pops saved, %d shared-store hits\n"
              (Solver.incremental_hits st) (Solver.pops_saved st)
              (Solver.shared_hits st)
          end;
          if coverage then print_coverage prog report.Dart.Driver.coverage_sites;
          List.iter
            (fun (b : Dart.Driver.bug) ->
              Printf.printf "  - %s in %s at %s (run %d)\n"
                (Machine.fault_to_string b.bug_fault)
                b.bug_site.Machine.site_fn
                (Minic.Loc.to_string b.bug_site.Machine.site_loc)
                b.bug_run)
            report.Dart.Driver.bugs;
          match report.Dart.Driver.verdict with
          | Dart.Driver.Bug_found _ -> 1
          | Dart.Driver.Complete | Dart.Driver.Budget_exhausted -> 0
          | Dart.Driver.Time_exhausted | Dart.Driver.Interrupted -> 3
      end
  end

(* ---- trace files ----------------------------------------------------------------- *)

let trace_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"TRACE" ~doc:"JSONL trace file produced by $(b,--trace).")

(* Fold a JSONL trace into its summary one line at a time. Raises
   [Malformed] on the first line that is not a known event. *)
let summarize_trace file =
  let add, finish = Dart.Telemetry.summarizer () in
  In_channel.with_open_text file
    (In_channel.fold_lines
       (fun lineno line ->
         (if String.trim line <> "" then
            match Dart.Telemetry.event_of_json line with
            | Ok e -> add e
            | Error msg -> raise (Malformed (Printf.sprintf "%s:%d: %s" file lineno msg)));
         lineno + 1)
       1)
  |> ignore;
  finish ()

(* ---- cover ----------------------------------------------------------------------- *)

(* The coverage explorer: run a directed search (or replay a recorded
   trace) and render where the branch coverage actually landed —
   annotated source, lcov tracefile, single-file HTML, and the
   coverage-over-time curve with a plateau diagnosis. *)

let cover_from_trace_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "from-trace" ] ~docv:"TRACE"
        ~doc:
          "Derive coverage from a recorded JSONL trace (written with $(b,--trace)) instead \
           of running a live search.")

let cover_annotate_arg =
  Arg.(
    value & flag
    & info [ "annotate" ]
        ~doc:
          "Print the annotated source listing (the default when no other output is \
           selected).")

let cover_lcov_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "lcov" ] ~docv:"FILE" ~doc:"Write an lcov tracefile (BRDA/DA records) to $(docv).")

let cover_html_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "html" ] ~docv:"FILE"
        ~doc:"Write a self-contained single-file HTML report to $(docv).")

let cover_timeline_arg =
  Arg.(
    value & flag
    & info [ "timeline" ]
        ~doc:
          "Print the coverage-over-time curve (one cover point per run) with a plateau \
           diagnosis and the frontier sites ranked by solver attempts.")

let print_timeline summary =
  match summary.Dart.Telemetry.timeline with
  | [] ->
    print_endline
      "no cover points (trace predates coverage sampling, or tracing was disabled)"
  | points ->
    print_endline "coverage over time (cumulative branch directions per run):";
    List.iter
      (fun (p : Dart.Telemetry.cover_point) ->
        Printf.printf "  run %6d  %4d dirs  %10.2f ms\n" p.Dart.Telemetry.cp_run
          p.Dart.Telemetry.cp_covered
          (Int64.to_float p.Dart.Telemetry.cp_ns /. 1e6))
      points;
    print_string (Dart.Profile.coverage_to_string summary)

let run_cover file toplevel depth max_runs seed from_trace annotate lcov_out html_out
    timeline =
  with_front_end_errors "dartc cover" @@ fun () ->
  let src = Dart_util.Fileio.read_all file in
  let ast = Minic.Parser.parse_program ~file src in
  let prog = Dart.Driver.prepare ~toplevel ~depth ast in
  let summary, covered =
    match from_trace with
    | Some trace ->
      (* A recorded trace carries both the per-site directions (from
         Branch_taken, user sites only) and the cover-point curve. *)
      let summary = summarize_trace trace in
      (summary, summary.Dart.Telemetry.covered)
    | None ->
      install_signal_handlers ();
      (* Only the curve reads the event stream; the annotation, lcov
         and HTML outputs take the report's coverage. *)
      let add, finish = Dart.Telemetry.summarizer () in
      let sink = if timeline then Dart.Telemetry.fold add else Dart.Telemetry.null in
      let options =
        Dart.Driver.Options.make ~seed ~depth ~max_runs ~stop_on_first_bug:false
          ~telemetry:(Dart.Telemetry.with_sink sink) ()
      in
      let report = Dart.Driver.run ~options prog in
      (finish (), report.Dart.Driver.coverage_sites)
  in
  let t = Dart.Cover_report.compute prog ~covered in
  let explicit_output = annotate || timeline || lcov_out <> None || html_out <> None in
  if annotate || not explicit_output then
    print_string (Dart.Cover_report.annotate t ~source:src);
  let write path content =
    Dart_util.Fileio.write_atomic path content;
    Printf.eprintf "dartc cover: wrote %s\n" path
  in
  Option.iter (fun path -> write path (Dart.Cover_report.to_lcov t)) lcov_out;
  Option.iter
    (fun path ->
      let title = Printf.sprintf "%s \u{2014} %s" (Filename.basename file) toplevel in
      write path (Dart.Cover_report.to_html t ~source:src ~title))
    html_out;
  if timeline then print_timeline summary;
  0

(* ---- campaign -------------------------------------------------------------------- *)

(* Whole-library testing: discover every testable function, schedule
   budget slices across worker domains, dedup crashes library-wide,
   emit one aggregate report. Exit status: 2 usage (including zero
   targets), 3 stopped early (resume with --resume), 1 crashes found,
   0 clean. *)

let per_function_runs_arg =
  Arg.(
    value & opt int 200
    & info [ "per-function-runs" ] ~docv:"N"
        ~doc:
          "Budget slice per target and scheduler round; active targets get refills, one \
           slice per round, until they retire.")

let retire_after_arg =
  Arg.(
    value & opt int 2
    & info [ "retire-after" ] ~docv:"N"
        ~doc:
          "Retire a target as saturated after $(docv) consecutive slices without a new \
           branch direction.")

let campaign_max_runs_arg =
  Arg.(
    value & opt int 10_000
    & info [ "max-runs" ] ~docv:"N" ~doc:"Per-target total budget of instrumented runs.")

let campaign_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE"
        ~doc:"Write the machine-readable aggregate report (deterministic JSON) to $(docv).")

let campaign_lcov_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "lcov" ] ~docv:"FILE"
        ~doc:"Write the aggregate library coverage as an lcov tracefile to $(docv).")

let campaign_html_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "html" ] ~docv:"FILE"
        ~doc:"Write the aggregate library coverage as a single-file HTML report to $(docv).")

let campaign_checkpoint_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:
          "After every scheduler round, persist the finished targets to $(docv) (atomic \
           write-then-rename); resume with $(b,--resume).")

let campaign_resume_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "resume" ] ~docv:"FILE"
        ~doc:
          "Resume a campaign from a checkpoint written by $(b,--checkpoint): finished \
           targets are restored, unfinished ones re-run from scratch (per-target results \
           are deterministic, so the aggregate matches the uninterrupted campaign). The \
           seed, budgets and library source must match.")

let campaign_list_arg =
  Arg.(
    value & flag
    & info [ "list" ] ~doc:"Only discover and print the campaign targets, one per line.")

let campaign_resume_salvage_arg =
  Arg.(
    value & flag
    & info [ "resume-salvage" ]
        ~doc:
          "With $(b,--resume): if the checkpoint is corrupted or truncated, restore the \
           longest CRC-valid prefix of its records (with a warning) instead of refusing. \
           A checkpoint of a different campaign configuration still refuses — that is a \
           mismatch, not corruption.")

let retry_limit_arg =
  Arg.(
    value & opt int 3
    & info [ "retry-limit" ] ~docv:"N"
        ~doc:
          "Quarantine a target after $(docv) consecutive faulted slices (worker crash or \
           injected fault); between faults it retries with deterministic exponential \
           backoff. Default 3.")

let validate_campaign ~jobs ~per_function_runs ~retire_after ~retry_limit ~max_runs
    ~time_budget ~solver_timeout ~list_only ~checkpoint ~resume ~resume_salvage ~json ~lcov
    ~html ~trace ~status =
  let table =
    [ (jobs < 0, "--jobs must be >= 0");
      (per_function_runs <= 0, "--per-function-runs must be positive");
      (retire_after <= 0, "--retire-after must be positive");
      (retry_limit <= 0, "--retry-limit must be positive");
      (max_runs <= 0, "--max-runs must be positive");
      (resume_salvage && resume = None, "--resume-salvage requires --resume");
      ( (match time_budget with Some s -> s <= 0.0 | None -> false),
        "--time-budget must be positive" );
      ( (match solver_timeout with Some ms -> ms <= 0.0 | None -> false),
        "--solver-timeout must be positive" );
      ( list_only
        && (checkpoint <> None || resume <> None || json <> None || lcov <> None
           || html <> None || trace <> None || status <> None),
        "--list only discovers targets; it conflicts with --checkpoint/--resume and the \
         report outputs" ) ]
  in
  List.find_opt fst table |> Option.map snd

(* Report outputs are observability, not the verdict: a full disk or a
   read-only directory (or an injected io_error under --faultsim) must not
   turn a finished campaign into a crash. The write is atomic and any
   Sys_error degrades to a warning on stderr. *)
let write_file_with_note ?fault ~what path content =
  try
    Dart_util.Fileio.write_atomic ?fault path content;
    Printf.eprintf "dartc campaign: wrote %s %s\n" what path
  with Sys_error msg ->
    Printf.eprintf "dartc campaign: warning: could not write %s: %s\n" what msg

let run_campaign file jobs seed depth max_runs per_function_runs retire_after retry_limit
    all_bugs time_budget solver_timeout json lcov html checkpoint resume
    resume_salvage faultsim faultsim_seed trace status list_only =
  with_front_end_errors "dartc campaign" @@ fun () ->
  let src = Dart_util.Fileio.read_all file in
  match
    Result.bind (faultsim_plan ~seed:faultsim_seed faultsim) (fun fault ->
        match
          validate_campaign ~jobs ~per_function_runs ~retire_after ~retry_limit ~max_runs
            ~time_budget ~solver_timeout ~list_only ~checkpoint ~resume ~resume_salvage
            ~json ~lcov ~html ~trace ~status
        with
        | Some msg -> Error msg
        | None -> Ok fault)
  with
  | Error msg -> usage_error msg
  | Ok fault ->
    if list_only then begin
      let ast = Minic.Parser.parse_program ~file src in
      let targets, skipped = Dart.Campaign.discover ast in
      List.iter print_endline targets;
      List.iter
        (fun (name, reason) ->
          Printf.eprintf "dartc campaign: skipped %s: %s\n" name reason)
        skipped;
      if targets = [] then usage_error "no testable targets discovered" else 0
    end
    else begin
      with_trace_sink trace @@ fun sink ->
      install_signal_handlers ();
      let options =
        Dart.Driver.Options.make ~seed ~depth ~max_runs ~per_function_runs
          ~retire_after ~retry_limit ~stop_on_first_bug:(not all_bugs)
          ?time_budget_ns:(Option.map ns_of_seconds time_budget)
          ?solver_deadline_ns:(Option.map ns_of_ms solver_timeout)
          ~telemetry:
            { (Dart.Telemetry.with_sink sink) with
              Dart.Telemetry.status_path = status }
          ~faultsim:fault ()
      in
      match
        Dart.Campaign.run ~jobs ~options ?checkpoint ?resume ~salvage:resume_salvage ~file
          ~progress:(fun line -> Printf.eprintf "dartc campaign: %s\n%!" line)
          src
      with
      | Error msg -> usage_error msg
      | Ok report when not (Dart.Campaign.no_lost_targets report) ->
        (* Whatever was injected, the ledger must balance: a fault may
           quarantine a target but can never lose one. A violation is
           a scheduler bug, reported loudly. *)
        Printf.eprintf
          "dartc campaign: LEDGER VIOLATION: a discovered target is missing from the \
           results/skipped/unfinished ledger\n";
        2
      | Ok report ->
        print_string (Dart.Campaign.report_to_string report);
        Option.iter
          (fun path ->
            write_file_with_note ~fault ~what:"JSON" path (Dart.Campaign.to_json report))
          json;
        if lcov <> None || html <> None then begin
          (* The lowered library, with no driver linked, is the site
             universe for the aggregate view. *)
          let prog =
            Dart.Driver.library_program
              (Dart.Driver.lower_library (Minic.Parser.parse_program ~file src))
          in
          let t =
            Dart.Cover_report.compute prog ~covered:(Dart.Campaign.aggregate_sites report)
          in
          Option.iter
            (fun path ->
              write_file_with_note ~fault ~what:"lcov" path
                (Dart.Cover_report.to_lcov t))
            lcov;
          Option.iter
            (fun path ->
              let title =
                Printf.sprintf "%s \u{2014} campaign" (Filename.basename file)
              in
              (* The per-target time/outcome heatmap: cumulative
                 slice wall clock from cam_times, outcome and run
                 count joined from the finished results (a target
                 the campaign stopped before retiring shows as
                 "unfinished"). *)
              let heatmap =
                Dart.Cover_report.campaign_heatmap
                  (List.map
                     (fun (name, ns) ->
                       match
                         List.find_opt
                           (fun (r : Dart.Campaign.target_result) ->
                             r.Dart.Campaign.tr_name = name)
                           report.Dart.Campaign.cam_results
                       with
                       | Some r ->
                         ( name,
                           Dart.Campaign.retire_tag r.Dart.Campaign.tr_retired,
                           ns,
                           r.Dart.Campaign.tr_runs,
                           r.Dart.Campaign.tr_overruns )
                       | None -> (name, "unfinished", ns, 0, 0))
                     report.Dart.Campaign.cam_times)
              in
              write_file_with_note ~fault ~what:"HTML" path
                (Dart.Cover_report.to_html ~extra:heatmap t ~source:src ~title))
            html
        end;
        (match report.Dart.Campaign.cam_status with
         | Dart.Campaign.Stopped_early _ -> 3
         | Dart.Campaign.Finished ->
           if report.Dart.Campaign.cam_crashes <> [] then 1 else 0)
    end

let campaign_cmd =
  let doc =
    "test every discoverable function of a MiniC library: budget slices with \
     frontier-driven refills, library-wide crash dedup, one aggregate report"
  in
  Cmd.v
    (Cmd.info "dartc campaign" ~doc)
    Term.(
      const run_campaign $ file_arg $ jobs_arg $ seed_arg $ depth_arg
      $ campaign_max_runs_arg $ per_function_runs_arg $ retire_after_arg $ retry_limit_arg
      $ all_bugs_arg $ time_budget_arg $ solver_timeout_arg
      $ campaign_json_arg $ campaign_lcov_arg $ campaign_html_arg
      $ campaign_checkpoint_arg $ campaign_resume_arg $ campaign_resume_salvage_arg
      $ faultsim_arg $ faultsim_seed_arg $ trace_arg $ status_arg
      $ campaign_list_arg)

(* ---- watch / profile ------------------------------------------------------------- *)

(* `dartc watch STATUS` renders the --status snapshot; `dartc profile
   TRACE` attributes wall clock over a recorded trace. Both are pure
   readers: they never touch the file beyond reading it. *)

let status_file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"STATUS" ~doc:"Status file maintained by $(b,--status).")

let watch_once_arg =
  Arg.(
    value & flag
    & info [ "once" ]
        ~doc:
          "Render the current snapshot once and exit instead of following the file \
           (deterministic output; used by the tests).")

let watch_interval_arg =
  Arg.(
    value & opt float 1.0
    & info [ "interval" ] ~docv:"SEC" ~doc:"Refresh period in seconds (default 1).")

let run_watch file once interval =
  if interval <= 0.0 then usage_error "--interval must be positive"
  else if once then begin
    match Dart.Status.read ~path:file with
    | Error msg ->
      Printf.eprintf "dartc watch: %s: %s\n" file msg;
      2
    | Ok st ->
      print_string (Dart.Status.render st);
      0
  end
  else begin
    (* Follow mode: clear-and-redraw until the user interrupts. The
       writer rewrites the file atomically, so a missing, unreadable or
       empty file is transient — it was deleted or not yet renamed into
       place — and the loop keeps polling through it. Malformed content
       never self-heals (reads are all-or-nothing); that is the one
       follow-mode condition that exits 2, like --once. *)
    let rec loop () =
      match Dart.Status.read_classified ~path:file with
      | Ok st ->
        print_string "\027[H\027[2J";
        print_string (Dart.Status.render st);
        flush stdout;
        Unix.sleepf interval;
        loop ()
      | Error (`Transient msg) ->
        Printf.eprintf "dartc watch: %s: %s (waiting)\n%!" file msg;
        Unix.sleepf interval;
        loop ()
      | Error (`Malformed msg) ->
        Printf.eprintf "dartc watch: %s: %s\n" file msg;
        2
    in
    loop ()
  end

let profile_top_arg =
  Arg.(
    value & opt int 10
    & info [ "top" ] ~docv:"K"
        ~doc:"How many hottest solver sites to list (default 10).")

let run_profile file top =
  with_front_end_errors "dartc profile" @@ fun () ->
  if top <= 0 then usage_error "--top must be positive"
  else begin
    print_string
      (Dart.Profile.to_string ~top (summarize_trace file));
    0
  end

let watch_cmd =
  let doc = "render a live status snapshot maintained with --status" in
  Cmd.v
    (Cmd.info "dartc watch" ~doc)
    Term.(const run_watch $ status_file_arg $ watch_once_arg $ watch_interval_arg)

let profile_cmd =
  let doc =
    "summarize a JSONL trace written with --trace: event counts, wall clock across phases, \
     campaign targets and solver sites, and the coverage plateau"
  in
  Cmd.v
    (Cmd.info "dartc profile" ~doc)
    Term.(const run_profile $ trace_file_arg $ profile_top_arg)

let run_term =
  Term.(
    const run_dartc $ file_arg $ toplevel_arg $ depth_arg $ max_runs_arg $ seed_arg
    $ strategy_arg $ random_mode_arg $ symbolic_ptrs_arg $ all_bugs_arg $ jobs_arg
    $ no_cache_arg $ time_budget_arg $ solver_timeout_arg
    $ checkpoint_arg $ checkpoint_every_arg $ resume_arg $ faultsim_arg
    $ faultsim_seed_arg $ trace_arg $ status_arg $ metrics_arg $ show_interface_arg
    $ show_driver_arg $ dump_ram_arg $ coverage_arg)

let cover_cmd =
  let doc =
    "explore branch coverage at the source level: annotated listing, lcov/HTML export, \
     coverage-over-time"
  in
  Cmd.v
    (Cmd.info "dartc cover" ~doc)
    Term.(
      const run_cover $ file_arg $ toplevel_arg $ depth_arg $ max_runs_arg $ seed_arg
      $ cover_from_trace_arg $ cover_annotate_arg $ cover_lcov_arg $ cover_html_arg
      $ cover_timeline_arg)

let run_cmd =
  let doc = "directed automated random testing for MiniC programs" in
  Cmd.v (Cmd.info "dartc" ~doc) run_term

(* Manual subcommand dispatch: Cmd.group would treat the positional
   source FILE of the default command as a (mis-spelled) command name,
   so the plain `dartc FILE …` invocation must bypass it. *)

(* Cmdliner reports its own parse errors (unknown flag, missing FILE)
   with its default cli_error status; fold those into the documented
   exit 2 so every usage error looks the same to callers. *)
let eval ?argv cmd =
  let code = Cmd.eval' ?argv cmd in
  exit (if code = Cmd.Exit.cli_error then 2 else code)

let subcommands =
  [ ("campaign", campaign_cmd);
    ("cover", cover_cmd);
    ("watch", watch_cmd);
    ("profile", profile_cmd) ]

let () =
  let argv = Sys.argv in
  match if Array.length argv > 1 then List.assoc_opt argv.(1) subcommands else None with
  | Some cmd ->
    let rest = Array.sub argv 2 (Array.length argv - 2) in
    eval ~argv:(Array.append [| "dartc " ^ argv.(1) |] rest) cmd
  | None -> eval run_cmd
