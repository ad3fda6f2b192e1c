(* Resilient supervision: the fault-injection harness itself, deadline
   and interrupt verdicts, resource-limit classification, solver-Unknown
   degradation, checkpoint/resume determinism, and crash isolation in
   the parallel orchestrator. Every failure here is injected
   deterministically via Dart_util.Faultsim — no timing dependence. *)

module Faultsim = Dart_util.Faultsim

let prepare ?(depth = 1) (src, toplevel) =
  Dart.Driver.prepare ~toplevel ~depth (Minic.Parser.parse_program src)

(* A bugless workload with enough branches (and enough restarts, from
   its prediction failures under depth > 1) that a few hundred runs
   exercise the full run-boundary machinery without terminating. CI's
   interrupt/resume leg runs the same file. *)
let churn_src = (Example_programs.read "churn.mc", "step")

let abort_src = ("void f(int x) { if (x == 5) abort(); }", "f")

(* ---- faultsim -------------------------------------------------------------- *)

let test_faultsim_off () =
  Alcotest.(check bool) "off is off" false (Faultsim.is_on Faultsim.off);
  for _ = 1 to 3 do
    Alcotest.(check bool) "off never fires" false
      (Faultsim.fire Faultsim.off Faultsim.Solver_deadline)
  done

let test_faultsim_one_shot () =
  let fs = Faultsim.make [ (Faultsim.Solver_deadline, None, 3) ] in
  Alcotest.(check bool) "armed plan is on" true (Faultsim.is_on fs);
  let fired = List.init 5 (fun _ -> Faultsim.fire fs Faultsim.Solver_deadline) in
  Alcotest.(check (list bool)) "fires exactly on the 3rd occurrence, once"
    [ false; false; true; false; false ] fired

let test_faultsim_key_narrowing () =
  let fs = Faultsim.make [ (Faultsim.Worker_crash, Some 2, 1) ] in
  Alcotest.(check bool) "other key never fires" false
    (Faultsim.fire ~key:1 fs Faultsim.Worker_crash);
  Alcotest.(check bool) "other point never fires" false
    (Faultsim.fire ~key:2 fs Faultsim.Solver_deadline);
  Alcotest.(check bool) "matching key fires" true
    (Faultsim.fire ~key:2 fs Faultsim.Worker_crash);
  Alcotest.(check bool) "only once" false (Faultsim.fire ~key:2 fs Faultsim.Worker_crash)

let test_faultsim_spec () =
  (match Faultsim.of_spec "solver_deadline:2,worker_crash@1" with
   | Error e -> Alcotest.failf "spec rejected: %s" e
   | Ok fs ->
     Alcotest.(check bool) "arms its points" true
       (Faultsim.arms fs Faultsim.Worker_crash
       && not (Faultsim.arms fs Faultsim.Io_error));
     Alcotest.(check bool) "first occurrence misses" false
       (Faultsim.fire fs Faultsim.Solver_deadline);
     Alcotest.(check bool) "second fires" true (Faultsim.fire fs Faultsim.Solver_deadline);
     Alcotest.(check bool) "worker rule defaults to nth=1" true
       (Faultsim.fire ~key:1 fs Faultsim.Worker_crash));
  (match Faultsim.of_spec "no_such_point" with
   | Ok _ -> Alcotest.fail "unknown point accepted"
   | Error _ -> ());
  (match Faultsim.of_spec "solver_deadline:0" with
   | Ok _ -> Alcotest.fail "nth=0 accepted"
   | Error _ -> ());
  (* [:?] draws the occurrence from the seed: equal seeds agree. *)
  let nth_fired seed =
    match Faultsim.of_spec ~seed "machine_step_limit:?" with
    | Error e -> Alcotest.failf "seeded spec rejected: %s" e
    | Ok fs ->
      let n = ref 0 in
      while not (Faultsim.fire fs Faultsim.Machine_step_limit) && !n < 100 do
        incr n
      done;
      !n
  in
  Alcotest.(check int) "seeded draw is deterministic" (nth_fired 11) (nth_fired 11);
  Alcotest.(check bool) "seeded draw is in 1..8" true (nth_fired 11 < 8)

(* ---- chaos schedules -------------------------------------------------------- *)

let fire_seq fs point n = List.init n (fun _ -> Faultsim.fire fs point)

let test_chaos_determinism () =
  let plan () = Faultsim.chaos ~seed:5 [ (Faultsim.Worker_crash, 2000) ] in
  let a = fire_seq (plan ()) Faultsim.Worker_crash 200 in
  Alcotest.(check (list bool)) "same seed, same schedule" a
    (fire_seq (plan ()) Faultsim.Worker_crash 200);
  Alcotest.(check bool) "different seed, different schedule" true
    (a <> fire_seq (Faultsim.chaos ~seed:6 [ (Faultsim.Worker_crash, 2000) ])
           Faultsim.Worker_crash 200);
  (* 20% of 200 draws: enough hits to be a schedule, not a constant. *)
  let hits = List.length (List.filter Fun.id a) in
  Alcotest.(check bool) "rate is roughly honoured" true (hits > 10 && hits < 90);
  (* Per-rule streams are seeded left to right from a master stream, so
     appending a rule never perturbs the schedules of the ones before
     it — a soak under worker_crash=r stays comparable when io_error is
     added next to it. *)
  let b =
    fire_seq
      (Faultsim.chaos ~seed:5 [ (Faultsim.Worker_crash, 2000); (Faultsim.Io_error, 9000) ])
      Faultsim.Worker_crash 200
  in
  Alcotest.(check (list bool)) "appended rule leaves the first stream intact" a b

let test_chaos_semantics () =
  (* Chaos rules ignore probe keys: every probe of the point is one
     Bernoulli draw, whichever slice or worker probes. *)
  let fs = Faultsim.chaos ~seed:1 [ (Faultsim.Io_error, 10000) ] in
  Alcotest.(check bool) "rate 1.0 fires unkeyed" true (Faultsim.fire fs Faultsim.Io_error);
  Alcotest.(check bool) "rate 1.0 fires keyed" true
    (Faultsim.fire ~key:7 fs Faultsim.Io_error);
  Alcotest.(check bool) "recurring, not one-shot" true
    (Faultsim.fire fs Faultsim.Io_error);
  Alcotest.(check bool) "other points untouched" false
    (Faultsim.fire fs Faultsim.Worker_crash);
  Alcotest.check_raises "rate 0 rejected"
    (Invalid_argument "Faultsim.chaos: rate must be in 1..10000 basis points") (fun () ->
      ignore (Faultsim.chaos [ (Faultsim.Io_error, 0) ]));
  Alcotest.check_raises "rate > 1 rejected"
    (Invalid_argument "Faultsim.chaos: rate must be in 1..10000 basis points") (fun () ->
      ignore (Faultsim.chaos [ (Faultsim.Io_error, 10001) ]))

let test_chaos_spec () =
  (match Faultsim.chaos_of_spec ~seed:3 "worker_crash=0.05, io_error=1" with
   | Error e -> Alcotest.failf "spec rejected: %s" e
   | Ok fs ->
     Alcotest.(check bool) "plan is on" true (Faultsim.is_on fs);
     Alcotest.(check bool) "rate-1 rule fires" true (Faultsim.fire fs Faultsim.Io_error));
  List.iter
    (fun (spec, what) ->
      match Faultsim.chaos_of_spec spec with
      | Ok _ -> Alcotest.failf "%s accepted: %S" what spec
      | Error _ -> ())
    [ ("", "empty spec");
      ("worker_crash", "missing rate");
      ("no_such_point=0.5", "unknown point");
      ("worker_crash=0", "zero rate");
      ("worker_crash=1.5", "rate above 1");
      ("worker_crash=-0.1", "negative rate");
      ("worker_crash=0.00001", "rate below one basis point");
      ("worker_crash=lots", "non-numeric rate") ]

(* ---- solver circuit breaker ------------------------------------------------- *)

let test_breaker_state_machine () =
  let b = Solver.Breaker.create ~threshold:3 ~cooldown:2 () in
  let site = ("f", 4) in
  Alcotest.(check bool) "closed: no skip" false (Solver.Breaker.skip b site);
  (* Structural (non-overrun) Unknowns never trip it, and they reset
     the consecutive count. *)
  Alcotest.(check bool) "ok outcome: no transition" true
    (Solver.Breaker.record b site ~failed:false = `None);
  Alcotest.(check bool) "1st failure" true (Solver.Breaker.record b site ~failed:true = `None);
  Alcotest.(check bool) "2nd failure" true (Solver.Breaker.record b site ~failed:true = `None);
  Alcotest.(check bool) "success resets the streak" true
    (Solver.Breaker.record b site ~failed:false = `None);
  Alcotest.(check bool) "streak restarts at 1" true
    (Solver.Breaker.record b site ~failed:true = `None);
  Alcotest.(check bool) "..2" true (Solver.Breaker.record b site ~failed:true = `None);
  Alcotest.(check bool) "3rd consecutive failure opens" true
    (Solver.Breaker.record b site ~failed:true = `Opened);
  Alcotest.(check bool) "open: skip" true (Solver.Breaker.skip b site);
  Alcotest.(check bool) "other sites unaffected" false (Solver.Breaker.skip b ("f", 9));
  Alcotest.(check bool) "straggler outcome while open is ignored" true
    (Solver.Breaker.record b site ~failed:true = `None);
  Solver.Breaker.tick b;
  Alcotest.(check bool) "still cooling after one tick" true (Solver.Breaker.skip b site);
  Solver.Breaker.tick b;
  Alcotest.(check bool) "half-open: the probe goes through" false
    (Solver.Breaker.skip b site);
  Alcotest.(check bool) "failed probe re-opens" true
    (Solver.Breaker.record b site ~failed:true = `Opened);
  Solver.Breaker.tick b;
  Solver.Breaker.tick b;
  Alcotest.(check bool) "successful probe closes" true
    (Solver.Breaker.record b site ~failed:false = `Closed);
  Alcotest.(check bool) "closed again: no skip" false (Solver.Breaker.skip b site);
  Alcotest.(check (list (pair string int))) "no site left open" []
    (Solver.Breaker.open_sites b);
  Alcotest.(check int) "two opens counted" 2 (Solver.Breaker.opens b);
  Alcotest.(check int) "two skips counted" 2 (Solver.Breaker.skips b)

(* A bugless one-branch target whose every solve is forced into a
   deadline overrun: the breaker must open at the site, short-circuit
   the follow-up restarts, and half-open probes on the restart ticks. *)
let test_breaker_under_forced_overruns () =
  let prog =
    prepare ("int hit;\nvoid g(int x) { if (x == 5) { hit = 1; } else { hit = 0; } }", "g")
  in
  let forced_overruns () =
    Faultsim.make (List.init 40 (fun i -> (Faultsim.Solver_deadline, None, i + 1)))
  in
  let run ~use_breaker =
    let options =
      Dart.Driver.Options.make ~seed:3 ~max_runs:12 ~stop_on_first_bug:false
        ~use_breaker ~faultsim:(forced_overruns ()) ()
    in
    Dart.Driver.run ~options prog
  in
  let br = run ~use_breaker:true and ablated = run ~use_breaker:false in
  let stats r = r.Dart.Driver.solver_stats in
  Alcotest.(check bool) "breaker opened" true (Solver.breaker_opens (stats br) >= 1);
  Alcotest.(check bool) "queries were short-circuited" true
    (Solver.breaker_skips (stats br) >= 1);
  Alcotest.(check int) "ablation: no opens" 0 (Solver.breaker_opens (stats ablated));
  Alcotest.(check int) "ablation: no skips" 0 (Solver.breaker_skips (stats ablated));
  (* The point of the breaker: deadline budget not burned at a hopeless
     site. The ablated run pays one overrun per restart. *)
  Alcotest.(check bool) "overruns avoided" true
    (Solver.deadline_overruns (stats br) < Solver.deadline_overruns (stats ablated));
  Alcotest.(check bool) "threshold overruns were real" true
    (Solver.deadline_overruns (stats br) >= 3);
  (* Skips degrade to the same verdict the solver would have reached. *)
  Alcotest.(check bool) "same verdict" true
    (br.Dart.Driver.verdict = ablated.Dart.Driver.verdict);
  Alcotest.(check int) "same run count" ablated.Dart.Driver.runs br.Dart.Driver.runs;
  Alcotest.(check int) "no bugs invented" 0 (List.length br.Dart.Driver.bugs);
  (* Breaker meters measure work avoided: they must stay out of the
     resume-identity counter set. *)
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " not in to_assoc") false
        (List.mem_assoc key (Solver.to_assoc (stats br))))
    [ "breaker_opens"; "breaker_skips" ];
  Alcotest.(check bool) "report prints the breaker line when it acted" true
    (Str_contains.contains (Dart.Driver.report_to_string br) "breaker:")

let test_no_breaker_identity_when_healthy () =
  (* No deadline overruns -> the breaker never acts -> byte-identical
     output with and without it, on a workload with plenty of solves. *)
  let run ~use_breaker =
    let prog = prepare ~depth:3 churn_src in
    let options =
      Dart.Driver.Options.make ~seed:7 ~depth:3 ~max_runs:200 ~stop_on_first_bug:false
        ~use_breaker ()
    in
    Dart.Driver.run ~options prog
  in
  let on = run ~use_breaker:true and off = run ~use_breaker:false in
  Alcotest.(check string) "reports byte-identical"
    (Dart.Driver.report_to_string off) (Dart.Driver.report_to_string on);
  Alcotest.(check bool) "the healthy run did solve" true
    (Solver.queries on.Dart.Driver.solver_stats > 0);
  Alcotest.(check int) "and never opened" 0
    (Solver.breaker_opens on.Dart.Driver.solver_stats);
  List.iter
    (fun ((file, _, _) as program) ->
      Alcotest.(check string) (file ^ " all bugs: reports byte-identical")
        (Example_programs.report ~use_breaker:false program)
        (Example_programs.report program))
    Example_programs.identity_programs

(* ---- deadlines and interrupts ---------------------------------------------- *)

let test_time_budget () =
  let prog = prepare ~depth:6 churn_src in
  let options =
    Dart.Driver.Options.make ~depth:6 ~max_runs:10_000_000 ~stop_on_first_bug:false
      ~time_budget_ns:5_000_000L (* 5ms: far too little for 2^30 paths *) ()
  in
  let r = Dart.Driver.run ~options prog in
  (match r.Dart.Driver.verdict with
   | Dart.Driver.Time_exhausted -> ()
   | _ -> Alcotest.fail "expected Time_exhausted");
  Alcotest.(check bool) "partial report: some runs happened" true (r.Dart.Driver.runs > 0);
  Alcotest.(check bool) "budget untouched" true (r.Dart.Driver.runs < 10_000_000)

let test_interrupt_verdicts () =
  let prog = prepare abort_src in
  Fun.protect ~finally:Dart.Cancel.reset (fun () ->
      Dart.Cancel.request ();
      let r =
        Dart.Driver.run ~options:(Dart.Driver.Options.make ~max_runs:100 ()) prog
      in
      (match r.Dart.Driver.verdict with
       | Dart.Driver.Interrupted -> ()
       | _ -> Alcotest.fail "directed: expected Interrupted");
      Alcotest.(check int) "directed: stopped before the first run" 0 r.Dart.Driver.runs;
      match (Dart.Random_search.run ~seed:1 ~max_runs:100 prog).Dart.Random_search.verdict with
      | `Interrupted -> ()
      | _ -> Alcotest.fail "random: expected `Interrupted")

let test_random_deadline () =
  let prog = prepare abort_src in
  let expired = Int64.sub (Dart.Telemetry.now ()) 1L in
  match
    (Dart.Random_search.run ~seed:1 ~max_runs:100 ~deadline:expired prog)
      .Dart.Random_search.verdict
  with
  | `Time_exhausted -> ()
  | _ -> Alcotest.fail "expected `Time_exhausted on an expired deadline"

(* ---- resource-limit classification ----------------------------------------- *)

let test_step_limit_is_not_a_bug () =
  let prog = prepare Workloads.Paper_examples.ac_controller in
  let options =
    Dart.Driver.Options.make ~depth:1 ~max_runs:50 ~stop_on_first_bug:false
      ~faultsim:(Faultsim.make [ (Faultsim.Machine_step_limit, None, 1) ])
      ()
  in
  let r = Dart.Driver.run ~options prog in
  Alcotest.(check int) "one resource-limited run" 1 r.Dart.Driver.resource_limited;
  Alcotest.(check int) "not recorded as a bug" 0 (List.length r.Dart.Driver.bugs);
  (* The truncated run's suffix paths were never visited, so the search
     must keep restarting instead of claiming completeness. *)
  (match r.Dart.Driver.verdict with
   | Dart.Driver.Budget_exhausted -> ()
   | Dart.Driver.Complete -> Alcotest.fail "claimed completeness after a truncated run"
   | _ -> Alcotest.fail "expected Budget_exhausted");
  Alcotest.(check int) "budget fully used by restarts" 50 r.Dart.Driver.runs;
  Alcotest.(check bool) "the restart machinery ran" true (r.Dart.Driver.restarts > 0)

(* ---- solver deadline degradation ------------------------------------------- *)

let test_forced_unknown_is_retriable () =
  let prog = prepare abort_src in
  let sink = Dart.Telemetry.ring ~capacity:4096 in
  let options =
    Dart.Driver.Options.make ~seed:3 ~max_runs:100 ~use_cache:true
      ~faultsim:(Faultsim.make [ (Faultsim.Solver_deadline, None, 1) ])
      ~telemetry:(Dart.Telemetry.with_sink sink) ()
  in
  let r = Dart.Driver.run ~options prog in
  (* The first solve of x = 5 was forced Unknown. Were Unknown cached,
     every later attempt at the same canonical query would hit the
     poisoned entry and the bug would be unreachable. *)
  (match r.Dart.Driver.verdict with
   | Dart.Driver.Bug_found _ -> ()
   | _ -> Alcotest.fail "bug not found: the forced Unknown poisoned the search");
  Alcotest.(check int) "exactly one unknown" 1
    (Solver.unknown_count r.Dart.Driver.solver_stats);
  Alcotest.(check int) "counted as a deadline overrun" 1
    (Solver.deadline_overruns r.Dart.Driver.solver_stats);
  Alcotest.(check bool) "branch retried: later queries hit the solver" true
    (Solver.queries r.Dart.Driver.solver_stats > 1);
  let unknowns =
    List.filter
      (function
        | Dart.Telemetry.Solve_query { result = Dart.Telemetry.R_unknown; _ } -> true
        | _ -> false)
      (Dart.Telemetry.events sink)
  in
  Alcotest.(check int) "R_unknown recorded in telemetry" 1 (List.length unknowns)

let test_forced_unknown_incremental_matches_fresh () =
  (* The injected solver_deadline overrun aborts a solve running through
     the incremental context. If the overrun left stale prepared state
     behind, the follow-up queries would diverge from fresh-context
     solves — so the whole searches, incremental and not, must agree on
     every deterministic counter and on the bug witness. *)
  let prog = prepare abort_src in
  let run ~use_incremental =
    let options =
      Dart.Driver.Options.make ~seed:3 ~max_runs:100 ~use_cache:false ~use_incremental
        ~faultsim:(Faultsim.make [ (Faultsim.Solver_deadline, None, 1) ])
        ()
    in
    Dart.Driver.run ~options prog
  in
  let inc = run ~use_incremental:true and fresh = run ~use_incremental:false in
  Alcotest.(check string) "incremental search identical to fresh after forced overrun"
    (Dart.Driver.report_to_string fresh)
    (Dart.Driver.report_to_string inc);
  Alcotest.(check int) "overrun did hit the incremental run" 1
    (Solver.deadline_overruns inc.Dart.Driver.solver_stats)

(* ---- checkpoint codec ------------------------------------------------------ *)

let with_snapshot f =
  (* A real mid-flight snapshot, from the first periodic checkpoint of
     a churning search. *)
  let prog = prepare ~depth:3 churn_src in
  let options =
    Dart.Driver.Options.make ~seed:7 ~depth:3 ~max_runs:400 ~stop_on_first_bug:false
      ~use_cache:false ()
  in
  let snaps = ref [] in
  let full =
    Dart.Driver.run ~on_checkpoint:(fun s -> snaps := s :: !snaps) ~checkpoint_every:100
      ~options prog
  in
  match List.rev !snaps with
  | [] -> Alcotest.fail "no checkpoint was taken"
  | first :: _ -> f ~options ~prog ~full ~snapshot:first

let test_checkpoint_roundtrip () =
  with_snapshot (fun ~options ~prog:_ ~full:_ ~snapshot ->
      let meta = Dart.Checkpoint.meta_line options in
      let roundtrip s =
        match Dart.Checkpoint.of_string (Dart.Checkpoint.to_string ~meta s) with
        | Error e -> Alcotest.failf "roundtrip failed: %s" e
        | Ok (m, s') ->
          Alcotest.(check string) "meta survives" meta m;
          Alcotest.(check bool) "snapshot survives" true (s = s')
      in
      roundtrip snapshot;
      roundtrip { snapshot with Dart.Driver.sn_pending_restart = true };
      let text = Dart.Checkpoint.to_string ~meta snapshot in
      (match Dart.Checkpoint.of_string "" with
       | Ok _ -> Alcotest.fail "empty checkpoint accepted"
       | Error _ -> ());
      (match Dart.Checkpoint.of_string ("not-a-checkpoint\n" ^ text) with
       | Ok _ -> Alcotest.fail "bad magic accepted"
       | Error _ -> ());
      (* A campaign checkpoint handed to the single-run codec points at
         the command that resumes it. *)
      let cam_options = Dart.Driver.Options.make ~seed:7 ~max_runs:50 ~per_function_runs:25 () in
      (match Dart.Campaign.run ~options:cam_options (fst abort_src) with
       | Error e -> Alcotest.failf "campaign failed: %s" e
       | Ok report ->
         (match
            Dart.Checkpoint.of_string
              (Dart.Campaign.to_string ~options:cam_options ~library:(fst abort_src) report)
          with
          | Ok _ -> Alcotest.fail "campaign checkpoint accepted"
          | Error e ->
            Alcotest.(check bool) "points at dartc campaign --resume" true
              (Str_contains.contains e "dartc campaign --resume")));
      (* Records after [end] are not part of the checkpoint: the strict
         parse refuses them instead of resuming from the rest. *)
      (match Dart.Checkpoint.of_string (text ^ "input 99 5 int\nend\n") with
       | Ok _ -> Alcotest.fail "records after end accepted"
       | Error e ->
         Alcotest.(check bool) "names the line after end" true
           (Str_contains.contains e "after \"end\""));
      (* %-escapes take exactly two hex digits: OCaml's [_] separator,
         a sign or a short escape must not decode. *)
      Alcotest.(check string) "escape round-trips" "a b%c\n"
        (Dart.Checkpoint.unescape "t" (Dart.Checkpoint.escape "a b%c\n"));
      Alcotest.(check string) "upper-case hex" "\255" (Dart.Checkpoint.unescape "t" "%FF");
      List.iter
        (fun tok ->
          match Dart.Checkpoint.unescape "t" tok with
          | exception Dart.Checkpoint.Bad _ -> ()
          | s -> Alcotest.failf "malformed escape %S decoded to %S" tok s)
        [ "%1_"; "%_1"; "a%+1"; "%-1"; "% 1"; "%g0"; "%2"; "%" ];
      (match
         Dart.Checkpoint.of_string
           (String.concat "\n"
              (List.map
                 (fun l ->
                   match String.split_on_char ' ' l with
                   | [ "stat"; _; v ] -> "stat %1_ " ^ v
                   | _ -> l)
                 (String.split_on_char '\n' text)))
       with
       | Ok _ -> Alcotest.fail "checkpoint with a bad %-escape accepted"
       | Error _ -> ());
      (* Truncation (e.g. a partial write with no trailing [end]) is a
         hard error, never a silently shorter snapshot. *)
      match
        Dart.Checkpoint.of_string (String.concat "\n" (List.filteri (fun i _ -> i < 5)
          (String.split_on_char '\n' text)))
      with
      | Ok _ -> Alcotest.fail "truncated checkpoint accepted"
      | Error _ -> ())

(* The snapshot block carries a CRC: every single-digit change to the
   PRNG state or to an input value — each still a well-formed record
   that would resume a different search — reads as corruption. *)
let test_checkpoint_corruption_detected () =
  with_snapshot (fun ~options ~prog:_ ~full:_ ~snapshot ->
      let text = Dart.Checkpoint.to_string ~meta:(Dart.Checkpoint.meta_line options) snapshot in
      let lines = Array.of_list (String.split_on_char '\n' text) in
      let line_starting p =
        let n = String.length p in
        let rec find i =
          if String.length lines.(i) >= n && String.sub lines.(i) 0 n = p then i
          else find (i + 1)
        in
        find 0
      in
      let flips = ref 0 in
      List.iter
        (fun at ->
          let target = lines.(at) in
          String.iteri
            (fun i c ->
              if c >= '0' && c <= '9' then begin
                let flipped = Bytes.of_string target in
                Bytes.set flipped i (if c = '9' then '0' else Char.chr (Char.code c + 1));
                let corrupted = Array.copy lines in
                corrupted.(at) <- Bytes.to_string flipped;
                incr flips;
                match Dart.Checkpoint.of_string (String.concat "\n" (Array.to_list corrupted)) with
                | Ok _ -> Alcotest.failf "flipped digit %d of %S accepted" i target
                | Error e ->
                  Alcotest.(check bool)
                    (Printf.sprintf "flip %d of %S names the checksum" i target)
                    true (Str_contains.contains e "checksum mismatch")
              end)
            target)
        [ line_starting "rng "; line_starting "input " ];
      Alcotest.(check bool) "digits were flipped" true (!flips > 10))

let test_checkpoint_v2_rejected () =
  (* Older versions carried other meta fields and no record checksums;
     this build reads v4 only and must say so rather than misparse. *)
  with_snapshot (fun ~options ~prog:_ ~full:_ ~snapshot ->
      let v4 = Dart.Checkpoint.to_string ~meta:(Dart.Checkpoint.meta_line options) snapshot in
      List.iter
        (fun old ->
          let text =
            match String.split_on_char '\n' v4 with
            | _magic :: rest -> String.concat "\n" (("dart-checkpoint " ^ old) :: rest)
            | [] -> Alcotest.fail "checkpoint text too short"
          in
          match Dart.Checkpoint.of_string text with
          | Ok _ -> Alcotest.failf "%s checkpoint accepted" old
          | Error e ->
            Alcotest.(check string) "version message"
              (Printf.sprintf "unsupported checkpoint version %s (this build reads v4)" old)
              e)
        [ "v2"; "v3" ])

let test_checkpoint_meta_guard () =
  let meta ?(max_runs = 100) ?(use_incremental = true) seed strategy =
    Dart.Checkpoint.meta_line
      (Dart.Driver.Options.make ~seed ~depth:1 ~max_runs ~strategy ~use_incremental ())
  in
  let expected = meta 42 Dart.Strategy.Dfs in
  let check = Dart.Checkpoint.check_meta ~expected in
  (match check ~found:(meta 43 Dart.Strategy.Dfs) with
   | Ok () -> Alcotest.fail "seed mismatch accepted"
   | Error e ->
     Alcotest.(check string) "error names the seed, both values"
       "checkpoint was taken with seed=43, not seed=42" e);
  (match check ~found:(meta 42 Dart.Strategy.Bfs) with
   | Ok () -> Alcotest.fail "strategy mismatch accepted"
   | Error e -> Alcotest.(check bool) "error names the strategy" true
                  (Str_contains.contains e "strategy=bfs"));
  (* A snapshot taken under a different acceleration config must be
     rejected: flipping incremental solving between save and resume
     would change the counters a resumed report prints. *)
  (match check ~found:(meta ~use_incremental:false 42 Dart.Strategy.Dfs) with
   | Ok () -> Alcotest.fail "incremental mismatch accepted"
   | Error e -> Alcotest.(check bool) "error names incremental" true
                  (Str_contains.contains e "incremental"));
  (* The run budget bounds the trajectory, it does not shape it:
     resuming under a larger budget extends the search. *)
  match check ~found:(meta ~max_runs:10 42 Dart.Strategy.Dfs) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "budget difference rejected: %s" e

let test_checkpoint_file_atomicity () =
  with_snapshot (fun ~options ~prog:_ ~full:_ ~snapshot ->
      let path = Filename.temp_file "dart_ck" ".dart" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
        (fun () ->
          Dart.Checkpoint.save ~path ~options snapshot;
          Alcotest.(check bool) "no temp file left behind" false
            (Sys.file_exists (path ^ ".tmp"));
          match Dart.Checkpoint.load ~path ~options with
          | Error e -> Alcotest.failf "load failed: %s" e
          | Ok s -> Alcotest.(check bool) "file roundtrip" true (s = snapshot)))

(* ---- resume determinism ---------------------------------------------------- *)

let norm (r : Dart.Driver.report) =
  ( r.Dart.Driver.verdict,
    r.Dart.Driver.runs,
    r.Dart.Driver.restarts,
    r.Dart.Driver.total_steps,
    r.Dart.Driver.paths_explored,
    r.Dart.Driver.resource_limited,
    List.sort compare r.Dart.Driver.coverage_sites,
    Solver.to_assoc r.Dart.Driver.solver_stats,
    r.Dart.Driver.bugs )

let test_resume_reaches_same_state () =
  with_snapshot (fun ~options ~prog ~full ~snapshot ->
      Alcotest.(check bool) "snapshot is mid-flight" true
        (snapshot.Dart.Driver.sn_runs < full.Dart.Driver.runs);
      let resumed = Dart.Driver.run ~resume:snapshot ~options prog in
      (* Without the solve cache the replay is exact: every counter of
         the resumed search equals the uninterrupted one, not just the
         final coverage. *)
      Alcotest.(check bool) "resumed report identical" true (norm full = norm resumed))

let test_resume_through_serialization () =
  with_snapshot (fun ~options ~prog ~full ~snapshot ->
      let meta = Dart.Checkpoint.meta_line options in
      match Dart.Checkpoint.of_string (Dart.Checkpoint.to_string ~meta snapshot) with
      | Error e -> Alcotest.failf "codec failed: %s" e
      | Ok (_, s) ->
        let resumed = Dart.Driver.run ~resume:s ~options prog in
        Alcotest.(check bool) "identical after a disk roundtrip" true
          (norm full = norm resumed))

(* The status file's rate covers this session only: the runs restored
   from the snapshot ran in an earlier session, so counting them would
   inflate execs/sec by restored / elapsed. *)
let test_resume_status_rate () =
  with_snapshot (fun ~options ~prog ~full:_ ~snapshot ->
      let path = Filename.temp_file "dart_resume_status" ".json" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
        (fun () ->
          let options =
            { options with
              Dart.Driver.Options.telemetry =
                { Dart.Telemetry.default_config with Dart.Telemetry.status_path = Some path } }
          in
          let resumed = Dart.Driver.run ~resume:snapshot ~options prog in
          match Dart.Status.read ~path with
          | Error msg -> Alcotest.failf "status unreadable after resume: %s" msg
          | Ok st ->
            let restored = snapshot.Dart.Driver.sn_runs in
            Alcotest.(check int) "status runs = all runs" resumed.Dart.Driver.runs
              st.Dart.Status.st_runs;
            let secs = Int64.to_float st.Dart.Status.st_elapsed_ns /. 1e9 in
            let bound = (float_of_int (st.Dart.Status.st_runs - restored) /. secs) +. 1.0 in
            Alcotest.(check bool)
              (Printf.sprintf "execs/sec %d <= this session's %.0f"
                 st.Dart.Status.st_execs_per_sec bound)
              true
              (float_of_int st.Dart.Status.st_execs_per_sec <= bound)))

(* ---- crash isolation ------------------------------------------------------- *)

let crash_run ~jobs ~spec =
  let prog = prepare Workloads.Paper_examples.ac_controller in
  let sink = Dart.Telemetry.ring ~capacity:4096 in
  let fs =
    match Faultsim.of_spec spec with
    | Ok fs -> fs
    | Error e -> Alcotest.failf "bad spec %s: %s" spec e
  in
  let base =
    Dart.Driver.Options.make ~depth:1 ~stop_on_first_bug:false ~faultsim:fs
      ~telemetry:(Dart.Telemetry.with_sink sink) ()
  in
  let r = Dart.Parallel.run ~options:(Dart.Parallel.options ~jobs base) prog in
  let crash_events =
    List.filter_map
      (function
        | Dart.Telemetry.Worker_crash { worker; respawned; _ } -> Some (worker, respawned)
        | _ -> None)
      (Dart.Telemetry.events sink)
  in
  (r, crash_events)

let test_crash_isolation () =
  let r, crash_events = crash_run ~jobs:4 ~spec:"worker_crash@1" in
  (match r.Dart.Parallel.crashes with
   | [ c ] ->
     Alcotest.(check int) "worker 1 crashed" 1 c.Dart.Parallel.c_worker;
     Alcotest.(check bool) "respawned" true c.Dart.Parallel.c_respawned;
     Alcotest.(check bool) "injected exception named" true
       (Str_contains.contains c.Dart.Parallel.c_reason "worker_crash")
   | l -> Alcotest.failf "expected exactly one crash record, got %d" (List.length l));
  Alcotest.(check int) "exactly one Worker_crash event" 1 (List.length crash_events);
  Alcotest.(check bool) "crash line: the respawn claims from the pool" true
    (Str_contains.contains (Dart.Parallel.report_to_string r)
       "; respawned with a fresh seed, claims what is left of the pooled budget");
  Alcotest.(check int) "all four slots reported" 4 (List.length r.Dart.Parallel.workers);
  (* The survivors (and the respawn, claiming from the pool)
     still explore everything: the crash costs work, not results. *)
  match r.Dart.Parallel.merged.Dart.Driver.verdict with
  | Dart.Driver.Complete -> ()
  | _ -> Alcotest.fail "expected Complete from the surviving workers"

let test_crash_without_respawn () =
  (* The respawn crashes too (same slot key, second occurrence): the
     slot is abandoned but the merge still joins the three
     survivors. *)
  let r, crash_events = crash_run ~jobs:4 ~spec:"worker_crash@2:1,worker_crash@2:2" in
  (match r.Dart.Parallel.crashes with
   | [ c1; c2 ] ->
     Alcotest.(check bool) "first crash respawned" true c1.Dart.Parallel.c_respawned;
     Alcotest.(check bool) "second crash is final" false c2.Dart.Parallel.c_respawned;
     Alcotest.(check bool) "fresh seed for the respawn" true
       (c1.Dart.Parallel.c_seed <> c2.Dart.Parallel.c_seed)
   | l -> Alcotest.failf "expected two crash records, got %d" (List.length l));
  Alcotest.(check int) "two Worker_crash events" 2 (List.length crash_events);
  let text = Dart.Parallel.report_to_string r in
  Alcotest.(check bool) "crash line: the respawn claims from the pool" true
    (Str_contains.contains text
       "; respawned with a fresh seed, claims what is left of the pooled budget");
  Alcotest.(check bool) "crash line: the abandoned slot's runs are lost" true
    (Str_contains.contains text "; not respawned, the runs it claimed are lost");
  Alcotest.(check bool) "no budget share at jobs 4" false
    (Str_contains.contains text "budget share lost");
  Alcotest.(check int) "three survivors" 3 (List.length r.Dart.Parallel.workers);
  match r.Dart.Parallel.merged.Dart.Driver.verdict with
  | Dart.Driver.Complete -> ()
  | _ -> Alcotest.fail "expected Complete from the surviving workers"

let test_crash_single_worker () =
  let r, crash_events = crash_run ~jobs:1 ~spec:"worker_crash@0" in
  (match r.Dart.Parallel.crashes with
   | [ c ] -> Alcotest.(check bool) "respawned" true c.Dart.Parallel.c_respawned
   | l -> Alcotest.failf "expected one crash record, got %d" (List.length l));
  Alcotest.(check int) "one Worker_crash event" 1 (List.length crash_events);
  Alcotest.(check bool) "crash line: the fixed budget is re-run" true
    (Str_contains.contains (Dart.Parallel.report_to_string r)
       "; respawned with a fresh seed, budget re-run");
  match r.Dart.Parallel.merged.Dart.Driver.verdict with
  | Dart.Driver.Complete -> ()
  | _ -> Alcotest.fail "expected Complete from the respawned worker"

(* dartc's sequential search is no parallel worker and never probes
   worker_crash: a plan arming it at --jobs 1 would be silently
   ignored, so the CLI refuses it as a usage error that names --jobs. *)
let test_dartc_worker_crash_needs_jobs () =
  let exe = Filename.concat (Sys.getcwd ()) "../bin/dartc.exe" in
  let src = Filename.temp_file "dart_wc" ".mc" in
  let err = Filename.temp_file "dart_wc" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter (fun p -> try Sys.remove p with Sys_error _ -> ()) [ src; err ])
    (fun () ->
      Dart_util.Fileio.write_atomic src (fst abort_src);
      let dartc args =
        let out = Unix.openfile Filename.null [ Unix.O_WRONLY ] 0 in
        let errfd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
        let argv = Array.of_list (exe :: src :: "--toplevel" :: snd abort_src :: args) in
        let pid = Unix.create_process exe argv Unix.stdin out errfd in
        Unix.close out;
        Unix.close errfd;
        let _, status = Unix.waitpid [] pid in
        (status, Dart_util.Fileio.read_all err)
      in
      let status, msg = dartc [ "--faultsim"; "worker_crash@0" ] in
      Alcotest.(check bool) "jobs 1: usage error" true (status = Unix.WEXITED 2);
      Alcotest.(check bool) "message names --jobs" true (Str_contains.contains msg "--jobs");
      let status, _ = dartc [ "--faultsim"; "worker_crash@0"; "--jobs"; "2" ] in
      Alcotest.(check bool) "jobs 2: the crash is injected and the bug still found" true
        (status = Unix.WEXITED 1))

(* ---- telemetry codec for the new events ------------------------------------ *)

let test_new_event_codec () =
  List.iter
    (fun e ->
      match Dart.Telemetry.event_of_json (Dart.Telemetry.event_to_json e) with
      | Ok e' -> Alcotest.(check bool) "json roundtrip" true (e = e')
      | Error msg -> Alcotest.failf "codec failed: %s" msg)
    [ Dart.Telemetry.Worker_crash { worker = 2; reason = "it \"died\"\nbadly"; respawned = true };
      Dart.Telemetry.Worker_crash { worker = 0; reason = ""; respawned = false };
      Dart.Telemetry.Checkpoint_saved { run = 512 } ]

let suite =
  [ Alcotest.test_case "faultsim: off is free" `Quick test_faultsim_off;
    Alcotest.test_case "faultsim: one-shot nth" `Quick test_faultsim_one_shot;
    Alcotest.test_case "faultsim: key narrowing" `Quick test_faultsim_key_narrowing;
    Alcotest.test_case "faultsim: spec parsing" `Quick test_faultsim_spec;
    Alcotest.test_case "chaos: schedules are seed-deterministic" `Quick
      test_chaos_determinism;
    Alcotest.test_case "chaos: recurring, key-blind, rate-checked" `Quick
      test_chaos_semantics;
    Alcotest.test_case "chaos: spec parsing" `Quick test_chaos_spec;
    Alcotest.test_case "breaker: state machine" `Quick test_breaker_state_machine;
    Alcotest.test_case "breaker: opens under forced overruns" `Quick
      test_breaker_under_forced_overruns;
    Alcotest.test_case "breaker: no-op on healthy workloads" `Quick
      test_no_breaker_identity_when_healthy;
    Alcotest.test_case "time budget verdict" `Quick test_time_budget;
    Alcotest.test_case "interrupt verdicts" `Quick test_interrupt_verdicts;
    Alcotest.test_case "random search deadline" `Quick test_random_deadline;
    Alcotest.test_case "step limit is not a bug" `Quick test_step_limit_is_not_a_bug;
    Alcotest.test_case "forced Unknown is retriable" `Quick test_forced_unknown_is_retriable;
    Alcotest.test_case "forced overrun: incremental matches fresh" `Quick
      test_forced_unknown_incremental_matches_fresh;
    Alcotest.test_case "checkpoint codec roundtrip" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint corruption detected" `Quick
      test_checkpoint_corruption_detected;
    Alcotest.test_case "checkpoint v2 rejected" `Quick test_checkpoint_v2_rejected;
    Alcotest.test_case "checkpoint meta guard" `Quick test_checkpoint_meta_guard;
    Alcotest.test_case "checkpoint file atomicity" `Quick test_checkpoint_file_atomicity;
    Alcotest.test_case "resume reaches same state" `Quick test_resume_reaches_same_state;
    Alcotest.test_case "resume through serialization" `Quick test_resume_through_serialization;
    Alcotest.test_case "resumed status rate counts this session only" `Quick
      test_resume_status_rate;
    Alcotest.test_case "crash isolation at jobs=4" `Quick test_crash_isolation;
    Alcotest.test_case "crash without respawn" `Quick test_crash_without_respawn;
    Alcotest.test_case "crash at jobs=1" `Quick test_crash_single_worker;
    Alcotest.test_case "dartc: worker_crash needs --jobs" `Quick
      test_dartc_worker_crash_needs_jobs;
    Alcotest.test_case "new event json codec" `Quick test_new_event_codec ]
