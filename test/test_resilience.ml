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

(* Random testing: the directed search with the symbolic shadow off. *)
let random_exec = { Dart.Concolic.default_exec_options with symbolic = false }

(* ---- faultsim -------------------------------------------------------------- *)

let test_faultsim_off () =
  Alcotest.(check bool) "off is off" false (Faultsim.is_on Faultsim.off);
  for _ = 1 to 3 do
    Alcotest.(check bool) "off never fires" false
      (Faultsim.fire Faultsim.off Faultsim.Solver_deadline)
  done

let test_faultsim_one_shot () =
  let fs = Faultsim.make [ (Faultsim.Solver_deadline, None, Faultsim.Nth 3) ] in
  Alcotest.(check bool) "armed plan is on" true (Faultsim.is_on fs);
  let fired = List.init 5 (fun _ -> Faultsim.fire fs Faultsim.Solver_deadline) in
  Alcotest.(check (list bool)) "fires exactly on the 3rd occurrence, once"
    [ false; false; true; false; false ] fired;
  Alcotest.check_raises "nth 0 rejected"
    (Invalid_argument "Faultsim.make: occurrence 0 must be >= 1") (fun () ->
      ignore (Faultsim.make [ (Faultsim.Io_error, None, Faultsim.Nth 0) ]))

let test_faultsim_key_narrowing () =
  let fs = Faultsim.make [ (Faultsim.Worker_crash, Some 2, Faultsim.Nth 1) ] in
  Alcotest.(check bool) "other key never fires" false
    (Faultsim.fire ~key:1 fs Faultsim.Worker_crash);
  Alcotest.(check bool) "other point never fires" false
    (Faultsim.fire ~key:2 fs Faultsim.Solver_deadline);
  Alcotest.(check bool) "matching key fires" true
    (Faultsim.fire ~key:2 fs Faultsim.Worker_crash);
  Alcotest.(check bool) "only once" false (Faultsim.fire ~key:2 fs Faultsim.Worker_crash);
  (* A keyed rate rule narrows the same way. *)
  let fs = Faultsim.make [ (Faultsim.Io_error, Some 4, Faultsim.Rate 10000) ] in
  Alcotest.(check bool) "keyed rate: other key never fires" false
    (Faultsim.fire ~key:3 fs Faultsim.Io_error);
  Alcotest.(check bool) "keyed rate: unkeyed probe never fires" false
    (Faultsim.fire fs Faultsim.Io_error);
  Alcotest.(check bool) "keyed rate: matching key fires" true
    (Faultsim.fire ~key:4 fs Faultsim.Io_error)

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

(* Random and mutated specs: the parser answers [Ok] or [Error] and
   never raises, whatever the text. *)
let test_faultsim_spec_total =
  let valid =
    [ "solver_deadline:3"; "worker_crash@1:?"; "machine_step_limit"; "io_error=0.02";
      "worker_crash=0.1,io_error=0.02"; "worker_crash@2=1"; "solver_deadline:1,io_error=0.5" ]
  in
  let gen =
    let open QCheck2.Gen in
    let alphabet = oneofl [ '@'; ':'; '='; ','; '?'; '.'; '-'; ' '; '0'; '1'; '9'; 'e'; 'x' ] in
    let mutate s =
      let* i = int_bound (String.length s) and* c = alphabet and* op = int_bound 2 in
      let n = String.length s in
      return
        (match op with
         | 0 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
         | 1 when i < n -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
         | _ -> String.sub s 0 i)
    in
    let rec mutations k s = if k = 0 then return s else mutate s >>= mutations (k - 1) in
    pair (int_bound 1000)
      (oneof
         [ string_size ~gen:alphabet (int_range 0 12);
           string_size ~gen:printable (int_range 0 24);
           (let* s = oneofl valid and* k = int_range 1 4 in
            mutations k s) ])
  in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 30 |])
    (QCheck2.Test.make ~name:"faultsim: spec parser is total" ~count:2000
       ~print:(fun (seed, s) -> Printf.sprintf "seed %d, spec %S" seed s)
       gen
       (fun (seed, spec) ->
         match Faultsim.of_spec ~seed spec with
         | Ok _ | Error _ -> true))

(* ---- decoder totality ------------------------------------------------------- *)

(* Every decoder of recorded data, each with valid encodings to mutate:
   the events and status file of one traced campaign, its checkpoint,
   one single-run checkpoint and one lcov export. *)
let decoders =
  lazy
    (let src, _ = abort_src in
     let status = Filename.temp_file "dart_status" ".json" in
     let ring = Dart.Telemetry.ring ~capacity:4096 in
     let options =
       Dart.Driver.Options.make ~seed:7 ~max_runs:50 ~per_function_runs:25
         ~telemetry:{ (Dart.Telemetry.with_sink ring) with Dart.Telemetry.status_path = Some status }
         ()
     in
     let campaign =
       match Dart.Campaign.run ~options src with
       | Ok r -> Dart.Campaign.to_string ~options ~library:src r
       | Error e -> Alcotest.failf "campaign failed: %s" e
     in
     let status_json = Dart_util.Fileio.read_all status in
     Sys.remove status;
     let prog = prepare abort_src in
     let options = Dart.Driver.Options.make ~seed:7 ~stop_on_first_bug:false () in
     let snaps = ref [] in
     let r =
       Dart.Driver.run ~on_checkpoint:(fun s -> snaps := s :: !snaps) ~checkpoint_every:1
         ~options prog
     in
     let meta = Dart.Checkpoint.meta_line options in
     let total = function Ok _ | Error _ -> () in
     [ ( "event",
         List.map Dart.Telemetry.event_to_json (Dart.Telemetry.events ring),
         fun s ->
           total (Dart.Telemetry.event_of_json s);
           total (Dart.Telemetry.parse_flat s) );
       ("status", [ status_json ], fun s -> total (Dart.Status.of_json s));
       ( "lcov",
         [ Dart.Cover_report.to_lcov
             (Dart.Cover_report.compute prog ~covered:r.Dart.Driver.coverage_sites) ],
         fun s -> total (Dart.Cover_report.parse_lcov s) );
       ( "checkpoint",
         List.map (Dart.Checkpoint.to_string ~meta) !snaps,
         fun s -> total (Dart.Checkpoint.of_string s) );
       ("campaign", [ campaign ], fun s -> total (Dart.Campaign.of_string s)) ])

(* Mutated valid encodings (byte flips, inserts, cuts and splices of
   two encodings): each decoder answers [Ok] or [Error] and never
   raises, whatever a trace, status or checkpoint file holds. Events
   weigh most: [dartc profile] streams any file through their
   decoder. *)
let test_decoders_total =
  let gen =
    let open QCheck2.Gen in
    let* name, pool, decode =
      delay (fun () ->
          frequencyl
            (List.map
               (fun ((n, _, _) as d) -> ((if n = "event" then 3 else 1), d))
               (Lazy.force decoders)))
    in
    let chunk =
      oneofl [ "-"; "\""; "\\"; "\\u"; ":"; ","; "}"; "\n"; "0"; "99999999999999999999"; "="; "\255" ]
    in
    let mutate s =
      let n = String.length s in
      let* i = int_bound n and* c = chunk and* op = int_bound 3 and* other = oneofl pool in
      let* j = int_bound (String.length other) in
      return
        (match op with
         | 0 when i < n -> String.sub s 0 i ^ c ^ String.sub s (i + 1) (n - i - 1)
         | 1 -> String.sub s 0 i ^ c ^ String.sub s i (n - i)
         | 2 -> String.sub s 0 i ^ String.sub s (min n (i + j)) (n - min n (i + j))
         | _ -> String.sub s 0 i ^ String.sub other j (String.length other - j))
    in
    let rec mutations k s = if k = 0 then return s else mutate s >>= mutations (k - 1) in
    let* s = oneofl pool and* k = int_range 1 4 in
    map (fun s -> (name, decode, s)) (mutations k s)
  in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 31 |])
    (QCheck2.Test.make ~name:"codecs: every decoder is total" ~count:5000
       ~print:(fun (name, _, s) -> Printf.sprintf "%s decoder, input %S" name s)
       gen
       (fun (_, decode, s) ->
         decode s;
         true))

(* ---- rate schedules --------------------------------------------------------- *)

let fire_seq fs point n = List.init n (fun _ -> Faultsim.fire fs point)
let rate ?seed rates =
  Faultsim.make ?seed (List.map (fun (p, bp) -> (p, None, Faultsim.Rate bp)) rates)

let test_chaos_determinism () =
  let plan () = rate ~seed:5 [ (Faultsim.Worker_crash, 2000) ] in
  let a = fire_seq (plan ()) Faultsim.Worker_crash 200 in
  Alcotest.(check (list bool)) "same seed, same schedule" a
    (fire_seq (plan ()) Faultsim.Worker_crash 200);
  Alcotest.(check bool) "different seed, different schedule" true
    (a <> fire_seq (rate ~seed:6 [ (Faultsim.Worker_crash, 2000) ]) Faultsim.Worker_crash 200);
  (* 20% of 200 draws: enough hits to be a schedule, not a constant. *)
  let hits = List.length (List.filter Fun.id a) in
  Alcotest.(check bool) "rate is roughly honoured" true (hits > 10 && hits < 90);
  (* Per-rule streams are seeded left to right from one stream, so
     appending a rule never perturbs the schedules of the ones before
     it — a soak under worker_crash=r stays comparable when io_error is
     added next to it. *)
  let b =
    fire_seq
      (rate ~seed:5 [ (Faultsim.Worker_crash, 2000); (Faultsim.Io_error, 9000) ])
      Faultsim.Worker_crash 200
  in
  Alcotest.(check (list bool)) "appended rule leaves the first stream intact" a b;
  (* The spec names the same plan as the constructor. *)
  match Faultsim.of_spec ~seed:5 "worker_crash=0.2,io_error=0.9" with
  | Error e -> Alcotest.failf "spec rejected: %s" e
  | Ok fs ->
    Alcotest.(check (list bool)) "spec and constructor agree" a
      (fire_seq fs Faultsim.Worker_crash 200)

let test_chaos_semantics () =
  (* An unkeyed rate rule ignores probe keys: every probe of the point
     is one Bernoulli draw, whichever slice or worker probes. *)
  let fs = rate ~seed:1 [ (Faultsim.Io_error, 10000) ] in
  Alcotest.(check bool) "rate 1.0 fires unkeyed" true (Faultsim.fire fs Faultsim.Io_error);
  Alcotest.(check bool) "rate 1.0 fires keyed" true
    (Faultsim.fire ~key:7 fs Faultsim.Io_error);
  Alcotest.(check bool) "recurring, not one-shot" true
    (Faultsim.fire fs Faultsim.Io_error);
  Alcotest.(check bool) "other points untouched" false
    (Faultsim.fire fs Faultsim.Worker_crash);
  let msg bp =
    Printf.sprintf "Faultsim.make: rate of %d basis points is outside 1..10000 (0.0001..1)" bp
  in
  Alcotest.check_raises "rate 0 rejected" (Invalid_argument (msg 0)) (fun () ->
      ignore (rate [ (Faultsim.Io_error, 0) ]));
  Alcotest.check_raises "rate > 1 rejected" (Invalid_argument (msg 10001)) (fun () ->
      ignore (rate [ (Faultsim.Io_error, 10001) ]))

let test_chaos_spec () =
  (match Faultsim.of_spec ~seed:3 "worker_crash=0.05, io_error=1" with
   | Error e -> Alcotest.failf "spec rejected: %s" e
   | Ok fs ->
     Alcotest.(check bool) "plan is on" true (Faultsim.is_on fs);
     Alcotest.(check bool) "rate-1 rule fires" true (Faultsim.fire fs Faultsim.Io_error));
  (* One-shot and rate rules mix in one plan. *)
  (match Faultsim.of_spec "solver_deadline:2,io_error=1" with
   | Error e -> Alcotest.failf "mixed spec rejected: %s" e
   | Ok fs ->
     Alcotest.(check (list bool)) "one-shot rule" [ false; true; false ]
       (fire_seq fs Faultsim.Solver_deadline 3);
     Alcotest.(check (list bool)) "rate rule" [ true; true ] (fire_seq fs Faultsim.Io_error 2));
  List.iter
    (fun (spec, what) ->
      match Faultsim.of_spec spec with
      | Ok _ -> Alcotest.failf "%s accepted: %S" what spec
      | Error _ -> ())
    [ ("", "empty spec");
      ("worker_crash=", "missing rate");
      ("no_such_point=0.5", "unknown point");
      ("worker_crash=0", "zero rate");
      ("worker_crash=1.5", "rate above 1");
      ("worker_crash=-0.1", "negative rate");
      ("worker_crash=0.00001", "rate below one basis point");
      ("worker_crash=nan", "NaN rate");
      ("worker_crash=lots", "non-numeric rate");
      ("worker_crash:2=0.5", "occurrence and rate together") ]

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
    Faultsim.make (List.init 40 (fun i -> (Faultsim.Solver_deadline, None, Faultsim.Nth (i + 1))))
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
      let options = Dart.Driver.Options.make ~seed:1 ~max_runs:100 ~exec:random_exec () in
      match (Dart.Driver.run ~options prog).Dart.Driver.verdict with
      | Dart.Driver.Interrupted -> ()
      | _ -> Alcotest.fail "random: expected Interrupted")

let test_random_deadline () =
  let prog = prepare abort_src in
  (* A zero budget has expired by the first run boundary. *)
  let options =
    Dart.Driver.Options.make ~seed:1 ~max_runs:100 ~time_budget_ns:0L ~exec:random_exec ()
  in
  let r = Dart.Driver.run ~options prog in
  (match r.Dart.Driver.verdict with
   | Dart.Driver.Time_exhausted -> ()
   | _ -> Alcotest.fail "expected Time_exhausted on an expired deadline");
  Alcotest.(check int) "stopped before the first run" 0 r.Dart.Driver.runs

(* ---- resource-limit classification ----------------------------------------- *)

let test_step_limit_is_not_a_bug () =
  let prog = prepare Workloads.Paper_examples.ac_controller in
  let options =
    Dart.Driver.Options.make ~depth:1 ~max_runs:50 ~stop_on_first_bug:false
      ~faultsim:(Faultsim.make [ (Faultsim.Machine_step_limit, None, Faultsim.Nth 1) ])
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
      ~faultsim:(Faultsim.make [ (Faultsim.Solver_deadline, None, Faultsim.Nth 1) ])
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
        ~faultsim:(Faultsim.make [ (Faultsim.Solver_deadline, None, Faultsim.Nth 1) ])
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
  let src = Filename.temp_file "dart_wc" ".mc" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove src with Sys_error _ -> ())
    (fun () ->
      Dart_util.Fileio.write_atomic src (fst abort_src);
      let dartc args = Dartc_cli.run (src :: "--toplevel" :: snd abort_src :: args) in
      let code, _, msg = dartc [ "--faultsim"; "worker_crash@0" ] in
      Alcotest.(check int) "jobs 1: usage error" 2 code;
      Alcotest.(check bool) "message names --jobs" true (Str_contains.contains msg "--jobs");
      let code, _, _ = dartc [ "--faultsim"; "worker_crash@0"; "--jobs"; "2" ] in
      Alcotest.(check int) "jobs 2: the crash is injected and the bug still found" 1 code)

(* ---- dartc end to end ------------------------------------------------------ *)

let ac_cli depth =
  [ "../examples/ac_controller.mc"; "--toplevel"; "ac_controller"; "--depth";
    string_of_int depth ]

let churn_cli = [ "../examples/churn.mc"; "--toplevel"; "step"; "--depth"; "6" ]

(* The documented exit codes: 0 clean, 1 bug, 2 usage error (a flag
   conflict, a missing file), 3 time budget. *)
let test_dartc_exit_codes () =
  List.iter
    (fun (want, what, args) ->
      let code, _, err = Dartc_cli.run args in
      Alcotest.(check int) (Printf.sprintf "%s (%s)" what err) want code)
    [ (0, "no bug at depth 1", ac_cli 1);
      (1, "bug at depth 2", ac_cli 2);
      (2, "--checkpoint-every without --checkpoint", ac_cli 1 @ [ "--checkpoint-every"; "5" ]);
      (2, "missing source file", [ "no_such_file.mc"; "--toplevel"; "f" ]);
      (3, "time budget", churn_cli @ [ "--max-runs"; "10000000"; "--time-budget"; "0.3" ]) ]

(* One of four workers is killed at an occurrence drawn from the seed:
   the search still completes, with exactly one crash line, and the
   respawn claims what is left of the pooled budget. *)
let test_dartc_worker_crash_respawn () =
  List.iter
    (fun seed ->
      let code, out, _ =
        Dartc_cli.run
          (ac_cli 1
          @ [ "--jobs"; "4"; "--faultsim"; "worker_crash@1:?"; "--faultsim-seed";
              string_of_int seed ])
      in
      let name = Printf.sprintf "seed %d: " seed in
      Alcotest.(check int) (name ^ "exit 0") 0 code;
      Alcotest.(check bool) (name ^ "COMPLETE") true (String.starts_with ~prefix:"COMPLETE" out);
      match
        List.filter (fun l -> Str_contains.contains l "crashed") (String.split_on_char '\n' out)
      with
      | [ line ] ->
        Alcotest.(check bool) (name ^ "respawned") true
          (Str_contains.contains line "respawned with a fresh seed")
      | lines -> Alcotest.failf "%sexpected one crash line, got %d" name (List.length lines))
    [ 1; 2 ]

(* An injected solver-deadline overrun rides the real degradation path:
   one Unknown, reported, and the bug is still reached. *)
let test_dartc_solver_deadline () =
  let code, out, _ = Dartc_cli.run (ac_cli 2 @ [ "--faultsim"; "solver_deadline:1" ]) in
  Alcotest.(check int) "bug still found" 1 code;
  Alcotest.(check bool) "overrun reported" true
    (Str_contains.contains out "\nsolver deadline overruns: 1\n")

(* Checkpoint then resume, at run boundaries the budget fixes rather
   than a clock: stopping at 3000 runs and resuming to 4000 prints the
   report of a direct 4000-run search (exact with --no-cache). *)
let test_dartc_resume_golden_pairs () =
  List.iter
    (fun (name, args, want) ->
      Dartc_cli.with_temp_files 1 (function
        | [ ck ] ->
          let run extra = Dartc_cli.run (args @ ("--no-cache" :: extra)) in
          let code, _, _ = run [ "--max-runs"; "3000"; "--checkpoint"; ck ] in
          Alcotest.(check int) (name ^ ": checkpointed exit") want code;
          let code, resumed, err = run [ "--resume"; ck; "--max-runs"; "4000" ] in
          Alcotest.(check int) (name ^ ": resumed exit (" ^ err ^ ")") want code;
          let code, direct, _ = run [ "--max-runs"; "4000" ] in
          Alcotest.(check int) (name ^ ": direct exit") want code;
          Alcotest.(check string) (name ^ ": resumed report is the direct one") direct resumed
        | _ -> assert false))
    [ ("churn d6", churn_cli, 0);
      ("mix d6", [ "../examples/mix.mc"; "--toplevel"; "mix"; "--depth"; "6" ], 0);
      ("ac_controller d8", ac_cli 8 @ [ "--all-bugs" ], 1) ]

(* One flipped digit of the PRNG state is still a well-formed record:
   the record's checksum refuses it. *)
let test_dartc_flipped_rng_refused () =
  Dartc_cli.with_temp_files 2 (function
    | [ ck; bad ] ->
      let args = churn_cli @ [ "--no-cache"; "--max-runs"; "3000" ] in
      let code, _, _ = Dartc_cli.run (args @ [ "--checkpoint"; ck ]) in
      Alcotest.(check int) "checkpointed search exits 0" 0 code;
      let flip line =
        if String.starts_with ~prefix:"rng " line then begin
          let n = String.length line in
          String.sub line 0 (n - 1) ^ if line.[n - 1] = '0' then "1" else "0"
        end
        else line
      in
      let text = Dartc_cli.read_file ck in
      let flipped = String.concat "\n" (List.map flip (String.split_on_char '\n' text)) in
      Alcotest.(check bool) "a digit was flipped" true (flipped <> text);
      Out_channel.with_open_bin bad (fun oc -> output_string oc flipped);
      let code, _, err = Dartc_cli.run (args @ [ "--resume"; bad ]) in
      Alcotest.(check int) "refused: usage error" 2 code;
      Alcotest.(check bool) "names the checksum" true
        (Str_contains.contains err "checksum mismatch")
    | _ -> assert false)

(* SIGINT once the first periodic checkpoint lands: the search drains,
   exits 3, and leaves a checkpoint that --resume accepts (the resumed
   search runs until its own time budget). *)
let test_dartc_sigint_checkpoint () =
  Dartc_cli.with_temp_files 1 (function
    | [ ck ] ->
      Sys.remove ck;
      let args = churn_cli @ [ "--no-cache"; "--max-runs"; "10000000" ] in
      let pid = Dartc_cli.start (args @ [ "--checkpoint"; ck; "--checkpoint-every"; "200" ]) in
      let give_up = Unix.gettimeofday () +. 60. in
      while (not (Sys.file_exists ck)) && Unix.gettimeofday () < give_up do
        Unix.sleepf 0.01
      done;
      (try Unix.kill pid Sys.sigint with Unix.Unix_error _ -> ());
      let code = Dartc_cli.wait pid in
      Alcotest.(check int) "interrupted: exit 3" 3 code;
      let code, _, err = Dartc_cli.run (args @ [ "--resume"; ck; "--time-budget"; "0.2" ]) in
      Alcotest.(check int) ("resumed until the time budget (" ^ err ^ ")") 3 code
    | _ -> assert false)

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
    test_faultsim_spec_total;
    test_decoders_total;
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
    Alcotest.test_case "dartc: exit codes" `Quick test_dartc_exit_codes;
    Alcotest.test_case "dartc: worker crash respawns" `Quick test_dartc_worker_crash_respawn;
    Alcotest.test_case "dartc: solver deadline overrun" `Quick test_dartc_solver_deadline;
    Alcotest.test_case "dartc: checkpoint, resume, direct" `Quick
      test_dartc_resume_golden_pairs;
    Alcotest.test_case "dartc: flipped rng digit refused" `Quick
      test_dartc_flipped_rng_refused;
    Alcotest.test_case "dartc: SIGINT leaves a resumable checkpoint" `Quick
      test_dartc_sigint_checkpoint;
    Alcotest.test_case "new event json codec" `Quick test_new_event_codec ]
