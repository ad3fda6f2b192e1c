(* Whole-library campaign mode. See campaign.mli for the contract; the
   load-bearing invariant throughout is that a target's result is a
   deterministic function of (options, target) alone — slices resume
   each other through in-memory snapshots, every slice starts with a
   cold solve cache, and nothing a worker computes depends on what the
   other workers are doing — so jobs and scheduling order can only
   change wall clock, never the report. *)

module O = Driver.Options

type retire = Bug | Complete | Saturated | Budget_capped | Quarantined of string

type target_result = {
  tr_name : string;
  tr_index : int;
  tr_runs : int;
  tr_slices : int;
  tr_retired : retire;
  tr_coverage : (string * int * bool) list;
  tr_bugs : Driver.bug list;
  tr_overruns : int; (* cumulative solver deadline overruns across slices *)
  tr_bopens : int; (* cumulative circuit-breaker opens across slices *)
}

type status = Finished | Stopped_early of string

type report = {
  cam_targets : string list;
  cam_skipped : (string * string) list;
  cam_results : target_result list;
  cam_unfinished : string list;
  cam_crashes : (string * Driver.bug) list;
  cam_status : status;
  cam_resumed : int;
  cam_metrics : Telemetry.metrics;
  cam_times : (string * int64) list;
}

(* ---- discovery ------------------------------------------------------------------- *)

let discover (ast : Minic.Ast.program) =
  let targets = ref [] in
  let skipped = ref [] in
  List.iter
    (function
      | Minic.Ast.Gfun f when f.Minic.Ast.fbody <> None ->
        let name = f.Minic.Ast.fname in
        (* Driver_gen.is_harness_site is the single source of truth:
           __dart_* helpers (from a source file that embeds a generated
           driver) and the __coin site can never become targets. *)
        if not (Driver_gen.is_harness_site name) then begin
          match
            List.find_opt
              (fun (ty, _) -> not (Minic.Ctype.is_scalar ty))
              f.Minic.Ast.fparams
          with
          | Some (ty, p) ->
            skipped :=
              ( name,
                Printf.sprintf "parameter %s has non-scalar type %s" p
                  (Minic.Ctype.to_string ty) )
              :: !skipped
          | None -> targets := name :: !targets
        end
      | _ -> ())
    ast;
  (List.rev !targets, List.rev !skipped)

(* ---- checkpoint codec ------------------------------------------------------------ *)

let retire_tag = function
  | Bug -> "bug"
  | Complete -> "complete"
  | Saturated -> "saturated"
  | Budget_capped -> "capped"
  | Quarantined _ -> "quarantined"

module C = Checkpoint

(* Everything a target's deterministic result depends on, one line;
   [load] insists on byte equality, so a resumed campaign can only ever
   continue the run it checkpointed. The time budget is absent on
   purpose: it can stop a campaign early but never changes a finished
   target's result. *)
let meta_line ~(options : Driver.options) ~library =
  Printf.sprintf
    "meta seed=%d depth=%d max_runs=%d per_function_runs=%d retire_after=%d \
     retry_limit=%d strategy=%s all_bugs=%s library=%s"
    options.O.search.O.seed options.O.search.O.depth options.O.budget.O.max_runs
    options.O.campaign.O.per_function_runs options.O.campaign.O.retire_after
    options.O.campaign.O.retry_limit
    (Strategy.to_string options.O.search.O.strategy)
    (C.bool_tag (not options.O.budget.O.stop_on_first_bug))
    (Digest.to_hex (Digest.string library))

(* One finished target = one record block of the checkpoint framing
   ({!Checkpoint.frame} adds its crc trailer), so a damaged target never
   costs the ones before it under salvage. A quarantined target carries
   its reason as a trailing escaped token — {!Checkpoint.escape} makes
   it space-free. *)
let target_block tr =
  let buf = Buffer.create 256 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  let esc = C.escape in
  (match tr.tr_retired with
   | Quarantined reason ->
     line "target %s %d %d %d %s %d %d %s" (esc tr.tr_name) tr.tr_index tr.tr_runs
       tr.tr_slices (retire_tag tr.tr_retired) tr.tr_overruns tr.tr_bopens (esc reason)
   | _ ->
     line "target %s %d %d %d %s %d %d" (esc tr.tr_name) tr.tr_index tr.tr_runs
       tr.tr_slices (retire_tag tr.tr_retired) tr.tr_overruns tr.tr_bopens);
  line "cover %d" (List.length tr.tr_coverage);
  List.iter (fun site -> line "%s" (C.cover_record "c" site)) tr.tr_coverage;
  line "bugs %d" (List.length tr.tr_bugs);
  List.iter (fun b -> line "%s" (C.bug_record b)) tr.tr_bugs;
  Buffer.contents buf

let to_string ~options ~library report =
  C.frame C.Campaign ~meta:(meta_line ~options ~library)
    (List.map target_block report.cam_results)

let decode_target r =
  let next = C.next r and tokens = C.tokens and int_tok = C.int_tok in
  let tr_name, tr_index, tr_runs, tr_slices, tr_retired, tr_overruns, tr_bopens =
    match tokens (next "target") with
    | "target" :: name :: index :: runs :: slices :: tag :: overruns :: bopens :: rest ->
      let retired =
        match (tag, rest) with
        | "bug", [] -> Bug
        | "complete", [] -> Complete
        | "saturated", [] -> Saturated
        | "capped", [] -> Budget_capped
        | "quarantined", [ reason ] -> Quarantined (C.unescape "target" reason)
        | _ -> raise (C.Bad (Printf.sprintf "unknown retire reason %S" tag))
      in
      ( C.unescape "target" name,
        int_tok "target" index,
        int_tok "target" runs,
        int_tok "target" slices,
        retired,
        int_tok "target" overruns,
        int_tok "target" bopens )
    | _ -> raise (C.Bad "expected \"target\" record")
  in
  let n_cov = C.expect_counted r "cover" in
  let tr_coverage = List.init n_cov (fun _ -> C.cover_of_tokens "c" (tokens (next "c"))) in
  let n_bugs = C.expect_counted r "bugs" in
  let tr_bugs = List.init n_bugs (fun _ -> C.bug_of_tokens (tokens (next "bug"))) in
  { tr_name; tr_index; tr_runs; tr_slices; tr_retired; tr_coverage; tr_bugs;
    tr_overruns; tr_bopens }

let of_string text =
  match C.parse ~salvage:false C.Campaign decode_target text with
  | Ok p -> Ok (p.C.meta, p.C.records)
  | Error _ as e -> e

let save ?fault ~path ~options ~library report =
  Dart_util.Fileio.write_atomic ?fault path (to_string ~options ~library report)

let load ?salvage ~path ~options ~library () =
  C.load_framed ?salvage C.Campaign ~meta:(meta_line ~options ~library) decode_target ~path

(* ---- aggregation ----------------------------------------------------------------- *)

let dedup_crashes results =
  let seen : (string * int * Machine.fault, unit) Hashtbl.t = Hashtbl.create 32 in
  let acc = ref [] in
  (* Results arrive in declaration order, so the first target (in that
     order) to expose a defect gets the attribution. *)
  List.iter
    (fun tr ->
      List.iter
        (fun (b : Driver.bug) ->
          let key = Driver.bug_key b in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            acc := (key, (tr.tr_name, b)) :: !acc
          end)
        tr.tr_bugs)
    results;
  List.sort (fun (k1, _) (k2, _) -> compare k1 k2) (List.rev !acc) |> List.map snd

let aggregate_sites report =
  let tbl : (string * int * bool, unit) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun tr ->
      List.iter
        (fun ((fn, _, _) as site) ->
          if not (Driver_gen.is_harness_site fn) then Hashtbl.replace tbl site ())
        tr.tr_coverage)
    report.cam_results;
  List.sort compare (Hashtbl.fold (fun site () acc -> site :: acc) tbl [])

(* ---- the scheduler --------------------------------------------------------------- *)

(* A target's place in the campaign: still being sliced, dropped with
   the front end's reason (listed as skipped), or retired with its
   result (settled this session or restored from a checkpoint). *)
type phase = Active | Dropped of string | Retired of target_result

type tstate = {
  st_name : string;
  st_index : int;
  mutable st_phase : phase;
  mutable st_runs : int;
  mutable st_slices : int;
  mutable st_stale : int; (* consecutive slices without a new direction *)
  mutable st_frontier : int;
  mutable st_ns : int64; (* cumulative slice wall clock this session *)
  mutable st_sites : (string * int * bool) list; (* latest slice coverage *)
  mutable st_snapshot : Driver.snapshot option;
  mutable st_faults : int; (* consecutive faulted slices (quarantine counter) *)
  mutable st_backoff : int; (* rounds to sit out before the next retry *)
  mutable st_bugs : Driver.bug list; (* last successful slice's cumulative bugs *)
  mutable st_overruns : int; (* cumulative solver deadline overruns *)
  st_breaker : Solver.Breaker.t option; (* shared across this target's slices *)
  mutable st_prog : Ram.Instr.program option; (* linked on the first slice *)
}

let is_active st = match st.st_phase with Active -> true | Dropped _ | Retired _ -> false

let result_of st = match st.st_phase with Retired tr -> Some tr | Active | Dropped _ -> None

(* Retire a target with everything its successful slices earned (a
   quarantined target keeps its runs, coverage and bugs too); returns
   the tag its Target_retired event carries. *)
let retire st reason =
  st.st_phase <-
    Retired
      { tr_name = st.st_name;
        tr_index = st.st_index;
        tr_runs = st.st_runs;
        tr_slices = st.st_slices;
        tr_retired = reason;
        tr_coverage = List.sort compare st.st_sites;
        tr_bugs = st.st_bugs;
        tr_overruns = st.st_overruns;
        tr_bopens = Option.fold ~none:0 ~some:Solver.Breaker.opens st.st_breaker };
  retire_tag reason

(* How a slice ended. One that raised anything but a front-end
   rejection comes back from the fan-out as [Error reason] instead: a
   fault, retried and then quarantined. *)
type slice_outcome =
  | Sliced of Driver.report * Driver.snapshot option
  | Slice_failed of string (* front-end rejection: permanent, target dropped *)

let run ?(jobs = 1) ?(options = Driver.Options.default) ?checkpoint ?resume
    ?(salvage = false) ?file ?(progress = fun _ -> ()) text =
  if jobs < 0 then invalid_arg "Campaign.run: jobs must be >= 0";
  let jobs = if jobs = 0 then Domain.recommended_domain_count () else jobs in
  (* One deadline for the whole campaign: every slice's search gets it,
     and the scheduler starts no slice past it. *)
  let deadline = Driver.deadline_of_options options in
  let halted () = Cancel.requested () || Driver.expired deadline in
  let ast = Minic.Parser.parse_program ?file text in
  let targets, skipped = discover ast in
  if targets = [] then
    Error
      "no testable targets discovered (every function is a prototype, a harness helper, \
       or takes non-scalar parameters)"
  else begin
    (* The library is typechecked and lowered once, up front: its type
       errors surface once instead of as one identical slice failure per
       target, and a target's first slice links only its driver. *)
    let cam_metrics = Telemetry.create_metrics () in
    let lib = Driver.lower_library ~metrics:cam_metrics ast in
    (* Compiled before any worker domain starts, so that the targets'
       drivers all build on one compiled library instead of racing to
       compile their own. *)
    if options.O.exec.Concolic.compile then Machine.precompile (Driver.library_program lib);
    let restored =
      match resume with
      | None -> Ok []
      | Some path ->
        let salvage =
          if salvage then Some (fun msg -> progress (Printf.sprintf "salvage: %s" msg))
          else None
        in
        Result.map_error (Printf.sprintf "%s: %s" path)
          (load ?salvage ~path ~options ~library:text ())
    in
    match restored with
    | Error msg -> Error msg
    | Ok restored ->
      let restored_tbl = Hashtbl.create 16 in
      List.iter (fun tr -> Hashtbl.replace restored_tbl tr.tr_name tr) restored;
      let states =
        List.mapi
          (fun i name ->
            let st_phase, st_runs, st_sites =
              match Hashtbl.find_opt restored_tbl name with
              | Some tr -> (Retired tr, tr.tr_runs, tr.tr_coverage)
              | None -> (Active, 0, [])
            in
            { st_name = name;
              st_index = i;
              st_phase;
              st_runs;
              st_slices = 0;
              st_stale = 0;
              st_frontier = 0;
              st_ns = 0L;
              st_sites;
              st_snapshot = None;
              st_faults = 0;
              st_backoff = 0;
              st_bugs = [];
              st_overruns = 0;
              (* One breaker per target for the whole campaign: a site
                 opened in slice k is still open (or cooling down) in
                 slice k+1, and every slice boundary is one cooldown
                 tick. *)
              st_breaker =
                (if options.O.accel.O.use_breaker then Some (Solver.Breaker.create ())
                 else None);
              st_prog = None })
          targets
      in
      let resumed_count = List.length (List.filter_map result_of states) in
      (* The campaign is the sole writer of the main sink and the status
         file: slices trace into private per-target rings replayed at
         settle, so worker domains never touch either. *)
      let msink = options.O.telemetry.Telemetry.sink in
      let tracing = Telemetry.enabled msink in
      let dropped_events = ref 0 in
      let per_slice = max 1 options.O.campaign.O.per_function_runs in
      let cap_total = options.O.budget.O.max_runs in
      let fault = options.O.fault in
      let retry_limit = max 1 options.O.campaign.O.retry_limit in
      let run_slice st ring =
        let cap = min cap_total (st.st_runs + per_slice) in
        let slice_options =
          { options with
            O.budget = { options.O.budget with O.max_runs = cap };
            telemetry =
              { options.O.telemetry with Telemetry.sink = ring; status_path = None } }
        in
        let latest = ref None in
        (* Worker-crash probe at the slice boundary, keyed by
           target index: models a slice's worker dying anywhere in the
           slice (the parallel layer injects the same fault mid-search
           inside single-shot workers). Like a defect in the search
           stack or a Stack_overflow, it escapes the slice as a fault:
           the target is retried with backoff and eventually
           quarantined, never the campaign's problem. *)
        if
          Dart_util.Faultsim.is_on fault
          && Dart_util.Faultsim.fire ~key:st.st_index fault Dart_util.Faultsim.Worker_crash
        then Dart_util.Faultsim.inject_crash Dart_util.Faultsim.Worker_crash;
        try
          (* Linking the target's driver against the lowered library
             lands in its first slice's Lower phase; later slices reuse
             the program. *)
          let metrics = Telemetry.create_metrics () in
          let prog =
            match st.st_prog with
            | Some prog -> prog
            | None ->
              let prog =
                Driver.link ~metrics lib ~toplevel:st.st_name ~depth:options.O.search.O.depth
              in
              st.st_prog <- Some prog;
              prog
          in
          let ctx =
            Driver.make_ctx ~metrics ?deadline
              ~incremental:options.O.accel.O.use_incremental
              ~use_breaker:options.O.accel.O.use_breaker ?breaker:st.st_breaker
              ~seed:options.O.search.O.seed ~max_runs:cap ()
          in
          let r =
            Driver.search ?resume:st.st_snapshot
              ~on_checkpoint:(fun sn -> latest := Some sn)
              ~ctx ~options:slice_options prog
          in
          Sliced (r, !latest)
        with
        | Minic.Typecheck.Error (loc, msg) ->
          Slice_failed (Printf.sprintf "%s: %s" (Minic.Loc.to_string loc) msg)
        | Driver_gen.No_toplevel name ->
          Slice_failed (Printf.sprintf "no function named %s with a body" name)
      in
      let active () = List.filter is_active states in
      (* Most frontier sites first, where a refill is most likely to buy
         coverage; ties (round 1: everybody at 0) fall back to
         declaration order. *)
      let order_round sts =
        List.stable_sort
          (fun a b ->
            match compare b.st_frontier a.st_frontier with
            | 0 -> compare a.st_index b.st_index
            | c -> c)
          sts
      in
      let interim () =
        let results =
          List.filter_map result_of states
          |> List.sort (fun a b -> compare a.tr_index b.tr_index)
        in
        let dropped =
          List.filter_map
            (fun st -> match st.st_phase with Dropped r -> Some (st.st_name, r) | _ -> None)
            states
        in
        { cam_targets = targets;
          cam_skipped = skipped @ dropped;
          cam_results = results;
          cam_unfinished =
            List.filter_map (fun st -> if is_active st then Some st.st_name else None) states;
          cam_crashes = dedup_crashes results;
          cam_status = Finished; (* patched by the caller *)
          cam_resumed = resumed_count;
          cam_metrics;
          cam_times =
            List.filter_map
              (fun st ->
                if st.st_slices > 0 || result_of st <> None then Some (st.st_name, st.st_ns)
                else None)
              states }
      in
      let round = ref 0 in
      (* Observability must never kill the campaign: a status file or
         checkpoint that cannot be written (disk full, permissions,
         injected io_error) degrades to a one-time warning while the
         search carries on. *)
      let checkpoint_write_failed = ref false in
      let status =
        Option.map
          (Status.publisher ~fault ~warn:progress ~mode:Status.Campaign
             ~budget_ns:options.O.budget.O.time_budget_ns ~max_runs:(cap_total * List.length states)
             ~restored_runs:(List.fold_left (fun acc tr -> acc + tr.tr_runs) 0 restored))
          options.O.telemetry.Telemetry.status_path
      in
      let write_status ~final () =
        Option.iter
          (fun p ->
            let r = interim () in
            let done_ = List.length r.cam_results in
            let act = if final then 0 else List.length (active ()) in
            (* A retired target's state holds its result's runs and
               sites, so every state reads the same way. *)
            let runs = List.fold_left (fun acc st -> acc + st.st_runs) 0 states in
            let covered =
              let tbl : (string * int * bool, unit) Hashtbl.t = Hashtbl.create 256 in
              List.iter
                (fun st -> List.iter (fun s -> Hashtbl.replace tbl s ()) st.st_sites)
                states;
              Hashtbl.length tbl
            in
            let frontier = List.fold_left (fun acc st -> acc + st.st_frontier) 0 (active ()) in
            Status.publish p ~runs ~bugs:(List.length r.cam_crashes) ~covered ~frontier
              ~done_ ~active:act ~remaining:(List.length states - done_ - act) ~round:!round
              cam_metrics.Telemetry.solve_hist)
          status
      in
      progress
        (Printf.sprintf "campaign: %d targets (%d skipped), %d restored from checkpoint, jobs=%d"
           (List.length targets) (List.length skipped) resumed_count jobs);
      let finished_at_last_save = ref (-1) in
      let maybe_checkpoint () =
        Option.iter
          (fun path ->
            let r = interim () in
            let n = List.length r.cam_results in
            if n <> !finished_at_last_save then begin
              try
                save ~fault ~path ~options ~library:text r;
                (* Only advance on success, so the next settle retries
                   the write instead of silently skipping it. *)
                finished_at_last_save := n;
                progress (Printf.sprintf "checkpoint: wrote %s (%d finished)" path n)
              with Sys_error msg ->
                if not !checkpoint_write_failed then begin
                  checkpoint_write_failed := true;
                  progress (Printf.sprintf "warning: checkpoint write failed: %s" msg)
                end
            end)
          checkpoint
      in
      while active () <> [] && not (halted ()) do
        incr round;
        let round_t0 = Telemetry.now () in
        (* Faulted targets back off in whole rounds: ready targets run,
           the others sit this one out and count it against their
           backoff. A round where everyone is backing off still ticks
           (the backoffs strictly decrease, so the loop always makes
           progress). *)
        let ready, backing_off =
          List.partition (fun st -> st.st_backoff = 0) (active ())
        in
        List.iter (fun st -> st.st_backoff <- st.st_backoff - 1) backing_off;
        let tasks = Array.of_list (order_round ready) in
        progress
          (Printf.sprintf "round %d: %d active%s" !round (Array.length tasks)
             (match backing_off with
              | [] -> ""
              | l -> Printf.sprintf ", %d backing off" (List.length l)));
        write_status ~final:false ();
        let outcomes =
          Parallel.fan_out ~jobs ~stop:halted
            ~sink:(fun () -> Parallel.ring options.O.telemetry)
            (Array.map run_slice tasks)
        in
        (* Settle the round in declaration order, so crash attribution,
           progress lines and the replayed trace are deterministic: the
           event order per settled slice is Target_scheduled, the
           slice's ring, Slice_end, then Target_retired when the slice
           retired the target. *)
        let settle st { Parallel.sink = ring; result; dur_ns = dur } =
          st.st_ns <- Int64.add st.st_ns dur;
          let prev_runs = st.st_runs in
          if tracing then begin
            Telemetry.emit msink
              (Telemetry.Target_scheduled { target = st.st_name; round = !round });
            dropped_events := !dropped_events + Parallel.replay ~into:msink ring
          end;
          let outcome, retired =
            match result with
            | Ok (Slice_failed reason) ->
              st.st_phase <- Dropped reason;
              progress (Printf.sprintf "dropped %s: %s" st.st_name reason);
              ("failed", Some "failed")
            | Error reason ->
              st.st_slices <- st.st_slices + 1;
              st.st_faults <- st.st_faults + 1;
              if st.st_faults >= retry_limit then begin
                progress
                  (Printf.sprintf "quarantined %s after %d consecutive faults: %s" st.st_name
                     st.st_faults reason);
                ("fault", Some (retire st (Quarantined reason)))
              end
              else begin
                (* Exponential backoff in whole rounds, deterministic from
                   the campaign seed so a replayed campaign retries at the
                   same rounds; capped at 16 rounds. *)
                let rng =
                  Dart_util.Prng.create
                    (options.O.search.O.seed lxor ((st.st_index * 65599) + st.st_faults))
                in
                st.st_backoff <- Dart_util.Prng.int_range rng 1 (1 lsl min st.st_faults 4);
                progress
                  (Printf.sprintf "fault on %s (%d/%d): %s; backing off %d round%s" st.st_name
                     st.st_faults retry_limit reason st.st_backoff
                     (if st.st_backoff = 1 then "" else "s"));
                ("fault", None)
              end
            | Ok (Sliced (r, snap)) ->
              Telemetry.add_metrics ~into:cam_metrics r.Driver.metrics;
              st.st_slices <- st.st_slices + 1;
              st.st_faults <- 0; (* quarantine counts *consecutive* faults *)
              let covered = List.length r.Driver.coverage_sites in
              if covered > List.length st.st_sites then st.st_stale <- 0
              else st.st_stale <- st.st_stale + 1;
              st.st_runs <- r.Driver.runs;
              st.st_sites <- r.Driver.coverage_sites;
              st.st_bugs <- r.Driver.bugs;
              (* Snapshot restore makes the slice's solver stats cumulative
                 across this target's slices, so the latest reading is the
                 target's total. *)
              st.st_overruns <- Solver.deadline_overruns r.Driver.solver_stats;
              (* One cooldown tick per slice: a breaker opened in this
                 slice may half-open in a later one. *)
              Option.iter Solver.Breaker.tick st.st_breaker;
              st.st_frontier <- Coverage.frontier_count r.Driver.coverage_sites;
              let finish reason =
                progress
                  (Printf.sprintf "retired %s: %s after %d runs (%d slices, %d dirs)"
                     st.st_name (retire_tag reason) st.st_runs st.st_slices covered);
                Some (retire st reason)
              in
              ( Driver.verdict_tag r.Driver.verdict,
                match r.Driver.verdict with
                | Driver.Bug_found _ -> finish Bug
                | Driver.Complete -> finish Complete
                | Driver.Budget_exhausted ->
                  if st.st_runs >= cap_total then finish Budget_capped
                  else if st.st_stale >= options.O.campaign.O.retire_after then
                    finish Saturated
                  else begin
                    match snap with
                    | Some sn ->
                      st.st_snapshot <- Some sn;
                      None
                    | None ->
                      (* The search stopped making progress without leaving
                         a resumable snapshot; refilling would re-run the
                         same slice forever. *)
                      finish Saturated
                  end
                | Driver.Time_exhausted | Driver.Interrupted ->
                  (* The campaign's deadline or an interrupt cut the slice
                     at a run boundary, with a runs count no uninterrupted
                     campaign would reproduce: the target stays unfinished,
                     and a checkpointed campaign re-runs it from scratch on
                     resume. *)
                  None )
          in
          (* Failed and faulted slices leave st_runs alone: 0 runs. *)
          if tracing then begin
            Telemetry.emit msink
              (Telemetry.Slice_end
                 { target = st.st_name;
                   round = !round;
                   outcome;
                   runs = st.st_runs - prev_runs;
                   dur_ns = dur });
            Option.iter
              (fun reason ->
                Telemetry.emit msink (Telemetry.Target_retired { target = st.st_name; reason }))
              retired
          end
        in
        let indexed = Array.to_list (Array.mapi (fun i st -> (st, outcomes.(i))) tasks) in
        List.iter
          (fun (st, outcome) -> Option.iter (settle st) outcome)
          (List.stable_sort (fun ((a : tstate), _) (b, _) -> compare a.st_index b.st_index) indexed);
        if tracing then begin
          Telemetry.emit msink
            (Telemetry.Round_end
               { round = !round;
                 active = List.length (active ());
                 dur_ns = Int64.sub (Telemetry.now ()) round_t0 });
          (* Per-round flush: an interrupted or time-capped campaign
             still leaves a trace ending on a complete line. *)
          Telemetry.flush msink
        end;
        write_status ~final:false ();
        maybe_checkpoint ()
      done;
      if tracing then begin
        Telemetry.emit_phase_totals msink cam_metrics;
        Telemetry.flush msink
      end;
      if !dropped_events > 0 then
        progress
          (Parallel.dropped_warning ~remedy:"use a smaller --per-function-runs"
             !dropped_events);
      let report = interim () in
      let report =
        if report.cam_unfinished = [] then report
        else
          { report with
            cam_status =
              Stopped_early
                (if Cancel.requested () then "interrupted" else "time budget exhausted") }
      in
      maybe_checkpoint ();
      write_status ~final:true ();
      Ok report
  end

(* ---- reports --------------------------------------------------------------------- *)

let retire_histogram results =
  let count p = List.length (List.filter (fun tr -> p tr.tr_retired) results) in
  ( count (fun r -> r = Bug),
    count (fun r -> r = Complete),
    count (fun r -> r = Saturated),
    count (fun r -> r = Budget_capped),
    count (function Quarantined _ -> true | _ -> false) )

let no_lost_targets r =
  (* Every discovered target is accounted for exactly once: tested,
     skipped, or unfinished. dartc checks this after every campaign —
     faults may quarantine a target but must never drop it from the
     ledger. *)
  let tbl = Hashtbl.create 64 in
  let bump name = Hashtbl.replace tbl name (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name)) in
  List.iter (fun tr -> bump tr.tr_name) r.cam_results;
  List.iter (fun (name, _) -> bump name) r.cam_skipped;
  List.iter bump r.cam_unfinished;
  List.for_all (fun name -> Hashtbl.find_opt tbl name = Some 1) r.cam_targets
  && Hashtbl.length tbl = List.length r.cam_targets

let report_to_string r =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "campaign: %d targets discovered, %d tested, %d skipped"
    (List.length r.cam_targets) (List.length r.cam_results) (List.length r.cam_skipped);
  (match r.cam_status with
   | Finished -> ()
   | Stopped_early reason ->
     line "stopped early (%s): %d targets unfinished" reason (List.length r.cam_unfinished));
  let bug, complete, saturated, capped, quarantined = retire_histogram r.cam_results in
  line "retired: %d bug, %d complete, %d saturated, %d budget-capped%s" bug complete
    saturated capped
    (if quarantined > 0 then Printf.sprintf ", %d quarantined" quarantined else "");
  if quarantined > 0 then begin
    line "quarantined:";
    List.iter
      (fun tr ->
        match tr.tr_retired with
        | Quarantined reason -> line "  - %s: %s" tr.tr_name reason
        | _ -> ())
      r.cam_results
  end;
  line "distinct crashes: %d" (List.length r.cam_crashes);
  List.iter
    (fun (target, (b : Driver.bug)) ->
      line "  - %s in %s at %s (target %s, run %d)"
        (Machine.fault_to_string b.Driver.bug_fault)
        b.Driver.bug_site.Machine.site_fn
        (Minic.Loc.to_string b.Driver.bug_site.Machine.site_loc)
        target b.Driver.bug_run)
    r.cam_crashes;
  line "aggregate coverage: %d branch directions" (List.length (aggregate_sites r));
  (match r.cam_skipped with
   | [] -> ()
   | sk ->
     line "skipped:";
     List.iter (fun (name, reason) -> line "  - %s: %s" name reason) sk);
  Buffer.contents buf

let to_json r =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let str = Telemetry.json_string in
  let bug_json target (b : Driver.bug) =
    let loc = b.Driver.bug_site.Machine.site_loc in
    Printf.sprintf
      "{\"fault\": %s, \"fn\": %s, \"pc\": %d, \"file\": %s, \"line\": %d, \"col\": %d, \
       \"target\": %s, \"run\": %d}"
      (str (Machine.fault_tag b.Driver.bug_fault))
      (str b.Driver.bug_site.Machine.site_fn)
      b.Driver.bug_site.Machine.site_pc (str loc.Minic.Loc.file) loc.Minic.Loc.line
      loc.Minic.Loc.col (str target) b.Driver.bug_run
  in
  let bug, complete, saturated, capped, quarantined = retire_histogram r.cam_results in
  add "{\n";
  add "  \"targets\": %d,\n" (List.length r.cam_targets);
  add "  \"tested\": %d,\n" (List.length r.cam_results);
  add "  \"skipped\": %d,\n" (List.length r.cam_skipped);
  add "  \"status\": %s,\n"
    (str
       (match r.cam_status with
        | Finished -> "finished"
        | Stopped_early reason -> "stopped early: " ^ reason));
  add "  \"resumed\": %d,\n" r.cam_resumed;
  (* "quarantined" appears only when nonzero, so fault-free aggregate
     JSON stays byte-identical to pre-quarantine campaigns. *)
  add "  \"retired\": {\"bug\": %d, \"complete\": %d, \"saturated\": %d, \"capped\": %d%s},\n"
    bug complete saturated capped
    (if quarantined > 0 then Printf.sprintf ", \"quarantined\": %d" quarantined else "");
  add "  \"coverage_directions\": %d,\n" (List.length (aggregate_sites r));
  (* Wall-clock attribution on one filterable line: determinism diffs
     (jobs=1 vs jobs=N, resume) must drop it with [grep -v '"phases"'],
     exactly like the "resumed" line. *)
  let m = r.cam_metrics in
  add
    "  \"phases\": {\"execute_ns\": %Ld, \"solve_ns\": %Ld, \"lower_ns\": %Ld, \
     \"merge_ns\": %Ld, \"total_ns\": %Ld, \"solve_p50_ns\": %Ld, \"solve_p99_ns\": %Ld, \
     \"run_p50_ns\": %Ld, \"run_p99_ns\": %Ld},\n"
    m.Telemetry.execute_ns m.Telemetry.solve_ns m.Telemetry.lower_ns m.Telemetry.merge_ns
    (Telemetry.total_ns m)
    (Telemetry.Hist.p50 m.Telemetry.solve_hist)
    (Telemetry.Hist.p99 m.Telemetry.solve_hist)
    (Telemetry.Hist.p50 m.Telemetry.run_hist)
    (Telemetry.Hist.p99 m.Telemetry.run_hist);
  add "  \"crashes\": [";
  List.iteri
    (fun i (target, b) ->
      if i > 0 then add ",";
      add "\n    %s" (bug_json target b))
    r.cam_crashes;
  if r.cam_crashes <> [] then add "\n  ";
  add "],\n";
  add "  \"results\": [";
  List.iteri
    (fun i tr ->
      if i > 0 then add ",";
      add
        "\n    {\"name\": %s, \"runs\": %d, \"slices\": %d, \"retired\": %s, \
         \"covered\": %d, \"bugs\": %d%s%s%s}"
        (str tr.tr_name) tr.tr_runs tr.tr_slices
        (str (retire_tag tr.tr_retired))
        (List.length tr.tr_coverage) (List.length tr.tr_bugs)
        (* Fault-tolerance fields are nonzero-gated for the same
           byte-identity reason as "quarantined" above. *)
        (if tr.tr_overruns > 0 then
           Printf.sprintf ", \"deadline_overruns\": %d" tr.tr_overruns
         else "")
        (if tr.tr_bopens > 0 then Printf.sprintf ", \"breaker_opens\": %d" tr.tr_bopens
         else "")
        (match tr.tr_retired with
         | Quarantined reason -> Printf.sprintf ", \"reason\": %s" (str reason)
         | _ -> ""))
    r.cam_results;
  if r.cam_results <> [] then add "\n  ";
  add "],\n";
  add "  \"unfinished\": [%s]\n"
    (String.concat ", " (List.map str r.cam_unfinished));
  add "}\n";
  Buffer.contents buf
