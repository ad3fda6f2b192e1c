(* Live status snapshots: a single flat JSON object, atomically
   rewritten (write-then-rename, like Checkpoint.save) so a concurrent
   [dartc watch] always reads a complete object. Schema v1 is
   intentionally integer-only: it is written with the trace codec's
   flat-object writer and read through its one flat-object reader,
   [Telemetry.decode_flat], which have no float production. *)

type mode =
  | Run
  | Campaign

let mode_to_string = function
  | Run -> "run"
  | Campaign -> "campaign"

let mode_of_string = function
  | "run" -> Some Run
  | "campaign" -> Some Campaign
  | _ -> None

type t = {
  st_mode : mode;
  st_elapsed_ns : int64;
  st_budget_ns : int64 option; (* global time budget; omitted when none *)
  st_runs : int;
  st_max_runs : int;
  st_execs_per_sec : int;
  st_bugs : int;
  st_covered : int; (* distinct user branch directions *)
  st_frontier : int; (* sites with exactly one direction seen *)
  st_done : int; (* retired targets (0/1 in single-target runs) *)
  st_active : int;
  st_remaining : int;
  st_round : int;
  st_solve_p50_ns : int64;
  st_solve_p99_ns : int64;
}

let schema = "dart-status"
let version = 1

let to_json st =
  let int v = Telemetry.Jint (Int64.of_int v) in
  Telemetry.flat_to_json
    ([ ("schema", Telemetry.Jstr schema);
       ("version", int version);
       ("mode", Telemetry.Jstr (mode_to_string st.st_mode));
       ("elapsed_ns", Telemetry.Jint st.st_elapsed_ns) ]
    @ (match st.st_budget_ns with None -> [] | Some ns -> [ ("budget_ns", Telemetry.Jint ns) ])
    @ [ ("runs", int st.st_runs);
        ("max_runs", int st.st_max_runs);
        ("execs_per_sec", int st.st_execs_per_sec);
        ("bugs", int st.st_bugs);
        ("covered", int st.st_covered);
        ("frontier", int st.st_frontier);
        ("done", int st.st_done);
        ("active", int st.st_active);
        ("remaining", int st.st_remaining);
        ("round", int st.st_round);
        ("solve_p50_ns", Telemetry.Jint st.st_solve_p50_ns);
        ("solve_p99_ns", Telemetry.Jint st.st_solve_p99_ns) ])

let of_json line =
  Telemetry.decode_flat line (fun r ->
      let { Telemetry.str; int; i64; i64_opt; _ } = r in
      let s = str "schema" in
      if s <> schema then r.reject (Printf.sprintf "not a %s file (schema %S)" schema s);
      let v = int "version" in
      if v <> version then r.reject (Printf.sprintf "unsupported status version %d" v);
      let mode_s = str "mode" in
      let st_mode =
        match mode_of_string mode_s with
        | Some m -> m
        | None -> r.reject (Printf.sprintf "bad mode %S" mode_s)
      in
      let st_elapsed_ns = i64 "elapsed_ns" in
      let st_budget_ns = i64_opt "budget_ns" in
      let st_runs = int "runs" in
      let st_max_runs = int "max_runs" in
      let st_execs_per_sec = int "execs_per_sec" in
      let st_bugs = int "bugs" in
      let st_covered = int "covered" in
      let st_frontier = int "frontier" in
      let st_done = int "done" in
      let st_active = int "active" in
      let st_remaining = int "remaining" in
      let st_round = int "round" in
      let st_solve_p50_ns = i64 "solve_p50_ns" in
      let st_solve_p99_ns = i64 "solve_p99_ns" in
      { st_mode; st_elapsed_ns; st_budget_ns; st_runs; st_max_runs; st_execs_per_sec;
        st_bugs; st_covered; st_frontier; st_done; st_active; st_remaining; st_round;
        st_solve_p50_ns; st_solve_p99_ns })

let write ?fault ~path st = Dart_util.Fileio.write_atomic ?fault path (to_json st ^ "\n")

(* The one status writer behind [Driver.search] and [Campaign.run]:
   it owns the clock, the rate arithmetic and the warn-once flag, so
   the two searches only hand over their counters. *)
type publisher = {
  p_path : string;
  p_mode : mode;
  p_fault : Dart_util.Faultsim.t option;
  p_warn : string -> unit;
  p_budget_ns : int64 option;
  p_max_runs : int;
  p_restored_runs : int;
  p_start : int64;
  mutable p_failed : bool;
}

let publisher ?fault ~warn ~mode ~budget_ns ~max_runs ~restored_runs path =
  { p_path = path;
    p_mode = mode;
    p_fault = fault;
    p_warn = warn;
    p_budget_ns = budget_ns;
    p_max_runs = max_runs;
    p_restored_runs = restored_runs;
    p_start = Telemetry.now ();
    p_failed = false }

let publish p ~runs ~bugs ~covered ~frontier ~done_ ~active ~remaining ~round solve_hist =
  let elapsed = Int64.sub (Telemetry.now ()) p.p_start in
  (* Runs restored from a checkpoint ran in an earlier session: only
     this session's runs count towards its rate. *)
  let execs_per_sec =
    if Int64.compare elapsed 0L <= 0 then 0
    else
      int_of_float
        (float_of_int (runs - p.p_restored_runs) /. (Int64.to_float elapsed /. 1e9))
  in
  (* Status is observability output: a full disk or revoked permission
     must degrade to a warning, never abort the search. Warn once. *)
  try
    write ?fault:p.p_fault ~path:p.p_path
      { st_mode = p.p_mode;
        st_elapsed_ns = elapsed;
        st_budget_ns = p.p_budget_ns;
        st_runs = runs;
        st_max_runs = p.p_max_runs;
        st_execs_per_sec = execs_per_sec;
        st_bugs = bugs;
        st_covered = covered;
        st_frontier = frontier;
        st_done = done_;
        st_active = active;
        st_remaining = remaining;
        st_round = round;
        st_solve_p50_ns = Telemetry.Hist.p50 solve_hist;
        st_solve_p99_ns = Telemetry.Hist.p99 solve_hist }
  with Sys_error msg ->
    if not p.p_failed then begin
      p.p_failed <- true;
      p.p_warn (Printf.sprintf "warning: status write failed: %s" msg)
    end

(* Transient conditions resolve by waiting for the writer's next atomic
   rename: the file is momentarily absent (deleted, not yet created) or
   empty. Malformed content never self-heals — renames are atomic, so a
   complete read that fails to parse means the file is not (or is no
   longer) a status file. *)
let read_classified ~path =
  match Dart_util.Fileio.read_all path with
  | exception Sys_error msg -> Error (`Transient msg)
  | exception End_of_file -> Error (`Transient "truncated status file")
  | contents ->
    let contents = String.trim contents in
    if contents = "" then Error (`Transient "empty status file")
    else (
      match of_json contents with
      | Ok st -> Ok st
      | Error msg -> Error (`Malformed msg))

let read ~path =
  match read_classified ~path with
  | Ok st -> Ok st
  | Error (`Transient msg) | Error (`Malformed msg) -> Error msg

(* Deterministic terminal rendering: every line is a pure function of
   the snapshot, so [dartc watch --once] output can be golden-tested. *)
let render st =
  let buf = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let pct a b = if b <= 0 then 0 else 100 * a / b in
  line "DART %s status" (mode_to_string st.st_mode);
  (match st.st_budget_ns with
   | Some budget ->
     line "  elapsed    %s / %s (%d%%)"
       (Telemetry.ns_to_string st.st_elapsed_ns)
       (Telemetry.ns_to_string budget)
       (pct (Int64.to_int (Int64.div st.st_elapsed_ns 1_000_000L))
          (Int64.to_int (Int64.div budget 1_000_000L)))
   | None -> line "  elapsed    %s" (Telemetry.ns_to_string st.st_elapsed_ns));
  line "  runs       %d / %d (%d%%), %d execs/sec" st.st_runs st.st_max_runs
    (pct st.st_runs st.st_max_runs)
    st.st_execs_per_sec;
  (match st.st_mode with
   | Campaign ->
     line "  targets    %d done, %d active, %d remaining (round %d)" st.st_done
       st.st_active st.st_remaining st.st_round
   | Run -> ());
  line "  coverage   %d branch directions, %d frontier sites" st.st_covered st.st_frontier;
  line "  bugs       %d" st.st_bugs;
  line "  solve      p50 <=%s  p99 <=%s"
    (Telemetry.ns_to_string st.st_solve_p50_ns)
    (Telemetry.ns_to_string st.st_solve_p99_ns);
  Buffer.contents buf
