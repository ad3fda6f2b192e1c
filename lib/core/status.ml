(* Live status snapshots: a single flat JSON object, atomically
   rewritten (write-then-rename, like Checkpoint.save) so a concurrent
   [dartc watch] always reads a complete object. Schema v1 is
   intentionally integer-only — it reuses the flat-object parser of the
   trace codec, which has no float production. *)

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
  let buf = Buffer.create 256 in
  Buffer.add_char buf '{';
  let first = ref true in
  let raw k v =
    if !first then first := false else Buffer.add_char buf ',';
    Buffer.add_char buf '"';
    Buffer.add_string buf k;
    Buffer.add_string buf "\":";
    Buffer.add_string buf v
  in
  let str k v = raw k (Printf.sprintf "%S" v) in
  let int k v = raw k (string_of_int v) in
  let i64 k v = raw k (Int64.to_string v) in
  str "schema" schema;
  int "version" version;
  str "mode" (mode_to_string st.st_mode);
  i64 "elapsed_ns" st.st_elapsed_ns;
  (match st.st_budget_ns with None -> () | Some ns -> i64 "budget_ns" ns);
  int "runs" st.st_runs;
  int "max_runs" st.st_max_runs;
  int "execs_per_sec" st.st_execs_per_sec;
  int "bugs" st.st_bugs;
  int "covered" st.st_covered;
  int "frontier" st.st_frontier;
  int "done" st.st_done;
  int "active" st.st_active;
  int "remaining" st.st_remaining;
  int "round" st.st_round;
  i64 "solve_p50_ns" st.st_solve_p50_ns;
  i64 "solve_p99_ns" st.st_solve_p99_ns;
  Buffer.add_char buf '}';
  Buffer.contents buf

let of_json line =
  match Telemetry.parse_flat line with
  | Error msg -> Error msg
  | Ok fields ->
    let str k =
      match List.assoc_opt k fields with
      | Some (Telemetry.Jstr s) -> Ok s
      | _ -> Error (Printf.sprintf "missing string field %S" k)
    in
    let i64 k =
      match List.assoc_opt k fields with
      | Some (Telemetry.Jint v) -> Ok v
      | _ -> Error (Printf.sprintf "missing integer field %S" k)
    in
    let int k = Result.map Int64.to_int (i64 k) in
    let ( let* ) = Result.bind in
    let* s = str "schema" in
    if s <> schema then Error (Printf.sprintf "not a %s file (schema %S)" schema s)
    else
      let* v = int "version" in
      if v <> version then Error (Printf.sprintf "unsupported status version %d" v)
      else
        let* mode_s = str "mode" in
        let* mode =
          match mode_of_string mode_s with
          | Some m -> Ok m
          | None -> Error (Printf.sprintf "bad mode %S" mode_s)
        in
        let* elapsed_ns = i64 "elapsed_ns" in
        let budget_ns =
          match List.assoc_opt "budget_ns" fields with
          | Some (Telemetry.Jint v) -> Some v
          | _ -> None
        in
        let* runs = int "runs" in
        let* max_runs = int "max_runs" in
        let* execs_per_sec = int "execs_per_sec" in
        let* bugs = int "bugs" in
        let* covered = int "covered" in
        let* frontier = int "frontier" in
        let* done_ = int "done" in
        let* active = int "active" in
        let* remaining = int "remaining" in
        let* round = int "round" in
        let* solve_p50_ns = i64 "solve_p50_ns" in
        let* solve_p99_ns = i64 "solve_p99_ns" in
        Ok
          { st_mode = mode;
            st_elapsed_ns = elapsed_ns;
            st_budget_ns = budget_ns;
            st_runs = runs;
            st_max_runs = max_runs;
            st_execs_per_sec = execs_per_sec;
            st_bugs = bugs;
            st_covered = covered;
            st_frontier = frontier;
            st_done = done_;
            st_active = active;
            st_remaining = remaining;
            st_round = round;
            st_solve_p50_ns = solve_p50_ns;
            st_solve_p99_ns = solve_p99_ns }

let write ?fault ~path st = Dart_util.Fileio.write_atomic ?fault path (to_json st ^ "\n")

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
