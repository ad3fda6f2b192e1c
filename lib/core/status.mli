(** Live status snapshots ([--status FILE] / [dartc watch]).

    A running search (or campaign) periodically rewrites a small flat
    JSON object — schema v1, integer fields only — using the same
    write-then-rename discipline as {!Checkpoint.save}, so a concurrent
    reader always sees a complete snapshot. Both write it through one
    {!publisher}. [dartc watch FILE] renders it as a terminal status
    view. *)

type mode =
  | Run (* single-target dartc run *)
  | Campaign (* whole-library campaign *)

type t = {
  st_mode : mode;
  st_elapsed_ns : int64; (* wall clock since the search started *)
  st_budget_ns : int64 option; (* --time-budget, when set *)
  st_runs : int; (* cumulative concolic/random runs *)
  st_max_runs : int; (* total run budget *)
  st_execs_per_sec : int; (* this session's runs over its elapsed time *)
  st_bugs : int; (* distinct bugs so far *)
  st_covered : int; (* distinct user branch directions *)
  st_frontier : int; (* branch sites with one direction missing *)
  st_done : int; (* campaign: retired targets; run: 0 until final *)
  st_active : int; (* campaign: live targets; run: 1 until final *)
  st_remaining : int; (* campaign: never scheduled / dropped *)
  st_round : int; (* campaign scheduling round; 0 in run mode *)
  st_solve_p50_ns : int64; (* solve-latency percentiles (upper bounds) *)
  st_solve_p99_ns : int64;
}

val schema : string
(** ["dart-status"], the value of the ["schema"] field. *)

val version : int
(** Current schema version (1). *)

val to_json : t -> string
(** One {!Telemetry.flat_to_json} object (no trailing newline), read
    back by {!of_json}; [budget_ns] is omitted when [st_budget_ns] is
    [None]. *)

val of_json : string -> (t, string) result
(** Decoded through {!Telemetry.decode_flat}, reading the fields in
    schema order: [Error] names the first field that is missing. *)

val write : ?fault:Dart_util.Faultsim.t -> path:string -> t -> unit
(** Atomic snapshot write ({!Dart_util.Fileio.write_atomic}): [path ^
    ".tmp"] then rename. [fault] may inject an [Io_error]
    ({!Sys_error}). *)

(** {1 Publishing} *)

type publisher
(** The status writer of one search or campaign session. *)

val publisher :
  ?fault:Dart_util.Faultsim.t ->
  warn:(string -> unit) ->
  mode:mode ->
  budget_ns:int64 option ->
  max_runs:int ->
  restored_runs:int ->
  string ->
  publisher
(** A publisher for the status file at the given path, its clock
    started now. [restored_runs] are the runs a resumed session
    restored from its checkpoint: they count in [st_runs] but not in
    the session's [st_execs_per_sec]. [warn] receives the one warning
    line ("warning: status write failed: …") the first time a write
    fails; later failures are silent. *)

val publish :
  publisher ->
  runs:int ->
  bugs:int ->
  covered:int ->
  frontier:int ->
  done_:int ->
  active:int ->
  remaining:int ->
  round:int ->
  Telemetry.Hist.t ->
  unit
(** Write one snapshot: the caller's counters plus elapsed time since
    {!publisher}, the session's execs/sec ([runs - restored_runs] over
    elapsed seconds) and the p50/p99 of the solve-latency histogram. A
    failed write ({!Sys_error}, including an injected [Io_error]) is
    reported through [warn] once and never raised. *)

val read : path:string -> (t, string) result
(** Read and parse a status file; [Error] carries a one-line reason
    (I/O failure, truncation, or schema violation). *)

val read_classified : path:string -> (t, [ `Transient of string | `Malformed of string ]) result
(** Like {!read}, but splits failures by whether waiting can fix them.
    [`Transient]: the file is missing, unreadable or empty — the writer
    may simply not have renamed its next snapshot into place yet, so a
    follower should keep polling. [`Malformed]: a complete read that is
    not a valid status object — atomic renames mean this never
    self-heals, so a follower should stop. [dartc watch] follow mode
    waits on the former and exits 2 on the latter. *)

val render : t -> string
(** Deterministic multi-line terminal view of a snapshot — a pure
    function of [t], so [dartc watch --once] can be golden-tested. *)
