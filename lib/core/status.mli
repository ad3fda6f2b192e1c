(** Live status snapshots ([--status FILE] / [dartc watch]).

    A running search (or campaign) periodically rewrites a small flat
    JSON object — schema v1, integer fields only — using the same
    write-then-rename discipline as {!Checkpoint.save}, so a concurrent
    reader always sees a complete snapshot. [dartc watch FILE] renders
    it as a terminal status view. *)

type mode =
  | Run (* single-target dartc run *)
  | Campaign (* whole-library campaign *)

val mode_to_string : mode -> string
val mode_of_string : string -> mode option

type t = {
  st_mode : mode;
  st_elapsed_ns : int64; (* wall clock since the search started *)
  st_budget_ns : int64 option; (* --time-budget, when set *)
  st_runs : int; (* cumulative concolic/random runs *)
  st_max_runs : int; (* total run budget *)
  st_execs_per_sec : int; (* cumulative, elapsed-averaged *)
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
(** One flat JSON object (no trailing newline); [budget_ns] is omitted
    when [st_budget_ns] is [None]. *)

val of_json : string -> (t, string) result

val write : ?fault:Dart_util.Faultsim.t -> path:string -> t -> unit
(** Atomic snapshot write ({!Dart_util.Fileio.write_atomic}): [path ^
    ".tmp"] then rename. [fault] may inject an [Io_error]
    ({!Sys_error}). *)

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
