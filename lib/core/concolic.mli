(** One instrumented run (paper Figures 1, 3 and 4).

    Executes the program concretely on the machine while maintaining
    the symbolic memory S, collecting the path constraint at every
    conditional, checking the branch predictions recorded in the stack
    from the previous run, and randomly initializing whatever the
    external interface supplies (toplevel arguments via the generated
    driver's argument functions, external variables, external function
    results) following Figure 8. *)

type branch_record = {
  br_branch : bool; (* 1 = then branch taken (paper's branch bit) *)
  br_done : bool; (* both directions explored at this history? *)
}

type run_outcome =
  | Run_fault of Machine.fault * Machine.site (* a bug: paper's "exception" *)
  | Run_prediction_failure (* forcing_ok went to 0; restart *)
  | Run_halted (* normal termination *)

val outcome_to_string : run_outcome -> string
(** The short tag of a [Run_end] trace event: ["fault"],
    ["prediction_failure"] or ["halted"]. *)

type run_data = {
  outcome : run_outcome;
  stack : branch_record array;
      (* every conditional executed, in order, with the direction the
         run took: after a prediction failure the last entry holds the
         direction taken, not the one [prev_stack] predicted *)
  path_constraint : Symbolic.Constr.t option array;
      (* same indexing as [stack]; [None] for conditions outside the
         linear theory or without symbolic variables *)
  cond_sites : (string * int) array;
      (* (function, pc) of each conditional, same indexing as [stack];
         symbolic-pointer coins get the synthetic site ("__coin", id).
         Lets telemetry attribute solver queries to branch sites. *)
  conditionals : int; (* the paper's k *)
  steps : int;
  inputs_read : int;
      (* inputs consumed by this run: ids 0 .. inputs_read - 1 (input
         numbering is creation order, so the read set is a prefix).
         Entries of IM at or beyond this id were left behind by earlier
         runs and never influenced this one. *)
  all_linear : bool;
      (* flags *cleared during this run* are false; a run with the
         shadow off ([symbolic = false]) tracked no constraints and
         reports [all_linear = false] *)
  all_locs_definite : bool;
  branch_sites : (string * int * bool) list; (* coverage: fn, pc, direction *)
}

type exec_options = {
  machine_config : Machine.config;
  library : (string * Machine.library_impl) list;
  symbolic_pointers : bool;
      (* extension: make the NULL/non-NULL coin of Figure 8 a
         directable branch instead of pure randomness *)
  symbolic : bool;
      (* false = the symbolic shadow is off: no path constraint, so a
         {!Driver} search restarts from fresh random inputs after every
         run — the paper's random-testing baseline ([dartc
         --random-testing]) *)
  compile : bool;
      (* true (default) = run the machine's compiled closure engine;
         false = tree-walking interpreter (an ablation for tests and
         benchmarks; reports are byte-identical either way) *)
}

val default_exec_options : exec_options

type store
(** Snapshots of the latest run of one search, for the next run to
    resume from (DESIGN.md, "Run resume"). Single-domain: one per
    search call. A run on another program or options record (compared
    physically) than the one that filled the store resumes nothing. *)

val create_store : unit -> store

val resumed : store -> int
(** Runs so far that resumed from a snapshot instead of from [entry]. *)

val copied : store -> int
(** What every snapshot taken so far copied, counted as in
    {!Machine.footprint} plus symbolic bindings and coverage entries.
    It stays within 16 per step the runs executed. *)

val run_once :
  ?store:store ->
  opts:exec_options ->
  rng:Dart_util.Prng.t ->
  im:Inputs.t ->
  prev_stack:branch_record array ->
  entry:string ->
  Ram.Instr.program ->
  run_data
(** One instrumented run from [entry] on [im], checking [prev_stack]'s
    predictions. With [store] (and the shadow on), the run resumes from
    the deepest snapshot the previous run took that a full run would
    reach in the same state, and leaves its own snapshots for the next
    run; the returned [run_data] is the same as without [store]. *)
