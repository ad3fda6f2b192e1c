(** The pure random-testing baseline every experiment in the paper
    compares against: the same generated test driver and random
    initialization (Figure 8), but fresh random inputs on every run and
    no symbolic execution, no constraint solving, no direction. *)

type report = {
  verdict : [ `Bug_found of Driver.bug | `No_bug | `Time_exhausted | `Interrupted ];
  runs : int;
  total_steps : int;
  branches_covered : int;
  resource_limited : int;
      (* runs that died on Step_limit/Call_depth: counted, not bugs *)
  coverage_sites : (string * int * bool) list;
}

val run :
  ?seed:int ->
  ?max_runs:int ->
  ?deadline:int64 ->
  ?exec:Concolic.exec_options ->
  ?telemetry:Telemetry.sink ->
  ?metrics:Telemetry.metrics ->
  Ram.Instr.program ->
  report
(** Entry point is {!Driver_gen.wrapper_name}, i.e. the program must
    have been prepared with {!Driver.prepare}. When [telemetry] is an
    enabled sink, each run emits [Run_start]/[Run_end] plus a
    [Cover_point] coverage-over-time sample (and [Bug_found] on a
    fault); [metrics] accumulates Execute-phase wall clock. As
    {!Driver.search} does, the run ends by emitting the phase totals
    of [metrics] (pass the record {!Driver.prepare} timed to include
    [Lower]) and flushing the sink.

    The same run-boundary stop discipline as {!Driver.search}:
    {!Cancel.request} yields [`Interrupted], an expired [deadline]
    (absolute, {!Telemetry.now} scale) yields [`Time_exhausted], and
    runs that die on [Step_limit]/[Call_depth] are counted in
    [resource_limited] rather than reported as bugs. *)

val test_source :
  ?seed:int ->
  ?max_runs:int ->
  ?deadline:int64 ->
  ?depth:int ->
  ?library_sigs:Minic.Tast.fsig list ->
  ?telemetry:Telemetry.sink ->
  ?metrics:Telemetry.metrics ->
  toplevel:string ->
  string ->
  report

val report_to_string : report -> string
