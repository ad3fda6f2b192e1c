(** Long-lived engine state, created once and reused across targets.

    A session bundles everything the search engine keeps warm between
    entry points: the base {!Driver.Options.t}, the parallelism
    configuration, a compiled-program cache (driver generation +
    typecheck + lowering happen once per [(source, toplevel, depth)]
    triple), and the cooperative cancel token. {!Engine.run} consumes
    a session plus a {!Target.t}; single-shot [dartc], the bench
    harness and the campaign orchestrator all go through that one
    entry instead of re-plumbing options, deadlines and contexts per
    call site.

    The preparation cache is guarded by a mutex: campaign workers on
    separate domains prepare different targets concurrently. Cached
    programs are shared read-only (the RAM program and its compiled
    closures are immutable after lowering; {!Parallel} already shares
    them across worker domains). *)

type t

val create :
  ?jobs:int ->
  ?should_stop:(unit -> bool) ->
  ?options:Driver.options ->
  unit ->
  t
(** [jobs] defaults to 1 (sequential); [should_stop] to never
    (process-wide {!Cancel} is always polled by the search itself);
    [options] to {!Driver.Options.default}.
    @raise Invalid_argument if [jobs < 0]. *)

val options : t -> Driver.options
val jobs : t -> int
val should_stop : t -> unit -> bool

val prepare : ?metrics:Telemetry.metrics -> t -> Target.t -> Ram.Instr.program
(** The target's program, prepared for its entry function: cached per
    [(source, toplevel, depth)], so a campaign preparing hundreds of
    targets over one library parses and lowers each combination
    exactly once across all rounds and domains. A cache miss's wall
    clock is attributed to [metrics]'s [Lower] phase; a hit costs a
    table lookup and no [Lower] time.
    @raise Minic.Typecheck.Error (etc.) as {!Driver.prepare} does. *)

val prepared : t -> int
(** Preparations performed (cache misses) since [create]. *)

val prepare_hits : t -> int
(** Preparations answered from the cache. *)
