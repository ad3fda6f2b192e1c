(** solve_path_constraint (paper Figure 5).

    Given the stack and path constraint of a completed run, pick the
    next pending branch according to the search strategy, negate its
    predicate, and solve the resulting constraint prefix. On success
    the input vector is updated in place ([IM + IM']) and the truncated
    stack for the next run is returned; on UNSAT the search backtracks
    to an earlier pending branch.

    Accelerations on the paper's Figure 5 (all exact):
    - {b independence slicing} ([slicing], default on): only the
      pivot's variable-connected component of the constraint prefix is
      sent to the solver; unrelated components stay satisfied by the
      current IM, preserving the IM + IM' update semantics. One
      rollback union-find ({!Slicer}) per call serves every candidate:
      it moves between candidate depths by inserting or undoing
      constraints, so DFS's deepest-first candidates cost O(n) per call
      in total. The kept constraints come out in prefix order, exactly
      as a fresh union-find over [pivot :: prefix] would keep them.
    - {b solve caching} ([cache], a {!Solver.Store.t} plus this
      worker's id): Sat models and Unsat verdicts are memoised per
      canonical constraint set. Verdicts published by any worker
      sharing the store answer every worker's queries.
    - {b incremental solving} ([incr]): real solver calls go through a
      {!Solver.Incr} push/pop context that keeps the shared constraint
      prefix asserted and memoises prepared pipeline states; results
      are identical to one-shot solving by construction. One context
      per worker — contexts never cross domains.

    [deadline_ns] bounds each real solver call (cache hits are free):
    a query still running after that many nanoseconds degrades to
    [Solver.Unknown] — counted in [Solver.deadline_overruns], never
    cached, and treated like any other unknown (the branch stays
    unexpanded but retriable, completeness is voided). [faultsim] can
    inject such an overrun deterministically ({!Dart_util.Faultsim}
    point [Solver_deadline]).

    [breaker] attaches a per-site circuit breaker ({!Solver.Breaker}):
    consecutive deadline-overrun Unknowns at one branch site open it,
    after which queries at that site short-circuit to an immediate
    Unknown (counted in [Solver.breaker_skips], not in
    [Solver.queries], never cached, no histogram sample) until the
    breaker's cooldown half-opens the site again. Structural Unknowns
    never trip it, so a breaker-enabled run without deadline overruns
    is byte-identical to one without the breaker. Transitions emit
    {!Telemetry.Breaker_open} / {!Telemetry.Breaker_close} when
    tracing.

    When [telemetry] is an enabled sink, every pivot-solve attempt
    emits a {!Telemetry.Solve_query} event (result, duration, cache
    hit, sliced-away count) attributed to the flipped branch's site
    from [sites] (same indexing as [stack] — pass
    {!Concolic.run_data.cond_sites}), and every IM + IM' write emits an
    {!Telemetry.Input_update}. *)

type next =
  | Next_run of Concolic.branch_record array
      (** Stack to pass to the next instrumented run (prefix up to and
          including the flipped branch). *)
  | Exhausted of { solver_incomplete : bool }
      (** No pending branch can be forced. [solver_incomplete] reports
          whether any solver query came back unknown — in this call, or
          earlier in the search as counted by [stats] — which voids the
          completeness claim (Theorem 1(b)). *)

val domain_constraints :
  Inputs.t -> Symbolic.Linexpr.var list -> Symbolic.Constr.t list
(** Input-kind boxing sent alongside every query: chars are constrained
    to 0..255 and pointer coins to 0..1; ints carry no extra atoms (the
    solver boxes them to 32 bits itself). *)

(** Independence slicing over one path constraint. Variables are input
    ids, which are non-negative. *)
module Slicer : sig
  type t

  val create : Symbolic.Constr.t option array -> t
  (** A slicer over the path constraint, which must not change
      afterwards. *)

  val prefix : t -> int -> Symbolic.Constr.t list * int
  (** [prefix s j] is [(kept, dropped)] for the pivot [negate pc.(j)]:
      the constraints at depths [0..j-1] in the pivot's
      variable-connected component, plus the variable-free ones, in
      depth order; and how many constrained depths below [j] were
      eliminated as unrelated. A variable-free pivot keeps the whole
      prefix and drops none. Calls may come at any depths in any order.
      @raise Invalid_argument if [pc.(j)] is [None]. *)
end

val solve :
  ?cache:Solver.Store.t * int ->
  ?incr:Solver.Incr.t ->
  ?breaker:Solver.Breaker.t ->
  ?slicing:bool ->
  ?deadline_ns:int64 ->
  ?faultsim:Dart_util.Faultsim.t ->
  ?telemetry:Telemetry.sink ->
  ?hist:Telemetry.Hist.t ->
  ?sites:(string * int) array ->
  strategy:Strategy.t ->
  rng:Dart_util.Prng.t ->
  stats:Solver.stats ->
  im:Inputs.t ->
  stack:Concolic.branch_record array ->
  path_constraint:Symbolic.Constr.t option array ->
  unit ->
  next
