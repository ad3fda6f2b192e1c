(** Front door of the linear integer constraint solver (the role
    lp_solve plays in the paper, §3.3).

    Decides satisfiability of a conjunction of {!Symbolic.Constr.t}
    atoms over 32-bit-bounded integer variables and produces a model.
    Pipeline: unit-pivot Gaussian elimination of equalities, interval
    absorption of univariate inequalities (fast path), then rational
    simplex with branch-and-bound for anything multivariate, with
    case-splitting for disequalities. Every model returned is verified
    against the input constraints before being handed back. *)

module Cache : sig
  (** Canonical keys of the solve cache ({!Store}): a constraint set's
      canonical form, the verdicts stored under it, and the mappings of
      those verdicts between a query's variables and the key's. *)

  type verdict =
    | Sat of (Symbolic.Linexpr.var * Zarith_lite.Zint.t) list
    | Unsat

  module Key : sig
    type t = Symbolic.Constr.t list

    val equal : t -> t -> bool
    val hash : t -> int
  end

  type keyed = {
    key : Key.t;
    back : Symbolic.Linexpr.var array; (* canonical index -> original variable *)
    fwd : (Symbolic.Linexpr.var, int) Hashtbl.t; (* original variable -> index *)
  }
  (** A canonical key together with the variable renaming that produced
      it, needed to map stored models back to the query's variables. *)

  val canonical : Symbolic.Constr.t list -> keyed
  (** Canonical key of a conjunction: insensitive to atom order,
      duplicates, scaling, sign and strict/non-strict spelling
      (normalized like [Problem.tighten]) and to variable naming
      (renamed to first-occurrence indices), so re-issues of one filter
      shape across runs and input generations share an entry. Every
      rewrite preserves the solution set, so cached models remain valid
      for any spelling. *)

  val to_canonical : keyed -> verdict -> verdict
  (** A verdict over the query's variables, renamed into the key's. *)

  val of_canonical : keyed -> verdict -> verdict
  (** A stored verdict, with Sat models mapped back to the query's own
      variables. Model variables that only occurred in vacuously-true
      atoms are omitted (they are unconstrained). *)
end

module Store : sig
  (** Lock-free solve store, the one solve-cache table: a solo search
      owns a small instance, and all worker domains of a parallel
      search share one. Sat/Unsat verdicts are published under
      {!Cache.canonical} keys, so any worker's solve answers every
      worker's later lookup of the same key. Cells are immutable, the
      first publisher of a key wins, and cells are never removed. With
      a single worker the store is a plain memo, so a solo search's
      hits depend only on its own queries. There is no in-flight
      claim: two workers that miss a key before either publishes both
      solve it, so at jobs > 1 the merged query and hit counts vary
      with scheduling, while the verdicts agree. *)

  type t

  val create : workers:int -> t
  (** An empty store for [workers] searches: 256 buckets for one, 4,096
      when shared. *)

  type lookup =
    | Hit of Cache.verdict * int
        (** Solved already: verdict mapped to the query's variables,
            plus the publishing worker's id. *)
    | Miss  (** Not solved yet: solve, then {!publish}. *)

  val lookup : t -> Cache.keyed -> lookup

  val publish : t -> worker:int -> Cache.keyed -> Cache.verdict -> unit
  (** Publish a Sat/Unsat verdict (never call with Unknown, so the key
      stays a miss and is retried). *)

  val length : t -> int
  (** Published verdicts. *)
end

module Breaker = Breaker
(** Re-export of the per-site circuit breaker (see [breaker.mli]),
    reachable as [Solver.Breaker]. *)

type result =
  | Sat of (Symbolic.Linexpr.var * Zarith_lite.Zint.t) list
      (** Model covering every variable occurring in the input. *)
  | Unsat
  | Unknown (* resource limits hit; callers must treat conservatively *)

type stats
(** Mutable solver counters. Abstract so new counters can be added
    without breaking every consumer: read through the named accessors
    or {!to_assoc}, fabricate/serialise through {!of_assoc}, merge with
    {!add_stats}. *)

val create_stats : unit -> stats

(** {2 Accessors} *)

val queries : stats -> int
val sat_count : stats -> int
val unsat_count : stats -> int
val unknown_count : stats -> int
val fast_path : stats -> int (* queries discharged without simplex *)
val simplex_queries : stats -> int
val ne_splits : stats -> int
val cache_hits : stats -> int (* queries answered from the solve cache *)
val cache_misses : stats -> int (* cache-enabled queries that hit the solver *)
val constraints_sliced_away : stats -> int
(** Prefix constraints dropped by independence slicing before the query
    reached the solver. *)

val deadline_overruns : stats -> int
(** Queries aborted to [Unknown] because their per-query deadline
    expired (see [solve]'s [deadline]). *)

val incremental_hits : stats -> int
(** Prepared-state reuses inside an incremental context: queries whose
    tightened problem was already eliminated/absorbed and skipped
    straight to the per-query stages. *)

val pops_saved : stats -> int
(** Assertion-stack levels retained across consecutive incremental
    queries (prefix atoms not re-normalized). *)

val shared_hits : stats -> int
(** Cache hits answered by an entry another worker published in the
    shared {!Store} (a subset of {!cache_hits}). *)

val breaker_opens : stats -> int
(** Circuit-breaker transitions into the open state (see {!Breaker}). *)

val breaker_skips : stats -> int
(** Queries short-circuited to Unknown by an open circuit breaker;
    these never reach the solver and are not counted in {!queries}. *)

val to_assoc : stats -> (string * int) list
(** Every report-visible counter as [(name, value)], stable declaration
    order; the single source of truth for report printing and merge
    code, so a new counter shows up everywhere at once. The
    acceleration meters ({!incremental_hits}, {!pops_saved},
    {!shared_hits}) and the breaker meters ({!breaker_opens},
    {!breaker_skips}) are deliberately excluded: they measure work
    avoided, which resumed or replayed searches legitimately repeat
    differently, so they must not feed resume-identity comparisons. *)

val of_assoc : (string * int) list -> stats
(** Inverse of {!to_assoc}; missing keys default to 0, unknown keys are
    rejected with [Invalid_argument]. *)

val add_stats : into:stats -> stats -> unit
(** Counter-wise accumulation (used by [Parallel.sum_stats]). *)

(** {2 Recorders for the acceleration layer (see [Solve_pc])} *)

val record_cache_hit : stats -> unit
val record_cache_miss : stats -> unit
val record_sliced : stats -> int -> unit
val record_shared_hit : stats -> unit
val record_breaker_open : stats -> unit
val record_breaker_skip : stats -> unit

val solve :
  ?stats:stats ->
  ?prefer:(Symbolic.Linexpr.var -> Zarith_lite.Zint.t option) ->
  ?use_simplex:bool ->
  ?deadline:(unit -> bool) ->
  Symbolic.Constr.t list ->
  result
(** [solve cs] finds an integer model of the conjunction [cs].
    [prefer] suggests values for under-constrained variables (the
    directed search passes the previous run's inputs, matching the
    paper's [IM + IM'] update). [use_simplex:false] disables the
    simplex/branch-and-bound stage (ablation A2): multivariate systems
    then come back [Unknown]. [deadline] is polled at every sub-query
    and branch-and-bound node; once it returns [true] the query
    degrades to [Unknown] (counted in {!deadline_overruns}) instead of
    running unbounded simplex work — callers already treat [Unknown]
    conservatively, so an overrun can never unsoundly prune a path. *)

module Incr : sig
  (** Incremental push/pop solving. A context keeps an assertion stack
      over the query's shared prefix plus a memo of prepared solver
      states (Gaussian elimination, interval absorption, learned
      disequality tables, completed branch-and-bound verdicts) keyed on
      the exact normalized constraint lists. {!solve} pops only the
      stack suffix that differs from the previous query and pushes the
      new atoms; results are identical to the one-shot {!val:solve} by
      construction, because both routes run the same core on the same
      lists — the context only skips recomputing stages whose inputs
      are unchanged. Nothing derived from an aborted (deadline-overrun)
      computation is ever retained, so a timeout cannot leak stale
      state into the next query. One context per worker: contexts are
      not thread-safe and never cross domains. *)

  type t

  val create : unit -> t

  val solve :
    t ->
    ?stats:stats ->
    ?prefer:(Symbolic.Linexpr.var -> Zarith_lite.Zint.t option) ->
    ?use_simplex:bool ->
    ?deadline:(unit -> bool) ->
    pivot:Symbolic.Constr.t ->
    prefix:Symbolic.Constr.t list ->
    domains:Symbolic.Constr.t list ->
    unit ->
    result
  (** Solve [pivot :: prefix @ domains] — the negated branch pivot, the
      kept path-constraint prefix, and the input-domain bounds — with
      the prefix asserted through the stack. Equivalent to
      [solve (pivot :: prefix @ domains)]. *)

  val depth : t -> int
  (** Current assertion-stack depth. *)

  val reset : t -> unit
  (** Drop the assertion stack (the prepared memo survives: its entries
      are keyed structurally and remain valid). *)
end

val check_model : Symbolic.Constr.t list -> (Symbolic.Linexpr.var * Zarith_lite.Zint.t) list -> bool
(** [check_model cs model] verifies that [model] satisfies [cs]. *)
