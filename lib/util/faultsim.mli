(** Deterministic fault injection for resilience testing.

    A plan arms a set of injection {e points} scattered through the
    search stack (solver deadlines, parallel workers, the machine's
    step budget). Each armed point fires {e exactly once}, on a chosen
    occurrence of its probe, so the failure paths of the supervisor can
    be exercised by ordinary unit tests instead of flaky
    timing-dependent ones.

    The disabled plan ({!off}, the default everywhere) is a constant:
    probing it is a single pattern match and allocates nothing, keeping
    the production hot path at zero cost. *)

type point =
  | Solver_deadline  (** force a per-query solver deadline overrun (=> [Unknown]) *)
  | Worker_crash  (** raise inside a parallel worker body *)
  | Machine_step_limit  (** force a [Step_limit] fault on a finished run *)
  | Io_error  (** fail an observability write (status/checkpoint/report) *)

val point_to_string : point -> string
val point_of_string : string -> point option

type t

val off : t
(** The disabled plan: {!fire} is always [false], at zero cost. *)

val is_on : t -> bool

val make : (point * int option * int) list -> t
(** [make rules] arms one rule per triple [(point, key, nth)]: the
    point fires on the [nth] (1-based) occurrence of a probe for that
    [(point, key)] pair, exactly once. [key] narrows the rule to probes
    carrying the same [~key] (e.g. a worker id); [None] matches any
    probe of the point. Probing is serialized by a mutex, so plans are
    safe to share across domains. *)

val chaos : ?seed:int -> (point * int) list -> t
(** [chaos ~seed rates] arms a recurring fault {e schedule}: each
    [(point, bp)] pair fires on any given probe of [point] with
    probability [bp] basis points (1..10000, so 500 = 5%). Each rule
    draws from its own splitmix stream seeded from [seed], so the
    schedule is deterministic and adding a rule never perturbs the
    others. Chaos rules ignore probe keys and never exhaust.

    Raises [Invalid_argument] on a rate outside 1..10000. *)

val of_spec : ?seed:int -> string -> (t, string) result
(** Parse a plan from a comma-separated spec, one rule per entry:

    {v point[@key][:nth]  e.g.  solver_deadline:3,worker_crash@1:2 v}

    [point] is [solver_deadline], [worker_crash], [machine_step_limit]
    or [io_error]; [@key] narrows to a probe key; [:nth] picks
    the firing occurrence (default 1). [:?] draws the occurrence
    deterministically from [seed] (uniform in 1..8), so the same seed
    always injects at the same place and two seeds exercise two
    schedules. *)

val chaos_of_spec : ?seed:int -> string -> (t, string) result
(** Parse a chaos schedule from a comma-separated spec, one rate per
    entry:

    {v point=RATE  e.g.  worker_crash=0.05,solver_deadline=0.05 v}

    [RATE] is a decimal probability in (0, 1], resolved to basis points
    (so the finest grain is 0.0001). See {!chaos} for the firing
    semantics. *)

val arms : t -> point -> bool
(** Whether some rule of the plan targets [point]. *)

val fire : ?key:int -> t -> point -> bool
(** Record one occurrence of [point] (with optional [key]) and report
    whether an armed rule fires now. A rule that has already fired
    never fires again. *)

exception Injected of string
(** The exception raised by injected crashes, so supervisors (and
    tests) can tell an injected fault from a real one in messages. *)

val inject_crash : point -> 'a
(** Raise {!Injected} attributed to [point]. *)
