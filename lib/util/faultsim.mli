(** Deterministic fault injection for resilience testing.

    A plan arms a set of injection {e points} scattered through the
    search stack (solver deadlines, parallel workers, the machine's
    step budget, observability writes). Each rule of the plan names a
    point, optionally a probe key, and a {!schedule}: fire once, on a
    chosen occurrence of the probe, or fire on each probe with a fixed
    probability drawn from the rule's own seeded stream. Either way the
    injection sequence is a pure function of the plan, so the failure
    paths of the supervisor are exercised by ordinary unit tests — a
    single run or a whole campaign — instead of flaky timing-dependent
    ones.

    The disabled plan ({!off}, the default everywhere) is a constant:
    probing it is a single pattern match and allocates nothing, keeping
    the production hot path at zero cost. *)

type point =
  | Solver_deadline  (** force a per-query solver deadline overrun (=> [Unknown]) *)
  | Worker_crash  (** raise inside a parallel worker body *)
  | Machine_step_limit  (** force a [Step_limit] fault on a finished run *)
  | Io_error  (** fail an observability write (status/checkpoint/report) *)

type schedule =
  | Nth of int  (** fire once, on the [n]-th (1-based) matching probe *)
  | Rate of int
      (** fire on each matching probe with probability [bp] basis points
          (1..10000, so 500 = 5%) *)

type t

val off : t
(** The disabled plan: {!fire} is always [false], at zero cost. *)

val is_on : t -> bool

val make : ?seed:int -> (point * int option * schedule) list -> t
(** [make ~seed rules] arms one rule per triple [(point, key, schedule)].
    [key] narrows the rule to probes carrying the same [~key] (e.g. a
    worker id); [None] matches any probe of the point. Each [Rate] rule
    draws from its own stream, seeded in rule order from one stream
    over [seed] (default 0), so adding a rule never perturbs the draws
    of the rules before it. Probing is serialized by a mutex, so plans
    are safe to share across domains.

    Raises [Invalid_argument] on an [Nth] below 1 or a [Rate] outside
    1..10000. *)

val of_spec : ?seed:int -> string -> (t, string) result
(** Parse a plan from a comma-separated spec, one rule per entry:

    {v point[@key][:nth|:?]  or  point[@key]=RATE
    e.g.  solver_deadline:3,worker_crash@1:2   worker_crash=0.1,io_error=0.02 v}

    [point] is [solver_deadline], [worker_crash], [machine_step_limit]
    or [io_error]; [@key] narrows to a probe key. [:nth] fires once on
    that occurrence (default 1); [:?] draws the occurrence uniformly in
    1..8. [=RATE] fires on each probe with the decimal probability
    [RATE] in (0, 1], resolved to basis points. The [:?] draws and the
    rate streams' seeds come, in entry order, from one stream over
    [seed], so the same spec and seed always inject at the same places
    and two seeds exercise two schedules. Never raises: a bad spec is
    an [Error]. *)

val arms : t -> point -> bool
(** Whether some rule of the plan targets [point]. *)

val fire : ?key:int -> t -> point -> bool
(** Record one occurrence of [point] (with optional [key]) and report
    whether a rule fires now. Every matching rule sees the occurrence;
    an [Nth] rule that has fired never fires again. *)

exception Injected of string
(** The exception raised by injected crashes, so supervisors (and
    tests) can tell an injected fault from a real one in messages. *)

val inject_crash : point -> 'a
(** Raise {!Injected} attributed to [point]. *)
