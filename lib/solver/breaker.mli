(** Per-site circuit breaker for solver queries.

    A site is a branch location [(fn, pc)]. After [threshold]
    {e consecutive} deadline-overrun Unknowns at one site the breaker
    opens and {!skip} short-circuits further queries there to an
    immediate Unknown. After [cooldown] calls to {!tick} (one per
    campaign slice, or per restart in a single run) the site half-opens:
    one probe query is let through, and {!record} on its outcome either
    closes the breaker or re-opens it for another cooldown.

    Structural (non-overrun) Unknowns never trip the breaker, which
    keeps default output byte-identical to the ablation without a
    breaker ([Driver.Options.accel.use_breaker = false]) on workloads
    the solver is merely incomplete for.

    Not thread-safe: one breaker per search context. *)

type t

val create : ?threshold:int -> ?cooldown:int -> unit -> t
(** [threshold] (default 3) consecutive overrun-Unknowns open a site;
    the breaker half-opens after [cooldown] (default 2) ticks. Raises
    [Invalid_argument] when either is < 1. *)

val skip : t -> string * int -> bool
(** [skip t site] is [true] when the site is open; the query must then
    be short-circuited to Unknown. Counts the skip (see {!skips}). *)

val record : t -> string * int -> failed:bool -> [ `Opened | `Closed | `None ]
(** Record the outcome of a real (non-skipped) query at [site].
    [failed] means the query returned Unknown because the deadline
    overran. Returns the transition taken, for telemetry. *)

val tick : t -> unit
(** Advance cooldowns by one unit (slice or restart). Open sites whose
    cooldown expires become half-open. *)

val opens : t -> int
(** Cumulative transitions into the open state. *)

val skips : t -> int
(** Cumulative queries short-circuited. *)

val open_sites : t -> (string * int) list
(** Sites currently open or half-open, in no particular order. *)
