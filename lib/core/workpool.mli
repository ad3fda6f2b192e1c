(** The shared job pool of a parallel depth-first search.

    The DFS workers of {!Parallel.run} split one path tree between
    them: a worker whose part of the tree is exhausted waits in
    {!await}, and a busy worker that sees a {!hungry} peer hands over
    one pending branch with {!donate} (see {!Driver.job}). The pool
    terminates when every member is idle and no job is queued: at that
    point every donated subtree has been walked, so the tree has.

    Completeness is pool-wide: a member that loses it (an incomplete
    run, a restart, a stop before termination) latches {!is_lost}, and
    no member may then claim [Complete]. Waiters return {!Lost} instead
    of {!Terminated} and go back to random restarts.

    Idle members spin briefly, then block on a condition. Every event
    that can end a wait — a donation, a departure, a latch — wakes
    them; a stop condition (interrupt, time budget, empty run budget,
    cancellation) reaches them through [poll] while spinning and
    through the departure of the busy member that observed it. *)

type 'a t

type 'a wait =
  | Job of 'a  (** a queued job, now owned by the caller *)
  | Terminated  (** every member idle and nothing queued, no loss *)
  | Lost  (** completeness was lost: restart from random inputs *)
  | Stopped  (** [poll] returned [false]: the caller stops *)

val create : members:int -> 'a t
(** A pool expecting [members] workers, none of them idle yet, so it
    cannot terminate before every member has called {!await}. *)

val hungry : 'a t -> bool
(** More members are waiting than jobs are queued. Lock-free: two
    atomic reads, cheap enough for every run boundary. *)

val donate : 'a t -> 'a -> unit
(** Queue a job and wake one waiter. *)

val await : 'a t -> poll:(unit -> bool) -> 'a wait
(** Wait as an idle member until a job is queued, the pool terminates,
    completeness is lost, or [poll ()] returns [false]. Queued jobs are
    handed out before [Lost]. [poll] is called outside the lock on
    every spin iteration and after every wake-up; a wait that is not
    handed a job or a loss spins in full before it acts on
    termination, so it always polls at least a fixed number of times.
    If [poll] raises, the caller stops counting as idle and the
    exception propagates. *)

val lose : 'a t -> unit
(** Latch the loss of completeness and wake every waiter. *)

val join : 'a t -> unit
(** Add a member (a respawned worker). *)

val leave : 'a t -> unit
(** A member stops before termination: latches the loss, since its
    pending branches go unexplored. *)

val stranded : 'a t -> bool
(** Jobs are still queued. Once every member has returned, this means
    a subtree was never walked: a crashed member's requeued jobs whose
    respawn crashed as well. *)

val abandon : 'a t -> 'a list -> unit
(** A member crashed: requeue [jobs] (every job it took, so nothing it
    explored is missing from the merged report) and drop it from the
    member count without latching a loss. *)
