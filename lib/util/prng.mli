(** Deterministic pseudo-random number generator (splitmix64).

    Every random decision in the system (random test inputs, pointer
    coin tosses, randomized search strategies) flows through a value of
    type {!t}, so whole experiments are reproducible from a single
    integer seed. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Equal seeds yield equal
    streams. *)

val copy : t -> t

val state : t -> int64
(** The full internal state, for checkpointing. *)

val set_state : t -> int64 -> unit
(** Overwrite the state in place (checkpoint resume into an existing
    generator). *)

val split : t -> t
(** [split t] advances [t] and returns an independent generator, for
    handing a private stream to a sub-component. *)

val next_int64 : t -> int64
(** Uniform over all 64-bit values. *)

val bits32 : t -> int
(** Uniform signed 32-bit value, in [-2{^31}, 2{^31}). *)

val int_range : t -> int -> int -> int
(** [int_range t lo hi] is uniform in the inclusive range [lo..hi].
    @raise Invalid_argument if [lo > hi]. *)

val int_below : t -> int -> int
(** [int_below t n] is uniform in [0..n-1]. @raise Invalid_argument if
    [n <= 0]. *)

val bool : t -> bool
(** Fair coin toss. *)

val choose : t -> 'a list -> 'a
(** Uniform element of a non-empty list.
    @raise Invalid_argument on the empty list. *)
