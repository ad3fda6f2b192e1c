(** The symbolic memory S of paper §2.2: a map from concrete cell
    addresses to the linear expression currently stored there.

    Addresses bound to a non-constant expression are "symbolic"; all
    other cells are implicitly the constant in concrete memory. Storing
    a constant therefore just removes the binding. *)

type t

val create : unit -> t

val copy : t -> t
(** An independent copy: binding in one leaves the other unchanged. *)

val bind : t -> addr:int -> Linexpr.t -> unit
(** Bind an address; a constant expression erases instead. *)

val erase : t -> addr:int -> unit

val lookup : t -> addr:int -> Linexpr.t option
(** [None] means the cell is concrete-only. *)

val symbolic_count : t -> int
