(** Word-addressed memory for the RAM machine: the memory M of paper
    §2.2, shared by the compiled engine and the interpreter.

    Cells are 32-bit words. The map distinguishes unmapped addresses
    (never allocated — reads and writes fault), allocated-but-undefined
    cells (reads fault, catching uninitialized and use-after-free
    accesses), and defined cells. *)

type t

type read_error =
  | Unmapped
  | Undefined

exception Unmapped_exn
exception Undefined_exn
exception Null_exn

(* Address-space bases shared with [Machine.layout]; the store decodes
   addresses against them. *)
val globals_base : int
val heap_base : int
val stack_base : int

val region_cap : int
(** Cells in a region's array window, counted from its base. Cells
    past it live in the overflow table. *)

val create : unit -> t
(** An empty store. Cells live in flat growable arrays, one per
    [globals/heap/stack] region, indexed by the offset from the
    region's base; addresses outside every region's array window
    (negative addresses, the null page, offsets past {!region_cap})
    live in a small overflow table. Any address can be mapped; the
    layout only decides what an access costs. *)

val clone : t -> t
(** Deep copy: a handful of array copies, so a pre-seeded initial image
    can be stamped out per load. *)

val footprint : t -> int
(** Cells {!clone} copies: each region's touched prefix, rounded up to
    a power of two, plus the overflow table. *)

val alloc : t -> addr:int -> size:int -> unit
(** Mark [size] cells starting at [addr] as allocated and undefined. *)

val dealloc : t -> addr:int -> size:int -> unit
(** Unmap cells, so later access faults (dangling pointers). *)

val read : t -> int -> (int, read_error) result

val write : t -> int -> int -> (unit, read_error) result
(** [write mem addr v] stores [v]; fails with [Unmapped] if [addr] was
    never allocated. *)

val write_init : t -> int -> int -> unit
(** Allocate-and-write in one step (used for loading globals, strings,
    and machine-internal cells). *)

val read_exn : t -> int -> int
(** As {!read}, but raising [Unmapped_exn]/[Undefined_exn] instead of
    allocating a [result] — the compiled engine's hot path. Addresses in
    the null page [0, globals_base) raise [Null_exn] before any lookup,
    mirroring the interpreter's checked accessors, so callers need no
    null test of their own. *)

val write_exn : t -> int -> int -> unit
(** As {!write}, but raising [Unmapped_exn] (or [Null_exn]) on
    failure. *)

type region
(** Handle on a store's stack region. Region records are stable for the
    store's lifetime (growth swaps their backing array, never the
    record), so a handle obtained once at machine-load time stays
    valid. *)

val stack_region : t -> region

(** Region-specialized variants of the raising accessors, for callers
    that know the address's region at compile time: [stack_...] for
    frame slots ([>= stack_base]), [..._static_...] for globals and
    strings ([globals_base, heap_base)). Behaviour is identical to
    {!read_exn}/{!write_exn} at every address; only the decode work
    differs. *)

val stack_read_exn : t -> region -> int -> int
(** [stack_read_exn t r a] reads [a] through [r], which must be
    [stack_region t]. *)

val stack_write_exn : t -> region -> int -> int -> unit

val read_static_exn : t -> int -> int

val write_static_exn : t -> int -> int -> unit

val to_alist : t -> (int * int option) list
(** All mapped cells, sorted by address; [None] marks
    allocated-but-undefined cells. *)
