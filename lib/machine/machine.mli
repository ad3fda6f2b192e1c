(** Concrete execution of RAM-machine programs.

    The machine owns the memory layout (globals, interned strings, a
    bump-allocated heap, a stack of frames) and detects the standard
    errors DART reports: aborts, NULL and wild dereferences, reads of
    uninitialized or freed cells, division by zero, stack exhaustion
    via the [alloca] failure model, and non-termination via a step
    budget (paper §4.3 note 9).

    A {!listener} observes stores, branches and call boundaries; the
    concolic layer implements the paper's symbolic shadow execution on
    top of it without the machine knowing anything about symbols. *)

type fault =
  | Abort (* abort() or failed assert *)
  | Null_deref
  | Invalid_deref (* unmapped address: wild pointer, use-after-free *)
  | Uninitialized_read
  | Div_by_zero
  | Step_limit (* non-termination proxy *)
  | Call_depth
  | Missing_return (* caller uses the value of a function that fell off its end *)
  | Bad_free (* free of a non-malloc'd address or double free *)

val fault_to_string : fault -> string

val fault_tag : fault -> string
(** Short stable machine-readable name ([abort], [null_deref], ...),
    round-trippable through {!fault_of_tag}; used by the checkpoint
    codec. *)

val fault_of_tag : string -> fault option

type site = { site_fn : string; site_pc : int; site_loc : Minic.Loc.t }

type outcome =
  | Halted
  | Faulted of fault * site

type t

(** Observation points. Callbacks receive the machine, so they can read
    and write memory through the public API. [base] is the frame base
    address in which [src]/[cond]/argument expressions are to be
    evaluated. *)
type listener = {
  on_store : t -> dst:int -> src:Ram.Instr.rexpr -> base:int -> unit;
      (** Immediately {e before} every memory write that carries a
          program value (assignments, parameter passing, returned
          results, builtin and library results — the latter two with a
          [Const] source), so the listener sees pre-store memory, as in
          the paper's Figure 3. *)
  on_branch : t -> cond:Ram.Instr.rexpr -> base:int -> taken:bool -> site:site -> unit;
      (** At every conditional, after its concrete evaluation. *)
  on_external : t -> Minic.Tast.fsig -> dst:int option -> unit;
      (** When an external (interface) function is called: the listener
          must supply the result by writing to [dst] (when [Some]);
          the default listener writes 0. *)
  on_library : t -> callee:string -> args:Ram.Instr.rexpr list -> base:int -> unit;
      (** Before a black-box library function executes. *)
  on_entry : t -> entry:Ram.Instr.func -> base:int -> unit;
      (** After the entry frame is set up, before the first step; the
          test driver initializes parameters here. *)
}

val null_listener : listener

type config = {
  step_limit : int;
  stack_limit : int; (* cells of stack space; exceeded => alloca returns NULL,
                        frame pushes fault with Call_depth, as does a
                        push beyond 512 frames *)
}

val default_config : config

type library_impl = t -> int list -> int
(** A host implementation of a library function. It must be a pure
    function of machine memory and its arguments: {!restore} gives a
    resumed run no record of the library calls its prefix made, so an
    implementation with hidden state would see a different history
    than a full run. *)

val load :
  ?config:config ->
  ?library:(string * library_impl) list ->
  ?compile:bool ->
  Ram.Instr.program ->
  t
(** Build a fresh machine: globals initialized (externs left
    undefined), strings interned. [library] supplies host
    implementations for {!Minic.Tast.Clibrary} calls; a library call
    with no implementation raises [Invalid_argument].

    [compile] (default [true]) selects the compiled execution engine:
    the program is translated once into OCaml closures (constants
    folded, global and string addresses resolved, straight-line runs
    fused) and cached per [Instr.program] value, shared read-only
    across machines and domains. The cache holds 8 programs and evicts
    the least recently used. A program linked from another
    ([Instr.program.linked_from], see {!Ram.Lower.extend}) compiles
    as that program's compiled form (taken from the cache, or compiled
    and cached first) plus its own functions: it shares the base's
    closures, address tables and initial memory image. Observable
    behaviour — outcomes, step counts, branch order, listener
    callbacks — is identical to the tree-walking interpreter selected
    by [~compile:false]. *)

val precompile : Ram.Instr.program -> unit
(** Populate the shared compile cache for [prog] ahead of time, so
    e.g. parallel workers spawned afterwards all reuse one compiled
    form instead of racing to build it; for a campaign's library, so
    that every target's driver builds on one compiled library. Loading
    a machine with [compile:true] does this implicitly. *)

val is_compiled : t -> bool
(** Whether this machine runs the compiled engine. *)

val run : ?args:int list -> ?listener:listener -> t -> entry:string -> outcome
(** Execute [entry]. When [args] is given, parameter cells are
    initialized with those words; otherwise the listener's [on_entry]
    is expected to initialize them (unread parameters may stay
    undefined). A machine is single-shot: load a fresh one per run.
    @raise Invalid_argument if [entry] is not a defined function or the
    argument count mismatches. *)

type snapshot
(** A machine frozen inside {!listener.on_external}: its memory, heap
    blocks, frames and counters. *)

val snapshot : t -> snapshot
(** Copy the machine's state. Only valid from inside [on_external],
    before the result is written: that is the one point where the rest
    of the call instruction is known to be [pc + 1]. *)

val restore : snapshot -> t
(** A fresh machine in the snapshot's state; the snapshot stays
    unchanged and may be restored again. *)

val footprint : t -> int
(** What {!snapshot} and {!restore} copy, counted in cells, heap blocks
    and frames: it grows with the memory the program has touched. *)

val resume : ?listener:listener -> t -> before:(t -> unit) -> outcome
(** Continue a restored machine from the external call it was
    snapshotted in: [before] stands in for the rest of that
    [on_external] callback (it writes the call's result), then the run
    goes on exactly as {!run} would have from there. Steps and
    conditionals count on from the snapshot's. *)

val steps : t -> int
(** Instructions executed so far. *)

val branch_count : t -> int
(** Conditionals executed so far. *)

(* -- memory and layout, for the test driver and random initializer -- *)

module Memory = Memory
(** The store both engines run on; exported so the tests can hold it
    to a reference implementation. *)

val global_addr : t -> string -> int
val read_word : t -> int -> (int, Memory.read_error) result
val write_word : t -> int -> int -> unit
(** Unchecked initializing write (allocates the cell if needed). *)

val alloc_heap : t -> int -> int
(** Allocate [n] fresh undefined heap cells, returning their address. *)

val memory_snapshot : t -> (int * int option) list
(** All mapped cells as a sorted [(address, value)] list, [None] for
    allocated-but-undefined cells; lets differential tests compare the
    final memory of two runs cell by cell. *)

val eval_concrete : t -> base:int -> Ram.Instr.rexpr -> int
(** Evaluate an expression concretely (paper's [evaluate_concrete]).
    May raise the machine's internal fault exception; only call from
    listener callbacks during a run. *)
