(** Versioned on-disk serialization of {!Driver.snapshot}.

    A checkpoint file is a self-describing text format (one record per
    line, [dart-checkpoint v3] magic) carrying the search meta
    (seed/depth/strategy/run budget/acceleration config — everything
    the snapshot's determinism depends on) plus the snapshot itself. Writes are atomic
    (temp file + rename in the target directory), so a SIGKILL mid-save
    leaves the previous checkpoint intact; loads validate the magic,
    the version and every field, and {!check_meta} refuses to resume a
    snapshot under options it was not taken under — resuming with a
    different seed or strategy would silently diverge from the
    interrupted search instead of continuing it. The run budget is
    recorded but not compared: it bounds the trajectory rather than
    shaping it, so resuming with a larger [--max-runs] extends an
    exhausted search.

    The solve cache ({!Solver.Store}) is deliberately not checkpointed (it is a pure accelerator and can be
    arbitrarily large); a resumed search always starts cold. Because
    the solver prefers current IM values when picking among equally
    valid models, a warm cache can return a model a fresh solve would
    not, so a resumed search with caching enabled may take a different
    — equally valid — trajectory after a restart while still converging
    to the same coverage. With [--no-cache] (or on restart-free
    searches) resume is exact: every counter of the resumed run equals
    the uninterrupted one. Incremental solving ({!Solver.Incr}) is
    result-exact, so it never perturbs resume; its configuration is
    still recorded and checked because flipping it between save and
    resume would change the hit/miss counters a report prints. *)

type meta = {
  m_seed : int;
  m_depth : int;
  m_max_runs : int;
  m_strategy : Strategy.t;
  m_incremental : bool; (* accel.use_incremental at save time *)
}

val meta_of_options : Driver.options -> meta

val check_meta : expected:meta -> found:meta -> (unit, string) result
(** [Error] names the first mismatching field (seed, depth, strategy
    or incremental config; [m_max_runs] is informational only). *)

val save : path:string -> meta:meta -> Driver.snapshot -> unit
(** Atomic ({!Dart_util.Fileio.write_atomic}): writes [path ^ ".tmp"],
    then renames over [path].
    @raise Sys_error when the directory is not writable. *)

val load : path:string -> (meta * Driver.snapshot, string) result
(** [Error] describes the first syntax or schema violation (including a
    version this build does not understand). *)

val to_string : meta -> Driver.snapshot -> string
val of_string : string -> (meta * Driver.snapshot, string) result
(** The codec itself, exposed for tests (and [load]/[save] are
    [of_string]/[to_string] plus file I/O). [of_string] recognizes the
    {!Campaign} checkpoint magic and fails with a message naming
    [dartc campaign --resume], so feeding the wrong kind of checkpoint
    to [--resume] is a usage error, not a parse mystery. *)

(** {2 Line-record codec}

    The tokens and records both checkpoint formats are made of, shared
    with the {!Campaign} codec so the two stay greppable
    one-record-per-line texts with identical quoting. *)

exception Bad of string
(** A syntax or schema violation; the codecs turn it into [Error]. *)

val escape : string -> string
(** %-escape spaces, [%] and line breaks, so a string is one token. *)

val unescape : string -> string -> string
(** [unescape what token] undoes {!escape}; [what] names the record in
    the {!Bad} message. *)

val bool_tag : bool -> string
(** ["1"] / ["0"]. *)

type reader
(** The non-empty lines of a text, consumed front to back. *)

val reader : string -> reader

val next : reader -> string -> string
(** [next r what] consumes the next line; [what] names it in the {!Bad}
    raised at end of input. *)

val mark : reader -> unit
val since_mark : reader -> string
(** The exact bytes of the lines consumed since the last {!mark} (each
    with its newline), for checksumming a block of records. *)

val tokens : string -> string list
val int_tok : string -> string -> int
val bool_tok : string -> string -> bool
(** [int_tok what token] / [bool_tok what token]: parse one token or
    raise {!Bad} naming the record [what]. *)

val expect_counted : reader -> string -> int
(** Consume a ["<what> <count>"] header line and return the count. *)

val cover_record : string -> string * int * bool -> string
val cover_of_tokens : string -> string list -> string * int * bool
(** A coverage site [(fn, pc, dir)] as a record tagged [tag]. *)

val bug_record : Driver.bug -> string
val bug_of_tokens : string list -> Driver.bug
(** A bug (site, location, run and witness inputs) as a ["bug"]
    record. *)
