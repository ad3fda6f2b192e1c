(** Checkpoint files: the one on-disk framing shared by single-run and
    campaign checkpoints, and the single-run codec of {!Driver.snapshot}.

    {2 Framing}

    Both kinds are line-based texts with the same layout:
    {v
    <magic> v<N>
    meta k=v k=v ...
    records <n>
    <record block>        n times, each followed by
    crc <8 hex digits>    the CRC-32 of the block's exact bytes
    end
    v}
    A single run writes its snapshot as one block ([dart-checkpoint v4]);
    a campaign writes one block per finished target ([dart-campaign
    v3]). Writes are atomic (temp file + rename in the target
    directory), so a SIGKILL mid-save leaves the previous checkpoint
    intact. A strict parse rejects a wrong magic, an older version, a
    truncated or bit-flipped block and any non-empty line after [end];
    handed the other kind's file it names the command that resumes it.
    Salvage mode (campaigns only, [--resume-salvage]) keeps the longest
    prefix of CRC-valid blocks instead and ignores what follows [end].

    The meta line holds everything a resumed search's determinism
    depends on. {!check_meta} refuses to resume under a meta line that
    differs and names the first key that does: resuming with a
    different seed or strategy would silently diverge from the
    interrupted search instead of continuing it.

    {2 Single-run checkpoints}

    The meta is seed, depth, strategy, the incremental-solving config
    and whether pointer inputs are symbolic ([symbolic_pointers]: each
    pointer coin is then a stack entry, so it shapes the search). The run budget is absent: it bounds the trajectory rather
    than shaping it, so resuming with a larger [--max-runs] extends an
    exhausted search.

    The solve cache ({!Solver.Store}) is deliberately not checkpointed
    (it is a pure accelerator and can be arbitrarily large); a resumed
    search always starts cold. Because the solver prefers current IM
    values when picking among equally valid models, a warm cache can
    return a model a fresh solve would not, so a resumed search with
    caching enabled may take a different — equally valid — trajectory
    after a restart while still converging to the same coverage. With
    [--no-cache] (or on restart-free searches) resume is exact: every
    counter of the resumed run equals the uninterrupted one.
    Incremental solving ({!Solver.Incr}) is result-exact, so it never
    perturbs resume; its configuration is still recorded and checked
    because flipping it between save and resume would change the
    hit/miss counters a report prints. *)

exception Bad of string
(** A syntax or schema violation; the codecs turn it into [Error]. *)

type kind = Search | Campaign

type reader
(** The non-empty lines of one record block, consumed front to back. *)

val frame : kind -> meta:string -> string list -> string
(** [frame kind ~meta blocks]: the framed text. [meta] is the whole
    meta line ([meta k=v ...]); each block is newline-terminated
    lines, none of them empty or starting with [crc]. *)

type 'a framed = {
  meta : string; (* the raw meta line *)
  declared : int; (* the [records] count *)
  records : 'a list; (* in file order; a prefix of them after a salvage *)
  defect : string option; (* salvage mode: what cut [records] short *)
}

val parse : salvage:bool -> kind -> (reader -> 'a) -> string -> ('a framed, string) result
(** Parse a framed text, decoding each CRC-verified block with the
    given function (which must consume the block's every line).
    [Error] on any header defect; on any later defect too unless
    [salvage], which returns the blocks before it with [defect] set. *)

val check_meta : expected:string -> found:string -> (unit, string) result
(** [Error] names the first key whose value differs between the two
    meta lines, with both values. *)

val load_framed :
  ?salvage:(string -> unit) ->
  kind ->
  meta:string ->
  (reader -> 'a) ->
  path:string ->
  ('a list, string) result
(** Read [path], {!parse} it and {!check_meta} it against [meta].
    With [salvage], corruption no longer errors: the records before
    the damage are returned and [salvage] receives one warning line
    saying what was lost (an unreadable header restores nothing). A
    meta mismatch still returns [Error] in salvage mode — a healthy
    checkpoint of a different configuration is not corruption. *)

(** {2 Single-run codec} *)

val meta_line : Driver.options -> string
(** [meta seed=… depth=… strategy=… incremental=… symbolic_pointers=…]:
    what a resumed search's trajectory depends on. *)

val save : path:string -> options:Driver.options -> Driver.snapshot -> unit
(** Atomic ({!Dart_util.Fileio.write_atomic}): writes [path ^ ".tmp"],
    then renames over [path].
    @raise Sys_error when the directory is not writable. *)

val load : path:string -> options:Driver.options -> (Driver.snapshot, string) result
(** [Error] describes the first syntax, checksum or schema violation
    (including a version this build does not understand), or the
    first meta key that differs from [meta_line options]. *)

val to_string : meta:string -> Driver.snapshot -> string
val of_string : string -> (string * Driver.snapshot, string) result
(** The codec itself, exposed for tests: [of_string] returns the raw
    meta line and the snapshot; [load] adds the meta check. *)

(** {2 Record tokens}

    The tokens records are made of, shared with the {!Campaign} codec
    so the two stay greppable one-record-per-line texts with identical
    quoting. *)

val escape : string -> string
(** %-escape spaces, [%] and line breaks, so a string is one token. *)

val unescape : string -> string -> string
(** [unescape what token] undoes {!escape}; [what] names the record in
    the {!Bad} message. *)

val bool_tag : bool -> string
(** ["1"] / ["0"]. *)

val next : reader -> string -> string
(** [next r what] consumes the next line; [what] names it in the {!Bad}
    raised at the end of the block. *)

val tokens : string -> string list
val int_tok : string -> string -> int
(** [int_tok what token]: parse one integer token or raise {!Bad}
    naming the record [what]. *)

val expect_counted : reader -> string -> int
(** Consume a ["<what> <count>"] header line and return the count. *)

val cover_record : string -> string * int * bool -> string
val cover_of_tokens : string -> string list -> string * int * bool
(** A coverage site [(fn, pc, dir)] as a record tagged [tag]. *)

val bug_record : Driver.bug -> string
val bug_of_tokens : string list -> Driver.bug
(** A bug (site, location, run and witness inputs) as a ["bug"]
    record. *)
