(** Whole-file I/O shared by every artifact writer and reader. *)

val write_atomic : ?fault:Faultsim.t -> string -> string -> unit
(** [write_atomic path content] writes [path ^ ".tmp"], flushes it and
    renames it over [path], so readers only ever see a complete file.
    [fault] (default {!Faultsim.off}) is probed once at point
    [Io_error]; when it fires, nothing is written. Callers choose the
    failure policy (warn once, or fatal).
    @raise Sys_error on any failed open, write or rename, or an
    injected [Io_error]. *)

val read_all : string -> string
(** The whole file, as bytes.
    @raise Sys_error when it cannot be opened.
    @raise End_of_file when it shrinks while being read. *)
