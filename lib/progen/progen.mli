(** Random well-typed MiniC program generator.

    Produces closed programs (integer and in-bounds array operations
    only) whose executions are deterministic given their inputs, for
    property and robustness testing: pretty/parse round-trips and
    concolic replay of bug witnesses. Programs
    may abort, divide by zero or loop past the step budget — those are
    legitimate, comparable outcomes, not generator bugs. *)

type cfg = {
  max_functions : int; (* callees generated before the toplevel *)
  max_params : int;
  max_statements : int; (* per block *)
  max_expr_depth : int;
  max_block_depth : int;
  abort_probability_pct : int; (* chance per statement slot of an abort guard *)
}

val toplevel_name : string
(** Name of the generated entry function ("top"). *)

val generate : ?cfg:cfg -> Dart_util.Prng.t -> Minic.Ast.program
(** Generate a program; always typechecks (property-tested). *)

val generate_source : ?cfg:cfg -> Dart_util.Prng.t -> string
(** The same, pretty-printed. *)
