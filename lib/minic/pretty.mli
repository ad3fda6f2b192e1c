(** Pretty-printer for the untyped AST.

    The output re-parses to an equal AST (modulo locations), a property
    exercised by the round-trip tests. *)

val unop_to_string : Ast.unop -> string
val binop_to_string : Ast.binop -> string
val program_to_string : Ast.program -> string
