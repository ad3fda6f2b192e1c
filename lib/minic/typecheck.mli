(** Type checker and elaborator: {!Ast.program} -> {!Tast.tprogram}.

    Resolves variables to globals or local slots, desugars [e->f],
    [NULL] and [sizeof], inserts array-to-pointer decay, scales pointer
    arithmetic, classifies calls (program / external / library /
    builtin) and enforces MiniC's typing rules (no struct assignment,
    scalar conditions, lvalue checks, etc.). *)

exception Error of Loc.t * string

val check : ?library:Tast.fsig list -> Ast.program -> Tast.tprogram
(** [check ~library prog] elaborates [prog]. Functions whose name
    appears in [library] need no declaration; a body-less prototype of
    one must match its host signature exactly, or [check] raises
    [Error] at the prototype. They are classified {!Tast.Clibrary}
    (black-box, executed concretely). All other body-less prototypes
    and all [extern] variables form the program's external interface
    (paper §3.1).
    @raise Error on any type or scope violation. *)

val extend : Tast.tprogram -> Ast.program -> Tast.tprogram
(** [extend base decls] checks [decls], extra top-level function
    definitions and prototypes, against the already-checked [base] and
    returns the program they form together: [base]'s functions followed
    by the new ones, and the external interface of both. The result
    equals what {!check} gives for [base]'s source followed by [decls].
    A call from [decls] to a function [base] defines is classified
    {!Tast.Cprogram}. [base] itself is not re-checked, and shares its
    struct and enum tables with the result.
    @raise Error if [decls] holds anything but functions, defines a
    name [base] already declares, or fails to check. *)
