(** Lowering from the typed AST to the RAM-machine IR.

    Flattens nested calls, [&&], [||] and [?:] into statements with
    fresh frame temporaries; lowers [assert(e)] to
    [if e goto ok; abort] and [assume(e)] to [if e goto ok; halt], so
    both conditions become regular directable branches; resolves
    struct field and array offsets into address arithmetic. *)

exception Error of Minic.Loc.t * string

val lower_program : Minic.Tast.tprogram -> Instr.program

val extend : Instr.program -> Minic.Tast.tprogram -> Instr.program
(** [extend base tp] links [tp], a program {!Minic.Typecheck.extend}
    built from [base]'s checked form, against the lowered [base]. Only
    the functions [base] lacks are lowered, against [base]'s string
    table; the rest are [base]'s own [Instr.func] values, and the
    globals and strings are [base]'s. The result records [base] as
    [linked_from]; apart from that field it equals {!lower_program}
    [tp], down to the order its function table iterates in.
    @raise Error if a new function has a string literal that [base]
    lacks: [base]'s memory image holds no cell for it.
    @raise Invalid_argument if [tp] does not share [base]'s globals. *)

val lower_source : ?file:string -> ?library:Minic.Tast.fsig list -> string -> Instr.program
(** Parse, typecheck and lower in one step. Raises {!Minic.Parser.Error},
    {!Minic.Typecheck.Error} or {!Error}. *)
