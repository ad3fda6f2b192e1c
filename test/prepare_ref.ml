(* Reference preparation for the link identity suite in diff_link.ml:
   the whole-program pipeline that [Driver.prepare] ran before targets
   were linked against a once-lowered library. The generated driver is
   appended to the source, and all of it is typechecked and lowered
   afresh for every target. [Driver.prepare] claims the same program,
   function for function, so diff_link.ml holds it to this one. *)

let prepare ?(library_sigs = []) ~toplevel ~depth ast =
  let full = Dart.Driver_gen.generate ast ~toplevel ~depth in
  Ram.Lower.lower_program (Minic.Typecheck.check ~library:library_sigs full)
