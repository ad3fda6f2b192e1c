(** Test-driver generation (paper §3.2, technique 2).

    Synthesizes, at the AST level, the nondeterministic driver the
    paper generates as C code: a [__dart_main] that calls the toplevel
    function [depth] times, each argument supplied by a fresh
    per-position external function — so every argument value is an
    input DART controls. External variables are initialized by the
    engine directly in memory, and declared external functions are
    simulated at call time; both follow Figure 8. *)

val wrapper_name : string
(** The generated entry point, ["__dart_main"]. *)

val arg_fn_name : int -> string
(** The external function supplying the i-th toplevel argument. *)

val is_driver_function : string -> bool
(** Whether [name] is part of the synthesized test driver (the
    [__dart_*] wrapper and argument functions). {!Coverage} re-exports
    it to keep driver functions out of {!Coverage.compute} and
    {!Cover_report}; {!is_harness_site} extends it with the coin
    site. *)

val coin_site : string
(** The synthetic function name ["__coin"] that {!Concolic} attributes
    symbolic pointer-shape coin tosses to: coins have no machine branch
    site, so traces key them by input id under this name. *)

val is_harness_site : string -> bool
(** [is_driver_function name || name = coin_site]: every branch site
    the harness itself introduces, as opposed to the program under
    test. The search's coverage sets ({!Driver.search},
    {!Random_search}), the branch counts of {!Telemetry.summarize} and
    campaign target discovery and aggregate coverage all route through
    this one predicate. *)

exception No_toplevel of string

val generate : Minic.Ast.program -> toplevel:string -> depth:int -> Minic.Ast.program
(** Extend the program with the generated driver.
    @raise No_toplevel if [toplevel] is not a defined function. *)

val driver_source : Minic.Ast.program -> toplevel:string -> depth:int -> string
(** Only the generated part, pretty-printed (the paper's Figure 7). *)
