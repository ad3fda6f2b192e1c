(** Branch-coverage accounting.

    The paper motivates automated unit testing by coverage ("its role
    is precisely to ... check all corner cases, and provide 100% code
    coverage", §1). A coverage report relates the branch directions a
    search exercised to the program's totals, per function. *)

type entry = {
  cov_fn : string;
  cov_sites : int; (* conditional instructions in the function *)
  cov_directions : int; (* of the 2 * cov_sites possible outcomes, how many ran *)
  cov_full : int; (* sites with both directions exercised *)
}

type t = {
  entries : entry list; (* sorted by function name; driver-internal
                           functions excluded *)
  total_sites : int;
  total_directions : int;
}

val is_driver_function : string -> bool
(** Whether [name] is part of the synthesized test driver (the
    [__dart_*] wrapper and argument functions). Driver-internal branch
    sites are excluded from every coverage number — both here and in
    {!Driver.report.branches_covered} — so the two stay consistent. *)

(** {1 Per-site directions} *)

type status =
  | Full (* both directions exercised *)
  | Taken_only (* fall-through direction missing: frontier *)
  | Fall_only (* taken direction missing: frontier *)
  | Unreached (* site never executed *)

type directions
(** Which directions of each (function, pc) site ran: the one direction
    table behind {!compute}, {!Cover_report} and
    {!Profile.frontier_sites}. *)

val directions : (string * int * bool) list -> directions
(** Built from the (function, pc, direction) triples a search reports
    ({!Driver.report.coverage_sites}, {!Telemetry.summary.covered}). *)

val status : directions -> string * int -> status
(** [Unreached] for a site the table has never seen. *)

val is_frontier : status -> bool
(** Exactly one direction seen: the site sits on an executed path, so
    the directed search can still try to force the other one. *)

val sites : directions -> ((string * int) * status) list
(** Every site the table has seen, sorted by (function, pc). *)

val compute : Ram.Instr.program -> covered:(string * int * bool) list -> t
(** [covered] is the list of (function, pc, direction) triples a search
    reports. *)

val union : (string * int * bool) list list -> (string * int * bool) list
(** Every set's triples, sorted, without duplicates: the one union of
    branch directions ({!Parallel.merge}, {!Campaign}). *)

val frontier_count : (string * int * bool) list -> int
(** {!is_frontier} sites in [covered]: the frontier size
    {!Driver.search} writes to the status file and {!Campaign.run}
    orders its refills by. *)

val percent : t -> float
(** Covered directions over all possible ones, 0..100. *)

val to_string : t -> string
