(** Source-level coverage explorer.

    {!Coverage} answers "how much" (per-function direction counts);
    this module answers "where" and "why": every [Iif] branch site of
    the program under test is mapped through the lowering's [locs]
    table back to its MiniC source line and classified per direction,
    from which three reports are rendered —

    - {!annotate}: the source listing with a per-line coverage gutter,
    - {!to_lcov}: an lcov [.info] file ([BRDA]/[DA] records) for
      standard tooling ([genhtml], CI coverage diffing),
    - {!to_html}: a self-contained single-file HTML report (inline
      CSS, no external dependencies).

    Directions are the machine's: a site [Iif (e, l)] has a {e taken}
    direction (the jump, [e] non-zero) and a {e fall-through} one.
    Source-level [if]/[while] compile through negated tests, so taken
    does not uniformly mean the source's then-branch; reports say
    taken/fall rather than then/else for this reason.

    A site both of whose directions ran is {e full}; a {e frontier}
    site has run in exactly one direction — it sits on an executed
    path, so it is a candidate the directed search can still try to
    force — while an {e unreached} site has never executed at all:
    getting there needs a new path prefix, not just one more flip. *)

type status = Coverage.status =
  | Full (* both directions exercised *)
  | Taken_only (* fall-through direction missing: frontier *)
  | Fall_only (* taken direction missing: frontier *)
  | Unreached (* site never executed *)

type site = {
  cs_fn : string;
  cs_pc : int;
  cs_loc : Minic.Loc.t;
  cs_status : status;
}

type t = {
  sites : site list;
      (* every [Iif] site of every non-driver function, sorted by
         (file, line, column, function, pc) *)
  coverage : Coverage.t; (* the aggregate view of the same data *)
}

val compute : Ram.Instr.program -> covered:(string * int * bool) list -> t
(** [covered] is the (function, pc, direction) list a search reports
    ({!Driver.report.coverage_sites}); driver-internal functions are
    excluded exactly as {!Coverage.compute} excludes them, so
    [t.coverage] totals always agree with a direct
    {!Coverage.compute}. *)

val frontier : t -> site list
(** {!Coverage.is_frontier} sites, in site order. *)

val unreached : t -> site list

val marker : status -> string
(** Two glyphs, taken direction first: ["✓✓"], ["✓·"], ["·✓"],
    ["··"]. *)

(** {1 Reports} *)

val annotate : t -> source:string -> string
(** The source text with a coverage gutter: each line shows the
    markers of its branch sites (several when one line holds several
    sites, e.g. [a && b]), followed by frontier/unreached site lists
    and the {!Coverage.to_string} totals block byte-for-byte. *)

val to_lcov : t -> string
(** lcov tracefile records, one [SF:…end_of_record] block per distinct
    source file: [FN]/[FNDA] per function, [DA] per line bearing a
    site, two [BRDA] records per site (block = pc, branch 0 = taken,
    branch 1 = fall-through; ["-"] when the site never executed), and
    [BRF]/[BRH] totals equal to [2 * total_sites] /
    [total_directions]. *)

val to_html : ?extra:string -> t -> source:string -> title:string -> string
(** Self-contained single-file HTML: summary tiles, a per-function
    table, and the annotated source with per-line highlighting.
    [extra] (default empty) is an already-rendered HTML fragment
    spliced in before [</body>] — the campaign report passes
    {!campaign_heatmap} here. *)

val campaign_heatmap : (string * string * int64 * int * int) list -> string
(** HTML fragment for the campaign report's per-target panel: one cell
    per [(target, retire_tag, total_ns, runs, deadline_overruns)]
    entry, cell intensity proportional to the target's share of total
    slice wall clock and border color keyed to the retirement tag
    ([bug] / [complete] / [saturated] / [capped] / [quarantined]).
    Nonzero overrun counts ride in the cell tooltip. Deterministic for
    a fixed input list. *)

(** {1 lcov re-parser}

    A validating parser for the record grammar {!to_lcov} emits, used
    by the round-trip tests (and usable on any lcov tracefile that
    sticks to TN/SF/FN/FNDA/FNF/FNH/DA/BRDA/BRF/BRH/LF/LH records). *)

type lcov_totals = {
  lt_files : int; (* SF blocks *)
  lt_functions : int; (* FN records *)
  lt_brda : int; (* BRDA records *)
  lt_branches_hit : int; (* BRDA records with a positive taken count *)
  lt_brf : int; (* summed BRF *)
  lt_brh : int; (* summed BRH *)
  lt_da : int; (* DA records *)
  lt_lines_hit : int; (* DA records with a positive count *)
}

val parse_lcov : string -> (lcov_totals, string) result
(** [Error] names the first offending line. *)
