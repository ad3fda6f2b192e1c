(* Source-level coverage explorer: per-site direction status mapped
   back to MiniC source lines, rendered as an annotated listing, an
   lcov tracefile and a single-file HTML report. See cover_report.mli
   for the contract; the one invariant every renderer must keep is
   that its totals are the [Coverage.compute] totals — the reports
   are views of the same data, never a recount. *)

type status = Coverage.status =
  | Full
  | Taken_only
  | Fall_only
  | Unreached

type site = {
  cs_fn : string;
  cs_pc : int;
  cs_loc : Minic.Loc.t;
  cs_status : status;
}

type t = {
  sites : site list;
  coverage : Coverage.t;
}

let compute (prog : Ram.Instr.program) ~covered =
  let dirs = Coverage.directions covered in
  let sites =
    Hashtbl.fold
      (fun name (f : Ram.Instr.func) acc ->
        if Coverage.is_driver_function name then acc
        else begin
          let acc = ref acc in
          Array.iteri
            (fun pc instr ->
              match instr with
              | Ram.Instr.Iif _ ->
                let loc =
                  if pc < Array.length f.Ram.Instr.locs then f.Ram.Instr.locs.(pc)
                  else Minic.Loc.dummy
                in
                acc :=
                  { cs_fn = name;
                    cs_pc = pc;
                    cs_loc = loc;
                    cs_status = Coverage.status dirs (name, pc) }
                  :: !acc
              | _ -> ())
            f.Ram.Instr.code;
          !acc
        end)
      prog.Ram.Instr.funcs []
    |> List.sort (fun a b ->
           compare
             (a.cs_loc.Minic.Loc.file, a.cs_loc.Minic.Loc.line, a.cs_loc.Minic.Loc.col,
              a.cs_fn, a.cs_pc)
             (b.cs_loc.Minic.Loc.file, b.cs_loc.Minic.Loc.line, b.cs_loc.Minic.Loc.col,
              b.cs_fn, b.cs_pc))
  in
  { sites; coverage = Coverage.compute prog ~covered }

let frontier t = List.filter (fun s -> Coverage.is_frontier s.cs_status) t.sites

let unreached t = List.filter (fun s -> s.cs_status = Unreached) t.sites

let marker = function
  | Full -> "\u{2713}\u{2713}"
  | Taken_only -> "\u{2713}\u{00b7}"
  | Fall_only -> "\u{00b7}\u{2713}"
  | Unreached -> "\u{00b7}\u{00b7}"

let status_to_string = function
  | Full -> "full"
  | Taken_only -> "fall-through missing"
  | Fall_only -> "taken missing"
  | Unreached -> "unreached"

(* ---- shared line grouping ---------------------------------------------------- *)

let split_lines source =
  let lines = String.split_on_char '\n' source in
  match List.rev lines with
  | "" :: rest -> List.rev rest (* drop the empty tail of a final newline *)
  | _ -> lines

(* Sites grouped by 1-based source line, in site order within a line. *)
let sites_by_line t =
  let tbl : (int, site list) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let line = s.cs_loc.Minic.Loc.line in
      Hashtbl.replace tbl line (s :: Option.value ~default:[] (Hashtbl.find_opt tbl line)))
    t.sites;
  Hashtbl.iter (fun line sites -> Hashtbl.replace tbl line (List.rev sites)) tbl;
  tbl

let site_id s =
  Printf.sprintf "%s:%d %s" s.cs_fn s.cs_pc (Minic.Loc.to_string s.cs_loc)

(* ---- annotated source -------------------------------------------------------- *)

let annotate t ~source =
  let lines = split_lines source in
  let nlines = List.length lines in
  let by_line = sites_by_line t in
  (* The gutter width is in glyphs, not bytes: each marker is two
     glyphs, markers on the same line are space-separated. *)
  let gutter_glyphs n = if n = 0 then 0 else (2 * n) + (n - 1) in
  let width =
    Hashtbl.fold (fun _ sites acc -> max acc (gutter_glyphs (List.length sites))) by_line 2
  in
  let buf = Buffer.create (String.length source * 2) in
  Buffer.add_string buf
    "annotated source (one two-glyph marker per branch site, taken direction first):\n";
  Buffer.add_string buf
    "  \u{2713}\u{2713} full   \u{2713}\u{00b7} fall-through missing (frontier)   \
     \u{00b7}\u{2713} taken missing (frontier)   \u{00b7}\u{00b7} unreached\n\n";
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let sites = Option.value ~default:[] (Hashtbl.find_opt by_line lineno) in
      let gutter = String.concat " " (List.map (fun s -> marker s.cs_status) sites) in
      let pad = String.make (width - gutter_glyphs (List.length sites)) ' ' in
      Buffer.add_string buf (Printf.sprintf " %s%s | %4d | %s\n" gutter pad lineno line))
    lines;
  let out_of_range =
    List.filter (fun s -> s.cs_loc.Minic.Loc.line < 1 || s.cs_loc.Minic.Loc.line > nlines)
      t.sites
  in
  if out_of_range <> [] then begin
    Buffer.add_string buf "\nsites outside the source listing:\n";
    List.iter
      (fun s ->
        Buffer.add_string buf
          (Printf.sprintf "  %s  %s\n" (site_id s) (status_to_string s.cs_status)))
      out_of_range
  end;
  (match frontier t with
   | [] -> ()
   | sites ->
     Buffer.add_string buf "\nfrontier sites (one direction missing):\n";
     List.iter
       (fun s ->
         Buffer.add_string buf
           (Printf.sprintf "  %s  %s\n" (site_id s) (status_to_string s.cs_status)))
       sites);
  (match unreached t with
   | [] -> ()
   | sites ->
     Buffer.add_string buf "\nunreached sites:\n";
     List.iter (fun s -> Buffer.add_string buf (Printf.sprintf "  %s\n" (site_id s))) sites);
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Coverage.to_string t.coverage);
  Buffer.contents buf

(* ---- lcov export ------------------------------------------------------------- *)

let dirs_of_status = function
  | Full -> (true, true)
  | Taken_only -> (true, false)
  | Fall_only -> (false, true)
  | Unreached -> (false, false)

let covered_at_all s = s.cs_status <> Unreached

let to_lcov t =
  let buf = Buffer.create 1024 in
  (* One SF block per distinct file, in sorted site order (sites are
     already file-major). *)
  let files =
    List.sort_uniq compare (List.map (fun s -> s.cs_loc.Minic.Loc.file) t.sites)
  in
  List.iter
    (fun file ->
      let sites = List.filter (fun s -> s.cs_loc.Minic.Loc.file = file) t.sites in
      Buffer.add_string buf "TN:dart\n";
      Buffer.add_string buf (Printf.sprintf "SF:%s\n" file);
      (* Functions: those with at least one site in this file; the
         entry line is the first site's (branch coverage is all the
         engine records — a branchless function has no evidence either
         way, so it gets no FN record). *)
      let fns =
        List.fold_left
          (fun acc s ->
            match List.assoc_opt s.cs_fn acc with
            | Some _ -> acc
            | None -> (s.cs_fn, s) :: acc)
          [] sites
        |> List.rev
      in
      List.iter
        (fun (fn, first) ->
          Buffer.add_string buf
            (Printf.sprintf "FN:%d,%s\n" first.cs_loc.Minic.Loc.line fn))
        fns;
      let executed_fns =
        List.filter
          (fun (fn, _) ->
            List.exists (fun s -> s.cs_fn = fn && covered_at_all s) sites)
          fns
      in
      List.iter
        (fun (fn, _) ->
          let hit = List.mem_assoc fn executed_fns in
          Buffer.add_string buf (Printf.sprintf "FNDA:%d,%s\n" (if hit then 1 else 0) fn))
        fns;
      Buffer.add_string buf (Printf.sprintf "FNF:%d\n" (List.length fns));
      Buffer.add_string buf (Printf.sprintf "FNH:%d\n" (List.length executed_fns));
      (* Branch records: two per site, block = pc so several sites on
         one source line stay distinct. "-" means the enclosing block
         never executed, 0 means executed but the direction never
         taken — exactly our Unreached vs frontier distinction. *)
      let brh = ref 0 in
      List.iter
        (fun s ->
          let taken, fall = dirs_of_status s.cs_status in
          let cell d = if not (covered_at_all s) then "-" else if d then "1" else "0" in
          if taken then incr brh;
          if fall then incr brh;
          Buffer.add_string buf
            (Printf.sprintf "BRDA:%d,%d,0,%s\n" s.cs_loc.Minic.Loc.line s.cs_pc (cell taken));
          Buffer.add_string buf
            (Printf.sprintf "BRDA:%d,%d,1,%s\n" s.cs_loc.Minic.Loc.line s.cs_pc (cell fall)))
        sites;
      Buffer.add_string buf (Printf.sprintf "BRF:%d\n" (2 * List.length sites));
      Buffer.add_string buf (Printf.sprintf "BRH:%d\n" !brh);
      (* Line records for the lines bearing sites: hit when any site on
         the line executed in any direction. *)
      let lines =
        List.sort_uniq compare (List.map (fun s -> s.cs_loc.Minic.Loc.line) sites)
      in
      let line_hit l =
        List.exists (fun s -> s.cs_loc.Minic.Loc.line = l && covered_at_all s) sites
      in
      List.iter
        (fun l ->
          Buffer.add_string buf (Printf.sprintf "DA:%d,%d\n" l (if line_hit l then 1 else 0)))
        lines;
      Buffer.add_string buf (Printf.sprintf "LF:%d\n" (List.length lines));
      Buffer.add_string buf
        (Printf.sprintf "LH:%d\n" (List.length (List.filter line_hit lines)));
      Buffer.add_string buf "end_of_record\n")
    files;
  Buffer.contents buf

(* ---- lcov re-parser ---------------------------------------------------------- *)

type lcov_totals = {
  lt_files : int;
  lt_functions : int;
  lt_brda : int;
  lt_branches_hit : int;
  lt_brf : int;
  lt_brh : int;
  lt_da : int;
  lt_lines_hit : int;
}

exception Lcov_error of string

let parse_lcov text =
  let totals =
    ref
      { lt_files = 0; lt_functions = 0; lt_brda = 0; lt_branches_hit = 0; lt_brf = 0;
        lt_brh = 0; lt_da = 0; lt_lines_hit = 0 }
  in
  let in_block = ref false in
  let fail lineno msg = raise (Lcov_error (Printf.sprintf "line %d: %s" lineno msg)) in
  let int_of lineno what s =
    match int_of_string_opt s with
    | Some v when v >= 0 -> v
    | Some _ | None -> fail lineno (Printf.sprintf "bad %s %S" what s)
  in
  let require_block lineno record =
    if not !in_block then fail lineno (Printf.sprintf "%s outside an SF block" record)
  in
  try
    let lines = String.split_on_char '\n' text in
    List.iteri
      (fun i line ->
        let lineno = i + 1 in
        let prefixed p = String.length line >= String.length p
                         && String.sub line 0 (String.length p) = p in
        let after p = String.sub line (String.length p)
                        (String.length line - String.length p) in
        if line = "" then () (* blank lines: tolerated at the tail *)
        else if prefixed "TN:" then ()
        else if prefixed "SF:" then begin
          if !in_block then fail lineno "SF inside an open block";
          if after "SF:" = "" then fail lineno "empty SF path";
          in_block := true;
          totals := { !totals with lt_files = !totals.lt_files + 1 }
        end
        else if line = "end_of_record" then begin
          require_block lineno "end_of_record";
          in_block := false
        end
        else begin
          require_block lineno (String.sub line 0 (min 8 (String.length line)));
          if prefixed "FN:" then begin
            match String.index_opt (after "FN:") ',' with
            | None -> fail lineno "FN needs line,name"
            | Some c ->
              let body = after "FN:" in
              ignore (int_of lineno "FN line" (String.sub body 0 c));
              if String.length body = c + 1 then fail lineno "FN needs a name";
              totals := { !totals with lt_functions = !totals.lt_functions + 1 }
          end
          else if prefixed "FNDA:" then begin
            match String.index_opt (after "FNDA:") ',' with
            | None -> fail lineno "FNDA needs count,name"
            | Some c -> ignore (int_of lineno "FNDA count" (String.sub (after "FNDA:") 0 c))
          end
          else if prefixed "FNF:" then ignore (int_of lineno "FNF" (after "FNF:"))
          else if prefixed "FNH:" then ignore (int_of lineno "FNH" (after "FNH:"))
          else if prefixed "BRDA:" then begin
            match String.split_on_char ',' (after "BRDA:") with
            | [ l; b; br; taken ] ->
              ignore (int_of lineno "BRDA line" l);
              ignore (int_of lineno "BRDA block" b);
              ignore (int_of lineno "BRDA branch" br);
              let hit =
                if taken = "-" then 0 else int_of lineno "BRDA taken" taken
              in
              totals :=
                { !totals with
                  lt_brda = !totals.lt_brda + 1;
                  lt_branches_hit = (!totals.lt_branches_hit + if hit > 0 then 1 else 0) }
            | _ -> fail lineno "BRDA needs line,block,branch,taken"
          end
          else if prefixed "BRF:" then
            totals := { !totals with lt_brf = !totals.lt_brf + int_of lineno "BRF" (after "BRF:") }
          else if prefixed "BRH:" then
            totals := { !totals with lt_brh = !totals.lt_brh + int_of lineno "BRH" (after "BRH:") }
          else if prefixed "DA:" then begin
            match String.split_on_char ',' (after "DA:") with
            | [ l; count ] ->
              ignore (int_of lineno "DA line" l);
              let hits = int_of lineno "DA count" count in
              totals :=
                { !totals with
                  lt_da = !totals.lt_da + 1;
                  lt_lines_hit = (!totals.lt_lines_hit + if hits > 0 then 1 else 0) }
            | _ -> fail lineno "DA needs line,count"
          end
          else if prefixed "LF:" then ignore (int_of lineno "LF" (after "LF:"))
          else if prefixed "LH:" then ignore (int_of lineno "LH" (after "LH:"))
          else fail lineno (Printf.sprintf "unknown record %S" line)
        end)
      lines;
    if !in_block then raise (Lcov_error "unterminated SF block at end of input");
    Ok !totals
  with Lcov_error msg -> Error msg

(* ---- HTML report ------------------------------------------------------------- *)

let html_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let line_class sites =
  if sites = [] then "plain"
  else if List.exists (fun s -> s.cs_status = Unreached) sites then "unreached"
  else if List.exists (fun s -> s.cs_status <> Full) sites then "frontier"
  else "full"

let css =
  {|
body { font-family: -apple-system, "Segoe UI", Roboto, sans-serif; margin: 2em auto;
       max-width: 70em; color: #1a1a2e; }
h1 { font-size: 1.4em; } h2 { font-size: 1.1em; margin-top: 2em; }
.tiles { display: flex; gap: 1em; flex-wrap: wrap; }
.tile { border: 1px solid #d0d0da; border-radius: 6px; padding: 0.6em 1.2em; }
.tile .num { font-size: 1.5em; font-weight: 600; display: block; }
.tile .label { font-size: 0.8em; color: #555; }
table { border-collapse: collapse; margin-top: 0.8em; }
th, td { border: 1px solid #d0d0da; padding: 0.3em 0.8em; font-size: 0.9em; }
th { background: #f2f2f7; text-align: left; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
pre.source { border: 1px solid #d0d0da; border-radius: 6px; padding: 0; overflow-x: auto;
             font-size: 0.85em; line-height: 1.45; }
pre.source span { display: block; padding: 0 0.8em; white-space: pre; }
.gut { color: #777; user-select: none; }
.full { background: #e7f6e7; }
.frontier { background: #fdf3d7; }
.unreached { background: #fbe3e4; }
.legend span { padding: 0.1em 0.6em; border-radius: 4px; margin-right: 0.8em;
               font-size: 0.85em; }
|}

let to_html ?(extra = "") t ~source ~title =
  let lines = split_lines source in
  let by_line = sites_by_line t in
  let cov = t.coverage in
  let buf = Buffer.create (String.length source * 3) in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n";
  add "<title>DART coverage — %s</title>\n<style>%s</style>\n</head>\n<body>\n"
    (html_escape title) css;
  add "<h1>DART branch coverage — %s</h1>\n" (html_escape title);
  let pct = Coverage.percent cov in
  add "<div class=\"tiles\">\n";
  add "<div class=\"tile\"><span class=\"num\">%.1f%%</span><span class=\"label\">directions \
       covered</span></div>\n" pct;
  add "<div class=\"tile\"><span class=\"num\">%d / %d</span><span class=\"label\">directions \
       / possible</span></div>\n"
    cov.Coverage.total_directions (2 * cov.Coverage.total_sites);
  add "<div class=\"tile\"><span class=\"num\">%d</span><span class=\"label\">frontier \
       sites</span></div>\n" (List.length (frontier t));
  add "<div class=\"tile\"><span class=\"num\">%d</span><span class=\"label\">unreached \
       sites</span></div>\n" (List.length (unreached t));
  add "</div>\n";
  add "<h2>per function</h2>\n<table>\n<tr><th>function</th><th>directions</th>\
       <th>possible</th><th>sites fully covered</th><th>%%</th></tr>\n";
  List.iter
    (fun (e : Coverage.entry) ->
      if e.Coverage.cov_sites > 0 then begin
        let fpct =
          100.0 *. float_of_int e.Coverage.cov_directions
          /. float_of_int (2 * e.Coverage.cov_sites)
        in
        add
          "<tr><td>%s</td><td class=\"num\">%d</td><td class=\"num\">%d</td>\
           <td class=\"num\">%d</td><td class=\"num\">%.1f</td></tr>\n"
          (html_escape e.Coverage.cov_fn) e.Coverage.cov_directions
          (2 * e.Coverage.cov_sites) e.Coverage.cov_full fpct
      end)
    cov.Coverage.entries;
  add "</table>\n";
  add "<h2>annotated source</h2>\n";
  add "<p class=\"legend\"><span class=\"full\">both directions</span>\
       <span class=\"frontier\">frontier (one direction missing)</span>\
       <span class=\"unreached\">unreached</span></p>\n";
  add "<pre class=\"source\">";
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let sites = Option.value ~default:[] (Hashtbl.find_opt by_line lineno) in
      let gutter = String.concat " " (List.map (fun s -> marker s.cs_status) sites) in
      add "<span class=\"%s\"><span class=\"gut\">%4d %-5s|</span> %s</span>"
        (line_class sites) lineno gutter (html_escape line))
    lines;
  add "</pre>\n";
  (match frontier t with
   | [] -> ()
   | sites ->
     add "<h2>frontier sites</h2>\n<table>\n<tr><th>site</th><th>location</th>\
          <th>missing direction</th></tr>\n";
     List.iter
       (fun s ->
         add "<tr><td>%s:%d</td><td>%s</td><td>%s</td></tr>\n" (html_escape s.cs_fn)
           s.cs_pc
           (html_escape (Minic.Loc.to_string s.cs_loc))
           (html_escape (status_to_string s.cs_status)))
       sites;
     add "</table>\n");
  (* Caller-supplied panel (campaign heatmap): already-rendered HTML,
     spliced verbatim before the close. Empty by default, so
     single-target reports stay byte-identical. *)
  Buffer.add_string buf extra;
  add "</body>\n</html>\n";
  Buffer.contents buf

(* Campaign per-target time/outcome heatmap: one cell per tested
   target, opacity by share of total slice time, border color by
   retirement outcome. [cells] is (target, retire_tag, total_ns, runs,
   overruns) in the order the campaign reports them; [overruns] counts
   solver deadline overruns and rides in the cell title when nonzero. *)
let campaign_heatmap cells =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "<h2>per-target time</h2>\n";
  if cells = [] then add "<p>no per-target timing recorded.</p>\n"
  else begin
    let total = List.fold_left (fun acc (_, _, ns, _, _) -> Int64.add acc ns) 0L cells in
    add
      "<p class=\"legend\"><span class=\"hm-bug\">bug</span>\
       <span class=\"hm-complete\">complete</span>\
       <span class=\"hm-saturated\">saturated</span>\
       <span class=\"hm-capped\">capped</span>\
       <span class=\"hm-quarantined\">quarantined</span>\
       <span class=\"hm-other\">other</span></p>\n";
    add "<div class=\"heatmap\">\n";
    List.iter
      (fun (name, tag, ns, runs, overruns) ->
        let share =
          if Int64.compare total 0L > 0 then
            Int64.to_float ns /. Int64.to_float total
          else 0.0
        in
        (* Opacity floor keeps sub-percent targets visible. *)
        let opacity = 0.15 +. (0.85 *. share) in
        let cls =
          match tag with
          | "bug" -> "hm-bug"
          | "complete" -> "hm-complete"
          | "saturated" -> "hm-saturated"
          | "capped" -> "hm-capped"
          | "quarantined" -> "hm-quarantined"
          | _ -> "hm-other"
        in
        add
          "<div class=\"hm-cell %s\" style=\"--heat:%.3f\" title=\"%s: %s, %d runs, \
           %.1f%% of slice time%s\"><span class=\"hm-name\">%s</span>\
           <span class=\"hm-time\">%s</span></div>\n"
          cls opacity (html_escape name) (html_escape tag) runs (100.0 *. share)
          (if overruns > 0 then Printf.sprintf " + %d solver overruns" overruns else "")
          (html_escape name)
          (html_escape (Telemetry.ns_to_string ns)))
      cells;
    add "</div>\n";
    add
      "<style>.heatmap { display: flex; flex-wrap: wrap; gap: 4px; }\n\
       .hm-cell { border-radius: 4px; padding: 0.3em 0.5em; font-size: 0.8em;\n\
       \          background: rgba(70, 110, 180, var(--heat)); border: 2px solid #ccc; }\n\
       .hm-cell span { display: block; }\n\
       .hm-name { font-weight: 600; }\n\
       .hm-bug { border-color: #c0392b; }\n\
       .hm-complete { border-color: #27ae60; }\n\
       .hm-saturated { border-color: #d9a62e; }\n\
       .hm-capped { border-color: #7f8c8d; }\n\
       .hm-quarantined { border-color: #8e44ad; }\n\
       .hm-other { border-color: #aaa; }\n\
       span.hm-bug { border: 2px solid #c0392b; }\n\
       span.hm-complete { border: 2px solid #27ae60; }\n\
       span.hm-saturated { border: 2px solid #d9a62e; }\n\
       span.hm-capped { border: 2px solid #7f8c8d; }\n\
       span.hm-quarantined { border: 2px solid #8e44ad; }\n\
       span.hm-other { border: 2px solid #aaa; }\n\
       </style>\n"
  end;
  Buffer.contents buf
