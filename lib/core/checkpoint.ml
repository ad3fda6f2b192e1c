(* Checkpoint files: one line-based framing for single-run and campaign
   checkpoints, and the single-run codec of Driver.snapshot. See
   checkpoint.mli for the contract. The format is deliberately boring —
   one space-separated record per line, strings percent-escaped — so a
   checkpoint survives inspection with a pager and diffs meaningfully
   in CI artifacts. *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* ---- record tokens, shared with Campaign --------------------------------------- *)

(* Strings (function names, file paths) are %-escaped so every record
   stays one line of space-separated tokens. *)
let escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | ' ' | '%' | '\n' | '\t' | '\r' ->
        Buffer.add_string buf (Printf.sprintf "%%%02x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape what s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
     | '%' ->
       if !i + 2 >= n then bad "truncated %%-escape in %s" what;
       (match Telemetry.hex_value (String.sub s (!i + 1) 2) with
        | Some code -> Buffer.add_char buf (Char.chr code)
        | None -> bad "bad %%-escape in %s" what);
       i := !i + 2
     | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

let bool_tag b = if b then "1" else "0"

type reader = { mutable lines : string list }

let next r what =
  match r.lines with
  | [] -> bad "unexpected end of record, wanted %s" what
  | l :: rest ->
    r.lines <- rest;
    l

let tokens l = String.split_on_char ' ' l

let int_tok what t =
  match int_of_string_opt t with
  | Some v -> v
  | None -> bad "bad integer in %s: %S" what t

let bool_tok what = function
  | "0" -> false
  | "1" -> true
  | t -> bad "bad boolean in %s: %S" what t

let expect_counted r what =
  match tokens (next r what) with
  | [ tag; count ] when tag = what -> int_tok what count
  | _ -> bad "expected %S record" what

let cover_record tag (fn, pc, dir) =
  Printf.sprintf "%s %s %d %s" tag (escape fn) pc (bool_tag dir)

let cover_of_tokens tag = function
  | [ t; fn; pc; dir ] when t = tag -> (unescape tag fn, int_tok tag pc, bool_tok tag dir)
  | _ -> bad "expected %S record" tag

let bug_record (b : Driver.bug) =
  let loc = b.Driver.bug_site.Machine.site_loc in
  String.concat ""
    (Printf.sprintf "bug %s %s %d %s %d %d %d %d"
       (Machine.fault_tag b.Driver.bug_fault)
       (escape b.Driver.bug_site.Machine.site_fn)
       b.Driver.bug_site.Machine.site_pc (escape loc.Minic.Loc.file)
       loc.Minic.Loc.line loc.Minic.Loc.col b.Driver.bug_run
       (List.length b.Driver.bug_inputs)
    :: List.map (fun (id, v) -> Printf.sprintf " %d:%d" id v) b.Driver.bug_inputs)

let bug_of_tokens = function
  | "bug" :: fault :: fn :: pc :: file :: lno :: col :: run :: n_inputs :: inputs ->
    let bug_fault =
      match Machine.fault_of_tag fault with
      | Some f -> f
      | None -> bad "unknown fault %S" fault
    in
    let n_inputs = int_tok "bug" n_inputs in
    if List.length inputs <> n_inputs then bad "bug input count mismatch";
    { Driver.bug_fault;
      bug_site =
        { Machine.site_fn = unescape "bug" fn;
          site_pc = int_tok "bug" pc;
          site_loc =
            { Minic.Loc.file = unescape "bug" file;
              line = int_tok "bug" lno;
              col = int_tok "bug" col } };
      bug_run = int_tok "bug" run;
      bug_inputs =
        List.map
          (fun e ->
            match String.split_on_char ':' e with
            | [ id; v ] -> (int_tok "bug" id, int_tok "bug" v)
            | _ -> bad "bad bug input %S" e)
          inputs }
  | _ -> bad "expected \"bug\" record"

(* ---- framing ------------------------------------------------------------------- *)

type kind = Search | Campaign

(* The one table of formats: a file of the other kind is a usage error
   whose message points at the command that resumes it. *)
type format = { magic : string; version : int; noun : string; resume_with : string }

let formats =
  [ ( Search,
      { magic = "dart-checkpoint";
        version = 4;
        noun = "checkpoint";
        resume_with =
          "this is a single-shot search checkpoint; resume it with plain `dartc --resume`" } );
    ( Campaign,
      { magic = "dart-campaign";
        version = 3;
        noun = "campaign checkpoint";
        resume_with =
          "this is a campaign checkpoint; resume it with `dartc campaign --resume`" } ) ]

let format_of kind = List.assoc kind formats

let frame kind ~meta blocks =
  let f = format_of kind in
  let buf = Buffer.create 4096 in
  Printf.bprintf buf "%s v%d\n%s\nrecords %d\n" f.magic f.version meta (List.length blocks);
  List.iter
    (fun block ->
      Buffer.add_string buf block;
      Printf.bprintf buf "crc %s\n" (Dart_util.Crc32.to_hex (Dart_util.Crc32.string block)))
    blocks;
  Buffer.add_string buf "end\n";
  Buffer.contents buf

type 'a framed = { meta : string; declared : int; records : 'a list; defect : string option }

let starts_with p l = String.length l >= String.length p && String.sub l 0 (String.length p) = p

(* One record: its lines up to the crc trailer, checksummed before they
   are decoded, so any flipped byte reads as corruption, never as a
   plausible record. [frame] never writes empty lines, so rejoining the
   non-empty lines rebuilds the block byte for byte. *)
let read_block r ~index ~declared decode =
  let rec split acc = function
    | [] -> bad "truncated record %d of %d (no crc trailer)" index declared
    | l :: rest when starts_with "crc " l -> (List.rev acc, l, rest)
    | l :: rest -> split (l :: acc) rest
  in
  let lines, trailer, rest = split [] r.lines in
  r.lines <- rest;
  let bytes = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
  (match tokens trailer with
   | [ "crc"; hex ] ->
     (match Dart_util.Crc32.of_hex hex with
      | None -> bad "bad crc %S" hex
      | Some crc ->
        if Dart_util.Crc32.string bytes <> crc then
          bad "checksum mismatch in record %d of %d (corrupted checkpoint)" index declared)
   | _ -> bad "expected \"crc\" record");
  let block = { lines } in
  let v = decode block in
  if block.lines <> [] then bad "unexpected line in record %d: %S" index (List.hd block.lines);
  v

(* Header defects reject the file in both modes: there is nothing to
   salvage without a trusted meta line. After it, strict mode rejects
   any defect and salvage mode keeps the records already read. *)
let parse ~salvage kind decode text =
  let f = format_of kind in
  let r = { lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' text) } in
  try
    let header = tokens (next r "magic") in
    (match (header, List.find_opt (fun (_, o) -> o.magic = List.hd header) formats) with
     | [ _; v ], Some (k, _) when k = kind ->
       if v <> Printf.sprintf "v%d" f.version then
         bad "unsupported %s version %s (this build reads v%d)" f.noun v f.version
     | _, Some (k, other) when k <> kind -> raise (Bad other.resume_with)
     | _ -> bad "not a dart %s file" f.noun);
    let meta = next r "meta" in
    if not (starts_with "meta " meta) then bad "expected \"meta\" record";
    let declared = expect_counted r "records" in
    let records = ref [] in
    let body () =
      for index = 1 to declared do
        records := read_block r ~index ~declared decode :: !records
      done;
      if next r "end" <> "end" then bad "expected \"end\" record";
      if (not salvage) && r.lines <> [] then
        bad "unexpected line after \"end\": %S" (List.hd r.lines)
    in
    let defect =
      if salvage then (try body (); None with Bad msg -> Some msg) else (body (); None)
    in
    Ok { meta; declared; records = List.rev !records; defect }
  with Bad msg -> Error msg

(* "meta k=v k=v ..." as (key, value) pairs; a token without "=" is a
   key with an empty value. *)
let meta_fields line =
  List.tl (tokens line)
  |> List.map (fun t ->
         match String.index_opt t '=' with
         | Some i -> (String.sub t 0 i, String.sub t (i + 1) (String.length t - i - 1))
         | None -> (t, ""))

let check_meta ~expected ~found =
  let exp = meta_fields expected and fnd = meta_fields found in
  let show fields k =
    match List.assoc_opt k fields with Some v -> k ^ "=" ^ v | None -> "no " ^ k
  in
  let differs k = List.assoc_opt k exp <> List.assoc_opt k fnd in
  match List.find_opt differs (List.map fst exp @ List.map fst fnd) with
  | None -> Ok ()
  | Some k ->
    Error (Printf.sprintf "checkpoint was taken with %s, not %s" (show fnd k) (show exp k))

let load_framed ?salvage kind ~meta decode ~path =
  match Dart_util.Fileio.read_all path with
  | exception Sys_error msg -> Error msg
  | text -> (
    match (parse ~salvage:(salvage <> None) kind decode text, salvage) with
    | Error msg, Some warn ->
      warn
        (Printf.sprintf "checkpoint unusable (%s); salvaged 0 records, restarting from scratch"
           msg);
      Ok []
    | Error _ as e, None -> e
    | Ok p, _ -> (
      match check_meta ~expected:meta ~found:p.meta with
      | Error _ as e -> e
      | Ok () ->
        (match (p.defect, salvage) with
         | Some msg, Some warn ->
           warn
             (Printf.sprintf
                "checkpoint damaged (%s); salvaged %d of %d records, the rest will be re-run"
                msg (List.length p.records) p.declared)
         | _ -> ());
        Ok p.records))

(* ---- single-run checkpoints ---------------------------------------------------- *)

module O = Driver.Options

let meta_line (options : Driver.options) =
  Printf.sprintf "meta seed=%d depth=%d strategy=%s incremental=%s symbolic_pointers=%s"
    options.O.search.O.seed options.O.search.O.depth
    (Strategy.to_string options.O.search.O.strategy)
    (bool_tag options.O.accel.O.use_incremental)
    (bool_tag options.O.exec.Concolic.symbolic_pointers)

let snapshot_block (s : Driver.snapshot) =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  line "pending_restart %s" (bool_tag s.Driver.sn_pending_restart);
  line "rng %Ld" s.Driver.sn_rng;
  line "counters runs=%d restarts=%d total_steps=%d paths=%d resource_limited=%d"
    s.Driver.sn_runs s.Driver.sn_restarts s.Driver.sn_total_steps s.Driver.sn_paths
    s.Driver.sn_resource_limited;
  line "flags all_linear=%s all_locs_definite=%s"
    (bool_tag s.Driver.sn_all_linear)
    (bool_tag s.Driver.sn_all_locs_definite);
  let stack = s.Driver.sn_stack in
  Buffer.add_string buf (Printf.sprintf "stack %d" (Array.length stack));
  Array.iter
    (fun (br : Concolic.branch_record) ->
      Buffer.add_string buf
        (Printf.sprintf " %s:%s" (bool_tag br.Concolic.br_branch)
           (bool_tag br.Concolic.br_done)))
    stack;
  Buffer.add_char buf '\n';
  line "im %d" (List.length s.Driver.sn_im);
  List.iter
    (fun (id, value, kind) -> line "input %d %d %s" id value (Inputs.kind_tag kind))
    s.Driver.sn_im;
  line "coverage %d" (List.length s.Driver.sn_coverage);
  List.iter (fun site -> line "%s" (cover_record "cover" site)) s.Driver.sn_coverage;
  line "stats %d" (List.length s.Driver.sn_stats);
  List.iter (fun (k, v) -> line "stat %s %d" (escape k) v) s.Driver.sn_stats;
  line "bugs %d" (List.length s.Driver.sn_bugs);
  List.iter (fun b -> line "%s" (bug_record b)) s.Driver.sn_bugs;
  Buffer.contents buf

let decode_snapshot r =
  let next = next r in
  (* "k=v" fields in a fixed order, as written by [snapshot_block]. *)
  let kv what key t =
    match String.index_opt t '=' with
    | Some i when String.sub t 0 i = key ->
      String.sub t (i + 1) (String.length t - i - 1)
    | _ -> bad "expected %s=... in %s, got %S" key what t
  in
  let sn_pending_restart =
    match tokens (next "pending_restart") with
    | [ "pending_restart"; b ] -> bool_tok "pending_restart" b
    | _ -> bad "expected \"pending_restart\" record"
  in
  let sn_rng =
    match tokens (next "rng") with
    | [ "rng"; v ] ->
      (match Int64.of_string_opt v with
       | Some v -> v
       | None -> bad "bad rng state")
    | _ -> bad "expected \"rng\" record"
  in
  let sn_runs, sn_restarts, sn_total_steps, sn_paths, sn_resource_limited =
    match tokens (next "counters") with
    | [ "counters"; a; b; c; d; e ] ->
      ( int_tok "counters" (kv "counters" "runs" a),
        int_tok "counters" (kv "counters" "restarts" b),
        int_tok "counters" (kv "counters" "total_steps" c),
        int_tok "counters" (kv "counters" "paths" d),
        int_tok "counters" (kv "counters" "resource_limited" e) )
    | _ -> bad "expected \"counters\" record"
  in
  let sn_all_linear, sn_all_locs_definite =
    match tokens (next "flags") with
    | [ "flags"; a; b ] ->
      ( bool_tok "flags" (kv "flags" "all_linear" a),
        bool_tok "flags" (kv "flags" "all_locs_definite" b) )
    | _ -> bad "expected \"flags\" record"
  in
  let sn_stack =
    match tokens (next "stack") with
    | "stack" :: count :: entries ->
      let count = int_tok "stack" count in
      if List.length entries <> count then bad "stack length mismatch";
      Array.of_list
        (List.map
           (fun e ->
             match String.split_on_char ':' e with
             | [ branch; don ] ->
               { Concolic.br_branch = bool_tok "stack" branch;
                 br_done = bool_tok "stack" don }
             | _ -> bad "bad stack entry %S" e)
           entries)
    | _ -> bad "expected \"stack\" record"
  in
  let n_im = expect_counted r "im" in
  let sn_im =
    List.init n_im (fun _ ->
        match tokens (next "input") with
        | [ "input"; id; value; kind ] ->
          let kind =
            match Inputs.kind_of_tag kind with
            | Some k -> k
            | None -> bad "unknown input kind %S" kind
          in
          (int_tok "input" id, int_tok "input" value, kind)
        | _ -> bad "expected \"input\" record")
  in
  let n_cov = expect_counted r "coverage" in
  let sn_coverage =
    List.init n_cov (fun _ -> cover_of_tokens "cover" (tokens (next "cover")))
  in
  let n_stats = expect_counted r "stats" in
  let sn_stats =
    List.init n_stats (fun _ ->
        match tokens (next "stat") with
        | [ "stat"; k; v ] -> (unescape "stat" k, int_tok "stat" v)
        | _ -> bad "expected \"stat\" record")
  in
  let n_bugs = expect_counted r "bugs" in
  let sn_bugs = List.init n_bugs (fun _ -> bug_of_tokens (tokens (next "bug"))) in
  { Driver.sn_pending_restart;
    sn_stack;
    sn_im;
    sn_rng;
    sn_runs;
    sn_restarts;
    sn_total_steps;
    sn_paths;
    sn_resource_limited;
    sn_all_linear;
    sn_all_locs_definite;
    sn_coverage;
    sn_stats;
    sn_bugs }

let to_string ~meta s = frame Search ~meta [ snapshot_block s ]

let one_snapshot = function
  | [ s ] -> Ok s
  | l -> Error (Printf.sprintf "a single-run checkpoint holds 1 record, not %d" (List.length l))

let of_string text =
  match parse ~salvage:false Search decode_snapshot text with
  | Error _ as e -> e
  | Ok p -> Result.map (fun s -> (p.meta, s)) (one_snapshot p.records)

let save ~path ~options snapshot =
  Dart_util.Fileio.write_atomic path (to_string ~meta:(meta_line options) snapshot)

let load ~path ~options =
  Result.bind
    (load_framed Search ~meta:(meta_line options) decode_snapshot ~path)
    one_snapshot
