(* Checkpoint files: a line-based, versioned text codec for
   Driver.snapshot. See checkpoint.mli for the contract. The format is
   deliberately boring — one space-separated record per line, strings
   percent-escaped — so a checkpoint survives inspection with a pager
   and diffs meaningfully in CI artifacts. *)

let magic = "dart-checkpoint"
let version = 3

type meta = {
  m_seed : int;
  m_depth : int;
  m_max_runs : int;
  m_strategy : Strategy.t;
  m_incremental : bool;
}

module O = Driver.Options

let meta_of_options (options : Driver.options) =
  { m_seed = options.O.search.O.seed;
    m_depth = options.O.search.O.depth;
    m_max_runs = options.O.budget.O.max_runs;
    m_strategy = options.O.search.O.strategy;
    m_incremental = options.O.accel.O.use_incremental }

let check_meta ~expected ~found =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let onoff b = if b then "on" else "off" in
  if found.m_seed <> expected.m_seed then
    fail "checkpoint was taken with --seed %d, not %d" found.m_seed expected.m_seed
  else if found.m_depth <> expected.m_depth then
    fail "checkpoint was taken with --depth %d, not %d" found.m_depth expected.m_depth
  else if found.m_strategy <> expected.m_strategy then
    fail "checkpoint was taken with --strategy %s, not %s"
      (Strategy.to_string found.m_strategy)
      (Strategy.to_string expected.m_strategy)
  else if found.m_incremental <> expected.m_incremental then
    fail "checkpoint was taken with incremental solving %s, not %s"
      (onoff found.m_incremental)
      (onoff expected.m_incremental)
  else Ok ()

(* ---- line-record codec, shared with Campaign ---------------------------------- *)

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

exception Bad of string

let unescape what s =
  let bad msg = raise (Bad (Printf.sprintf "%s in %s" msg what)) in
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    (match s.[!i] with
     | '%' ->
       if !i + 2 >= n then bad "truncated %-escape";
       (match int_of_string_opt ("0x" ^ String.sub s (!i + 1) 2) with
        | Some code -> Buffer.add_char buf (Char.chr (code land 0xff))
        | None -> bad "bad %-escape");
       i := !i + 2
     | c -> Buffer.add_char buf c);
    incr i
  done;
  Buffer.contents buf

let bool_tag b = if b then "1" else "0"

type reader = { mutable lines : string list; block : Buffer.t }

let reader text =
  { lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' text);
    block = Buffer.create 256 }

let next r what =
  match r.lines with
  | [] -> raise (Bad (Printf.sprintf "unexpected end of file, wanted %s" what))
  | l :: rest ->
    r.lines <- rest;
    Buffer.add_string r.block l;
    Buffer.add_char r.block '\n';
    l

let mark r = Buffer.clear r.block
let since_mark r = Buffer.contents r.block
let tokens l = String.split_on_char ' ' l

let int_tok what t =
  match int_of_string_opt t with
  | Some v -> v
  | None -> raise (Bad (Printf.sprintf "bad integer in %s: %S" what t))

let bool_tok what = function
  | "0" -> false
  | "1" -> true
  | t -> raise (Bad (Printf.sprintf "bad boolean in %s: %S" what t))

let expect_counted r what =
  match tokens (next r what) with
  | [ tag; count ] when tag = what -> int_tok what count
  | _ -> raise (Bad (Printf.sprintf "expected %S record" what))

let cover_record tag (fn, pc, dir) =
  Printf.sprintf "%s %s %d %s" tag (escape fn) pc (bool_tag dir)

let cover_of_tokens tag = function
  | [ t; fn; pc; dir ] when t = tag -> (unescape tag fn, int_tok tag pc, bool_tok tag dir)
  | _ -> raise (Bad (Printf.sprintf "expected %S record" tag))

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
      | None -> raise (Bad (Printf.sprintf "unknown fault %S" fault))
    in
    let n_inputs = int_tok "bug" n_inputs in
    if List.length inputs <> n_inputs then raise (Bad "bug input count mismatch");
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
            | _ -> raise (Bad (Printf.sprintf "bad bug input %S" e)))
          inputs }
  | _ -> raise (Bad "expected \"bug\" record")

(* ---- single-search checkpoints ------------------------------------------------- *)

let to_string (meta : meta) (s : Driver.snapshot) =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  line "%s v%d" magic version;
  line "meta seed=%d depth=%d max_runs=%d strategy=%s incremental=%s"
    meta.m_seed meta.m_depth meta.m_max_runs
    (Strategy.to_string meta.m_strategy)
    (bool_tag meta.m_incremental);
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
  line "end";
  Buffer.contents buf

let of_string text =
  let r = reader text in
  let next = next r in
  (* "k=v" fields in a fixed order, as written by [to_string]. *)
  let kv what key t =
    match String.index_opt t '=' with
    | Some i when String.sub t 0 i = key ->
      String.sub t (i + 1) (String.length t - i - 1)
    | _ -> raise (Bad (Printf.sprintf "expected %s=... in %s, got %S" key what t))
  in
  let expect_counted = expect_counted r in
  try
    (match tokens (next "magic") with
     | [ m; v ] when m = magic ->
       if v <> Printf.sprintf "v%d" version then
         raise (Bad (Printf.sprintf "unsupported checkpoint version %s (this build reads v%d)" v version))
     | m :: _ when m = "dart-campaign" ->
       (* The sibling format: campaigns checkpoint finished targets, not
          one search's snapshot. Point the caller at the right door. *)
       raise (Bad "this is a campaign checkpoint; resume it with `dartc campaign --resume`")
     | _ -> raise (Bad "not a dart checkpoint file"));
    let meta =
      match tokens (next "meta") with
      | [ "meta"; seed; depth; max_runs; strategy; incremental ] ->
        let strategy_name = kv "meta" "strategy" strategy in
        let m_strategy =
          match Strategy.of_string strategy_name with
          | Some s -> s
          | None -> raise (Bad (Printf.sprintf "unknown strategy %S" strategy_name))
        in
        { m_seed = int_tok "meta" (kv "meta" "seed" seed);
          m_depth = int_tok "meta" (kv "meta" "depth" depth);
          m_max_runs = int_tok "meta" (kv "meta" "max_runs" max_runs);
          m_strategy;
          m_incremental = bool_tok "meta" (kv "meta" "incremental" incremental) }
      | _ -> raise (Bad "expected \"meta\" record")
    in
    let sn_pending_restart =
      match tokens (next "pending_restart") with
      | [ "pending_restart"; b ] -> bool_tok "pending_restart" b
      | _ -> raise (Bad "expected \"pending_restart\" record")
    in
    let sn_rng =
      match tokens (next "rng") with
      | [ "rng"; v ] ->
        (match Int64.of_string_opt v with
         | Some v -> v
         | None -> raise (Bad "bad rng state"))
      | _ -> raise (Bad "expected \"rng\" record")
    in
    let sn_runs, sn_restarts, sn_total_steps, sn_paths, sn_resource_limited =
      match tokens (next "counters") with
      | [ "counters"; a; b; c; d; e ] ->
        ( int_tok "counters" (kv "counters" "runs" a),
          int_tok "counters" (kv "counters" "restarts" b),
          int_tok "counters" (kv "counters" "total_steps" c),
          int_tok "counters" (kv "counters" "paths" d),
          int_tok "counters" (kv "counters" "resource_limited" e) )
      | _ -> raise (Bad "expected \"counters\" record")
    in
    let sn_all_linear, sn_all_locs_definite =
      match tokens (next "flags") with
      | [ "flags"; a; b ] ->
        ( bool_tok "flags" (kv "flags" "all_linear" a),
          bool_tok "flags" (kv "flags" "all_locs_definite" b) )
      | _ -> raise (Bad "expected \"flags\" record")
    in
    let sn_stack =
      match tokens (next "stack") with
      | "stack" :: count :: entries ->
        let count = int_tok "stack" count in
        if List.length entries <> count then raise (Bad "stack length mismatch");
        Array.of_list
          (List.map
             (fun e ->
               match String.split_on_char ':' e with
               | [ branch; don ] ->
                 { Concolic.br_branch = bool_tok "stack" branch;
                   br_done = bool_tok "stack" don }
               | _ -> raise (Bad (Printf.sprintf "bad stack entry %S" e)))
             entries)
      | _ -> raise (Bad "expected \"stack\" record")
    in
    let n_im = expect_counted "im" in
    let sn_im =
      List.init n_im (fun _ ->
          match tokens (next "input") with
          | [ "input"; id; value; kind ] ->
            let kind =
              match Inputs.kind_of_tag kind with
              | Some k -> k
              | None -> raise (Bad (Printf.sprintf "unknown input kind %S" kind))
            in
            (int_tok "input" id, int_tok "input" value, kind)
          | _ -> raise (Bad "expected \"input\" record"))
    in
    let n_cov = expect_counted "coverage" in
    let sn_coverage =
      List.init n_cov (fun _ -> cover_of_tokens "cover" (tokens (next "cover")))
    in
    let n_stats = expect_counted "stats" in
    let sn_stats =
      List.init n_stats (fun _ ->
          match tokens (next "stat") with
          | [ "stat"; k; v ] -> (unescape "stat" k, int_tok "stat" v)
          | _ -> raise (Bad "expected \"stat\" record"))
    in
    let n_bugs = expect_counted "bugs" in
    let sn_bugs =
      List.init n_bugs (fun _ -> bug_of_tokens (tokens (next "bug")))
    in
    (match tokens (next "end") with
     | [ "end" ] -> ()
     | _ -> raise (Bad "expected \"end\" record"));
    Ok
      ( meta,
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
          sn_bugs } )
  with Bad msg -> Error msg

let save ~path ~meta snapshot =
  Dart_util.Fileio.write_atomic path (to_string meta snapshot)

let load ~path =
  match Dart_util.Fileio.read_all path with
  | exception Sys_error msg -> Error msg
  | text -> of_string text
