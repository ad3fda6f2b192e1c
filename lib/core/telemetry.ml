(* Structured tracing and phase metrics. See telemetry.mli for the
   contract; the only subtlety here is that the null sink must keep the
   disabled path allocation-free, which is why every instrumentation
   point in the search guards event construction behind [enabled]. *)

type phase =
  | Execute
  | Solve
  | Lower
  | Merge

let phases = [ Execute; Solve; Lower; Merge ]

let phase_to_string = function
  | Execute -> "execute"
  | Solve -> "solve"
  | Lower -> "lower"
  | Merge -> "merge"

let phase_of_string = function
  | "execute" -> Some Execute
  | "solve" -> Some Solve
  | "lower" -> Some Lower
  | "merge" -> Some Merge
  | _ -> None

type solve_result =
  | R_sat
  | R_unsat
  | R_unknown

let solve_result_to_string = function
  | R_sat -> "sat"
  | R_unsat -> "unsat"
  | R_unknown -> "unknown"

let solve_result_of_string = function
  | "sat" -> Some R_sat
  | "unsat" -> Some R_unsat
  | "unknown" -> Some R_unknown
  | _ -> None

type event =
  | Run_start of { run : int }
  | Run_end of { run : int; outcome : string; steps : int; dur_ns : int64 }
  | Branch_taken of { fn : string; pc : int; dir : bool }
  | Solve_query of {
      fn : string;
      pc : int;
      result : solve_result;
      dur_ns : int64;
      cache_hit : bool;
      sliced : int;
    }
  | Input_update of { id : int; value : int }
  | Restart of { restarts : int }
  | Bug_found of { fn : string; pc : int; fault : string; run : int }
  | Worker_spawn of { worker : int; seed : int }
  | Worker_drain of { worker : int; runs : int }
  | Worker_crash of { worker : int; reason : string; respawned : bool }
  | Checkpoint_saved of { run : int }
  | Phase_total of { phase : phase; dur_ns : int64 }
  | Cover_point of { run : int; covered : int; elapsed_ns : int64 }
  | Target_scheduled of { target : string; round : int }
  | Slice_end of {
      target : string;
      round : int;
      outcome : string;
      runs : int;
      dur_ns : int64;
    }
  | Target_retired of { target : string; reason : string }
  | Round_end of { round : int; active : int; dur_ns : int64 }
  | Breaker_open of { fn : string; pc : int }
  | Breaker_close of { fn : string; pc : int }

(* Branch sites that belong to the harness rather than the program
   under test: the synthesized [__dart_*] driver functions and the
   synthetic [__coin] sites of symbolic pointer shapes. Both are
   excluded from [Coverage.compute] and [branches_covered], so trace
   summaries must count them apart to agree with the report. *)
let is_harness_site = Driver_gen.is_harness_site

(* ---- monotonic clock -------------------------------------------------------- *)

let now () = Monotonic_clock.now ()

(* ---- latency histograms ------------------------------------------------------- *)

module Hist = struct
  (* Log2-bucketed duration histogram: bucket [b] holds samples whose
     nanosecond duration lies in [2^b, 2^(b+1)) (bucket 0 additionally
     absorbs 0ns and 1ns). 63 buckets cover the whole non-negative
     Int64 range, so [add] never has to range-check twice. *)

  let nbuckets = 63

  type t = {
    mutable h_count : int;
    mutable h_sum_ns : int64;
    mutable h_max_ns : int64;
    h_buckets : int array;
  }

  let create () =
    { h_count = 0; h_sum_ns = 0L; h_max_ns = 0L; h_buckets = Array.make nbuckets 0 }

  let bucket_of_ns ns =
    if Int64.compare ns 2L < 0 then 0
    else begin
      let b = ref 0 in
      let v = ref ns in
      while Int64.compare !v 1L > 0 do
        incr b;
        v := Int64.shift_right_logical !v 1
      done;
      min !b (nbuckets - 1)
    end

  (* [lo, hi): the half-open nanosecond range of a bucket. *)
  let bucket_bounds b =
    if b < 0 || b >= nbuckets then invalid_arg "Telemetry.Hist.bucket_bounds";
    if b = 0 then (0L, 2L) else (Int64.shift_left 1L b, Int64.shift_left 1L (b + 1))

  let add t ns =
    let ns = if Int64.compare ns 0L < 0 then 0L else ns in
    t.h_count <- t.h_count + 1;
    t.h_sum_ns <- Int64.add t.h_sum_ns ns;
    if Int64.compare ns t.h_max_ns > 0 then t.h_max_ns <- ns;
    let b = bucket_of_ns ns in
    t.h_buckets.(b) <- t.h_buckets.(b) + 1

  let count t = t.h_count
  let sum_ns t = t.h_sum_ns
  let max_ns t = t.h_max_ns

  let mean_ns t =
    if t.h_count = 0 then 0L else Int64.div t.h_sum_ns (Int64.of_int t.h_count)

  (* Bucketwise addition: commutative and associative, so merging
     worker histograms in any order yields identical counts — the
     property the jobs=1 vs jobs=N determinism tests rely on. *)
  let merge ~into src =
    into.h_count <- into.h_count + src.h_count;
    into.h_sum_ns <- Int64.add into.h_sum_ns src.h_sum_ns;
    if Int64.compare src.h_max_ns into.h_max_ns > 0 then into.h_max_ns <- src.h_max_ns;
    Array.iteri (fun i c -> into.h_buckets.(i) <- into.h_buckets.(i) + c) src.h_buckets

  (* Upper bound of the first bucket whose cumulative count reaches
     [p] percent of the samples, clamped to the observed maximum so the
     reported value is a tight "p% of samples took at most this long".
     Deterministic given the bucket counts. *)
  let percentile t p =
    if t.h_count = 0 then 0L
    else begin
      let p = if p < 0.0 then 0.0 else if p > 100.0 then 100.0 else p in
      let need =
        max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int t.h_count)))
      in
      let rec go b acc =
        if b >= nbuckets then t.h_max_ns
        else begin
          let acc = acc + t.h_buckets.(b) in
          if acc >= need then begin
            let _, hi = bucket_bounds b in
            let v = Int64.sub hi 1L in
            if Int64.compare v t.h_max_ns > 0 then t.h_max_ns else v
          end
          else go (b + 1) acc
        end
      in
      go 0 0
    end

  let p50 t = percentile t 50.0
  let p90 t = percentile t 90.0
  let p99 t = percentile t 99.0

  (* Non-empty buckets as [(lo, hi, count)], ascending. *)
  let buckets t =
    let acc = ref [] in
    for b = nbuckets - 1 downto 0 do
      if t.h_buckets.(b) > 0 then begin
        let lo, hi = bucket_bounds b in
        acc := (lo, hi, t.h_buckets.(b)) :: !acc
      end
    done;
    !acc
end

(* Compact human rendering of a nanosecond duration, used by status
   views and the profiler (not by any byte-diffed default output). *)
let ns_to_string ns =
  let f = Int64.to_float ns in
  if f < 1e3 then Printf.sprintf "%.0fns" f
  else if f < 1e6 then Printf.sprintf "%.1fus" (f /. 1e3)
  else if f < 1e9 then Printf.sprintf "%.2fms" (f /. 1e6)
  else Printf.sprintf "%.2fs" (f /. 1e9)

(* ---- JSONL codec ------------------------------------------------------------- *)

let add_json_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 32 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let json_string s =
  let buf = Buffer.create (String.length s + 2) in
  add_json_string buf s;
  Buffer.contents buf

type jval =
  | Jstr of string
  | Jint of int64
  | Jbool of bool

let flat_to_json fields =
  let buf = Buffer.create 96 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      add_json_string buf k;
      Buffer.add_char buf ':';
      match v with
      | Jstr s -> add_json_string buf s
      | Jint n -> Buffer.add_string buf (Int64.to_string n)
      | Jbool b -> Buffer.add_string buf (if b then "true" else "false"))
    fields;
  Buffer.add_char buf '}';
  Buffer.contents buf

let event_to_json ev =
  let str k v = (k, Jstr v) in
  let int k v = (k, Jint (Int64.of_int v)) in
  let i64 k v = (k, Jint v) in
  let bool k v = (k, Jbool v) in
  let tag, fields =
    match ev with
    | Run_start { run } -> ("run_start", [ int "run" run ])
    | Run_end { run; outcome; steps; dur_ns } ->
      ("run_end", [ int "run" run; str "outcome" outcome; int "steps" steps; i64 "ns" dur_ns ])
    | Branch_taken { fn; pc; dir } -> ("branch", [ str "fn" fn; int "pc" pc; bool "dir" dir ])
    | Solve_query { fn; pc; result; dur_ns; cache_hit; sliced } ->
      ( "solve",
        [ str "fn" fn;
          int "pc" pc;
          str "result" (solve_result_to_string result);
          i64 "ns" dur_ns;
          bool "cache_hit" cache_hit;
          int "sliced" sliced ] )
    | Input_update { id; value } -> ("input", [ int "id" id; int "value" value ])
    | Restart { restarts } -> ("restart", [ int "restarts" restarts ])
    | Bug_found { fn; pc; fault; run } ->
      ("bug", [ str "fn" fn; int "pc" pc; str "fault" fault; int "run" run ])
    | Worker_spawn { worker; seed } -> ("worker_spawn", [ int "worker" worker; int "seed" seed ])
    | Worker_drain { worker; runs } -> ("worker_drain", [ int "worker" worker; int "runs" runs ])
    | Worker_crash { worker; reason; respawned } ->
      ( "worker_crash",
        [ int "worker" worker; str "reason" reason; bool "respawned" respawned ] )
    | Checkpoint_saved { run } -> ("checkpoint", [ int "run" run ])
    | Phase_total { phase; dur_ns } ->
      ("phase", [ str "phase" (phase_to_string phase); i64 "ns" dur_ns ])
    | Cover_point { run; covered; elapsed_ns } ->
      ("cover", [ int "run" run; int "covered" covered; i64 "ns" elapsed_ns ])
    | Target_scheduled { target; round } ->
      ("target_scheduled", [ str "target" target; int "round" round ])
    | Slice_end { target; round; outcome; runs; dur_ns } ->
      ( "slice_end",
        [ str "target" target;
          int "round" round;
          str "outcome" outcome;
          int "runs" runs;
          i64 "ns" dur_ns ] )
    | Target_retired { target; reason } ->
      ("target_retired", [ str "target" target; str "reason" reason ])
    | Round_end { round; active; dur_ns } ->
      ("round_end", [ int "round" round; int "active" active; i64 "ns" dur_ns ])
    | Breaker_open { fn; pc } -> ("breaker_open", [ str "fn" fn; int "pc" pc ])
    | Breaker_close { fn; pc } -> ("breaker_close", [ str "fn" fn; int "pc" pc ])
  in
  flat_to_json (str "ev" tag :: fields)

(* Minimal parser for the flat objects [flat_to_json] writes: string,
   integer and boolean values only, no nesting. *)

exception Bad of string

let hex_value s =
  if s = "" then None
  else
    String.fold_left
      (fun acc c ->
        match acc with
        | None -> None
        | Some n ->
          (match c with
           | '0' .. '9' -> Some ((n * 16) + Char.code c - Char.code '0')
           | 'a' .. 'f' -> Some ((n * 16) + Char.code c - Char.code 'a' + 10)
           | 'A' .. 'F' -> Some ((n * 16) + Char.code c - Char.code 'A' + 10)
           | _ -> None))
      (Some 0) s

let parse_flat_object s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t' || s.[!pos] = '\r') do
      advance ()
    done
  in
  let expect c =
    skip_ws ();
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> raise (Bad (Printf.sprintf "expected %C at offset %d" c !pos))
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then raise (Bad "unterminated string")
      else begin
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' ->
          (if !pos >= n then raise (Bad "unterminated escape");
           let e = s.[!pos] in
           advance ();
           match e with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | '/' -> Buffer.add_char buf '/'
           | 'n' -> Buffer.add_char buf '\n'
           | 't' -> Buffer.add_char buf '\t'
           | 'r' -> Buffer.add_char buf '\r'
           | 'u' ->
             if !pos + 4 > n then raise (Bad "truncated \\u escape");
             let hex = String.sub s !pos 4 in
             pos := !pos + 4;
             (match hex_value hex with
              | Some code when code < 256 -> Buffer.add_char buf (Char.chr code)
              | Some _ -> Buffer.add_char buf '?'
              | None -> raise (Bad "bad \\u escape"))
           | _ -> raise (Bad (Printf.sprintf "bad escape \\%c" e)));
          go ()
        | c ->
          Buffer.add_char buf c;
          go ()
      end
    in
    go ()
  in
  let parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Jstr (parse_string ())
    | Some 't' ->
      if !pos + 4 <= n && String.sub s !pos 4 = "true" then begin
        pos := !pos + 4;
        Jbool true
      end
      else raise (Bad "bad literal")
    | Some 'f' ->
      if !pos + 5 <= n && String.sub s !pos 5 = "false" then begin
        pos := !pos + 5;
        Jbool false
      end
      else raise (Bad "bad literal")
    | Some ('-' | '0' .. '9') ->
      let start = !pos in
      if peek () = Some '-' then advance ();
      while !pos < n && s.[!pos] >= '0' && s.[!pos] <= '9' do
        advance ()
      done;
      (match Int64.of_string_opt (String.sub s start (!pos - start)) with
       | Some v -> Jint v
       | None -> raise (Bad "bad integer"))
    | _ -> raise (Bad (Printf.sprintf "unexpected value at offset %d" !pos))
  in
  expect '{';
  let fields = ref [] in
  skip_ws ();
  if peek () = Some '}' then advance ()
  else begin
    let rec members () =
      skip_ws ();
      let k = parse_string () in
      expect ':';
      let v = parse_value () in
      fields := (k, v) :: !fields;
      skip_ws ();
      match peek () with
      | Some ',' ->
        advance ();
        members ()
      | Some '}' -> advance ()
      | _ -> raise (Bad "expected ',' or '}'")
    in
    members ()
  end;
  skip_ws ();
  if !pos <> n then raise (Bad "trailing garbage after object");
  List.rev !fields

let event_of_json line =
  try
    let fields = parse_flat_object line in
    let str k =
      match List.assoc_opt k fields with
      | Some (Jstr s) -> s
      | _ -> raise (Bad (Printf.sprintf "missing string field %S" k))
    in
    let i64 k =
      match List.assoc_opt k fields with
      | Some (Jint v) -> v
      | _ -> raise (Bad (Printf.sprintf "missing integer field %S" k))
    in
    let int k = Int64.to_int (i64 k) in
    let bool k =
      match List.assoc_opt k fields with
      | Some (Jbool b) -> b
      | _ -> raise (Bad (Printf.sprintf "missing boolean field %S" k))
    in
    let ev =
      match str "ev" with
      | "run_start" -> Run_start { run = int "run" }
      | "run_end" ->
        Run_end
          { run = int "run"; outcome = str "outcome"; steps = int "steps"; dur_ns = i64 "ns" }
      | "branch" -> Branch_taken { fn = str "fn"; pc = int "pc"; dir = bool "dir" }
      | "solve" ->
        let result =
          match solve_result_of_string (str "result") with
          | Some r -> r
          | None -> raise (Bad "bad solve result")
        in
        Solve_query
          { fn = str "fn";
            pc = int "pc";
            result;
            dur_ns = i64 "ns";
            cache_hit = bool "cache_hit";
            sliced = int "sliced" }
      | "input" -> Input_update { id = int "id"; value = int "value" }
      | "restart" -> Restart { restarts = int "restarts" }
      | "bug" ->
        Bug_found { fn = str "fn"; pc = int "pc"; fault = str "fault"; run = int "run" }
      | "worker_spawn" -> Worker_spawn { worker = int "worker"; seed = int "seed" }
      | "worker_drain" -> Worker_drain { worker = int "worker"; runs = int "runs" }
      | "worker_crash" ->
        Worker_crash
          { worker = int "worker"; reason = str "reason"; respawned = bool "respawned" }
      | "checkpoint" -> Checkpoint_saved { run = int "run" }
      | "phase" ->
        let phase =
          match phase_of_string (str "phase") with
          | Some p -> p
          | None -> raise (Bad "bad phase name")
        in
        Phase_total { phase; dur_ns = i64 "ns" }
      | "cover" ->
        Cover_point { run = int "run"; covered = int "covered"; elapsed_ns = i64 "ns" }
      | "target_scheduled" ->
        Target_scheduled { target = str "target"; round = int "round" }
      | "slice_end" ->
        Slice_end
          { target = str "target";
            round = int "round";
            outcome = str "outcome";
            runs = int "runs";
            dur_ns = i64 "ns" }
      | "target_retired" -> Target_retired { target = str "target"; reason = str "reason" }
      | "round_end" ->
        Round_end { round = int "round"; active = int "active"; dur_ns = i64 "ns" }
      | "breaker_open" -> Breaker_open { fn = str "fn"; pc = int "pc" }
      | "breaker_close" -> Breaker_close { fn = str "fn"; pc = int "pc" }
      | other -> raise (Bad (Printf.sprintf "unknown event kind %S" other))
    in
    Ok ev
  with Bad msg -> Error msg

(* ---- sinks -------------------------------------------------------------------- *)

type ring_state = {
  cap : int;
  mutable arr : event array; (* allocated lazily on the first emit *)
  mutable next : int; (* next write slot *)
  mutable len : int; (* filled slots, <= cap *)
  mutable total : int;
  mutable lost : int; (* events overwritten after the ring filled *)
}

type sink =
  | Null
  | Ring of ring_state
  | Jsonl of { oc : out_channel; mutable written : int }

let null = Null

let ring ~capacity =
  if capacity < 1 then invalid_arg "Telemetry.ring: capacity < 1";
  Ring { cap = capacity; arr = [||]; next = 0; len = 0; total = 0; lost = 0 }

let jsonl oc = Jsonl { oc; written = 0 }

let enabled = function
  | Null -> false
  | Ring _ | Jsonl _ -> true

let emit sink ev =
  match sink with
  | Null -> ()
  | Ring r ->
    if Array.length r.arr = 0 then r.arr <- Array.make r.cap ev;
    r.arr.(r.next) <- ev;
    r.next <- (r.next + 1) mod r.cap;
    if r.len < r.cap then r.len <- r.len + 1 else r.lost <- r.lost + 1;
    r.total <- r.total + 1
  | Jsonl j ->
    output_string j.oc (event_to_json ev);
    output_char j.oc '\n';
    j.written <- j.written + 1

let emitted = function
  | Null -> 0
  | Ring r -> r.total
  | Jsonl j -> j.written

let dropped = function
  | Null | Jsonl _ -> 0
  | Ring r -> r.lost

let events = function
  | Null | Jsonl _ -> []
  | Ring r ->
    List.init r.len (fun i ->
        (* Oldest event first: when the ring has wrapped, the oldest
           slot is the next write position. *)
        let start = if r.len < r.cap then 0 else r.next in
        r.arr.((start + i) mod r.cap))

let replay src ~into = List.iter (emit into) (events src)

let flush = function
  | Null | Ring _ -> ()
  | Jsonl j -> Stdlib.flush j.oc

(* ---- phase metrics ------------------------------------------------------------- *)

type metrics = {
  mutable execute_ns : int64;
  mutable solve_ns : int64;
  mutable lower_ns : int64;
  mutable merge_ns : int64;
  solve_hist : Hist.t; (* per-query solve latency, cache hits included *)
  run_hist : Hist.t; (* per-run execution latency *)
}

let create_metrics () =
  { execute_ns = 0L;
    solve_ns = 0L;
    lower_ns = 0L;
    merge_ns = 0L;
    solve_hist = Hist.create ();
    run_hist = Hist.create () }

let phase_ns m = function
  | Execute -> m.execute_ns
  | Solve -> m.solve_ns
  | Lower -> m.lower_ns
  | Merge -> m.merge_ns

let add_phase m phase ns =
  match phase with
  | Execute -> m.execute_ns <- Int64.add m.execute_ns ns
  | Solve -> m.solve_ns <- Int64.add m.solve_ns ns
  | Lower -> m.lower_ns <- Int64.add m.lower_ns ns
  | Merge -> m.merge_ns <- Int64.add m.merge_ns ns

let add_metrics ~into m =
  List.iter (fun p -> add_phase into p (phase_ns m p)) phases;
  Hist.merge ~into:into.solve_hist m.solve_hist;
  Hist.merge ~into:into.run_hist m.run_hist

let total_ns m =
  List.fold_left (fun acc p -> Int64.add acc (phase_ns m p)) 0L phases

let timed m phase f =
  let t0 = now () in
  let r = f () in
  add_phase m phase (Int64.sub (now ()) t0);
  r

let seconds ns = Int64.to_float ns /. 1e9

let metrics_to_assoc m =
  List.map (fun p -> (phase_to_string p ^ "_s", seconds (phase_ns m p))) phases
  @ [ ("total_s", seconds (total_ns m)) ]

let metrics_to_string m =
  Printf.sprintf
    "phase timings: execute %.3fs  solve %.3fs  lower %.3fs  merge %.3fs  (total %.3fs)"
    (seconds m.execute_ns) (seconds m.solve_ns) (seconds m.lower_ns) (seconds m.merge_ns)
    (seconds (total_ns m))

let emit_phase_totals sink m =
  List.iter (fun p -> emit sink (Phase_total { phase = p; dur_ns = phase_ns m p })) phases

let hist_line name h =
  Printf.sprintf "%s latency: p50 <=%s  p90 <=%s  p99 <=%s  max %s  (%d samples)" name
    (ns_to_string (Hist.p50 h))
    (ns_to_string (Hist.p90 h))
    (ns_to_string (Hist.p99 h))
    (ns_to_string (Hist.max_ns h))
    (Hist.count h)

let latency_to_string m =
  hist_line "solve" m.solve_hist ^ "\n" ^ hist_line "run" m.run_hist

(* ---- trace summaries ------------------------------------------------------------ *)

type site_agg = {
  s_count : int;
  s_sat : int;
  s_unsat : int;
  s_unknown : int;
  s_hits : int;
  s_sliced : int;
  s_ns : int64;
}

type target_row = {
  tg_name : string;
  tg_slices : int;
  tg_runs : int;
  tg_ns : int64;
  tg_retired : string option;
}

type summary = {
  total_events : int;
  runs : int;
  branches : int;
  driver_branches : int;
  solves : int;
  solve_hits : int;
  solve_sat : int;
  solve_unsat : int;
  solve_unknown : int;
  inputs_updated : int;
  restarts : int;
  bugs : int;
  workers : int;
  crashes : int;
  phase_ns : (phase * int64) list;
  run_hist : Hist.t;
  solve_hist : Hist.t;
  sites : ((string * int) * site_agg) list;
  targets : target_row list;
  rounds : int;
  timeline : cover_point list;
  covered : (string * int * bool) list;
}

and cover_point = {
  cp_run : int;
  cp_covered : int;
  cp_ns : int64;
}

let empty_agg =
  { s_count = 0; s_sat = 0; s_unsat = 0; s_unknown = 0; s_hits = 0; s_sliced = 0; s_ns = 0L }

let summarize evs =
  let runs = ref 0 and branches = ref 0 and solves = ref 0 and hits = ref 0 in
  let driver_branches = ref 0 in
  let sat = ref 0 and unsat = ref 0 and unknown = ref 0 in
  let inputs = ref 0 and restarts = ref 0 and bugs = ref 0 and workers = ref 0 in
  let crashes = ref 0 and rounds = ref 0 in
  let run_hist = Hist.create () and solve_hist = Hist.create () in
  let phase_tbl : (phase, int64) Hashtbl.t = Hashtbl.create 4 in
  let site_tbl : (string * int, site_agg) Hashtbl.t = Hashtbl.create 32 in
  (* Targets keep their first-seen index so equal-time rows sort in
     trace order. *)
  let target_tbl : (string, int * target_row) Hashtbl.t = Hashtbl.create 32 in
  let update_target name f =
    let index, row =
      match Hashtbl.find_opt target_tbl name with
      | Some entry -> entry
      | None ->
        ( Hashtbl.length target_tbl,
          { tg_name = name; tg_slices = 0; tg_runs = 0; tg_ns = 0L; tg_retired = None } )
    in
    Hashtbl.replace target_tbl name (index, f row)
  in
  let covered : (string * int * bool, unit) Hashtbl.t = Hashtbl.create 32 in
  let points = ref [] in
  let count = ref 0 in
  List.iter
    (fun ev ->
      incr count;
      match ev with
      | Run_start _ -> incr runs
      | Run_end { dur_ns; _ } -> Hist.add run_hist dur_ns
      | Branch_taken { fn; pc; dir } ->
        if is_harness_site fn then incr driver_branches
        else begin
          incr branches;
          Hashtbl.replace covered (fn, pc, dir) ()
        end
      | Solve_query { fn; pc; result; dur_ns; cache_hit; sliced } ->
        incr solves;
        if cache_hit then incr hits;
        (match result with
         | R_sat -> incr sat
         | R_unsat -> incr unsat
         | R_unknown -> incr unknown);
        Hist.add solve_hist dur_ns;
        let prev = Option.value ~default:empty_agg (Hashtbl.find_opt site_tbl (fn, pc)) in
        Hashtbl.replace site_tbl (fn, pc)
          { s_count = prev.s_count + 1;
            s_sat = (prev.s_sat + if result = R_sat then 1 else 0);
            s_unsat = (prev.s_unsat + if result = R_unsat then 1 else 0);
            s_unknown = (prev.s_unknown + if result = R_unknown then 1 else 0);
            s_hits = (prev.s_hits + if cache_hit then 1 else 0);
            s_sliced = prev.s_sliced + sliced;
            s_ns = Int64.add prev.s_ns dur_ns }
      | Input_update _ -> incr inputs
      | Restart _ -> incr restarts
      | Bug_found _ -> incr bugs
      | Worker_spawn _ -> incr workers
      | Worker_drain _ -> ()
      | Worker_crash _ -> incr crashes
      | Checkpoint_saved _ -> ()
      | Phase_total { phase; dur_ns } ->
        let prev = Option.value ~default:0L (Hashtbl.find_opt phase_tbl phase) in
        Hashtbl.replace phase_tbl phase (Int64.add prev dur_ns)
      | Cover_point { run; covered; elapsed_ns } ->
        points := { cp_run = run; cp_covered = covered; cp_ns = elapsed_ns } :: !points
      | Target_scheduled _ -> ()
      | Slice_end { target; runs; dur_ns; _ } ->
        update_target target (fun t ->
            { t with
              tg_slices = t.tg_slices + 1;
              tg_runs = t.tg_runs + runs;
              tg_ns = Int64.add t.tg_ns dur_ns })
      | Target_retired { target; reason } ->
        update_target target (fun t -> { t with tg_retired = Some reason })
      | Round_end _ -> incr rounds
      | Breaker_open _ | Breaker_close _ ->
        (* Breaker transitions: surfaced via [Solver.stats], not here. *)
        ())
    evs;
  let phase_ns =
    List.map
      (fun p -> (p, Option.value ~default:0L (Hashtbl.find_opt phase_tbl p)))
      phases
  in
  let sites =
    Hashtbl.fold (fun site agg acc -> (site, agg) :: acc) site_tbl []
    |> List.sort (fun (sa, a) (sb, b) ->
           match Int64.compare b.s_ns a.s_ns with 0 -> compare sa sb | c -> c)
  in
  let targets =
    Hashtbl.fold (fun _ entry acc -> entry :: acc) target_tbl []
    |> List.sort (fun (ia, a) (ib, b) ->
           match Int64.compare b.tg_ns a.tg_ns with 0 -> compare ia ib | c -> c)
    |> List.map snd
  in
  { total_events = !count;
    runs = !runs;
    branches = !branches;
    driver_branches = !driver_branches;
    solves = !solves;
    solve_hits = !hits;
    solve_sat = !sat;
    solve_unsat = !unsat;
    solve_unknown = !unknown;
    inputs_updated = !inputs;
    restarts = !restarts;
    bugs = !bugs;
    workers = !workers;
    crashes = !crashes;
    phase_ns;
    run_hist;
    solve_hist;
    sites;
    targets;
    rounds = !rounds;
    timeline = List.rev !points;
    covered = List.sort compare (Hashtbl.fold (fun site () acc -> site :: acc) covered []) }

(* ---- coverage-over-time views ------------------------------------------------- *)

let plateau s =
  match s.timeline with
  | [] -> None
  | points ->
    let last_run = ref 0 and last_gain = ref 0 and prev = ref 0 in
    List.iter
      (fun p ->
        last_run := p.cp_run;
        if p.cp_covered > !prev then last_gain := p.cp_run;
        prev := p.cp_covered)
      points;
    Some (!last_run, !last_run - !last_gain)

let frontier_sites s =
  List.filter_map
    (fun (site, status) ->
      if not (Coverage.is_frontier status) then None
      else
        let attempts =
          match List.assoc_opt site s.sites with
          | Some a -> a.s_count
          | None -> 0
        in
        (* The missing direction is the one not yet seen. *)
        Some (site, status = Coverage.Fall_only, attempts))
    (Coverage.sites (Coverage.directions s.covered))
  |> List.sort (fun (sa, _, a) (sb, _, b) ->
         match compare b a with 0 -> compare sa sb | c -> c)

let distinct_branch_dirs s = List.length s.covered

let summary_to_string s =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "trace: %d events (%d runs, %d branches + %d driver branches, %d solver queries, %d \
        inputs updated, %d restarts, %d bugs, %d workers)\n"
       s.total_events s.runs s.branches s.driver_branches s.solves s.inputs_updated
       s.restarts s.bugs s.workers);
  (* Crash count only appears when something actually crashed, keeping
     crash-free trace summaries byte-identical to earlier builds. *)
  if s.crashes > 0 then
    Buffer.add_string buf (Printf.sprintf "worker crashes: %d\n" s.crashes);
  Buffer.add_string buf
    (Printf.sprintf "solver: %d real queries + %d cache hits (%d sat, %d unsat, %d unknown)\n"
       (s.solves - s.solve_hits) s.solve_hits s.solve_sat s.solve_unsat s.solve_unknown);
  let total = List.fold_left (fun acc (_, ns) -> Int64.add acc ns) 0L s.phase_ns in
  Buffer.add_string buf "phases:\n";
  List.iter
    (fun (p, ns) ->
      let pct =
        if Int64.compare total 0L > 0 then
          100.0 *. Int64.to_float ns /. Int64.to_float total
        else 0.0
      in
      Buffer.add_string buf
        (Printf.sprintf "  %-8s %10.3fms  (%5.1f%%)\n" (phase_to_string p) (seconds ns *. 1e3)
           pct))
    s.phase_ns;
  Buffer.add_string buf
    (Printf.sprintf "per-run execution time (from run_end): %.3fms\n"
       (seconds (Hist.sum_ns s.run_hist) *. 1e3));
  if s.sites <> [] then begin
    Buffer.add_string buf "solve sites (by total solver time):\n";
    List.iter
      (fun ((fn, pc), a) ->
        Buffer.add_string buf
          (Printf.sprintf
             "  %-28s %5d queries (%d sat, %d unsat, %d unknown), %d hits, %d sliced, \
              %.3fms\n"
             (Printf.sprintf "%s:%d" fn pc)
             a.s_count a.s_sat a.s_unsat a.s_unknown a.s_hits a.s_sliced
             (seconds a.s_ns *. 1e3)))
      s.sites
  end;
  (match plateau s with
   | None -> ()
   | Some (last_run, stale) ->
     (* Directed (and parallel) traces carry Branch_taken events, whose
        distinct-direction count is the merged coverage; random-testing
        traces run uninstrumented and carry only the Cover_point curve,
        so fall back to its final sample there. *)
     let covered =
       if s.covered <> [] then distinct_branch_dirs s
       else match List.rev s.timeline with p :: _ -> p.cp_covered | [] -> 0
     in
     Buffer.add_string buf
       (Printf.sprintf
          "coverage: %d branch directions after %d runs (%d cover points); plateau: %d \
           runs since the last new direction\n"
          covered last_run (List.length s.timeline) stale));
  (match frontier_sites s with
   | [] -> ()
   | frontier ->
     Buffer.add_string buf "frontier sites (one direction missing, by solver attempts):\n";
     List.iter
       (fun ((fn, pc), missing_taken, attempts) ->
         Buffer.add_string buf
           (Printf.sprintf "  %-28s missing %s, %d solve attempts\n"
              (Printf.sprintf "%s:%d" fn pc)
              (if missing_taken then "taken-dir" else "fall-dir")
              attempts))
       frontier);
  Buffer.contents buf

(* ---- configuration --------------------------------------------------------------- *)

type config = {
  sink : sink;
  worker_buffer : int;
  status_path : string option;
  status_every : int;
}

let default_config =
  { sink = null; worker_buffer = 1 lsl 20; status_path = None; status_every = 100 }

let with_sink sink = { default_config with sink }

(* Re-exported flat-object parser so [Status] (and tests) can read the
   status-file schema without a second JSON parser. *)
let parse_flat line = try Ok (parse_flat_object line) with Bad msg -> Error msg
