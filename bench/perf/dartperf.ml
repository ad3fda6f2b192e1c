(* dartperf: the repository's performance benchmark.

     dartperf run [--seed S] [--smoke] [--out FILE]
         every workload, each in its own child process: end-to-end
         metrics (best of 3 repetitions), then a traced run for the
         per-layer metrics; exits non-zero if any check fails.
     dartperf bench --workload W [--seed S] [--seconds T] [--trace 0|1]
                    [--min-reps N] [--smoke] [--out FILE]
         one workload, repeated until T seconds have passed and at least
         N repetitions ran; the last line of stdout is one JSON object
         with the keys correct, attempted, failed and metrics.
     dartperf compare OLD NEW
         per (workload, metric) medians, quartiles and a verdict for two
         files of rows written with --out.

   Every string the harness writes is a name made of [A-Za-z0-9_.-], so
   its JSON needs no escaping. *)

let usage () =
  prerr_endline
    "usage: dartperf run [--seed S] [--smoke] [--out FILE]\n\
    \       dartperf bench --workload W [--seed S] [--seconds T] [--trace 0|1] [--min-reps N] \
     [--smoke] [--out FILE]\n\
    \       dartperf compare OLD NEW";
  exit 2

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable min_reps : int;
  mutable smoke : bool;
  mutable out : string option;
}

let parse args =
  let o =
    { workload = None; seed = Spec.default_seed; seconds = 0.; trace = false; min_reps = 3;
      smoke = false; out = None }
  in
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None ->
      Printf.eprintf "dartperf: %s expects an integer, got %s\n" flag v;
      usage ()
  in
  let rec go = function
    | [] -> o
    | "--smoke" :: rest ->
      o.smoke <- true;
      go rest
    | flag :: v :: rest ->
      (match flag with
       | "--workload" -> o.workload <- Some v
       | "--seed" -> o.seed <- int_arg flag v
       | "--seconds" -> o.seconds <- float_of_int (int_arg flag v)
       | "--trace" -> o.trace <- int_arg flag v <> 0
       | "--min-reps" -> o.min_reps <- max 1 (int_arg flag v)
       | "--out" -> o.out <- Some v
       | _ ->
         Printf.eprintf "dartperf: unexpected argument %s\n" flag;
         usage ());
      go rest
    | [ a ] ->
      Printf.eprintf "dartperf: unexpected argument %s\n" a;
      usage ()
  in
  go args

let print_row workload name value unit_ =
  Printf.printf "%-14s %-28s %16.6g %s\n%!" workload name value unit_

let append_rows path workload rows =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  List.iter (fun (name, v) -> Printf.fprintf oc "%s %s %.17g\n" workload name v) rows;
  close_out oc

let result_json (c : Work.checks) spec metrics =
  let metric (m : Spec.metric) =
    let v = List.assoc m.Spec.name metrics in
    Printf.sprintf "\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}" m.Spec.name v m.Spec.unit_
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (c.Work.failed = 0) c.Work.attempted c.Work.failed
    (String.concat ", " (List.map metric spec))

(* End-to-end metrics: untraced repetitions, each checked by the oracle
   and against the first (a search is a function of its seed). Every
   repetition does the same work, and contention on a shared machine
   only ever slows one down, so times are the best of the repetitions. *)
let end_to_end c o (w : Work.t) (st : Work.setup_timing) =
  let start = Dart.Telemetry.now () in
  let elapsed () = Stats.seconds (Int64.sub (Dart.Telemetry.now ()) start) in
  let reps = ref [] in
  while List.length !reps < o.min_reps || elapsed () < o.seconds do
    if !reps <> [] then Work.setup_batch st;
    let r = Work.run_once w st in
    Work.check_rep c w st r;
    (match !reps with
     | first :: _ ->
       Work.check c ~workload:w.Work.name "repetitions agree"
         (Work.counts first.Work.outcome = Work.counts r.Work.outcome)
     | [] -> ());
    reps := !reps @ [ r ]
  done;
  let runs, branches, bugs = Work.counts (List.hd !reps).Work.outcome in
  let best f = List.fold_left (fun acc r -> Float.min acc (f r)) infinity !reps in
  let wall_s = best (fun r -> r.Work.wall_s) in
  [ ("setup_s", Work.setup_s st);
    ("wall_s", wall_s);
    ("execs_per_s", float_of_int runs /. wall_s);
    ("cpu_s", best (fun r -> r.Work.cpu_s));
    ("runs_to_verdict", float_of_int runs);
    ("branches_covered", float_of_int branches);
    ("peak_rss_mb", Work.peak_rss_mb ());
    ("bugs_found", float_of_int bugs) ]

let bench o =
  let name = match o.workload with Some n -> n | None -> usage () in
  if not (List.mem name Spec.workloads) then begin
    Printf.eprintf "dartperf: unknown workload %s (known: %s)\n" name
      (String.concat " " Spec.workloads);
    exit 2
  end;
  let size = if o.smoke then Work.Smoke else Work.Full in
  let w = Work.make ~size ~seed:o.seed name in
  let c = Work.new_checks () in
  let st = if o.smoke then Work.time_setup ~batches:1 ~min_batch_s:0. w else Work.time_setup w in
  let spec, metrics =
    if o.trace then (Spec.per_layer, Trace.run c ~seconds:o.seconds ~min_reps:o.min_reps w st)
    else
      let m = end_to_end c o w st in
      let fail_share = float_of_int c.Work.failed /. float_of_int (max 1 c.Work.attempted) in
      (Spec.end_to_end, m @ [ ("fail_share", fail_share) ])
  in
  List.iter
    (fun (k, v) ->
      let unit_ = match Spec.find k with Some m -> m.Spec.unit_ | None -> "" in
      print_row name k v unit_)
    metrics;
  Option.iter (fun path -> append_rows path name metrics) o.out;
  print_endline (result_json c spec metrics);
  exit (if c.Work.failed = 0 then 0 else 1)

(* Each workload in its own child process, so peak RSS is the
   workload's own and no workload warms the heap for the next. *)
let run o =
  (* The smoke keeps the test log short: only failed checks (stderr). *)
  let stdout = if o.smoke then Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 else Unix.stdout in
  let child args =
    let argv = Array.of_list (Sys.executable_name :: args) in
    let pid = Unix.create_process Sys.executable_name argv Unix.stdin stdout Unix.stderr in
    match snd (Unix.waitpid [] pid) with Unix.WEXITED 0 -> true | _ -> false
  in
  let common =
    [ "--seed"; string_of_int o.seed ]
    @ (if o.smoke then [ "--smoke" ] else [])
    @ match o.out with Some p -> [ "--out"; p ] | None -> []
  in
  let ok =
    List.fold_left
      (fun ok w ->
        let bench args = child ([ "bench"; "--workload"; w ] @ args @ common) in
        let e2e = bench [ "--trace"; "0" ] in
        let layers = bench [ "--trace"; "1"; "--min-reps"; "1" ] in
        ok && e2e && layers)
      true Spec.workloads
  in
  if not ok then prerr_endline "dartperf: some checks failed";
  exit (if ok then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "run" :: rest -> run (parse rest)
  | "bench" :: rest -> bench (parse rest)
  | [ "compare"; old_path; new_path ] -> exit (Compare.run old_path new_path)
  | _ -> usage ()
