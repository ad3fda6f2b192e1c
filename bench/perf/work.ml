(* The five workloads: their inputs, their set-up, one untraced
   repetition each, and the correctness oracle every repetition must
   pass. Every search runs until its path tree is exhausted, so the work
   a repetition does is the same for every seed: the seed picks the
   random inputs each search starts from and the order it walks the
   tree in, not how much of the tree it walks. *)

open Dart

type size =
  | Full
  | Smoke (* tiny inputs for the runtest smoke *)

type single = {
  src : string;
  toplevel : string;
  options : Driver.options;
  jobs : int; (* 1: Driver.run; more: Parallel.run *)
  expect : [ `Complete_no_bug | `Abort_in of string ];
}

type library = {
  text : string;
  funcs : Workloads.Osip_sim.gen_func list;
  c_options : Driver.options;
  c_jobs : int;
}

type kind =
  | Single of single
  | Library of library

type t = {
  name : string;
  kind : kind;
}

(* A cap no workload reaches: each search ends by exhausting its tree. *)
let max_runs = 1_000_000

(* The oSIP parser of [Osip_sim.parser_fixed], driven with a 36-character
   message instead of a 64-character one and a character-sized content
   length, so that depth 2 is exhausted (71 paths per call) in seconds
   rather than minutes, and no seed makes the parser alloca kilobytes
   where another allocas bytes. *)
let osip_parse =
  let src = Workloads.Osip_sim.parser_fixed and driver = "int parse_entry" in
  let rec cut i = if String.sub src i (String.length driver) = driver then i else cut (i + 1) in
  String.sub src 0 (cut 0)
  ^ {|int parse_entry(char content_length) {
  char buf[36];
  int i;
  for (i = 0; i < 35; i++) {
    buf[i] = env_char();
  }
  buf[35] = 0;
  return osip_message_parse(buf, content_length);
}
|}

(* A bench-local program whose directed search is dominated by the real
   solver: an accumulator couples each call's guards to every earlier
   input, so almost every negation is a new multivariate query for
   simplex and branch-and-bound. Character inputs keep every query
   decidable and free of 32-bit wraparound, so the tree is exhausted. *)
let solver_mix =
  {|
int acc;
void step(char a, char b, char c) {
  acc = acc + a - b + c;
  if (acc > 2*a + 7) { acc = acc - b; }
  if (2*acc - 3*c < a + b + 11) { acc = acc + c; }
  if (a + 2*b - c > acc - 40) { acc = acc - a; }
  if (4*a - 6*b + acc == 10 + c) abort();
}
|}

(* The campaign library is fixed (generator seed 7, the one the E17
   experiment uses): only the search seed varies. *)
let library_seed = 7

let make ~size ~seed name =
  let full = size = Full in
  let single ?(stop_on_first_bug = true) ~src ~toplevel ~depth ~jobs expect =
    Single
      { src;
        toplevel;
        options = Driver.Options.make ~seed ~depth ~max_runs ~stop_on_first_bug ();
        jobs;
        expect }
  in
  let ns_lowe ~jobs =
    single
      ~src:(Workloads.Needham_schroeder.dolev_yao ~fix:`Correct)
      ~toplevel:Workloads.Needham_schroeder.dolev_yao_toplevel
      ~depth:(if full then 5 else 3)
      ~jobs `Complete_no_bug
  in
  let kind =
    match name with
    | "ns-lowe-d5" -> ns_lowe ~jobs:1
    | "ns-lowe-d5-j2" -> ns_lowe ~jobs:2
    | "osip-parse-d2" ->
      single ~src:osip_parse ~toplevel:Workloads.Osip_sim.parser_toplevel
        ~depth:(if full then 2 else 1)
        ~jobs:1 `Complete_no_bug
    | "solver-mix-d2" ->
      single ~stop_on_first_bug:false ~src:solver_mix ~toplevel:"step"
        ~depth:(if full then 2 else 1)
        ~jobs:1 (`Abort_in "step")
    | "osip-lib-j2" ->
      let text, funcs =
        Workloads.Osip_sim.generate ~seed:library_seed ~n:(if full then 240 else 16)
      in
      Library
        { text;
          funcs;
          (* Every bug, not the first: a target's coverage then does not
             hinge on which random input crashed it first. *)
          c_options =
            Driver.Options.make ~seed ~max_runs:600 ~per_function_runs:150
              ~stop_on_first_bug:false ();
          c_jobs = 2 }
    | _ -> invalid_arg ("unknown workload " ^ name)
  in
  { name; kind }

(* ---- set-up ---------------------------------------------------------------------- *)

(* Set-up stages, timed on every set-up (a clock read per stage is
   noise next to parsing). *)
let stage_names =
  [| "minic.parse_s"; "campaign.discover_s"; "driver_gen.generate_s"; "minic.typecheck_s";
     "ram.lower_s"; "machine.precompile_s" |]

let timed acc i f =
  let t0 = Telemetry.now () in
  let r = f () in
  acc.(i) <- Int64.add acc.(i) (Int64.sub (Telemetry.now ()) t0);
  r

let prepare_target acc ast ~toplevel ~depth =
  let g = timed acc 2 (fun () -> Driver_gen.generate ast ~toplevel ~depth) in
  let tp = timed acc 3 (fun () -> Minic.Typecheck.check g) in
  let prog = timed acc 4 (fun () -> Ram.Lower.lower_program tp) in
  timed acc 5 (fun () -> Machine.precompile prog);
  prog

let depth_of (o : Driver.options) = o.Driver.Options.search.Driver.Options.depth

(* Source text to a ready program. The campaign prepares one program
   per discovered target, as [Campaign.run] does; those are dropped (the
   campaign starts from the text), so they do not count in peak RSS. *)
let setup acc w =
  match w.kind with
  | Single s ->
    let ast = timed acc 0 (fun () -> Minic.Parser.parse_program s.src) in
    Some (prepare_target acc ast ~toplevel:s.toplevel ~depth:(depth_of s.options))
  | Library c ->
    let ast = timed acc 0 (fun () -> Minic.Parser.parse_program c.text) in
    let targets, _ = timed acc 1 (fun () -> Campaign.discover ast) in
    List.iter
      (fun t -> ignore (prepare_target acc ast ~toplevel:t ~depth:(depth_of c.c_options)))
      targets;
    None

(* Set-up is timed in batches of at least [min_batch_s] each: a
   single-program set-up takes well under a millisecond, so a batch
   repeats it many times. A few batches run up front and one more before
   each repetition, so that they span the whole invocation. As with the
   repetitions, the fastest batch is reported: on a shared machine one
   campaign set-up varied from 0.40 s to 0.65 s within one process. *)
type setup_timing = {
  workload : t;
  min_batch_s : float;
  mutable batches : (float * float array) list; (* per set-up: total, per stage *)
  mutable prog : Ram.Instr.program option; (* the single-program workloads' *)
}

let setup_batch st =
  Gc.compact ();
  let acc = Array.make (Array.length stage_names) 0L in
  let n = ref 0 in
  let t0 = Telemetry.now () in
  let elapsed () = Stats.seconds (Int64.sub (Telemetry.now ()) t0) in
  while !n = 0 || elapsed () < st.min_batch_s do
    st.prog <- setup acc st.workload;
    incr n
  done;
  let nf = float_of_int !n in
  st.batches <- (elapsed () /. nf, Array.map (fun ns -> Stats.seconds ns /. nf) acc) :: st.batches

let time_setup ?(batches = 3) ?(min_batch_s = 0.2) w =
  let st = { workload = w; min_batch_s; batches = []; prog = None } in
  for _ = 1 to batches do
    setup_batch st
  done;
  st

let fastest_batch st =
  List.fold_left (fun (bt, ba) (t, a) -> if t < bt then (t, a) else (bt, ba))
    (infinity, [||]) st.batches

let setup_s st = fst (fastest_batch st)
let stage_s st i = (snd (fastest_batch st)).(i)

(* ---- one untraced repetition ------------------------------------------------------ *)

type outcome =
  | Ran of Driver.report
  | Ran_parallel of Parallel.report
  | Ran_campaign of Campaign.report

type rep = {
  outcome : outcome;
  wall_s : float;
  cpu_s : float;
}

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Every timed section starts from a compacted heap, so no repetition
   pays for the garbage of the one before it. *)
let measure f =
  Gc.compact ();
  let c0 = cpu_now () in
  let t0 = Telemetry.now () in
  let r = f () in
  let wall_s = Stats.seconds (Int64.sub (Telemetry.now ()) t0) in
  (r, wall_s, cpu_now () -. c0)

let run_campaign ~jobs ~options text =
  match Campaign.run ~jobs ~options text with
  | Ok r -> r
  | Error msg -> failwith ("campaign: " ^ msg)

let run_once w st =
  let outcome, wall_s, cpu_s =
    measure (fun () ->
        match (w.kind, st.prog) with
        | Single s, Some prog ->
          if s.jobs = 1 then Ran (Driver.run ~options:s.options prog)
          else Ran_parallel (Parallel.run ~options:(Parallel.options ~jobs:s.jobs s.options) prog)
        | Library c, _ -> Ran_campaign (run_campaign ~jobs:c.c_jobs ~options:c.c_options c.text)
        | Single _, None -> invalid_arg "run_once: workload not set up")
  in
  { outcome; wall_s; cpu_s }

let campaign_runs (r : Campaign.report) =
  List.fold_left (fun acc tr -> acc + tr.Campaign.tr_runs) 0 r.Campaign.cam_results

(* (runs to verdict, branch directions covered, distinct bugs) *)
let counts = function
  | Ran r | Ran_parallel { Parallel.merged = r; _ } ->
    (r.Driver.runs, r.Driver.branches_covered, List.length r.Driver.bugs)
  | Ran_campaign c ->
    (campaign_runs c, List.length (Campaign.aggregate_sites c), List.length c.Campaign.cam_crashes)

(* ---- correctness oracle ------------------------------------------------------------ *)

type checks = {
  mutable attempted : int;
  mutable failed : int;
}

let new_checks () = { attempted = 0; failed = 0 }

let check c ~workload what ok =
  c.attempted <- c.attempted + 1;
  if not ok then begin
    c.failed <- c.failed + 1;
    Printf.eprintf "dartperf: %s: check failed: %s\n%!" workload what
  end

(* Theorem 1(a): the witness alone, on a fresh input vector with the
   symbolic shadow off, reaches the same fault at the same site. *)
let replays prog (b : Driver.bug) =
  let im = Inputs.create () in
  List.iter (fun (id, v) -> Inputs.set im ~id v) b.Driver.bug_inputs;
  let data =
    Concolic.run_once
      ~opts:{ Concolic.default_exec_options with Concolic.symbolic = false }
      ~rng:(Dart_util.Prng.create 0) ~im ~prev_stack:[||] ~entry:Driver_gen.wrapper_name prog
  in
  Replica.same_outcome data.Concolic.outcome
    (Concolic.Run_fault (b.Driver.bug_fault, b.Driver.bug_site))

let check_bugs_replay c ~workload prog bugs =
  List.iter
    (fun (b : Driver.bug) ->
      check c ~workload
        (Printf.sprintf "bug at %s pc %d replays concretely" b.Driver.bug_site.Machine.site_fn
           b.Driver.bug_site.Machine.site_pc)
        (replays prog b))
    bugs

let check_report c w prog (s : single) (r : Driver.report) =
  let workload = w.name in
  check_bugs_replay c ~workload prog r.Driver.bugs;
  check c ~workload "search exhausted its tree" (r.Driver.runs < max_runs);
  match s.expect with
  | `Complete_no_bug ->
    check c ~workload "verdict is Complete" (r.Driver.verdict = Driver.Complete);
    check c ~workload "no bug reported" (r.Driver.bugs = [])
  | `Abort_in fn ->
    check c ~workload
      (Printf.sprintf "planted abort in %s found" fn)
      (List.exists
         (fun (b : Driver.bug) ->
           b.Driver.bug_fault = Machine.Abort && b.Driver.bug_site.Machine.site_fn = fn)
         r.Driver.bugs)

let check_campaign c w (l : library) (r : Campaign.report) =
  let workload = w.name in
  let ast = Minic.Parser.parse_program l.text in
  let untimed = Array.make (Array.length stage_names) 0L in
  let prepare toplevel = prepare_target untimed ast ~toplevel ~depth:(depth_of l.c_options) in
  List.iter
    (fun tr ->
      if tr.Campaign.tr_bugs <> [] then
        check_bugs_replay c ~workload (prepare tr.Campaign.tr_name) tr.Campaign.tr_bugs)
    r.Campaign.cam_results;
  let names l = List.sort compare l in
  let bug_retired =
    List.filter_map
      (fun tr -> if tr.Campaign.tr_retired = Campaign.Bug then Some tr.Campaign.tr_name else None)
      r.Campaign.cam_results
  in
  let vulnerable =
    List.filter_map
      (fun f ->
        if f.Workloads.Osip_sim.gf_vulnerable then Some f.Workloads.Osip_sim.gf_name else None)
      l.funcs
  in
  check c ~workload "targets retired with a bug = planted bugs"
    (names bug_retired = names vulnerable);
  check c ~workload "no lost targets" (Campaign.no_lost_targets r);
  check c ~workload "campaign finished" (r.Campaign.cam_status = Campaign.Finished)

let check_rep c w st rep =
  match (w.kind, st.prog, rep.outcome) with
  | Single s, Some prog, Ran r -> check_report c w prog s r
  | Single s, Some prog, Ran_parallel p ->
    check c ~workload:w.name "no worker crashed" (p.Parallel.crashes = []);
    check c ~workload:w.name
      (Printf.sprintf "%d workers" s.jobs)
      (List.length p.Parallel.workers = s.jobs);
    check_report c w prog s p.Parallel.merged
  | Library l, _, Ran_campaign r -> check_campaign c w l r
  | _ -> check c ~workload:w.name "outcome matches the workload kind" false

(* ---- process facts ------------------------------------------------------------------ *)

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d" (fun kb -> float_of_int kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> 0.
  in
  Fun.protect ~finally:(fun () -> close_in ic) go
