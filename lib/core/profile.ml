(* The one renderer of where the time went ([dartc profile], [dartc
   --metrics], [dartc cover --timeline]): a rendering of a
   [Telemetry.summary], which already carries every figure shown
   here, or of a live [Telemetry.metrics] record. For a trace the
   output is deterministic for a deterministic trace — the histograms
   are rebuilt from per-event durations rather than wall clock. *)

let pct part total =
  if Int64.compare total 0L > 0 then
    100.0 *. Int64.to_float part /. Int64.to_float total
  else 0.0

let phase_table buf phase_ns =
  let total = List.fold_left (fun acc (_, ns) -> Int64.add acc ns) 0L phase_ns in
  Buffer.add_string buf "phases:\n";
  List.iter
    (fun (ph, ns) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-8s %12s  (%5.1f%%)\n"
           (Telemetry.phase_to_string ph)
           (Telemetry.ns_to_string ns) (pct ns total)))
    phase_ns

let hist_dump buf name h =
  Buffer.add_string buf
    (Printf.sprintf "%s latency (%d samples, total %s, mean %s, max %s):\n" name
       (Telemetry.Hist.count h)
       (Telemetry.ns_to_string (Telemetry.Hist.sum_ns h))
       (Telemetry.ns_to_string (Telemetry.Hist.mean_ns h))
       (Telemetry.ns_to_string (Telemetry.Hist.max_ns h)));
  if Telemetry.Hist.count h = 0 then Buffer.add_string buf "  (empty)\n"
  else begin
    Buffer.add_string buf
      (Printf.sprintf "  p50 <=%s  p90 <=%s  p99 <=%s\n"
         (Telemetry.ns_to_string (Telemetry.Hist.p50 h))
         (Telemetry.ns_to_string (Telemetry.Hist.p90 h))
         (Telemetry.ns_to_string (Telemetry.Hist.p99 h)));
    let total = Telemetry.Hist.count h in
    List.iter
      (fun (lo, hi, n) ->
        let bar = String.make (max 1 (40 * n / total)) '#' in
        Buffer.add_string buf
          (Printf.sprintf "  %10s..%-10s %7d  %s\n" (Telemetry.ns_to_string lo)
             (Telemetry.ns_to_string (Int64.sub hi 1L))
             n bar))
      (Telemetry.Hist.buckets h)
  end

let metrics_to_string (m : Telemetry.metrics) =
  let buf = Buffer.create 1024 in
  phase_table buf (List.map (fun p -> (p, Telemetry.phase_ns m p)) Telemetry.phases);
  hist_dump buf "run" m.Telemetry.run_hist;
  hist_dump buf "solve" m.Telemetry.solve_hist;
  Buffer.contents buf

let frontier_sites (s : Telemetry.summary) =
  List.filter_map
    (fun (site, status) ->
      if not (Coverage.is_frontier status) then None
      else
        let attempts =
          match List.assoc_opt site s.Telemetry.sites with
          | Some a -> a.Telemetry.s_count
          | None -> 0
        in
        (* The missing direction is the one not yet seen. *)
        Some (site, status = Coverage.Fall_only, attempts))
    (Coverage.sites (Coverage.directions s.Telemetry.covered))
  |> List.sort (fun (sa, _, a) (sb, _, b) ->
         match compare b a with 0 -> compare sa sb | c -> c)

let coverage_to_string (s : Telemetry.summary) =
  let buf = Buffer.create 256 in
  (match s.Telemetry.plateau with
   | None -> ()
   | Some (runs, stale) ->
     Buffer.add_string buf
       (Printf.sprintf
          "coverage: %d branch directions after %d runs (%d cover points); plateau: %d \
           runs since the last new direction\n"
          (List.length s.Telemetry.covered) runs (List.length s.Telemetry.timeline) stale));
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

let to_string ?(top = 10) (s : Telemetry.summary) =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "trace: %d events (%d runs, %d branches + %d driver branches, %d solver queries, %d \
        inputs updated, %d restarts, %d bugs, %d workers)\n"
       s.Telemetry.total_events s.Telemetry.runs s.Telemetry.branches
       s.Telemetry.driver_branches s.Telemetry.solves s.Telemetry.inputs_updated
       s.Telemetry.restarts s.Telemetry.bugs s.Telemetry.workers);
  (* Only a trace in which a worker crashed has this line. *)
  if s.Telemetry.crashes > 0 then
    Buffer.add_string buf (Printf.sprintf "worker crashes: %d\n" s.Telemetry.crashes);
  Buffer.add_string buf
    (Printf.sprintf "solver: %d real queries + %d cache hits (%d sat, %d unsat, %d unknown)\n"
       (s.Telemetry.solves - s.Telemetry.solve_hits)
       s.Telemetry.solve_hits s.Telemetry.solve_sat s.Telemetry.solve_unsat
       s.Telemetry.solve_unknown);
  phase_table buf s.Telemetry.phase_ns;
  hist_dump buf "run" s.Telemetry.run_hist;
  hist_dump buf "solve" s.Telemetry.solve_hist;
  (match s.Telemetry.sites with
   | [] -> ()
   | sites ->
     let shown = List.filteri (fun i _ -> i < top) sites in
     Buffer.add_string buf
       (Printf.sprintf "hottest solver sites (top %d of %d, by total time):\n"
          (List.length shown) (List.length sites));
     List.iter
       (fun ((fn, pc), (a : Telemetry.site_agg)) ->
         Buffer.add_string buf
           (Printf.sprintf
              "  %-28s %6d queries  total %10s  mean %10s  (%d sat, %d unsat, %d unknown), \
               %d hits, %d sliced\n"
              (Printf.sprintf "%s:%d" fn pc)
              a.Telemetry.s_count
              (Telemetry.ns_to_string a.Telemetry.s_ns)
              (Telemetry.ns_to_string
                 (Int64.div a.Telemetry.s_ns (Int64.of_int a.Telemetry.s_count)))
              a.Telemetry.s_sat a.Telemetry.s_unsat a.Telemetry.s_unknown
              a.Telemetry.s_hits a.Telemetry.s_sliced))
       shown);
  (match s.Telemetry.targets with
   | [] -> ()
   | targets ->
     let ttotal =
       List.fold_left (fun acc (t : Telemetry.target_row) -> Int64.add acc t.tg_ns) 0L targets
     in
     Buffer.add_string buf
       (Printf.sprintf "campaign targets (%d, %d rounds, by total time):\n"
          (List.length targets) s.Telemetry.rounds);
     List.iter
       (fun (t : Telemetry.target_row) ->
         Buffer.add_string buf
           (Printf.sprintf "  %-28s %3d slices %6d runs  %10s  (%5.1f%%)  %s\n" t.tg_name
              t.tg_slices t.tg_runs
              (Telemetry.ns_to_string t.tg_ns)
              (pct t.tg_ns ttotal)
              (match t.tg_retired with
               | Some reason -> "retired: " ^ reason
               | None -> "unfinished")))
       targets);
  Buffer.add_string buf (coverage_to_string s);
  Buffer.contents buf
