(* Post-hoc time attribution over a recorded trace ([dartc profile]):
   a rendering of [Telemetry.summarize], which already carries every
   figure shown here, so the output is deterministic for a
   deterministic trace — the histograms are rebuilt from per-event
   durations rather than wall clock. *)

let pct part total =
  if Int64.compare total 0L > 0 then
    100.0 *. Int64.to_float part /. Int64.to_float total
  else 0.0

let hist_dump buf name h =
  Buffer.add_string buf
    (Printf.sprintf "%s latency (%d samples, mean %s, max %s):\n" name
       (Telemetry.Hist.count h)
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

let to_string ?(top = 10) (s : Telemetry.summary) =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Printf.sprintf "profile: %d events\n" s.Telemetry.total_events);
  let total = List.fold_left (fun acc (_, ns) -> Int64.add acc ns) 0L s.Telemetry.phase_ns in
  Buffer.add_string buf "phases:\n";
  List.iter
    (fun (ph, ns) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-8s %12s  (%5.1f%%)\n"
           (Telemetry.phase_to_string ph)
           (Telemetry.ns_to_string ns) (pct ns total)))
    s.Telemetry.phase_ns;
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
           (Printf.sprintf "  %-28s %6d queries  total %10s  mean %10s\n"
              (Printf.sprintf "%s:%d" fn pc)
              a.Telemetry.s_count
              (Telemetry.ns_to_string a.Telemetry.s_ns)
              (Telemetry.ns_to_string
                 (Int64.div a.Telemetry.s_ns (Int64.of_int a.Telemetry.s_count)))))
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
  Buffer.contents buf
