(* [dartperf compare OLD NEW]: both files hold the rows [dartperf run
   --out] (or [bench --out]) appended, one [workload metric value] line
   each; the k-th row of a (workload, metric) pair in a file is that
   file's k-th run. Runs of the two files are paired by k.

   The verdict follows the pair rule: "better" needs the new side to
   win at least nine tenths of the pairs and the medians to differ by
   more than the old side's interquartile distance; "worse" is a median
   worse by more than the metric's bound; where the old side's own
   spread exceeds the bound the metric is "unresolved" unless every new
   run beats every old run; anything else is "same". *)

let read_rows path =
  let ic = open_in path in
  let rows = ref [] in
  (try
     while true do
       match String.split_on_char ' ' (String.trim (input_line ic)) with
       | [ workload; metric; value ] -> (
         match float_of_string_opt value with
         | Some v -> rows := ((workload, metric), v) :: !rows
         | None -> ())
       | _ -> ()
     done
   with End_of_file -> close_in ic);
  List.rev !rows

let keys rows = List.sort_uniq compare (List.map fst rows)
let values rows k = List.filter_map (fun (k', v) -> if k' = k then Some v else None) rows

let verdict (m : Spec.metric) olds news =
  let better_than a b = match m.Spec.better with Spec.Lower -> a < b | Spec.Higher -> a > b in
  let mo = Stats.median olds and mn = Stats.median news in
  let q1, _, q3 = Stats.quartiles olds in
  let rec zip a b = match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> [] in
  let pairs = zip olds news in
  let wins = List.length (List.filter (fun (o, n) -> better_than n o) pairs) in
  let worse_by =
    let d = match m.Spec.better with Spec.Lower -> mn -. mo | Spec.Higher -> mo -. mn in
    if mo = 0. then (if d > 0. then infinity else 0.) else d /. Float.abs mo
  in
  let all_better = List.for_all (fun n -> List.for_all (better_than n) olds) news in
  if Stats.rel_spread olds > m.Spec.bound then if all_better then "better" else "unresolved"
  else if
    pairs <> [] && wins * 10 >= 9 * List.length pairs && better_than mn mo
    && Float.abs (mn -. mo) > q3 -. q1
  then "better"
  else if worse_by > m.Spec.bound then "worse"
  else "same"

let run old_path new_path =
  let olds = read_rows old_path and news = read_rows new_path in
  Printf.printf "%-14s %-28s %-36s %-36s %8s  %s\n" "workload" "metric" "old median [q1 q3]"
    "new median [q1 q3]" "delta" "verdict";
  let side vs =
    let q1, q2, q3 = Stats.quartiles vs in
    Printf.sprintf "%.6g [%.6g %.6g] n=%d" q2 q1 q3 (List.length vs)
  in
  let worse = ref 0 in
  List.iter
    (fun ((workload, metric) as k) ->
      let ov = values olds k and nv = values news k in
      match Spec.find metric with
      | Some m when nv <> [] ->
        let v = verdict m ov nv in
        if v = "worse" then incr worse;
        let mo = Stats.median ov and mn = Stats.median nv in
        Printf.printf "%-14s %-28s %-36s %-36s %+7.1f%%  %s\n" workload metric (side ov) (side nv)
          (if mo = 0. then 0. else 100. *. (mn -. mo) /. Float.abs mo)
          v
      | _ -> ())
    (keys olds);
  if !worse > 0 then 1 else 0
