type entry = {
  cov_fn : string;
  cov_sites : int;
  cov_directions : int;
  cov_full : int;
}

type t = {
  entries : entry list;
  total_sites : int;
  total_directions : int;
}

let is_driver_function = Driver_gen.is_driver_function

type status =
  | Full
  | Taken_only
  | Fall_only
  | Unreached

(* (function, pc) -> (taken seen, fall-through seen): the one
   direction table every coverage view reads. *)
type directions = (string * int, bool * bool) Hashtbl.t

let directions covered : directions =
  let by_site = Hashtbl.create 64 in
  List.iter
    (fun (fn, pc, dir) ->
      let taken, fallthrough =
        Option.value ~default:(false, false) (Hashtbl.find_opt by_site (fn, pc))
      in
      Hashtbl.replace by_site (fn, pc)
        (if dir then (true, fallthrough) else (taken, true)))
    covered;
  by_site

let status_of_dirs = function
  | true, true -> Full
  | true, false -> Taken_only
  | false, true -> Fall_only
  | false, false -> Unreached

let status (dirs : directions) site =
  status_of_dirs (Option.value ~default:(false, false) (Hashtbl.find_opt dirs site))

let is_frontier = function
  | Taken_only | Fall_only -> true
  | Full | Unreached -> false

let sites (dirs : directions) =
  Hashtbl.fold (fun site d acc -> (site, status_of_dirs d) :: acc) dirs []
  |> List.sort compare

let frontier_count covered =
  Hashtbl.fold
    (fun _ d acc -> if is_frontier (status_of_dirs d) then acc + 1 else acc)
    (directions covered) 0

let compute (prog : Ram.Instr.program) ~covered =
  let dirs = directions covered in
  let entries =
    Hashtbl.fold
      (fun name (f : Ram.Instr.func) acc ->
        if is_driver_function name then acc
        else begin
          let sites = ref 0 and ndirs = ref 0 and full = ref 0 in
          Array.iteri
            (fun pc instr ->
              match instr with
              | Ram.Instr.Iif _ ->
                incr sites;
                (match status dirs (name, pc) with
                 | Full ->
                   ndirs := !ndirs + 2;
                   incr full
                 | Taken_only | Fall_only -> incr ndirs
                 | Unreached -> ())
              | _ -> ())
            f.Ram.Instr.code;
          { cov_fn = name; cov_sites = !sites; cov_directions = !ndirs; cov_full = !full }
          :: acc
        end)
      prog.Ram.Instr.funcs []
    |> List.sort (fun a b -> compare a.cov_fn b.cov_fn)
  in
  let total_sites = List.fold_left (fun acc e -> acc + e.cov_sites) 0 entries in
  let total_directions = List.fold_left (fun acc e -> acc + e.cov_directions) 0 entries in
  { entries; total_sites; total_directions }

let percent t =
  if t.total_sites = 0 then 100.0
  else 100.0 *. float_of_int t.total_directions /. float_of_int (2 * t.total_sites)

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "branch coverage (directions taken / possible):\n";
  (* Columns sized from the data (functions with hundreds of sites
     overflow fixed widths); the historical minima keep small reports
     byte-stable. *)
  let shown = List.filter (fun e -> e.cov_sites > 0) t.entries in
  let digits n = String.length (string_of_int n) in
  let name_w =
    List.fold_left (fun acc e -> max acc (String.length e.cov_fn)) 30 shown
  in
  let num_w = List.fold_left (fun acc e -> max acc (digits (2 * e.cov_sites))) 3 shown in
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "  %-*s %*d/%*d  (%d sites fully covered)\n" name_w e.cov_fn num_w
           e.cov_directions num_w (2 * e.cov_sites) e.cov_full))
    shown;
  Buffer.add_string buf (Printf.sprintf "  total: %.1f%%\n" (percent t));
  Buffer.contents buf
