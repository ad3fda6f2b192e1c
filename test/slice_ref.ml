(* Reference independence slicer: a fresh union-find over
   [pivot :: prefix] for every query, the straightforward reading of
   unrelated-constraint elimination. [Dart.Solve_pc.Slicer] claims the
   same answers from one rollback union-find per solve call, so the
   differential test in test_accel.ml holds it to this one. *)

open Symbolic

(* [slice ~pivot ~prefix] is [(kept, dropped)]: the pivot's
   variable-connected component of [pivot :: prefix] (pivot first,
   prefix order kept, variable-free prefix constraints included), and
   how many prefix constraints were eliminated as unrelated. *)
let slice ~pivot ~prefix =
  let parent : (Linexpr.var, Linexpr.var) Hashtbl.t = Hashtbl.create 32 in
  let rec find v =
    match Hashtbl.find_opt parent v with
    | None ->
      Hashtbl.replace parent v v;
      v
    | Some p when p = v -> v
    | Some p ->
      let r = find p in
      Hashtbl.replace parent v r;
      r
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent ra rb
  in
  let connect c =
    match Constr.vars c with
    | [] -> ()
    | v :: rest -> List.iter (union v) rest
  in
  connect pivot;
  List.iter connect prefix;
  match Constr.vars pivot with
  | [] ->
    (* A variable-free pivot cannot be forced by any input; keep the
       full conjunction and let the solver report Unsat. *)
    (pivot :: prefix, 0)
  | pv :: _ ->
    let proot = find pv in
    let kept, dropped =
      List.partition
        (fun c ->
          match Constr.vars c with
          | [] -> true
          | v :: _ -> find v = proot)
        prefix
    in
    (pivot :: kept, List.length dropped)
