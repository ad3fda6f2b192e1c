open Zarith_lite
open Symbolic

type next =
  | Next_run of Concolic.branch_record array
  | Exhausted of { solver_incomplete : bool }

(* Domain constraints from input kinds: chars live in 0..255, pointer
   coins in 0..1 (ints already carry the solver's 32-bit box). *)
let domain_constraints im vars =
  List.concat_map
    (fun v ->
      let range lo hi =
        [ Constr.make (Linexpr.sub (Linexpr.of_int lo) (Linexpr.var v)) Constr.Le0;
          Constr.make (Linexpr.sub (Linexpr.var v) (Linexpr.of_int hi)) Constr.Le0 ]
      in
      match Inputs.kind_of im v with
      | Some Inputs.Kchar -> range 0 255
      | Some Inputs.Kcoin -> range 0 1
      | Some Inputs.Kint | None -> [])
    vars

(* Unrelated-constraint elimination (paper §2.6; the "independent
   constraint" optimisation of the concolic line): partition
   [pivot :: prefix] into variable-connected components with a
   union-find over [Constr.vars], and keep only the pivot's component.

   Dropping the other components is exact, not an approximation: the
   previous run's inputs satisfy every prefix constraint (they *were*
   the executed path), so each component disjoint from the pivot is
   independently satisfiable by the current IM, and the solver's
   [prefer] completion would reproduce those values anyway. Solving
   only the pivot's component and leaving the untouched inputs at their
   IM values is therefore the same IM + IM' update as solving the whole
   conjunction (paper Fig. 5). *)
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

let solve ?cache ?incr ?breaker ?(slicing = true) ?deadline_ns
    ?(faultsim = Dart_util.Faultsim.off) ?(telemetry = Telemetry.null) ?hist
    ?(sites = [||]) ~strategy ~rng ~stats ~im ~stack ~path_constraint () =
  let n = Array.length stack in
  assert (Array.length path_constraint = n);
  let tracing = Telemetry.enabled telemetry in
  (* Per-query deadline predicate, built fresh at each real solver call
     (cache hits never consume deadline budget or injection shots). An
     injected overrun is a predicate that is constantly true: it rides
     the same degradation path as a genuine timeout, so the test
     exercises exactly the production behaviour. *)
  let solver_deadline () =
    if
      Dart_util.Faultsim.is_on faultsim
      && Dart_util.Faultsim.fire faultsim Dart_util.Faultsim.Solver_deadline
    then Some (fun () -> true)
    else
      match deadline_ns with
      | None -> None
      | Some ns ->
        let dl = Int64.add (Telemetry.now ()) ns in
        Some (fun () -> Int64.compare (Telemetry.now ()) dl >= 0)
  in
  let site_of j =
    if j >= 0 && j < Array.length sites then sites.(j) else ("?", j)
  in
  let candidates =
    Strategy.candidates_of_list
      (List.filter
         (fun j -> (not stack.(j).Concolic.br_done) && path_constraint.(j) <> None)
         (List.init n Fun.id))
  in
  let solver_incomplete = ref false in
  (* One pivot-solve attempt. [j] is the flipped branch (for trace
     attribution), [sliced] how many prefix constraints independence
     slicing already dropped; [cs] is [pivot :: kept @ domains]. *)
  let solve_query ~j ~sliced ~pivot ~kept ~domains cs =
    match breaker with
    | Some b when Solver.Breaker.skip b (site_of j) ->
      (* Open breaker: the site has burned [threshold] consecutive
         deadlines in a row, so the query would almost surely overrun
         again. Short-circuit to the answer it would have produced —
         Unknown — at zero cost. Not a real query: no [queries] count,
         no histogram sample, no Solve_query event, and never cached. *)
      Solver.record_breaker_skip stats;
      Solver.Unknown
    | _ ->
    let prefer v = Option.map Zint.of_int (Inputs.value_of im v) in
    (* Timed unconditionally: the clock read is noise next to a solver
       call, and the latency histogram wants every query (cache hits
       included) even when event tracing is off. *)
    let t0 = Telemetry.now () in
    (* The real solver call, through the incremental context when one
       is attached (results are identical; the context only reuses
       prepared pipeline stages across the shared prefix). *)
    let run_solver () =
      match incr with
      | Some ictx ->
        Solver.Incr.solve ictx ~stats ~prefer ?deadline:(solver_deadline ()) ~pivot
          ~prefix:kept ~domains ()
      | None -> Solver.solve ~stats ~prefer ?deadline:(solver_deadline ()) cs
    in
    (* Breaker accounting wraps only real solver calls (cache hits are
       free and prove nothing about the site). A query "fails" the site
       when it returns Unknown *because the deadline overran*; the
       structural Unknowns of solver incompleteness never trip the
       breaker, which keeps default output byte-identical to
       --no-breaker on nonlinear workloads. *)
    let run_solver () =
      match breaker with
      | None -> run_solver ()
      | Some b ->
        let overruns_before = Solver.deadline_overruns stats in
        let r = run_solver () in
        let failed =
          match r with
          | Solver.Unknown -> Solver.deadline_overruns stats > overruns_before
          | Solver.Sat _ | Solver.Unsat -> false
        in
        (match Solver.Breaker.record b (site_of j) ~failed with
         | `Opened ->
           Solver.record_breaker_open stats;
           if tracing then begin
             let fn, pc = site_of j in
             Telemetry.emit telemetry (Telemetry.Breaker_open { fn; pc })
           end
         | `Closed ->
           if tracing then begin
             let fn, pc = site_of j in
             Telemetry.emit telemetry (Telemetry.Breaker_close { fn; pc })
           end
         | `None -> ());
        r
    in
    let result, cache_hit =
      match cache with
      | None -> (run_solver (), false)
      | Some (st, worker) ->
        (* A hit may have been published by any worker sharing the
           store. *)
        let keyed = Solver.Cache.canonical cs in
        (match Solver.Store.lookup st keyed with
         | Solver.Store.Hit (v, publisher) ->
           Solver.record_cache_hit stats;
           if publisher <> worker then Solver.record_shared_hit stats;
           ((match v with
             | Solver.Cache.Sat model -> Solver.Sat model
             | Solver.Cache.Unsat -> Solver.Unsat),
            true)
         | Solver.Store.Miss ->
           Solver.record_cache_miss stats;
           let r = run_solver () in
           (match r with
            | Solver.Sat model ->
              Solver.Store.publish st ~worker keyed (Solver.Cache.Sat model)
            | Solver.Unsat -> Solver.Store.publish st ~worker keyed Solver.Cache.Unsat
            | Solver.Unknown -> ());
           (r, false))
    in
    let dur_ns = Int64.sub (Telemetry.now ()) t0 in
    (match hist with None -> () | Some h -> Telemetry.Hist.add h dur_ns);
    if tracing then begin
      let fn, pc = site_of j in
      Telemetry.emit telemetry
        (Telemetry.Solve_query
           { fn;
             pc;
             result =
               (match result with
                | Solver.Sat _ -> Telemetry.R_sat
                | Solver.Unsat -> Telemetry.R_unsat
                | Solver.Unknown -> Telemetry.R_unknown);
             dur_ns;
             cache_hit;
             sliced })
    end;
    result
  in
  let rec go () =
    match Strategy.choose strategy rng candidates with
    | None ->
      (* An Unknown in an earlier call of this search counts too: that
         call went on to a Sat candidate, so its local flag is gone, but
         the branch it gave up on was never explored. *)
      Exhausted
        { solver_incomplete = !solver_incomplete || Solver.unknown_count stats > 0 }
    | Some j ->
      let pivot =
        match path_constraint.(j) with
        | Some c -> Constr.negate c
        | None -> assert false
      in
      let prefix =
        List.filter_map (fun h -> path_constraint.(h)) (List.init j Fun.id)
      in
      let kept, sliced =
        if slicing then begin
          let kept_with_pivot, dropped = slice ~pivot ~prefix in
          Solver.record_sliced stats dropped;
          (List.tl kept_with_pivot, dropped)
        end
        else (prefix, 0)
      in
      let base_cs = pivot :: kept in
      let vars =
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun c -> List.iter (fun v -> Hashtbl.replace tbl v ()) (Constr.vars c))
          base_cs;
        Hashtbl.fold (fun v () acc -> v :: acc) tbl []
      in
      let domains = domain_constraints im vars in
      let cs = base_cs @ domains in
      (match solve_query ~j ~sliced ~pivot ~kept ~domains cs with
       | Solver.Sat model ->
         (* IM + IM': overwrite solved inputs, keep the rest (with
            slicing, inputs outside the pivot's component are never in
            the model and keep their current values). *)
         List.iter
           (fun (v, z) ->
             let w = Dart_util.Word32.of_zint_trunc z in
             Inputs.set im ~id:v w;
             if tracing then
               Telemetry.emit telemetry (Telemetry.Input_update { id = v; value = w }))
           model;
         let next_stack =
           Array.init (j + 1) (fun i ->
               if i = j then
                 { Concolic.br_branch = not stack.(j).Concolic.br_branch; br_done = false }
               else stack.(i))
         in
         Next_run next_stack
       | Solver.Unsat ->
         (* Figure 5 recurses with ktry = j: depth-first discards all
            deeper candidates; other strategies just drop this one. *)
         Strategy.remove_failed strategy candidates;
         go ()
       | Solver.Unknown ->
         solver_incomplete := true;
         Strategy.remove_failed strategy candidates;
         go ())
  in
  go ()
