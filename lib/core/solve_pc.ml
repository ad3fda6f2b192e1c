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

(* The constraints at depths [0..j-1], outermost first. *)
let full_prefix pc j = List.filter_map (fun h -> pc.(h)) (List.init j Fun.id)

(* Unrelated-constraint elimination (paper §2.6; the "independent
   constraint" optimisation of the concolic line, KLEE's constraint
   independence): partition [pivot :: prefix] into variable-connected
   components over [Constr.vars], and keep only the pivot's component.

   Dropping the other components is exact, not an approximation: the
   previous run's inputs satisfy every prefix constraint (they *were*
   the executed path), so each component disjoint from the pivot is
   independently satisfiable by the current IM, and the solver's
   [prefer] completion would reproduce those values anyway. Solving
   only the pivot's component and leaving the untouched inputs at their
   IM values is therefore the same IM + IM' update as solving the whole
   conjunction (paper Fig. 5).

   One solve call tries candidates that share the path constraint and
   differ only in how deep their prefix reaches, so the union-find is
   built once per call and moved between depths: inserting depth [d]
   unions its variables, and moving back up undoes the writes logged
   since the mark of the target depth. Union by rank without path
   compression keeps every write undoable and [find] logarithmic. Each
   root carries the depths of its component's constraints as a rope, so
   a union concatenates in O(1). Negation keeps a constraint's
   variables, so the pivot [negate pc.(j)] joins the same component as
   [pc.(j)], and the state at depths [0..j] is exactly the union-find
   over [pivot :: prefix]. *)
module Slicer = struct
  type rope =
    | Nil
    | Leaf of int
    | Cat of rope * rope

  let cat a b =
    match (a, b) with
    | Nil, r | r, Nil -> r
    | _ -> Cat (a, b)

  (* Variable [u_var]'s fields before one write. *)
  type undo = { u_var : int; u_parent : int; u_rank : int; u_rope : rope }

  type t = {
    pc : Constr.t option array;
    (* Indexed by input id (ids are dense creation-order indices). *)
    mutable parent : int array;
    mutable rank : int array;
    mutable rope : rope array;
    mutable log : undo list;
    mutable cur : int; (* depths [0..cur-1] are inserted *)
    (* Per depth [d <= cur]: the undo log when [cur = d], the
       variable-free constrained depths below [d] (descending), and how
       many depths below [d] carry a constraint. *)
    log_at : undo list array;
    free_at : int list array;
    count_at : int array;
  }

  let create pc =
    let n = Array.length pc in
    { pc;
      parent = Array.init 64 Fun.id;
      rank = Array.make 64 0;
      rope = Array.make 64 Nil;
      log = [];
      cur = 0;
      log_at = Array.make (n + 1) [];
      free_at = Array.make (n + 1) [];
      count_at = Array.make (n + 1) 0 }

  let grow t v =
    let len = Array.length t.parent in
    if v >= len then begin
      let len' = max (2 * len) (v + 1) in
      t.parent <- Array.init len' (fun i -> if i < len then t.parent.(i) else i);
      t.rank <- Array.init len' (fun i -> if i < len then t.rank.(i) else 0);
      t.rope <- Array.init len' (fun i -> if i < len then t.rope.(i) else Nil)
    end

  let rec find t v =
    let p = t.parent.(v) in
    if p = v then v else find t p

  let save t v =
    t.log <-
      { u_var = v; u_parent = t.parent.(v); u_rank = t.rank.(v); u_rope = t.rope.(v) }
      :: t.log

  (* Link two distinct roots; the result is the new root. *)
  let union t a b =
    let ra = t.rank.(a) and rb = t.rank.(b) in
    let child, root = if ra < rb then (a, b) else (b, a) in
    save t child;
    save t root;
    t.parent.(child) <- root;
    if ra = rb then t.rank.(root) <- ra + 1;
    t.rope.(root) <- cat t.rope.(root) t.rope.(child);
    root

  let insert t d =
    let count = t.count_at.(d) and free = t.free_at.(d) in
    (match t.pc.(d) with
     | None ->
       t.count_at.(d + 1) <- count;
       t.free_at.(d + 1) <- free
     | Some c ->
       t.count_at.(d + 1) <- count + 1;
       (match Constr.vars c with
        | [] -> t.free_at.(d + 1) <- d :: free
        | v :: rest ->
          t.free_at.(d + 1) <- free;
          grow t v;
          let root =
            List.fold_left
              (fun r w ->
                grow t w;
                let r' = find t w in
                if r' = r then r else union t r r')
              (find t v) rest
          in
          save t root;
          t.rope.(root) <- cat t.rope.(root) (Leaf d)));
    t.cur <- d + 1;
    t.log_at.(d + 1) <- t.log

  let rec undo_to t mark =
    if t.log != mark then
      match t.log with
      | [] -> assert false
      | u :: rest ->
        t.parent.(u.u_var) <- u.u_parent;
        t.rank.(u.u_var) <- u.u_rank;
        t.rope.(u.u_var) <- u.u_rope;
        t.log <- rest;
        undo_to t mark

  (* Move the state to depths [0..j]. *)
  let seek t j =
    if t.cur > j + 1 then begin
      undo_to t t.log_at.(j + 1);
      t.cur <- j + 1
    end;
    for d = t.cur to j do
      insert t d
    done

  let prefix t j =
    let c =
      match t.pc.(j) with
      | Some c -> c
      | None -> invalid_arg "Solve_pc.Slicer.prefix: no constraint at this depth"
    in
    match Constr.vars c with
    | [] ->
      (* A variable-free pivot cannot be forced by any input; keep the
         full conjunction and let the solver report Unsat. *)
      (full_prefix t.pc j, 0)
    | v :: _ ->
      seek t j;
      let rec depths acc = function
        | Nil -> acc
        | Leaf d -> if d = j then acc else d :: acc
        | Cat (a, b) -> depths (depths acc b) a
      in
      let kept =
        List.sort Int.compare (depths t.free_at.(j) t.rope.(find t v))
      in
      (List.map (fun d -> Option.get t.pc.(d)) kept, t.count_at.(j) - List.length kept)
end

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
  (* Built on the first sliced candidate, then moved between the
     candidates' depths. *)
  let slicer = lazy (Slicer.create path_constraint) in
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
      let kept, sliced =
        if slicing then begin
          let ((_, dropped) as sliced) = Slicer.prefix (Lazy.force slicer) j in
          Solver.record_sliced stats dropped;
          sliced
        end
        else (full_prefix path_constraint j, 0)
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
