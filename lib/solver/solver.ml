open Zarith_lite
open Symbolic

module Cache = Cache
(** Re-export: the solve cache's canonical keys ([lib/solver/cache.ml]),
    reachable as [Solver.Cache] from outside the library. *)

module Store = Store
(** Re-export: the lock-free solve store ([lib/solver/store.ml]),
    reachable as [Solver.Store]. *)

module Breaker = Breaker
(** Re-export: the per-site circuit breaker ([lib/solver/breaker.ml]),
    reachable as [Solver.Breaker]. *)

type result =
  | Sat of (Linexpr.var * Zint.t) list
  | Unsat
  | Unknown

type stats = {
  mutable queries : int;
  mutable sat : int;
  mutable unsat : int;
  mutable unknown : int;
  mutable fast_path : int;
  mutable simplex_queries : int;
  mutable ne_splits : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable constraints_sliced_away : int;
  mutable deadline_overruns : int;
  (* Acceleration-only counters: deliberately absent from
     [to_assoc]/[of_assoc] (and hence from reports, checkpoints and
     resume-identity comparisons) because they measure *work avoided*,
     which a resumed or replayed search legitimately repeats
     differently. Read through [incremental_hits]/[pops_saved]/
     [shared_hits]; summed by [add_stats] like every other counter.
     The breaker counters below live in the same bucket: a skipped
     query is work avoided, and breaker state is rebuilt from scratch
     on resume. *)
  mutable incremental_hits : int;
  mutable pops_saved : int;
  mutable shared_hits : int;
  mutable breaker_opens : int;
  mutable breaker_skips : int;
}

let create_stats () =
  { queries = 0; sat = 0; unsat = 0; unknown = 0; fast_path = 0; simplex_queries = 0;
    ne_splits = 0; cache_hits = 0; cache_misses = 0; constraints_sliced_away = 0;
    deadline_overruns = 0; incremental_hits = 0; pops_saved = 0; shared_hits = 0;
    breaker_opens = 0; breaker_skips = 0 }

(* The record stays private to this module: outside consumers go
   through the accessors / [to_assoc], so widening the record (as the
   acceleration PRs did) is a local change. *)

let queries s = s.queries
let sat_count s = s.sat
let unsat_count s = s.unsat
let unknown_count s = s.unknown
let fast_path s = s.fast_path
let simplex_queries s = s.simplex_queries
let ne_splits s = s.ne_splits
let cache_hits s = s.cache_hits
let cache_misses s = s.cache_misses
let constraints_sliced_away s = s.constraints_sliced_away
let deadline_overruns s = s.deadline_overruns
let incremental_hits s = s.incremental_hits
let pops_saved s = s.pops_saved
let shared_hits s = s.shared_hits
let breaker_opens s = s.breaker_opens
let breaker_skips s = s.breaker_skips

let to_assoc s =
  [ ("queries", s.queries); ("sat", s.sat); ("unsat", s.unsat); ("unknown", s.unknown);
    ("fast_path", s.fast_path); ("simplex_queries", s.simplex_queries);
    ("ne_splits", s.ne_splits); ("cache_hits", s.cache_hits);
    ("cache_misses", s.cache_misses);
    ("constraints_sliced_away", s.constraints_sliced_away);
    ("deadline_overruns", s.deadline_overruns) ]

let of_assoc alist =
  let s = create_stats () in
  List.iter
    (fun (k, v) ->
      match k with
      | "queries" -> s.queries <- v
      | "sat" -> s.sat <- v
      | "unsat" -> s.unsat <- v
      | "unknown" -> s.unknown <- v
      | "fast_path" -> s.fast_path <- v
      | "simplex_queries" -> s.simplex_queries <- v
      | "ne_splits" -> s.ne_splits <- v
      | "cache_hits" -> s.cache_hits <- v
      | "cache_misses" -> s.cache_misses <- v
      | "constraints_sliced_away" -> s.constraints_sliced_away <- v
      | "deadline_overruns" -> s.deadline_overruns <- v
      | k -> invalid_arg (Printf.sprintf "Solver.of_assoc: unknown counter %S" k))
    alist;
  s

let add_stats ~into w =
  into.queries <- into.queries + w.queries;
  into.sat <- into.sat + w.sat;
  into.unsat <- into.unsat + w.unsat;
  into.unknown <- into.unknown + w.unknown;
  into.fast_path <- into.fast_path + w.fast_path;
  into.simplex_queries <- into.simplex_queries + w.simplex_queries;
  into.ne_splits <- into.ne_splits + w.ne_splits;
  into.cache_hits <- into.cache_hits + w.cache_hits;
  into.cache_misses <- into.cache_misses + w.cache_misses;
  into.constraints_sliced_away <- into.constraints_sliced_away + w.constraints_sliced_away;
  into.deadline_overruns <- into.deadline_overruns + w.deadline_overruns;
  into.incremental_hits <- into.incremental_hits + w.incremental_hits;
  into.pops_saved <- into.pops_saved + w.pops_saved;
  into.shared_hits <- into.shared_hits + w.shared_hits;
  into.breaker_opens <- into.breaker_opens + w.breaker_opens;
  into.breaker_skips <- into.breaker_skips + w.breaker_skips

let record_cache_hit s = s.cache_hits <- s.cache_hits + 1
let record_cache_miss s = s.cache_misses <- s.cache_misses + 1
let record_sliced s n = s.constraints_sliced_away <- s.constraints_sliced_away + n
let record_shared_hit s = s.shared_hits <- s.shared_hits + 1
let record_breaker_open s = s.breaker_opens <- s.breaker_opens + 1
let record_breaker_skip s = s.breaker_skips <- s.breaker_skips + 1

let dummy_stats = create_stats ()

let check_model cs model =
  let tbl = Hashtbl.create 16 in
  List.iter (fun (v, z) -> Hashtbl.replace tbl v z) model;
  let env v = match Hashtbl.find_opt tbl v with Some z -> z | None -> Zint.zero in
  List.for_all (Constr.holds env) cs

(* Choose an integer in [lo, hi] avoiding [forbidden], preferring
   [pref] (clamped into the interval), then walking up, then down. The
   forbidden list is tiny in practice (one entry per != atom on the
   variable). *)
let choose_value ~lo ~hi ~forbidden ~pref =
  if Zint.compare lo hi > 0 then None
  else begin
    let clamp z = Zint.max lo (Zint.min hi z) in
    let start = clamp pref in
    let is_ok z = not (List.exists (Zint.equal z) forbidden) in
    let rec up z = if Zint.compare z hi > 0 then None else if is_ok z then Some z else up (Zint.succ z) in
    let rec down z = if Zint.compare z lo < 0 then None else if is_ok z then Some z else down (Zint.pred z) in
    match up start with
    | Some z -> Some z
    | None -> down (Zint.pred start)
  end

(* Univariate disequality [a*v + c <> 0] forbids a single value when a
   divides -c, and is vacuous otherwise. *)
let univariate_forbidden nes =
  let tbl : (Linexpr.var, Zint.t list) Hashtbl.t = Hashtbl.create 8 in
  let rest = ref [] in
  let contradiction = ref false in
  List.iter
    (fun e ->
      match Linexpr.terms e with
      | [] -> if Zint.is_zero (Linexpr.constant_part e) then contradiction := true
      | [ (v, a) ] ->
        let c = Linexpr.constant_part e in
        let q, r = Zint.div_rem (Zint.neg c) a in
        if Zint.is_zero r then begin
          let prev = Option.value ~default:[] (Hashtbl.find_opt tbl v) in
          Hashtbl.replace tbl v (q :: prev)
        end
      | _ -> rest := e :: !rest)
    nes;
  (!contradiction, tbl, List.rev !rest)

(* ---- prepared problems ------------------------------------------------------

   The solver pipeline splits at the tightened problem: everything up
   to (and including) Gaussian elimination, interval absorption and
   the disequality tables depends only on the constraint *set*, not on
   the preferred values or the deadline of the particular query. That
   stage output is a [prepared] value; an incremental context memoises
   prepared states keyed on the exact tightened bucket lists, so a
   re-issued (or pivot-extended) path constraint replays only the
   per-query tail: preference check, value choice, back-substitution
   and the final model check. Correctness is structural — both the
   fresh and the memoised route run the same code on the same lists —
   so results are identical by construction. *)

module P_key = struct
  type t = Problem.t

  let equal (a : Problem.t) (b : Problem.t) =
    List.equal Linexpr.equal a.Problem.eqs b.Problem.eqs
    && List.equal Linexpr.equal a.Problem.les b.Problem.les
    && List.equal Linexpr.equal a.Problem.nes b.Problem.nes

  let hash (p : Problem.t) =
    let h acc e = (acc * 31) + Linexpr.hash e in
    let hl acc l = List.fold_left h ((acc * 7) + 3) l in
    hl (hl (hl 17 p.Problem.eqs) p.Problem.les) p.Problem.nes
end

module P_tbl = Hashtbl.Make (P_key)

type prepared =
  | P_unsat (* elimination / absorption / disequalities found a contradiction *)
  | P_go of {
      g_subst : (Linexpr.var * Linexpr.t) list; (* Gauss substitution *)
      g_box : Intervals.t; (* absorbed univariate bounds (read-only after prepare) *)
      g_multi_les : Linexpr.t list; (* residual multivariate inequalities *)
      g_les_vars : Linexpr.var list;
      g_forbidden : (Linexpr.var, Zint.t list) Hashtbl.t;
      mutable g_bb : Branch_bound.result option;
          (* Memoised branch-and-bound verdict; only written when the
             computation ran to completion (no deadline overrun), so a
             memo hit replays exactly the deadline-free result. *)
    }

(* Run the query-independent pipeline stages on a tightened problem. *)
let prepare (p : Problem.t) : prepared =
  match Gauss.eliminate p with
  | Gauss.Unsat -> P_unsat
  | Gauss.Reduced (p', subst) ->
    (* Keep eliminated variables inside the 32-bit word range by
       constraining their defining expressions. *)
    let range_les =
      List.concat_map
        (fun (_, def) ->
          [ Linexpr.add_const (Zint.neg Problem.word_max) def;
            (* def - max <= 0 *)
            Linexpr.add_const Problem.word_min (Linexpr.neg def) (* min - def <= 0 *) ])
        subst
    in
    let box = Intervals.create () in
    let all_les =
      (* Post-elimination expressions can pick up common factors;
         tighten again so the interval fast path sees exact bounds. *)
      match Problem.tighten { Problem.eqs = []; les = range_les @ p'.Problem.les; nes = [] } with
      | None -> None
      | Some tp -> Some tp.Problem.les
    in
    (match Option.bind all_les (Intervals.absorb_univariate box) with
     | None -> P_unsat
     | Some multi_les ->
       (* Multivariate disequalities need no special handling here:
          the final model check catches any violation and the solver
          splits on it. *)
       let contradiction, forbidden_tbl, _multi_nes = univariate_forbidden p'.Problem.nes in
       if contradiction then P_unsat
       else begin
         let les_vars =
           let tbl = Hashtbl.create 8 in
           List.iter
             (fun e -> List.iter (fun v -> Hashtbl.replace tbl v ()) (Linexpr.vars e))
             multi_les;
           Hashtbl.fold (fun v () acc -> v :: acc) tbl []
         in
         P_go
           { g_subst = subst; g_box = box; g_multi_les = multi_les;
             g_les_vars = les_vars; g_forbidden = forbidden_tbl; g_bb = None }
       end)

(* ---- incremental contexts ---------------------------------------------------

   An assertion stack over the query's shared prefix. Each level holds
   one asserted constraint plus the cumulative normalized bucket lists
   of everything below it; [Solve_pc] pops only the suffix that
   differs from the previous query and pushes the new atoms, so the
   per-atom tightening of a shared prefix is done once, not per query.
   The bucket lists are built to be *list-equal* to what
   [Problem.of_constrs] + [Problem.tighten] produce on the assembled
   constraint list (cons-only folds commute with concatenation), which
   is what lets them key the prepared-state memo soundly. *)

type level = {
  l_constr : Constr.t;
  l_cum : Problem.t option; (* None: some atom below is directly unsat *)
}

type incr = {
  ic_prepared : prepared P_tbl.t;
  mutable ic_stack : level list; (* bottom first: stack.(i) asserts prefix.(i) *)
}

(* Normalize one atom into cons'd bucket lists, mirroring
   [Problem.add_constr] followed by [Problem.tighten] atom-wise. *)
let add_norm (p : Problem.t option) (c : Constr.t) : Problem.t option =
  match p with
  | None -> None
  | Some p -> (
    match c.Constr.rel with
    | Constr.Eq0 -> (
      match Problem.tighten_eq_atom c.Constr.lhs with
      | None -> None
      | Some e -> Some { p with Problem.eqs = e :: p.Problem.eqs })
    | Constr.Ne0 -> Some { p with Problem.nes = c.Constr.lhs :: p.Problem.nes }
    | Constr.Le0 ->
      Some { p with Problem.les = Problem.tighten_le_atom c.Constr.lhs :: p.Problem.les }
    | Constr.Lt0 ->
      Some
        { p with
          Problem.les =
            Problem.tighten_le_atom (Linexpr.add_const Zint.one c.Constr.lhs)
            :: p.Problem.les })

let norm_fold cs = List.fold_left add_norm (Some Problem.empty) cs

(* Bucket-wise concatenation: [glue a b] is the normalized problem of
   b's atoms processed after a's (cons-only state threading). *)
let glue (a : Problem.t option) (b : Problem.t option) =
  match (a, b) with
  | None, _ | _, None -> None
  | Some a, Some b ->
    Some
      { Problem.eqs = b.Problem.eqs @ a.Problem.eqs;
        les = b.Problem.les @ a.Problem.les;
        nes = b.Problem.nes @ a.Problem.nes }

let max_ne_split_depth = 24

(* The solver core, shared by the one-shot and the incremental entry
   points. [top] optionally supplies the already-normalized tightened
   problem for the outermost constraint list (the incremental stack
   assembles it); sub-queries from disequality splits always normalize
   their own. [memo] optionally supplies the prepared-state table. *)
let solve_core ~stats ~prefer ~use_simplex ~deadline ~memo ~top cs =
  stats.queries <- stats.queries + 1;
  let overran = ref false in
  let expired () =
    if deadline () then begin
      overran := true;
      true
    end
    else false
  in
  let all_vars =
    let tbl = Hashtbl.create 16 in
    List.iter (fun c -> List.iter (fun v -> Hashtbl.replace tbl v ()) (Constr.vars c)) cs;
    Hashtbl.fold (fun v () acc -> v :: acc) tbl []
  in
  let pref v = match prefer v with Some z -> z | None -> Zint.zero in
  let lookup (p : Problem.t) : prepared =
    match memo with
    | None -> prepare p
    | Some tbl -> (
      match P_tbl.find_opt tbl p with
      | Some prep ->
        stats.incremental_hits <- stats.incremental_hits + 1;
        prep
      | None ->
        let prep = prepare p in
        P_tbl.replace tbl p prep;
        prep)
  in
  let rec attempt depth ~top cs =
    (* One deadline poll per (sub-)query: ne-splits recurse through
       here, so a deep split tree cannot outlive its budget either. *)
    if expired () then Unknown
    else begin
      let tightened =
        match top with
        | Some t -> t
        | None -> Problem.tighten (Problem.of_constrs cs)
      in
      match tightened with
      | None -> Unsat
      | Some p -> attempt_prepared depth cs (lookup p)
    end
  and attempt_prepared depth cs prep =
    match prep with
    | P_unsat -> Unsat
    | P_go g ->
      let assignment : (Linexpr.var, Zint.t) Hashtbl.t = Hashtbl.create 16 in
      (* Before falling back to simplex, try the preferred values
         (the previous run's inputs, clamped into their intervals):
         when they already satisfy the residual system — the common
         case after Gaussian elimination pivoted the constrained
         variable away — the solution stays close to the previous
         run instead of jumping to a polytope corner. Corner
         solutions are not wrong, but they are deterministic, which
         starves randomness-dependent branches (e.g. parity checks)
         across restarts. *)
      let preferred_satisfies () =
        let candidate = Hashtbl.create 8 in
        List.iter
          (fun v ->
            let lo = Intervals.lo g.g_box v and hi = Intervals.hi g.g_box v in
            let clamped = Zint.max lo (Zint.min hi (pref v)) in
            Hashtbl.replace candidate v clamped)
          g.g_les_vars;
        let env v =
          match Hashtbl.find_opt candidate v with
          | Some z -> z
          | None -> Zint.zero
        in
        if List.for_all (fun e -> Zint.sign (Linexpr.eval env e) <= 0) g.g_multi_les
        then begin
          Hashtbl.iter (fun v z -> Hashtbl.replace assignment v z) candidate;
          true
        end
        else false
      in
      let core_result =
        if g.g_multi_les = [] then begin
          stats.fast_path <- stats.fast_path + 1;
          `Ok
        end
        else if preferred_satisfies () then begin
          stats.fast_path <- stats.fast_path + 1;
          `Ok
        end
        else if not use_simplex then `Unknown
        else begin
          stats.simplex_queries <- stats.simplex_queries + 1;
          let bb =
            match g.g_bb with
            | Some r -> r
            | None ->
              let r =
                Branch_bound.solve ~deadline:expired ~intervals:g.g_box
                  ~les:g.g_multi_les ~vars:g.g_les_vars ()
              in
              (* Memoise only complete computations: a result reached
                 under an expired deadline must stay retriable. *)
              if not !overran then g.g_bb <- Some r;
              r
          in
          match bb with
          | Branch_bound.Unsat -> `Unsat
          | Branch_bound.Unknown -> `Unknown
          | Branch_bound.Sat model ->
            List.iter (fun (v, z) -> Hashtbl.replace assignment v z) model;
            `Ok
        end
      in
      (match core_result with
       | `Unsat -> Unsat
       | `Unknown -> Unknown
       | `Ok ->
         (* Free variables: pick a value in their interval avoiding
            univariate-forbidden values. *)
         let unsat_free = ref false in
         let surviving_vars =
           (* every var of the reduced problem plus all original
              vars not eliminated *)
           let eliminated = List.map fst g.g_subst in
           List.filter (fun v -> not (List.mem v eliminated)) all_vars
         in
         List.iter
           (fun v ->
             if not (Hashtbl.mem assignment v) then begin
               let forbidden =
                 Option.value ~default:[] (Hashtbl.find_opt g.g_forbidden v)
               in
               match
                 choose_value ~lo:(Intervals.lo g.g_box v) ~hi:(Intervals.hi g.g_box v)
                   ~forbidden ~pref:(pref v)
               with
               | Some z -> Hashtbl.replace assignment v z
               | None -> unsat_free := true
             end)
           surviving_vars;
         if !unsat_free then Unsat
         else begin
           (* Variables fixed by branch-and-bound may still violate a
              univariate disequality (the box knows bounds, not
              holes) — re-check every remaining atom and split. *)
           Gauss.back_substitute g.g_subst assignment;
           let env v =
             match Hashtbl.find_opt assignment v with
             | Some z -> z
             | None -> Zint.zero
           in
           let violated =
             List.find_opt (fun c -> not (Constr.holds env c)) cs
           in
           match violated with
           | None -> Sat (List.map (fun v -> (v, env v)) all_vars)
           | Some c when depth < max_ne_split_depth ->
             (match c.Constr.rel with
              | Constr.Ne0 ->
                stats.ne_splits <- stats.ne_splits + 1;
                (* e <> 0: try e <= -1, then e >= 1. *)
                let below =
                  Constr.make (Linexpr.add_const Zint.one c.Constr.lhs) Constr.Le0
                in
                let above =
                  Constr.make
                    (Linexpr.add_const Zint.one (Linexpr.neg c.Constr.lhs))
                    Constr.Le0
                in
                (match attempt (depth + 1) ~top:None (below :: cs) with
                 | Sat m -> Sat m
                 | Unsat -> attempt (depth + 1) ~top:None (above :: cs)
                 | Unknown ->
                   (match attempt (depth + 1) ~top:None (above :: cs) with
                    | Sat m -> Sat m
                    | Unsat | Unknown -> Unknown))
              | Constr.Eq0 | Constr.Le0 | Constr.Lt0 ->
                (* A violated core atom after a successful solve is
                   a solver bug; stay sound and give up. *)
                Unknown)
           | Some _ -> Unknown
         end)
  in
  let r = attempt 0 ~top cs in
  if !overran then stats.deadline_overruns <- stats.deadline_overruns + 1;
  (match r with
   | Sat model ->
     if check_model cs model then stats.sat <- stats.sat + 1
     else stats.unknown <- stats.unknown + 1
   | Unsat -> stats.unsat <- stats.unsat + 1
   | Unknown -> stats.unknown <- stats.unknown + 1);
  match r with
  | Sat model when not (check_model cs model) -> Unknown
  | r -> r

let solve ?(stats = dummy_stats) ?(prefer = fun _ -> None) ?(use_simplex = true)
    ?(deadline = fun () -> false) cs =
  solve_core ~stats ~prefer ~use_simplex ~deadline ~memo:None ~top:None cs

module Incr = struct
  type t = incr

  let create () = { ic_prepared = P_tbl.create 256; ic_stack = [] }

  let depth t = List.length t.ic_stack

  let reset t = t.ic_stack <- []

  (* Re-align the assertion stack with [prefix]: keep the common
     prefix of levels (their cumulative normalized lists are reused as
     is), pop everything past it, push the rest. Returns the cumulative
     problem of the full prefix and the number of levels retained. *)
  let sync t prefix =
    let rec walk levels atoms kept acc =
      match (levels, atoms) with
      | l :: ls, a :: rest when Constr.equal l.l_constr a ->
        walk ls rest (kept + 1) (l :: acc)
      | _, rest -> (List.rev acc, rest, kept)
    in
    let retained, to_push, kept = walk t.ic_stack prefix 0 [] in
    let cum =
      match retained with [] -> Some Problem.empty | _ -> (List.hd (List.rev retained)).l_cum
    in
    let stack_rev = ref (List.rev retained) in
    let cum = ref cum in
    List.iter
      (fun a ->
        cum := add_norm !cum a;
        stack_rev := { l_constr = a; l_cum = !cum } :: !stack_rev)
      to_push;
    t.ic_stack <- List.rev !stack_rev;
    (!cum, kept)

  let solve t ?(stats = dummy_stats) ?(prefer = fun _ -> None) ?(use_simplex = true)
      ?(deadline = fun () -> false) ~pivot ~prefix ~domains () =
    let cum, kept = sync t prefix in
    stats.pops_saved <- stats.pops_saved + kept;
    (* Normalized problem of [pivot :: prefix @ domains]: a cons-only
       fold threads state left to right, so the assembled bucket lists
       are the domain contributions, then the stack's cumulative
       lists, then the pivot's — list-equal to the from-scratch
       normalization of the assembled constraint list. *)
    let top = glue (add_norm (Some Problem.empty) pivot) (glue cum (norm_fold domains)) in
    let cs = pivot :: (prefix @ domains) in
    solve_core ~stats ~prefer ~use_simplex ~deadline ~memo:(Some t.ic_prepared)
      ~top:(Some top) cs
end
