(* A per-site circuit breaker for solver queries.

   A "site" is a branch location [(fn, pc)]. When consecutive queries at
   one site come back Unknown because the per-query deadline overran, the
   site is almost certainly a constraint family the solver cannot decide
   within budget — every further query there burns a full deadline for no
   information. The breaker opens after [threshold] consecutive such
   failures and short-circuits subsequent queries at that site to an
   immediate Unknown, which costs nothing and is exactly what the search
   would have concluded anyway. After [cooldown] ticks (slices in a
   campaign, restarts in a single run) the breaker half-opens: the next
   query is let through as a probe, and its outcome decides between
   closing again and re-opening for another cooldown.

   Structural Unknowns (e.g. nonlinear constraints rejected without a
   deadline overrun) never trip the breaker: they are cheap and their
   pattern is not time-dependent, and keeping them out is what makes the
   default run byte-identical to one without a breaker on
   solver-incomplete workloads.

   Not thread-safe: each search context owns its breaker. Parallel
   workers each get their own, like their stats. *)

type status =
  | Closed
  | Open of int (* cooldown ticks remaining *)
  | Half_open

type site_state = {
  mutable consecutive : int; (* consecutive overrun-Unknowns while closed *)
  mutable status : status;
}

type t = {
  tbl : (string * int, site_state) Hashtbl.t;
  threshold : int;
  cooldown : int;
  mutable opens : int; (* transitions into Open, cumulative *)
  mutable skips : int; (* queries short-circuited, cumulative *)
}

let create ?(threshold = 3) ?(cooldown = 2) () =
  if threshold < 1 then invalid_arg "Breaker.create: threshold must be >= 1";
  if cooldown < 1 then invalid_arg "Breaker.create: cooldown must be >= 1";
  { tbl = Hashtbl.create 16; threshold; cooldown; opens = 0; skips = 0 }

let skip t site =
  match Hashtbl.find_opt t.tbl site with
  | Some { status = Open _; _ } ->
    t.skips <- t.skips + 1;
    true
  | _ -> false

let get t site =
  match Hashtbl.find_opt t.tbl site with
  | Some s -> s
  | None ->
    let s = { consecutive = 0; status = Closed } in
    Hashtbl.add t.tbl site s;
    s

let record t site ~failed =
  let s = get t site in
  match s.status with
  | Open _ -> `None (* skipped queries are not recorded; ignore stragglers *)
  | Half_open ->
    if failed then begin
      s.status <- Open t.cooldown;
      t.opens <- t.opens + 1;
      `Opened
    end
    else begin
      s.status <- Closed;
      s.consecutive <- 0;
      `Closed
    end
  | Closed ->
    if failed then begin
      s.consecutive <- s.consecutive + 1;
      if s.consecutive >= t.threshold then begin
        s.status <- Open t.cooldown;
        t.opens <- t.opens + 1;
        `Opened
      end
      else `None
    end
    else begin
      s.consecutive <- 0;
      `None
    end

let tick t =
  Hashtbl.iter
    (fun _ s ->
      match s.status with
      | Open n when n <= 1 -> s.status <- Half_open
      | Open n -> s.status <- Open (n - 1)
      | Closed | Half_open -> ())
    t.tbl

let opens t = t.opens
let skips t = t.skips
let open_sites t =
  Hashtbl.fold
    (fun site s acc ->
      match s.status with
      | Open _ | Half_open -> site :: acc
      | Closed -> acc)
    t.tbl []
