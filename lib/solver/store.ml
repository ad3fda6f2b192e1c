(* Lock-free solve store: the one solve-cache table. Every directed
   search owns or shares one — a solo search gets a small private
   instance, and every worker domain of a parallel search shares one.
   Two jobs in one structure:

   - a solved-key memo: Sat/Unsat verdicts keyed on [Cache.canonical]
     keys, published by whichever worker solves them first and visible
     to all (Unknown is never published: it reflects resource limits);

   - frontier-claim slots: acquiring an unsolved key installs an
     [In_flight] marker, so the key doubles as a claim on that branch
     of the shared frontier. A worker that finds another's claim keeps
     solving locally rather than blocking — DART's depth-first
     discipline never waits on a peer — but the claim lets the merge
     layer count duplicated work and lets workers steal solved
     branches instead of re-deriving them.

   The structure is a fixed array of CAS'd cons-list buckets; cells are
   never removed, and each cell's state only ever moves [In_flight ->
   Done] (first publisher wins). With a single worker, acquire/publish
   is a plain memo: a miss, then a hit on every later lookup of a
   Sat/Unsat key, so a solo search's hit sequence is a pure function of
   its own queries. *)

type state =
  | In_flight of int (* worker id holding the claim *)
  | Done of Cache.verdict * int (* verdict in canonical space + publisher *)

type cell = { c_key : Cache.Key.t; c_state : state Atomic.t }

type t = { buckets : cell list Atomic.t array; mask : int }

(* A solo store is created per search, and a campaign creates one per
   slice, so it stays small; a shared one takes every worker's keys. *)
let create ~workers =
  let n = if workers > 1 then 4096 else 256 in
  { buckets = Array.init n (fun _ -> Atomic.make []); mask = n - 1 }

let bucket t key = t.buckets.(Cache.Key.hash key land t.mask)

let rec find_cell cells key =
  match cells with
  | [] -> None
  | c :: rest -> if Cache.Key.equal c.c_key key then Some c else find_cell rest key

type outcome =
  | Hit of Cache.verdict * int
      (** Already solved; verdict (mapped to the query's variables) and
          the worker that published it. *)
  | Claimed  (** We now hold the claim slot: solve and {!publish}. *)
  | Busy of int
      (** Another worker holds the claim; solve locally, do not block. *)

let rec acquire t ~worker (keyed : Cache.keyed) =
  let b = bucket t keyed.Cache.key in
  let cells = Atomic.get b in
  match find_cell cells keyed.Cache.key with
  | Some c -> (
    match Atomic.get c.c_state with
    | Done (v, w) -> Hit (Cache.of_canonical keyed v, w)
    | In_flight w when w = worker ->
      (* Our own stale claim: the earlier solve came back Unknown (never
         published). Retry it. *)
      Claimed
    | In_flight w -> Busy w)
  | None ->
    let cell = { c_key = keyed.Cache.key; c_state = Atomic.make (In_flight worker) } in
    if Atomic.compare_and_set b cells (cell :: cells) then Claimed
    else acquire t ~worker keyed (* lost an insertion race; rescan *)

let publish t ~worker (keyed : Cache.keyed) verdict =
  let v = Cache.to_canonical keyed verdict in
  let rec upgrade cell =
    match Atomic.get cell.c_state with
    | Done _ -> () (* first publisher wins; later verdicts agree anyway *)
    | In_flight _ as old ->
      if not (Atomic.compare_and_set cell.c_state old (Done (v, worker))) then
        upgrade cell
  in
  let rec insert () =
    let b = bucket t keyed.Cache.key in
    let cells = Atomic.get b in
    match find_cell cells keyed.Cache.key with
    | Some cell -> upgrade cell
    | None ->
      let cell = { c_key = keyed.Cache.key; c_state = Atomic.make (Done (v, worker)) } in
      if not (Atomic.compare_and_set b cells (cell :: cells)) then insert ()
  in
  insert ()

let length t =
  Array.fold_left (fun acc b -> acc + List.length (Atomic.get b)) 0 t.buckets

let solved t =
  Array.fold_left
    (fun acc b ->
      List.fold_left
        (fun acc c -> match Atomic.get c.c_state with Done _ -> acc + 1 | In_flight _ -> acc)
        acc (Atomic.get b))
    0 t.buckets
