(* Lock-free solve store: the one solve-cache table. Every directed
   search owns or shares one — a solo search gets a small private
   instance, and every worker domain of a parallel search shares one.
   It is a solved-key memo: Sat/Unsat verdicts keyed on
   [Cache.canonical] keys, published by whichever worker solves them
   first and visible to all (Unknown is never published: it reflects
   resource limits, so the key stays a miss and is retried).

   The structure is a fixed array of CAS'd cons-list buckets of
   immutable cells; cells are never removed, and the first publisher of
   a key wins. With a single worker, lookup/publish is a plain memo: a
   miss, then a hit on every later lookup of a Sat/Unsat key, so a solo
   search's hit sequence is a pure function of its own queries. There
   is no in-flight claim: two workers that miss a key before either
   publishes both solve it, so shared-store query and hit counts vary
   with scheduling (the verdicts agree). *)

type cell = {
  c_key : Cache.Key.t;
  c_verdict : Cache.verdict; (* in canonical space *)
  c_publisher : int;
}

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

type lookup =
  | Hit of Cache.verdict * int
  | Miss

let lookup t (keyed : Cache.keyed) =
  match find_cell (Atomic.get (bucket t keyed.Cache.key)) keyed.Cache.key with
  | Some c -> Hit (Cache.of_canonical keyed c.c_verdict, c.c_publisher)
  | None -> Miss

let publish t ~worker (keyed : Cache.keyed) verdict =
  let cell =
    { c_key = keyed.Cache.key;
      c_verdict = Cache.to_canonical keyed verdict;
      c_publisher = worker }
  in
  let b = bucket t keyed.Cache.key in
  let rec insert () =
    let cells = Atomic.get b in
    (* First publisher wins; later verdicts agree anyway. *)
    if find_cell cells keyed.Cache.key = None
       && not (Atomic.compare_and_set b cells (cell :: cells))
    then insert ()
  in
  insert ()

let length t =
  Array.fold_left (fun acc b -> acc + List.length (Atomic.get b)) 0 t.buckets
