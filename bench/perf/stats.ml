(* Order statistics shared by the run loop and [compare]. The quartiles
   follow Python's [statistics.quantiles(values, n=4)] (the default
   "exclusive" method), so a spread computed here matches one computed
   from the same values by a script. *)

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> 0.
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* (q1, q2, q3) *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld = 0 then (0., 0., 0.)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

(* Interquartile distance as a share of the median (0 when the median
   is 0, so a metric that is identically 0 has no spread). *)
let rel_spread xs =
  let q1, _, q3 = quartiles xs in
  let med = median xs in
  if med = 0. then 0. else (q3 -. q1) /. Float.abs med

let seconds ns = Int64.to_float ns /. 1e9
