(* Splitmix64: tiny, fast, and passes BigCrush; more than enough for
   test-input generation, and trivially reproducible. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }
let copy t = { state = t.state }
let state t = t.state
let set_state t s = t.state <- s

let golden = 0x9E3779B97F4A7C15L

let next_int64 t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let seed = next_int64 t in
  { state = seed }

let bits32 t = Int64.to_int (Int64.of_int32 (Int64.to_int32 (next_int64 t)))

let int_below t n =
  if n <= 0 then invalid_arg "Prng.int_below";
  (* Rejection-free modulo is fine here: bias is negligible for the
     small ranges used (menus of branches, list lengths). Keep 62 bits
     so the value is non-negative as a native 63-bit int. *)
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod n

let int_range t lo hi =
  if lo > hi then invalid_arg "Prng.int_range";
  lo + int_below t (hi - lo + 1)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let choose t = function
  | [] -> invalid_arg "Prng.choose: empty list"
  | l -> List.nth l (int_below t (List.length l))
