(* Differential suite for [Zint]'s native-int fast path: every
   operation in zint.mli is played against [Zint_ref], the limb-only
   implementation, and the two must agree on the printed value, the
   hash, the sign and the native-int view. [Qnum] is checked the same
   way against a rational reference over [Zint_ref]. Mirrors
   diff_solver.ml and diff_engines.ml: the fast path claims to be an
   optimisation, so any divergence is a bug in it. *)

open Zarith_lite
module R = Zint_ref

(* ---- generators ------------------------------------------------------------ *)

(* Values where the representation switches: 0 and ±1, the 2^15 limb
   edge, the 32-bit word and 2^32 box widths, and the native-int edge
   (max_int = 2^62 - 1, min_int = -2^62). *)
let edges =
  let p k = R.pow R.two k in
  [ R.zero; R.one; p 15; p 30; p 31; p 32; R.of_int max_int; p 62; p 63 ]

let gen_ref =
  let open QCheck2.Gen in
  let near = map2 (fun e d -> R.add e (R.of_int d)) (oneofl edges) (int_range (-2) 2) in
  let multi_limb = map R.of_string (string_size ~gen:numeral (int_range 19 40)) in
  let v =
    frequency
      [ (4, near);
        (2, map R.of_int (int_range (-100_000) 100_000));
        (2, map R.of_int int);
        (1, multi_limb) ]
  in
  map2 (fun v negate -> if negate then R.neg v else v) v bool

let gen_native =
  QCheck2.Gen.(
    frequency
      [ (1, oneofl [ 0; 1; -1; max_int; min_int; 1 lsl 31; -(1 lsl 32) ]);
        (2, int_range (-100) 100);
        (2, int) ])

(* ---- observations ---------------------------------------------------------- *)

(* The new value is handed over as text, so [of_string] is on trial in
   every property. *)
let lift z = Zint.of_string (R.to_string z)

(* Each integer has one representation: a value that fits a native int
   is structurally equal to [of_int] of it, and every value to its
   reparse. Polymorphic equality and hashing rely on this. *)
let canonical z =
  z = Zint.of_string (Zint.to_string z)
  && match Zint.to_int_opt z with Some n -> z = Zint.of_int n | None -> true

let obs_new z =
  ( Zint.to_string z,
    Format.asprintf "%a" Zint.pp z,
    Zint.hash z,
    Zint.sign z,
    (Zint.is_zero z, Zint.is_one z),
    (Zint.fits_int z, Zint.to_int_opt z),
    canonical z )

let obs_ref z =
  ( R.to_string z,
    Format.asprintf "%a" R.pp z,
    R.hash z,
    R.sign z,
    (R.is_zero z, R.is_one z),
    (R.fits_int z, R.to_int_opt z),
    true )

(* Results, exceptions included, must match exactly. *)
let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)
let agrees f_new f_ref = outcome f_new = outcome f_ref

let show = R.to_string

let prop name print gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:500 ~name ~print gen f)

let unary name fn fr =
  prop name show gen_ref (fun a -> agrees (fun () -> obs_new (fn (lift a))) (fun () -> obs_ref (fr a)))

let pair_print (a, b) = show a ^ ", " ^ show b

let binary_to name ~obs_n ~obs_r fn fr =
  prop name pair_print (QCheck2.Gen.pair gen_ref gen_ref) (fun (a, b) ->
      agrees (fun () -> obs_n (fn (lift a) (lift b))) (fun () -> obs_r (fr a b)))

let binary name fn fr = binary_to name ~obs_n:obs_new ~obs_r:obs_ref fn fr

let with_native name fn fr =
  prop name
    (fun (a, k) -> show a ^ ", " ^ string_of_int k)
    (QCheck2.Gen.pair gen_ref gen_native)
    (fun (a, k) -> agrees (fun () -> obs_new (fn (lift a) k)) (fun () -> obs_ref (fr a k)))

let test_constants () =
  List.iter
    (fun (name, z, r) -> Alcotest.(check bool) name true (obs_new z = obs_ref r))
    [ ("zero", Zint.zero, R.zero);
      ("one", Zint.one, R.one);
      ("two", Zint.two, R.two);
      ("minus_one", Zint.minus_one, R.minus_one) ]

let test_of_string_edges () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "of_string %S" s) true
        (agrees (fun () -> obs_new (Zint.of_string s)) (fun () -> obs_ref (R.of_string s))))
    [ ""; "-"; "+"; "+0"; "-0"; "007"; "1-2"; "0x10"; "12a3"; "-4611686018427387904" ]

(* Every pair of values within 1 of an edge, both signs: the cases a
   random draw rarely hits, such as a sum or product landing exactly on
   min_int. *)
let test_edge_grid () =
  let values =
    List.concat_map
      (fun e ->
        List.concat_map
          (fun d ->
            let v = R.add e (R.of_int d) in
            [ v; R.neg v ])
          [ -1; 0; 1 ])
      edges
  in
  let ops =
    [ ("add", Zint.add, R.add); ("sub", Zint.sub, R.sub); ("mul", Zint.mul, R.mul);
      ("div", Zint.div, R.div); ("rem", Zint.rem, R.rem); ("fdiv", Zint.fdiv, R.fdiv);
      ("cdiv", Zint.cdiv, R.cdiv); ("gcd", Zint.gcd, R.gcd); ("lcm", Zint.lcm, R.lcm) ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          List.iter
            (fun (name, fn, fr) ->
              if not (agrees (fun () -> obs_new (fn (lift a) (lift b))) (fun () -> obs_ref (fr a b)))
              then Alcotest.failf "%s %s %s" name (show a) (show b))
            ops;
          if Zint.compare (lift a) (lift b) <> R.compare a b then
            Alcotest.failf "compare %s %s" (show a) (show b))
        values)
    values

(* ---- rationals ------------------------------------------------------------- *)

(* The canonical rational [n/d] over reference integers. *)
let qref_make n d =
  if R.is_zero d then raise Division_by_zero;
  let g = R.gcd n d in
  let n = R.div n g and d = R.div d g in
  if R.sign d < 0 then (R.neg n, R.neg d) else (n, d)

let qref_add (n1, d1) (n2, d2) = qref_make (R.add (R.mul n1 d2) (R.mul n2 d1)) (R.mul d1 d2)
let qref_mul (n1, d1) (n2, d2) = qref_make (R.mul n1 n2) (R.mul d1 d2)
let qref_div (n1, d1) (n2, d2) = qref_make (R.mul n1 d2) (R.mul d1 n2)
let qref_compare (n1, d1) (n2, d2) = R.compare (R.mul n1 d2) (R.mul n2 d1)

(* Canonical fractions with integer denominators half the time, so the
   integer fast paths in [Qnum] see both operand kinds. *)
let gen_frac =
  let open QCheck2.Gen in
  let den = frequency [ (1, return R.one); (1, gen_ref) ] in
  map2 (fun n d -> qref_make n (if R.is_zero d then R.one else d)) gen_ref den

let lift_q (n, d) = Qnum.make (lift n) (lift d)
let obs_q q = (Qnum.to_string q, obs_new (Qnum.num q), obs_new (Qnum.den q))

let obs_qref (n, d) =
  ((if R.is_one d then show n else show n ^ "/" ^ show d), obs_ref n, obs_ref d)

let frac_print (n, d) = show n ^ "/" ^ show d

let q_binary name ~obs_n ~obs_r fn fr =
  prop name
    (fun (a, b) -> frac_print a ^ ", " ^ frac_print b)
    (QCheck2.Gen.pair gen_frac gen_frac)
    (fun (a, b) -> agrees (fun () -> obs_n (fn (lift_q a) (lift_q b))) (fun () -> obs_r (fr a b)))

let q_round name fn fr =
  prop name frac_print gen_frac (fun a ->
      agrees (fun () -> obs_new (fn (lift_q a))) (fun () -> obs_ref (fr a)))

let suite =
  let id x = x in
  let pair_obs obs (q, r) = (obs q, obs r) in
  [ Alcotest.test_case "constants" `Quick test_constants;
    Alcotest.test_case "of_string edge strings" `Quick test_of_string_edges;
    Alcotest.test_case "edge grid" `Quick test_edge_grid;
    unary "of_string/to_string" id id;
    unary "neg" Zint.neg R.neg;
    unary "abs" Zint.abs R.abs;
    unary "succ" Zint.succ R.succ;
    unary "pred" Zint.pred R.pred;
    prop "to_int" show gen_ref (fun a ->
        agrees (fun () -> Zint.to_int (lift a)) (fun () -> R.to_int a));
    prop "of_int" string_of_int gen_native (fun k ->
        agrees (fun () -> obs_new (Zint.of_int k)) (fun () -> obs_ref (R.of_int k)));
    with_native "add_int" Zint.add_int R.add_int;
    with_native "mul_int" Zint.mul_int R.mul_int;
    binary "add" Zint.add R.add;
    binary "sub" Zint.sub R.sub;
    binary "mul" Zint.mul R.mul;
    binary_to "div_rem" ~obs_n:(pair_obs obs_new) ~obs_r:(pair_obs obs_ref) Zint.div_rem
      R.div_rem;
    binary "div" Zint.div R.div;
    binary "rem" Zint.rem R.rem;
    binary "fdiv" Zint.fdiv R.fdiv;
    binary "cdiv" Zint.cdiv R.cdiv;
    binary "gcd" Zint.gcd R.gcd;
    binary "lcm" Zint.lcm R.lcm;
    binary "min" Zint.min R.min;
    binary "max" Zint.max R.max;
    binary_to "compare/equal" ~obs_n:id ~obs_r:id
      (fun a b -> (Zint.compare a b, Zint.equal a b))
      (fun a b -> (R.compare a b, R.equal a b));
    prop "pow"
      (fun (a, n) -> show a ^ "^" ^ string_of_int n)
      QCheck2.Gen.(
        pair
          (oneof [ gen_ref; map R.of_int (int_range (-3) 3) ])
          (frequency [ (3, int_range (-1) 4); (1, int_range 0 70) ]))
      (fun (a, n) ->
        (* Large exponents only on tiny bases: the reference prints
           thousand-bit values slowly. *)
        QCheck2.assume (n <= 4 || R.compare (R.abs a) (R.of_int 3) <= 0);
        agrees (fun () -> obs_new (Zint.pow (lift a) n)) (fun () -> obs_ref (R.pow a n)));
    q_binary "qnum add" ~obs_n:obs_q ~obs_r:obs_qref Qnum.add qref_add;
    q_binary "qnum mul" ~obs_n:obs_q ~obs_r:obs_qref Qnum.mul qref_mul;
    q_binary "qnum div" ~obs_n:obs_q ~obs_r:obs_qref Qnum.div qref_div;
    q_binary "qnum compare" ~obs_n:id ~obs_r:id Qnum.compare qref_compare;
    q_round "qnum floor" Qnum.floor (fun (n, d) -> R.fdiv n d);
    q_round "qnum ceil" Qnum.ceil (fun (n, d) -> R.cdiv n d) ]
