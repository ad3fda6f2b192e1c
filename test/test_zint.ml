(* Unit and property tests for the bignum substrate. The properties
   compare against native [int] arithmetic on ranges where it is exact,
   and against string-level identities for values beyond it. *)

open Zarith_lite

let zint = Alcotest.testable Zint.pp Zint.equal

let check_z = Alcotest.check zint

(* qcheck generator for ints that exercise sign and magnitude mixes
   without overflowing native multiplication. *)
let small_int = QCheck2.Gen.int_range (-1_000_000) 1_000_000
let any_int = QCheck2.Gen.int_range (-0x3FFF_FFFF_FFFF) 0x3FFF_FFFF_FFFF

let test_constants () =
  check_z "zero" (Zint.of_int 0) Zint.zero;
  check_z "one" (Zint.of_int 1) Zint.one;
  check_z "minus_one" (Zint.of_int (-1)) Zint.minus_one;
  Alcotest.(check int) "sign zero" 0 (Zint.sign Zint.zero);
  Alcotest.(check int) "sign pos" 1 (Zint.sign (Zint.of_int 17));
  Alcotest.(check int) "sign neg" (-1) (Zint.sign (Zint.of_int (-17)))

let test_to_string () =
  Alcotest.(check string) "zero" "0" (Zint.to_string Zint.zero);
  Alcotest.(check string) "small" "12345" (Zint.to_string (Zint.of_int 12345));
  Alcotest.(check string) "negative" "-987654321" (Zint.to_string (Zint.of_int (-987654321)));
  (* Chunked decimal printing must pad interior chunks. *)
  Alcotest.(check string) "padding" "1000000007" (Zint.to_string (Zint.of_int 1000000007))

let test_of_string () =
  check_z "roundtrip" (Zint.of_int 424242) (Zint.of_string "424242");
  check_z "negative" (Zint.of_int (-5)) (Zint.of_string "-5");
  check_z "plus sign" (Zint.of_int 5) (Zint.of_string "+5");
  Alcotest.check_raises "empty" (Invalid_argument "Zint.of_string: empty string") (fun () ->
      ignore (Zint.of_string ""));
  Alcotest.check_raises "junk" (Invalid_argument "Zint.of_string: bad digit") (fun () ->
      ignore (Zint.of_string "12a3"))

let test_big_values () =
  (* 2^100, computed two ways. *)
  let a = Zint.pow Zint.two 100 in
  let b = Zint.mul (Zint.pow Zint.two 60) (Zint.pow Zint.two 40) in
  check_z "2^100" a b;
  Alcotest.(check string) "2^100 decimal" "1267650600228229401496703205376" (Zint.to_string a);
  let big = Zint.of_string "123456789012345678901234567890" in
  Alcotest.(check string) "string roundtrip" "123456789012345678901234567890"
    (Zint.to_string big);
  Alcotest.(check bool) "doesn't fit" false (Zint.fits_int big);
  Alcotest.(check (option int)) "to_int_opt" None (Zint.to_int_opt big)

let test_min_int () =
  let m = Zint.of_int min_int in
  check_z "neg(neg(min))" m (Zint.neg (Zint.neg m));
  Alcotest.(check int) "back to int" min_int (Zint.to_int m)

let test_division () =
  let q, r = Zint.div_rem (Zint.of_int 7) (Zint.of_int 2) in
  check_z "7/2" (Zint.of_int 3) q;
  check_z "7%2" (Zint.of_int 1) r;
  (* Truncated division: remainder has the dividend's sign. *)
  let q, r = Zint.div_rem (Zint.of_int (-7)) (Zint.of_int 2) in
  check_z "-7/2" (Zint.of_int (-3)) q;
  check_z "-7%2" (Zint.of_int (-1)) r;
  check_z "fdiv -7 2" (Zint.of_int (-4)) (Zint.fdiv (Zint.of_int (-7)) (Zint.of_int 2));
  check_z "cdiv 7 2" (Zint.of_int 4) (Zint.cdiv (Zint.of_int 7) (Zint.of_int 2));
  check_z "cdiv -7 2" (Zint.of_int (-3)) (Zint.cdiv (Zint.of_int (-7)) (Zint.of_int 2));
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Zint.div Zint.one Zint.zero))

let test_gcd_lcm () =
  check_z "gcd 12 18" (Zint.of_int 6) (Zint.gcd (Zint.of_int 12) (Zint.of_int 18));
  check_z "gcd neg" (Zint.of_int 6) (Zint.gcd (Zint.of_int (-12)) (Zint.of_int 18));
  check_z "gcd zero" (Zint.of_int 7) (Zint.gcd Zint.zero (Zint.of_int 7));
  check_z "lcm 4 6" (Zint.of_int 12) (Zint.lcm (Zint.of_int 4) (Zint.of_int 6));
  check_z "lcm zero" Zint.zero (Zint.lcm Zint.zero (Zint.of_int 5))

let test_pow () =
  check_z "x^0" Zint.one (Zint.pow (Zint.of_int 9) 0);
  check_z "3^4" (Zint.of_int 81) (Zint.pow (Zint.of_int 3) 4);
  check_z "(-2)^3" (Zint.of_int (-8)) (Zint.pow (Zint.of_int (-2)) 3);
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Zint.pow: negative exponent") (fun () ->
      ignore (Zint.pow Zint.two (-1)))

(* The native-int edge: results just beyond max_int/min_int print
   exactly and do not fit; 2^62 negated is min_int and fits. The
   expected values are the limb-only implementation's. *)
let test_native_boundary () =
  let p62 = "4611686018427387904" in
  let check_big name expect z =
    Alcotest.(check string) name expect (Zint.to_string z);
    Alcotest.(check bool) (name ^ " does not fit") false (Zint.fits_int z);
    Alcotest.(check (option int)) (name ^ " to_int_opt") None (Zint.to_int_opt z)
  in
  let zmin = Zint.of_int min_int in
  check_big "succ max_int" p62 (Zint.succ (Zint.of_int max_int));
  check_big "pred min_int" "-4611686018427387905" (Zint.pred zmin);
  check_big "neg min_int" p62 (Zint.neg zmin);
  check_big "min_int * -1" p62 (Zint.mul zmin Zint.minus_one);
  check_big "min_int / -1" p62 (Zint.div zmin Zint.minus_one);
  check_big "gcd min_int 0" p62 (Zint.gcd zmin Zint.zero);
  let m = Zint.neg (Zint.pow Zint.two 62) in
  Alcotest.(check bool) "-(2^62) fits" true (Zint.fits_int m);
  Alcotest.(check int) "-(2^62) is min_int" min_int (Zint.to_int m);
  check_z "min_int rem 2^32" Zint.zero (Zint.rem zmin (Zint.pow Zint.two 32))

(* [Linexpr.hash], and through it the solve store's buckets, is built
   on these values. *)
let test_hash_values () =
  List.iter
    (fun (v, h) -> Alcotest.(check int) (Printf.sprintf "hash %d" v) h (Zint.hash (Zint.of_int v)))
    [ (0, 7); (1, 249); (-1, 187); (1 lsl 15, 7689) ]

(* ---- properties ----------------------------------------------------------- *)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:500 ~name gen f)

let properties =
  [ prop "add agrees with int" (QCheck2.Gen.pair any_int any_int) (fun (a, b) ->
        Zint.to_int (Zint.add (Zint.of_int a) (Zint.of_int b)) = a + b);
    prop "sub agrees with int" (QCheck2.Gen.pair any_int any_int) (fun (a, b) ->
        Zint.to_int (Zint.sub (Zint.of_int a) (Zint.of_int b)) = a - b);
    prop "mul agrees with int" (QCheck2.Gen.pair small_int small_int) (fun (a, b) ->
        Zint.to_int (Zint.mul (Zint.of_int a) (Zint.of_int b)) = a * b);
    prop "div_rem reconstructs" (QCheck2.Gen.pair any_int any_int) (fun (a, b) ->
        QCheck2.assume (b <> 0);
        let za = Zint.of_int a and zb = Zint.of_int b in
        let q, r = Zint.div_rem za zb in
        Zint.equal za (Zint.add (Zint.mul q zb) r)
        && Zint.compare (Zint.abs r) (Zint.abs zb) < 0);
    prop "fdiv lower bound" (QCheck2.Gen.pair any_int any_int) (fun (a, b) ->
        QCheck2.assume (b <> 0);
        let za = Zint.of_int a and zb = Zint.of_int b in
        let q = Zint.fdiv za zb in
        (* q*b <= a < (q+1)*b for b > 0; mirrored for b < 0 *)
        let lo = Zint.mul q zb and hi = Zint.mul (Zint.succ q) zb in
        if b > 0 then Zint.compare lo za <= 0 && Zint.compare za hi < 0
        else Zint.compare hi za < 0 || Zint.compare za lo <= 0);
    prop "string roundtrip" any_int (fun a ->
        Zint.equal (Zint.of_int a) (Zint.of_string (Zint.to_string (Zint.of_int a))));
    prop "compare agrees with int" (QCheck2.Gen.pair any_int any_int) (fun (a, b) ->
        compare a b = Zint.compare (Zint.of_int a) (Zint.of_int b));
    prop "gcd divides both" (QCheck2.Gen.pair small_int small_int) (fun (a, b) ->
        QCheck2.assume (a <> 0 || b <> 0);
        let g = Zint.gcd (Zint.of_int a) (Zint.of_int b) in
        Zint.is_zero (Zint.rem (Zint.of_int a) g)
        && Zint.is_zero (Zint.rem (Zint.of_int b) g));
    prop "mul big associativity" (QCheck2.Gen.triple any_int any_int any_int)
      (fun (a, b, c) ->
        let za = Zint.of_int a and zb = Zint.of_int b and zc = Zint.of_int c in
        Zint.equal (Zint.mul (Zint.mul za zb) zc) (Zint.mul za (Zint.mul zb zc)));
    prop "add_int/mul_int shortcuts" (QCheck2.Gen.pair any_int small_int) (fun (a, k) ->
        let za = Zint.of_int a in
        Zint.equal (Zint.add_int za k) (Zint.add za (Zint.of_int k))
        && Zint.equal (Zint.mul_int za k) (Zint.mul za (Zint.of_int k))) ]

let suite =
  [ Alcotest.test_case "constants" `Quick test_constants;
    Alcotest.test_case "to_string" `Quick test_to_string;
    Alcotest.test_case "of_string" `Quick test_of_string;
    Alcotest.test_case "big values" `Quick test_big_values;
    Alcotest.test_case "min_int" `Quick test_min_int;
    Alcotest.test_case "division" `Quick test_division;
    Alcotest.test_case "gcd/lcm" `Quick test_gcd_lcm;
    Alcotest.test_case "pow" `Quick test_pow;
    Alcotest.test_case "native-int boundary" `Quick test_native_boundary;
    Alcotest.test_case "hash values" `Quick test_hash_values ]
  @ properties
