(* Reference integers for the differential suite in diff_zint.ml: the
   limb-only [Zint] that every value went through before the native-int
   fast path. [Zarith_lite.Zint] claims the same results on every
   operation, so diff_zint.ml holds it to this one. *)

(* Sign-magnitude bignums in base 2^15 (little-endian limb array).

   The base is small enough that a limb product (30 bits) plus carries
   never approaches the native-int range, so schoolbook multiplication
   needs no special carry handling. Invariants: [sign] is -1, 0 or 1;
   [sign = 0] iff [mag] is empty; the top limb of [mag] is non-zero. *)

let base_bits = 15
let base = 1 lsl base_bits
let base_mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

(* ---- magnitude helpers -------------------------------------------------- *)

let mag_is_zero m = Array.length m = 0

let trim m =
  let n = ref (Array.length m) in
  while !n > 0 && m.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length m then m else Array.sub m 0 !n

let mag_of_abs_int v =
  (* [v] must be non-negative. *)
  if v = 0 then [||]
  else begin
    let rec limbs acc v = if v = 0 then acc else limbs (v land base_mask :: acc) (v lsr base_bits) in
    let l = List.rev (limbs [] v) in
    Array.of_list l
  end

let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let da = if i < la then a.(i) else 0 in
    let db = if i < lb then b.(i) else 0 in
    let s = da + db + !carry in
    r.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  trim r

(* Requires [cmp_mag a b >= 0]. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let db = if i < lb then b.(i) else 0 in
    let s = a.(i) - db - !borrow in
    if s < 0 then begin
      r.(i) <- s + base;
      borrow := 1
    end
    else begin
      r.(i) <- s;
      borrow := 0
    end
  done;
  trim r

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let s = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- s land base_mask;
        carry := s lsr base_bits
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let s = r.(!k) + !carry in
        r.(!k) <- s land base_mask;
        carry := s lsr base_bits;
        incr k
      done
    done;
    trim r
  end

let mul_mag_small m d =
  (* [0 <= d < base] *)
  if d = 0 || mag_is_zero m then [||]
  else begin
    let l = Array.length m in
    let r = Array.make (l + 1) 0 in
    let carry = ref 0 in
    for i = 0 to l - 1 do
      let s = (m.(i) * d) + !carry in
      r.(i) <- s land base_mask;
      carry := s lsr base_bits
    done;
    r.(l) <- !carry;
    trim r
  end

(* Shift left by [k] whole limbs. *)
let shl_limbs m k =
  if mag_is_zero m then [||]
  else begin
    let l = Array.length m in
    let r = Array.make (l + k) 0 in
    Array.blit m 0 r k l;
    r
  end

(* Long division of magnitudes: returns (quotient, remainder).
   Quotient digits are found by binary search, which keeps the code
   simple and obviously correct; operand sizes in this project are
   small (solver coefficients), so the extra log(base) factor is
   irrelevant. *)
let divmod_mag a b =
  if mag_is_zero b then raise Division_by_zero;
  if cmp_mag a b < 0 then ([||], a)
  else begin
    let la = Array.length a and lb = Array.length b in
    let qlen = la - lb + 1 in
    let q = Array.make qlen 0 in
    let rem = ref a in
    for pos = qlen - 1 downto 0 do
      let shifted = shl_limbs b pos in
      (* Largest digit d with d * shifted <= rem. *)
      let lo = ref 0 and hi = ref (base - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi + 1) / 2 in
        if cmp_mag (mul_mag_small shifted mid) !rem <= 0 then lo := mid else hi := mid - 1
      done;
      q.(pos) <- !lo;
      if !lo > 0 then rem := sub_mag !rem (mul_mag_small shifted !lo)
    done;
    (trim q, !rem)
  end

(* ---- signed interface ---------------------------------------------------- *)

let make sign mag = if mag_is_zero mag then zero else { sign; mag }

let of_int v =
  if v = 0 then zero
  else if v > 0 then { sign = 1; mag = mag_of_abs_int v }
  else if v = min_int then
    (* [-min_int] overflows; build from halves. *)
    let half = { sign = -1; mag = mag_of_abs_int (-(min_int / 2)) } in
    let twice = { sign = -1; mag = add_mag half.mag half.mag } in
    twice
  else { sign = -1; mag = mag_of_abs_int (-v) }

let one = of_int 1
let two = of_int 2
let minus_one = of_int (-1)

let sign z = z.sign
let is_zero z = z.sign = 0
let neg z = make (-z.sign) z.mag
let abs z = make (abs z.sign) z.mag

let compare a b =
  if a.sign <> b.sign then compare a.sign b.sign
  else if a.sign >= 0 then cmp_mag a.mag b.mag
  else cmp_mag b.mag a.mag

let equal a b = compare a b = 0
let is_one z = equal z one
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let hash z =
  Array.fold_left (fun acc d -> (acc * 31) + d) (z.sign + 7) z.mag

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if a.sign = b.sign then make a.sign (add_mag a.mag b.mag)
  else begin
    let c = cmp_mag a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.sign (sub_mag a.mag b.mag)
    else make b.sign (sub_mag b.mag a.mag)
  end

let sub a b = add a (neg b)
let succ a = add a one
let pred a = sub a one

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else make (a.sign * b.sign) (mul_mag a.mag b.mag)

let div_rem a b =
  if b.sign = 0 then raise Division_by_zero;
  let qm, rm = divmod_mag a.mag b.mag in
  let q = make (a.sign * b.sign) qm in
  let r = make a.sign rm in
  (q, r)

let div a b = fst (div_rem a b)
let rem a b = snd (div_rem a b)

let fdiv a b =
  let q, r = div_rem a b in
  if is_zero r || sign r = sign b then q else pred q

let cdiv a b =
  let q, r = div_rem a b in
  if is_zero r || sign r <> sign b then q else succ q

let rec gcd a b = if is_zero b then abs a else gcd b (rem a b)

let lcm a b =
  if is_zero a || is_zero b then zero
  else abs (mul (div a (gcd a b)) b)

let mul_int a k = mul a (of_int k)
let add_int a k = add a (of_int k)

let pow b n =
  if n < 0 then invalid_arg "Zint.pow: negative exponent";
  let rec go acc b n =
    if n = 0 then acc
    else if n land 1 = 1 then go (mul acc b) (mul b b) (n lsr 1)
    else go acc (mul b b) (n lsr 1)
  in
  go one b n

let fits_int z =
  (* Conservative: up to 4 limbs is at most 60 bits, always fits. *)
  let l = Array.length z.mag in
  if l <= 4 then true
  else begin
    let lo = of_int Stdlib.min_int and hi = of_int Stdlib.max_int in
    compare lo z <= 0 && compare z hi <= 0
  end

let to_int_opt z =
  if not (fits_int z) then None
  else begin
    let v = Array.fold_right (fun d acc -> (acc lsl base_bits) lor d) z.mag 0 in
    Some (if z.sign < 0 then -v else v)
  end

let to_int z =
  match to_int_opt z with
  | Some v -> v
  | None -> failwith "Zint.to_int: overflow"

let of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Zint.of_string: empty string";
  let neg_sign, start =
    match s.[0] with
    | '-' -> (true, 1)
    | '+' -> (false, 1)
    | _ -> (false, 0)
  in
  if start >= n then invalid_arg "Zint.of_string: no digits";
  let acc = ref zero in
  let ten = of_int 10 in
  for i = start to n - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Zint.of_string: bad digit";
    acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))
  done;
  if neg_sign then neg !acc else !acc

let to_string z =
  if is_zero z then "0"
  else begin
    let chunk = of_int 10000 in
    let buf = Buffer.create 16 in
    let rec go m acc =
      if is_zero m then acc
      else begin
        let q, r = div_rem m chunk in
        go q (to_int r :: acc)
      end
    in
    let chunks = go (abs z) [] in
    if z.sign < 0 then Buffer.add_char buf '-';
    (match chunks with
     | [] -> assert false
     | first :: rest ->
       Buffer.add_string buf (string_of_int first);
       List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%04d" c)) rest);
    Buffer.contents buf
  end

let pp fmt z = Format.pp_print_string fmt (to_string z)
