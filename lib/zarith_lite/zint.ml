(* Arbitrary-precision integers with a native fast path.

   A value that fits a native [int] other than [min_int] is [Small n];
   every other value is [Big] with a sign-magnitude limb array. Each
   integer has exactly one representation, so polymorphic equality and
   hashing agree with [equal]. [Small] excludes [min_int] so that [neg]
   and [abs] of a [Small] never overflow.

   Every operation on [Small] operands works on native ints and checks
   for overflow; on overflow, or with a [Big] operand, it falls back to
   the limb code below and normalizes the result back to [Small] when
   it fits (the technique of Zarith, Miné & Leroy). *)

(* ---- limbs ---------------------------------------------------------------

   Magnitudes are little-endian arrays of base-2^15 limbs. The base is
   small enough that a limb product (30 bits) plus carries never
   approaches the native-int range, so schoolbook multiplication needs
   no special carry handling. The top limb is non-zero; zero is the
   empty array. *)

let base_bits = 15
let base = 1 lsl base_bits
let base_mask = base - 1

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
   simple and obviously correct; only operands beyond the native range
   get here. *)
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

(* ---- representation ------------------------------------------------------ *)

type t =
  | Small of int (* never [min_int] *)
  | Big of { sign : int; mag : int array } (* [sign] is -1 or 1; never fits [Small] *)

let zero = Small 0
let one = Small 1
let two = Small 2
let minus_one = Small (-1)

(* [min_int] is the one native int that is [Big]: its magnitude 2^62
   is the fifth limb's value 4. *)
let big_min_int = Big { sign = -1; mag = [| 0; 0; 0; 0; 4 |] }

let of_int n = if n = min_int then big_min_int else Small n

(* The canonical value of [sign * mag]: [Small] whenever the magnitude
   is below 2^62, i.e. at most four limbs or a fifth limb below 4. *)
let norm sign mag =
  let l = Array.length mag in
  if l = 0 then zero
  else if l < 5 || (l = 5 && mag.(4) < 4) then begin
    let v = ref 0 in
    for i = l - 1 downto 0 do
      v := (!v lsl base_bits) lor mag.(i)
    done;
    Small (if sign < 0 then - !v else !v)
  end
  else Big { sign; mag }

let sign_of_int n = if n > 0 then 1 else if n < 0 then -1 else 0

(* Sign and limbs of any value, for the slow paths. *)
let sign_mag = function
  | Small n -> (sign_of_int n, mag_of_abs_int (Stdlib.abs n))
  | Big { sign; mag } -> (sign, mag)

(* ---- signed interface ---------------------------------------------------- *)

let sign = function Small n -> sign_of_int n | Big { sign; _ } -> sign
let is_zero = function Small 0 -> true | _ -> false
let is_one = function Small 1 -> true | _ -> false

let neg = function
  | Small n -> Small (-n)
  | Big { sign; mag } -> Big { sign = -sign; mag }

let abs = function
  | Small n -> Small (Stdlib.abs n)
  | Big { sign = 1; _ } as z -> z
  | Big { mag; _ } -> Big { sign = 1; mag }

let compare a b =
  match (a, b) with
  | Small x, Small y -> Int.compare x y
  | Small _, Big { sign; _ } -> -sign
  | Big { sign; _ }, Small _ -> sign
  | Big x, Big y ->
    if x.sign <> y.sign then Int.compare x.sign y.sign
    else if x.sign > 0 then cmp_mag x.mag y.mag
    else cmp_mag y.mag x.mag

let equal a b =
  match (a, b) with
  | Small x, Small y -> x = y
  | Big _, Big _ -> compare a b = 0
  | _ -> false

let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

(* A fold over the limbs, least significant first, seeded with the
   sign. The [Small] case walks the limbs of the native int. *)
let hash = function
  | Small n ->
    let acc = ref (sign_of_int n + 7) and v = ref (Stdlib.abs n) in
    while !v <> 0 do
      acc := (!acc * 31) + (!v land base_mask);
      v := !v lsr base_bits
    done;
    !acc
  | Big { sign; mag } -> Array.fold_left (fun acc d -> (acc * 31) + d) (sign + 7) mag

let add_slow a b =
  let sa, ma = sign_mag a and sb, mb = sign_mag b in
  if sa = 0 then b
  else if sb = 0 then a
  else if sa = sb then norm sa (add_mag ma mb)
  else begin
    let c = cmp_mag ma mb in
    if c = 0 then zero else if c > 0 then norm sa (sub_mag ma mb) else norm sb (sub_mag mb ma)
  end

(* A native sum overflowed iff both operands' signs differ from the
   result's. *)
let add a b =
  match (a, b) with
  | Small x, Small y ->
    let s = x + y in
    if (x lxor s) land (y lxor s) >= 0 && s <> min_int then Small s else add_slow a b
  | _ -> add_slow a b

let sub a b =
  match (a, b) with
  | Small x, Small y ->
    let s = x - y in
    if (x lxor y) land (x lxor s) >= 0 && s <> min_int then Small s else add_slow a (neg b)
  | _ -> add_slow a (neg b)

let succ a = add a one
let pred a = sub a one

let mul_slow a b =
  let sa, ma = sign_mag a and sb, mb = sign_mag b in
  if sa = 0 || sb = 0 then zero else norm (sa * sb) (mul_mag ma mb)

(* Operands below 2^31 in magnitude cannot overflow; otherwise the
   wrapped product is exact iff dividing it back gives the other
   operand ([min_int] is never an operand). *)
let mul a b =
  match (a, b) with
  | Small x, Small y ->
    let p = x * y in
    if Stdlib.abs x lor Stdlib.abs y < 0x8000_0000 then Small p
    else if x = 0 then zero
    else if p / x = y && p <> min_int then Small p
    else mul_slow a b
  | _ -> mul_slow a b

let div_rem_slow a b =
  let sa, ma = sign_mag a and sb, mb = sign_mag b in
  let qm, rm = divmod_mag ma mb in
  (norm (sa * sb) qm, norm sa rm)

(* A [Small] dividend is smaller in magnitude than any [Big] divisor. *)
let div_rem a b =
  match (a, b) with
  | _, Small 0 -> raise Division_by_zero
  | Small x, Small y -> (Small (x / y), Small (x mod y))
  | Small _, Big _ -> (zero, a)
  | Big _, _ -> div_rem_slow a b

let div a b = match (a, b) with Small x, Small y when y <> 0 -> Small (x / y) | _ -> fst (div_rem a b)
let rem a b = match (a, b) with Small x, Small y when y <> 0 -> Small (x mod y) | _ -> snd (div_rem a b)

let fdiv a b =
  let q, r = div_rem a b in
  if is_zero r || sign r = sign b then q else pred q

let cdiv a b =
  let q, r = div_rem a b in
  if is_zero r || sign r <> sign b then q else succ q

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

let rec gcd a b =
  match (a, b) with
  | Small x, Small y -> Small (gcd_int (Stdlib.abs x) (Stdlib.abs y))
  | _ -> if is_zero b then abs a else gcd b (rem a b)

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

let to_int_opt = function
  | Small n -> Some n
  | z -> if equal z big_min_int then Some min_int else None

let fits_int z = Option.is_some (to_int_opt z)

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

let to_string = function
  | Small n -> string_of_int n
  | Big { sign; _ } as z ->
    let chunk = of_int 10000 in
    let buf = Buffer.create 24 in
    let rec go m acc =
      if is_zero m then acc
      else begin
        let q, r = div_rem m chunk in
        go q (to_int r :: acc)
      end
    in
    let chunks = go (abs z) [] in
    if sign < 0 then Buffer.add_char buf '-';
    (match chunks with
     | [] -> assert false
     | first :: rest ->
       Buffer.add_string buf (string_of_int first);
       List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%04d" c)) rest);
    Buffer.contents buf

let pp fmt z = Format.pp_print_string fmt (to_string z)
