type t = { num : Zint.t; den : Zint.t }

let make num den =
  if Zint.is_zero den then raise Division_by_zero;
  if Zint.is_zero num then { num = Zint.zero; den = Zint.one }
  else if Zint.is_one den then { num; den }
  else begin
    let g = Zint.gcd num den in
    let num = Zint.div num g and den = Zint.div den g in
    if Zint.sign den < 0 then { num = Zint.neg num; den = Zint.neg den }
    else { num; den }
  end

let of_zint z = { num = z; den = Zint.one }
let of_int i = of_zint (Zint.of_int i)
let of_ints n d = make (Zint.of_int n) (Zint.of_int d)

let zero = of_int 0
let one = of_int 1
let minus_one = of_int (-1)

let num q = q.num
let den q = q.den

let neg q = { q with num = Zint.neg q.num }
let abs q = { q with num = Zint.abs q.num }

(* Integer operands, the common case in the simplex, skip the
   cross-multiplication and the gcd. *)
let both_integers a b = Zint.is_one a.den && Zint.is_one b.den

let add a b =
  if both_integers a b then of_zint (Zint.add a.num b.num)
  else make (Zint.add (Zint.mul a.num b.den) (Zint.mul b.num a.den)) (Zint.mul a.den b.den)

let sub a b = add a (neg b)
let mul a b = make (Zint.mul a.num b.num) (Zint.mul a.den b.den)
let div a b = make (Zint.mul a.num b.den) (Zint.mul a.den b.num)
let inv a = make a.den a.num

let sign q = Zint.sign q.num
let compare a b =
  if both_integers a b then Zint.compare a.num b.num
  else Zint.compare (Zint.mul a.num b.den) (Zint.mul b.num a.den)
let equal a b = compare a b = 0
let is_zero q = Zint.is_zero q.num
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let is_integer q = Zint.is_one q.den
let floor q = Zint.fdiv q.num q.den
let ceil q = Zint.cdiv q.num q.den

let to_zint q =
  if is_integer q then q.num else failwith "Qnum.to_zint: not an integer"

let to_string q =
  if is_integer q then Zint.to_string q.num
  else Zint.to_string q.num ^ "/" ^ Zint.to_string q.den

let pp fmt q = Format.pp_print_string fmt (to_string q)
