type t = { num : Bigint.t; den : Bigint.t }

let make num den =
  if Bigint.is_zero den then raise Division_by_zero;
  if Bigint.is_zero num then { num = Bigint.zero; den = Bigint.one }
  else if Bigint.equal den Bigint.one then { num; den }
  else begin
    let num, den = if Bigint.sign den < 0 then (Bigint.neg num, Bigint.neg den) else (num, den) in
    let g = Bigint.gcd num den in
    if Bigint.equal g Bigint.one then { num; den }
    else { num = Bigint.divexact num g; den = Bigint.divexact den g }
  end

let zero = { num = Bigint.zero; den = Bigint.one }
let one = { num = Bigint.one; den = Bigint.one }
let half = { num = Bigint.one; den = Bigint.two }

let of_bigint n = { num = n; den = Bigint.one }
let of_int n = of_bigint (Bigint.of_int n)
let of_ints a b = make (Bigint.of_int a) (Bigint.of_int b)

let num x = x.num
let den x = x.den

let sign x = Bigint.sign x.num
let is_zero x = Bigint.is_zero x.num

let compare a b =
  (* a.num/a.den ? b.num/b.den  <=>  a.num*b.den ? b.num*a.den (dens > 0);
     equal denominators (integers in particular) skip the cross products *)
  if Bigint.equal a.den b.den then Bigint.compare a.num b.num
  else Bigint.compare (Bigint.mul a.num b.den) (Bigint.mul b.num a.den)

let equal a b = Bigint.equal a.num b.num && Bigint.equal a.den b.den
let lt a b = compare a b < 0
let leq a b = compare a b <= 0
let min a b = if leq a b then a else b
let max a b = if leq a b then b else a

let neg x = { x with num = Bigint.neg x.num }
let abs x = { x with num = Bigint.abs x.num }

let add a b =
  (* integer + integer stays integer: no cross products, no gcd *)
  if Bigint.equal a.den Bigint.one && Bigint.equal b.den Bigint.one then
    { num = Bigint.add a.num b.num; den = Bigint.one }
  else
    make
      (Bigint.add (Bigint.mul a.num b.den) (Bigint.mul b.num a.den))
      (Bigint.mul a.den b.den)

let sub a b = add a (neg b)

let mul a b =
  if Bigint.equal a.den Bigint.one && Bigint.equal b.den Bigint.one then
    { num = Bigint.mul a.num b.num; den = Bigint.one }
  else make (Bigint.mul a.num b.num) (Bigint.mul a.den b.den)

let inv x =
  if is_zero x then raise Division_by_zero;
  if Bigint.sign x.num < 0 then { num = Bigint.neg x.den; den = Bigint.neg x.num }
  else { num = x.den; den = x.num }

let div a b = mul a (inv b)
let mul_bigint x n = make (Bigint.mul x.num n) x.den

let pow x e =
  if e >= 0 then { num = Bigint.pow x.num e; den = Bigint.pow x.den e }
  else inv { num = Bigint.pow x.num (-e); den = Bigint.pow x.den (-e) }

let is_integer x = Bigint.equal x.den Bigint.one

let to_bigint x =
  if not (is_integer x) then invalid_arg "Rational.to_bigint: not an integer";
  x.num

let to_float x = Bigint.to_float x.num /. Bigint.to_float x.den

let to_string x =
  if is_integer x then Bigint.to_string x.num
  else Bigint.to_string x.num ^ "/" ^ Bigint.to_string x.den

let of_string s =
  match String.index_opt s '/' with
  | Some i ->
    let n = Bigint.of_string (String.sub s 0 i) in
    let d = Bigint.of_string (String.sub s (i + 1) (String.length s - i - 1)) in
    make n d
  | None ->
    (match String.index_opt s '.' with
     | None -> of_bigint (Bigint.of_string s)
     | Some i ->
       let int_part = String.sub s 0 i in
       let frac = String.sub s (i + 1) (String.length s - i - 1) in
       let negative = String.length int_part > 0 && int_part.[0] = '-' in
       let ip = if int_part = "" || int_part = "-" then Bigint.zero else Bigint.of_string int_part in
       let fp = if frac = "" then zero else make (Bigint.of_string frac) (Bigint.pow (Bigint.of_int 10) (String.length frac)) in
       let a = of_bigint ip in
       if negative then sub a fp else add a fp)

(* ------------------------------------------------------------------ *)
(* Certified upper bounds for confidence intervals                     *)
(*                                                                     *)
(* The sampling engine's Hoeffding half-widths                         *)
(* need √· and ln· of rationals.  Both are irrational in general, so   *)
(* we return rational OVER-approximations: a half-width computed from  *)
(* them is still a valid (slightly conservative) confidence bound,     *)
(* keeping the whole estimator float-free and deterministic.           *)
(* ------------------------------------------------------------------ *)

let sqrt_upper ?(scale = 12) x =
  if Bigint.sign x.num < 0 then
    invalid_arg "Rational.sqrt_upper: negative argument";
  if is_zero x then zero
  else begin
    (* √(a/b) = √(a·b)/b <= (⌊√(a·b·P²)⌋ + 1)/(b·P) with P = 10^scale,
       an upper bound within 1/(b·P) of the true root *)
    let p = Bigint.pow (Bigint.of_int 10) scale in
    let s =
      Bigint.isqrt (Bigint.mul (Bigint.mul x.num x.den) (Bigint.mul p p))
    in
    make (Bigint.succ s) (Bigint.mul x.den p)
  end

(* 0.693148 > ln 2 = 0.693147180…; the slack per doubling is < 10⁻⁶. *)
let ln2_upper = make (Bigint.of_int 693148) (Bigint.of_int 1_000_000)

let ln_upper x =
  if lt x one then invalid_arg "Rational.ln_upper: argument must be >= 1";
  (* split x = 2^k · r with 1 <= r < 2, then
     ln x = k·ln 2 + ln r <= k·ln2_upper + (r - 1)   [ln(1+t) <= t] *)
  let rec split k p =
    let p2 = add p p in
    if leq p2 x then split (k + 1) p2 else (k, p)
  in
  let k, p = split 0 one in
  add (mul_bigint ln2_upper (Bigint.of_int k)) (sub (div x p) one)

let pp fmt x = Format.pp_print_string fmt (to_string x)

let sum = List.fold_left add zero

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( = ) = equal
  let ( < ) = lt
  let ( <= ) = leq
  let ( ~- ) = neg
end
