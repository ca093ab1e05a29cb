(* Arbitrary-precision signed integers with an adaptive two-tier
   representation:

   - [Sml v]: a native int payload for every value whose magnitude fits
     in 62 bits (so [v] is never [min_int], keeping [neg]/[abs] total).
     The counting arithmetic behind conditioning and the Shapley
     coefficient loops lives here for realistic instance sizes, at
     machine-word cost per operation — but not allocation-free: each
     [Sml] result is a fresh two-word block (header + payload), so a
     small [mul] followed by an [add] allocates 4 words.  Loops that can
     bound their values in advance avoid the tier altogether; the circuit
     sweeps run on plain ints on universes of at most 61 facts.
   - [Big]: the sign + magnitude representation, magnitude a little-endian
     [int array] of base 2^24 limbs with no trailing zero limb.

   Canonical-form invariant: a value is [Sml] IF AND ONLY IF its magnitude
   has bit length <= 62.  Every constructor and every operation returns a
   canonical result (promotion on overflow, demotion whenever a magnitude
   shrinks back under the boundary), so structural equality of canonical
   values coincides with numeric equality and there is exactly one zero,
   [Sml 0].  Operations additionally ACCEPT non-canonical [Big] inputs
   (built by [For_tests.force_big]) and still compute correct canonical
   results — the cross-representation differential test battery in
   test/test_bigint.ml exercises exactly this boundary.

   The base 2^24 is chosen so that a limb product (< 2^48) plus carries fits
   comfortably in OCaml's 63-bit native ints, keeping multiplication a simple
   schoolbook loop with no overflow analysis. *)

let base_bits = 24
let base = 1 lsl base_bits
let mask = base - 1

(* Largest magnitude bit length representable as an [Sml] payload:
   62 on 64-bit (payloads live in [min_int+1, max_int], |·| <= 2^62 - 1). *)
let small_bits = Sys.int_size - 1

type big = { bsign : int; bmag : int array }
type t = Sml of int | Big of big

let zero = Sml 0

(* ------------------------------------------------------------------ *)
(* Magnitude primitives                                                *)
(* ------------------------------------------------------------------ *)

let mag_norm (a : int array) : int array =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do decr n done;
  if !n = Array.length a then a else Array.sub a 0 !n

let mag_cmp a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)

let mag_add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let da = if i < la then a.(i) else 0 in
    let db = if i < lb then b.(i) else 0 in
    let s = da + db + !carry in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  mag_norm r

(* Requires a >= b. *)
let mag_sub a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let db = if i < lb then b.(i) else 0 in
    let s = a.(i) - db - !borrow in
    if s < 0 then begin r.(i) <- s + base; borrow := 1 end
    else begin r.(i) <- s; borrow := 0 end
  done;
  assert (!borrow = 0);
  mag_norm r

let mag_mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let s = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- s land mask;
          carry := s lsr base_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let s = r.(!k) + !carry in
          r.(!k) <- s land mask;
          carry := s lsr base_bits;
          incr k
        done
      end
    done;
    mag_norm r
  end

(* Multiplication by a small non-negative int (may exceed one limb). *)
let mag_mul_small a (m : int) =
  if m = 0 then [||]
  else if m < base then begin
    let la = Array.length a in
    let r = Array.make (la + 2) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let s = (a.(i) * m) + !carry in
      r.(i) <- s land mask;
      carry := s lsr base_bits
    done;
    let k = ref la in
    while !carry <> 0 do
      r.(!k) <- !carry land mask;
      carry := !carry lsr base_bits;
      incr k
    done;
    mag_norm r
  end
  else
    (* Split m into limbs and fall back to full multiplication. *)
    let rec limbs m = if m = 0 then [] else (m land mask) :: limbs (m lsr base_bits) in
    mag_mul a (Array.of_list (limbs m))

(* Short division by 0 < d < base: returns (quotient, remainder). *)
let mag_divmod_small a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (mag_norm q, !r)

let mag_bitlength a =
  let la = Array.length a in
  if la = 0 then 0
  else
    let top = a.(la - 1) in
    let rec width n acc = if n = 0 then acc else width (n lsr 1) (acc + 1) in
    ((la - 1) * base_bits) + width top 0

let mag_testbit a i =
  let limb = i / base_bits and off = i mod base_bits in
  if limb >= Array.length a then false else (a.(limb) lsr off) land 1 = 1

(* Binary long division on magnitudes: O(bits(a) * limbs(a)) worst case,
   amply fast at the instance sizes used by the reductions. *)
let mag_divmod a b =
  if Array.length b = 0 then raise Division_by_zero;
  let c = mag_cmp a b in
  if c < 0 then ([||], Array.copy a)
  else if Array.length b = 1 then
    let q, r = mag_divmod_small a b.(0) in
    (q, if r = 0 then [||] else [| r |])
  else begin
    let nbits = mag_bitlength a in
    let qlimbs = Array.make (Array.length a) 0 in
    (* Remainder kept as a mutable magnitude buffer with explicit length. *)
    let rbuf = Array.make (Array.length b + 1) 0 in
    let rlen = ref 0 in
    let r_shift_in bit =
      (* rbuf := rbuf * 2 + bit *)
      let carry = ref bit in
      for i = 0 to !rlen - 1 do
        let s = (rbuf.(i) lsl 1) lor !carry in
        rbuf.(i) <- s land mask;
        carry := s lsr base_bits
      done;
      if !carry <> 0 then begin rbuf.(!rlen) <- !carry; incr rlen end
    in
    let r_geq_b () =
      let lb = Array.length b in
      if !rlen <> lb then !rlen > lb
      else
        let rec go i = if i < 0 then true else if rbuf.(i) <> b.(i) then rbuf.(i) > b.(i) else go (i - 1) in
        go (lb - 1)
    in
    let r_sub_b () =
      let lb = Array.length b in
      let borrow = ref 0 in
      for i = 0 to !rlen - 1 do
        let db = if i < lb then b.(i) else 0 in
        let s = rbuf.(i) - db - !borrow in
        if s < 0 then begin rbuf.(i) <- s + base; borrow := 1 end
        else begin rbuf.(i) <- s; borrow := 0 end
      done;
      while !rlen > 0 && rbuf.(!rlen - 1) = 0 do decr rlen done
    in
    for i = nbits - 1 downto 0 do
      r_shift_in (if mag_testbit a i then 1 else 0);
      if r_geq_b () then begin
        r_sub_b ();
        qlimbs.(i / base_bits) <- qlimbs.(i / base_bits) lor (1 lsl (i mod base_bits))
      end
    done;
    (mag_norm qlimbs, mag_norm (Array.sub rbuf 0 !rlen))
  end

(* ------------------------------------------------------------------ *)
(* Representation boundary: views and the canonicalizing constructor   *)
(* ------------------------------------------------------------------ *)

(* Magnitude of a non-zero int, including min_int (handled limb by limb
   without computing [abs min_int]). *)
let mag_of_int_abs (n : int) : int array =
  if n = Stdlib.min_int then begin
    (* min_int = -2^62 on 64-bit: magnitude has a single bit set. *)
    let bits = Sys.int_size - 1 in
    let limb = bits / base_bits and off = bits mod base_bits in
    let mag = Array.make (limb + 1) 0 in
    mag.(limb) <- 1 lsl off;
    mag
  end
  else begin
    let rec limbs m acc = if m = 0 then List.rev acc else limbs (m lsr base_bits) ((m land mask) :: acc) in
    Array.of_list (limbs (Stdlib.abs n) [])
  end

(* Value of a magnitude known to fit 62 bits (<= 3 limbs). *)
let small_of_mag (mag : int array) : int =
  let v = ref 0 in
  for i = Array.length mag - 1 downto 0 do
    v := (!v lsl base_bits) lor mag.(i)
  done;
  !v

(* The single entry point back into the adaptive world: normalizes the
   magnitude, demotes to [Sml] whenever the value fits, and collapses to
   the one canonical zero. *)
let make sign mag =
  let mag = mag_norm mag in
  if Array.length mag = 0 then zero
  else if mag_bitlength mag <= small_bits then
    let v = small_of_mag mag in
    Sml (if sign < 0 then -v else v)
  else Big { bsign = (if sign < 0 then -1 else 1); bmag = mag }

let sgn_of = function
  | Sml v -> if v > 0 then 1 else if v < 0 then -1 else 0
  | Big b -> b.bsign

let mag_of = function
  | Sml 0 -> [||]
  | Sml v -> mag_of_int_abs v
  | Big b -> b.bmag

(* Re-canonicalize a possibly [force_big]-ed value. *)
let canon = function
  | Sml _ as t -> t
  | Big b -> make b.bsign b.bmag

(* ------------------------------------------------------------------ *)
(* Construction and conversions                                        *)
(* ------------------------------------------------------------------ *)

let of_int n =
  if n = Stdlib.min_int then Big { bsign = -1; bmag = mag_of_int_abs n }
  else Sml n

let one = Sml 1
let two = Sml 2
let minus_one = Sml (-1)

let to_int_opt = function
  | Sml v -> Some v
  | Big b ->
    let la = Array.length b.bmag in
    if la * base_bits >= Sys.int_size + base_bits then None
    else begin
      let v = ref 0 in
      let ok = ref true in
      for i = la - 1 downto 0 do
        if !v > Stdlib.max_int lsr base_bits then ok := false
        else begin
          let v' = (!v lsl base_bits) lor b.bmag.(i) in
          if v' < 0 then ok := false else v := v'
        end
      done;
      if !ok then Some (if b.bsign < 0 then - !v else !v)
      else if b.bsign < 0 then begin
        (* min_int itself round-trips. *)
        if mag_cmp b.bmag (mag_of_int_abs Stdlib.min_int) = 0 then Some Stdlib.min_int
        else None
      end
      else None
    end

let to_int n =
  match to_int_opt n with
  | Some v -> v
  | None -> failwith "Bigint.to_int: overflow"

let sign = sgn_of
let is_zero n = match n with Sml 0 -> true | Sml _ -> false | Big b -> b.bsign = 0

let compare a b =
  match a, b with
  | Sml x, Sml y -> Stdlib.compare x y
  | _ ->
    let sa = sgn_of a and sb = sgn_of b in
    if sa <> sb then Stdlib.compare sa sb
    else if sa = 0 then 0
    else
      let c = mag_cmp (mag_of a) (mag_of b) in
      if sa > 0 then c else -c

let equal a b =
  match a, b with
  | Sml x, Sml y -> x = y
  | _ -> compare a b = 0

(* Value hash: identical for [Sml v] and any (forced) [Big] holding the
   same value, because both fold the same normalized little-endian limb
   sequence.  Used wherever a structural Bigint key is needed. *)
let hash n =
  if sgn_of n = 0 then 0
  else begin
    let h = ref (if sgn_of n < 0 then 0x3ade68b1 else 0x61c88647) in
    let fold limb = h := ((!h * 0x01000193) lxor limb) land Stdlib.max_int in
    (match n with
     | Sml v ->
       let m = ref (Stdlib.abs v) in
       while !m <> 0 do
         fold (!m land mask);
         m := !m lsr base_bits
       done
     | Big b -> Array.iter fold b.bmag);
    !h
  end

let lt a b = compare a b < 0
let leq a b = compare a b <= 0
let gt a b = compare a b > 0
let geq a b = compare a b >= 0
let min a b = if leq a b then a else b
let max a b = if geq a b then a else b

let neg = function
  | Sml v -> Sml (-v) (* payloads exclude min_int, so negation is total *)
  | Big b -> if b.bsign = 0 then zero else Big { b with bsign = -b.bsign }

let abs n = if sgn_of n < 0 then neg n else n

(* ------------------------------------------------------------------ *)
(* Arithmetic                                                          *)
(* ------------------------------------------------------------------ *)

(* Magnitude-path addition, used on promotion and for [Big] operands. *)
let add_general a b =
  let sa = sgn_of a and sb = sgn_of b in
  if sa = 0 then canon b
  else if sb = 0 then canon a
  else
    let ma = mag_of a and mb = mag_of b in
    if sa = sb then make sa (mag_add ma mb)
    else
      let c = mag_cmp ma mb in
      if c = 0 then zero
      else if c > 0 then make sa (mag_sub ma mb)
      else make sb (mag_sub mb ma)

let add a b =
  match a, b with
  | Sml x, Sml y ->
    let s = x + y in
    (* Wrap-around detection: same-sign operands whose sum flips sign. *)
    if (x >= 0) = (y >= 0) && (s >= 0) <> (x >= 0) then add_general a b
    else if s = Stdlib.min_int then Big { bsign = -1; bmag = mag_of_int_abs s }
    else Sml s
  | _ -> add_general a b

let sub a b =
  match a, b with
  | Sml x, Sml y ->
    let s = x - y in
    if (x >= 0) <> (y >= 0) && (s >= 0) <> (x >= 0) then add_general a (neg b)
    else if s = Stdlib.min_int then Big { bsign = -1; bmag = mag_of_int_abs s }
    else Sml s
  | _ -> add_general a (neg b)

let succ n = add n one
let pred n = sub n one

let mul_general a b =
  let sa = sgn_of a and sb = sgn_of b in
  if sa = 0 || sb = 0 then zero
  else make (sa * sb) (mag_mul (mag_of a) (mag_of b))

(* |x|, |y| < 2^31 guarantees |x*y| < 2^62 with no division needed. *)
let mul_fast_bound = 1 lsl 31

let mul a b =
  match a, b with
  | Sml x, Sml y ->
    if x = 0 || y = 0 then zero
    else
      let ax = Stdlib.abs x and ay = Stdlib.abs y in
      if (ax < mul_fast_bound && ay < mul_fast_bound)
         || ax <= Stdlib.max_int / ay
      then Sml (x * y)
      else mul_general a b
  | _ -> mul_general a b

let mul_int a m =
  match a with
  | Sml _ -> mul a (of_int m)
  | Big b ->
    if b.bsign = 0 || m = 0 then zero
    else if m = Stdlib.min_int then mul_general a (of_int m)
    else
      let s = if m < 0 then -b.bsign else b.bsign in
      make s (mag_mul_small b.bmag (Stdlib.abs m))

let divmod a b =
  match a, b with
  | Sml x, Sml y ->
    if y = 0 then raise Division_by_zero;
    (* x <> min_int, so x / -1 cannot overflow; OCaml's (/) truncates. *)
    (Sml (x / y), Sml (x mod y))
  | _ ->
    if sgn_of b = 0 then raise Division_by_zero;
    if sgn_of a = 0 then (zero, zero)
    else
      let qm, rm = mag_divmod (mag_of a) (mag_of b) in
      let q = make (sgn_of a * sgn_of b) qm in
      let r = make (sgn_of a) rm in
      (q, r)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let divexact a b =
  let q, r = divmod a b in
  if not (is_zero r) then invalid_arg "Bigint.divexact: inexact division";
  q

let pow b e =
  if e < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else if e land 1 = 1 then go (mul acc b) (mul b b) (e lsr 1)
    else go acc (mul b b) (e lsr 1)
  in
  go one b e

(* Binary GCD on magnitudes for multi-limb operands; plain Euclid on the
   small tier (remainders only shrink, so every step stays in [Sml]). *)
let gcd a b =
  match a, b with
  | Sml x, Sml y ->
    let rec go x y = if y = 0 then x else go y (x mod y) in
    Sml (go (Stdlib.abs x) (Stdlib.abs y))
  | _ ->
    let rec twos m i = if Array.length m > 0 && not (mag_testbit m i) then twos m (i + 1) else i in
    let mag_shr m k =
      (* shift right by k bits *)
      if Array.length m = 0 || k = 0 then m
      else begin
        let limbshift = k / base_bits and bitshift = k mod base_bits in
        let lm = Array.length m in
        if limbshift >= lm then [||]
        else begin
          let lr = lm - limbshift in
          let r = Array.make lr 0 in
          for i = 0 to lr - 1 do
            let lo = m.(i + limbshift) lsr bitshift in
            let hi =
              if bitshift = 0 || i + limbshift + 1 >= lm then 0
              else (m.(i + limbshift + 1) lsl (base_bits - bitshift)) land mask
            in
            r.(i) <- lo lor hi
          done;
          mag_norm r
        end
      end
    in
    let mag_shl m k =
      if Array.length m = 0 || k = 0 then m
      else begin
        let limbshift = k / base_bits and bitshift = k mod base_bits in
        let lm = Array.length m in
        let lr = lm + limbshift + 1 in
        let r = Array.make lr 0 in
        for i = 0 to lm - 1 do
          let v = m.(i) lsl bitshift in
          r.(i + limbshift) <- r.(i + limbshift) lor (v land mask);
          if bitshift > 0 then r.(i + limbshift + 1) <- r.(i + limbshift + 1) lor (v lsr base_bits)
        done;
        mag_norm r
      end
    in
    let ma = mag_of (abs a) and mb = mag_of (abs b) in
    if Array.length ma = 0 then make 1 mb
    else if Array.length mb = 0 then make 1 ma
    else begin
      let ka = twos ma 0 and kb = twos mb 0 in
      let k = Stdlib.min ka kb in
      let u = ref (mag_shr ma ka) and v = ref (mag_shr mb kb) in
      (* u, v odd *)
      let continue = ref true in
      while !continue do
        let c = mag_cmp !u !v in
        if c = 0 then continue := false
        else begin
          if c < 0 then begin let t = !u in u := !v; v := t end;
          let d = mag_sub !u !v in
          u := mag_shr d (twos d 0)
        end
      done;
      make 1 (mag_shl !u k)
    end

let factorial n =
  if n < 0 then invalid_arg "Bigint.factorial: negative argument";
  let acc = ref one in
  for i = 2 to n do acc := mul_int !acc i done;
  !acc

let factorial_table n =
  if n < 0 then invalid_arg "Bigint.factorial_table: negative argument";
  let t = Array.make (n + 1) one in
  for i = 2 to n do t.(i) <- mul_int t.(i - 1) i done;
  t

let binomial_row n =
  if n < 0 then invalid_arg "Bigint.binomial_row: negative argument";
  let t = Array.make (n + 1) one in
  for k = 1 to n do
    t.(k) <- divexact (mul_int t.(k - 1) (n - k + 1)) (of_int k)
  done;
  t

let falling_factorial n k =
  if k < 0 then invalid_arg "Bigint.falling_factorial: negative k";
  let acc = ref one in
  for i = 0 to k - 1 do acc := mul_int !acc (n - i) done;
  !acc

let binomial n k =
  if k < 0 || k > n then zero
  else begin
    let k = if k > n - k then n - k else k in
    let acc = ref one in
    for i = 1 to k do
      acc := divexact (mul_int !acc (n - k + i)) (of_int i)
    done;
    !acc
  end

(* Floor integer square root.  Small tier: float sqrt plus a fix-up walk
   (division-based tests, so no intermediate can overflow).  Big tier:
   Newton's method — starting from any x₀ >= √n, the iteration
   x ↦ (x + n/x)/2 over the integers decreases strictly until it reaches
   ⌊√n⌋ and the first non-decreasing step stops it.  n < 2^(24·limbs)
   gives the over-approximation x₀ = 2^(12·limbs). *)
let isqrt n =
  if sgn_of n < 0 then invalid_arg "Bigint.isqrt: negative argument"
  else if is_zero n then zero (* covers a forced-big zero too *)
  else
    match n with
    | Sml v ->
      let r = ref (int_of_float (sqrt (float_of_int v))) in
      if !r < 1 then r := 1;
      while !r > v / !r do decr r done;
      while !r + 1 <= v / (!r + 1) do incr r done;
      Sml !r
    | Big b ->
      let x0 = pow two (12 * Array.length b.bmag) in
      let rec go x =
        let y = div (add x (div n x)) two in
        if lt y x then go y else x
      in
      go x0

let chunk_pow = 7
let chunk_base = 10_000_000 (* 10^7 < 2^24 is required by mag_divmod_small *)

let to_string = function
  | Sml v -> string_of_int v
  | Big b ->
    if b.bsign = 0 then "0"
    else begin
      let buf = Buffer.create 32 in
      let rec go m acc =
        if Array.length m = 0 then acc
        else
          let q, r = mag_divmod_small m chunk_base in
          go q (r :: acc)
      in
      match go b.bmag [] with
      | [] -> "0"
      | hd :: tl ->
        if b.bsign < 0 then Buffer.add_char buf '-';
        Buffer.add_string buf (string_of_int hd);
        List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%07d" c)) tl;
        Buffer.contents buf
    end

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let neg_sign = s.[0] = '-' in
  let start = if neg_sign || s.[0] = '+' then 1 else 0 in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  String.iter
    (fun c -> if (c < '0' || c > '9') && not (c = '-' || c = '+') then
        invalid_arg "Bigint.of_string: invalid digit")
    s;
  (* 18 decimal digits always fit the small tier (10^18 < 2^62). *)
  if len - start <= 18 then
    match int_of_string_opt s with
    | Some v -> of_int v
    | None -> invalid_arg "Bigint.of_string: invalid digit"
  else begin
    let acc = ref zero in
    let i = ref start in
    while !i < len do
      let stop = Stdlib.min len (!i + chunk_pow) in
      let width = stop - !i in
      let chunk = String.sub s !i width in
      (match int_of_string_opt chunk with
       | None -> invalid_arg "Bigint.of_string: invalid digit"
       | Some v ->
         let rec pow10 k = if k = 0 then 1 else 10 * pow10 (k - 1) in
         acc := add (mul_int !acc (pow10 width)) (of_int v));
      i := stop
    done;
    if neg_sign then neg !acc else !acc
  end

let to_float = function
  | Sml v -> float_of_int v
  | Big b ->
    let acc = ref 0. in
    for i = Array.length b.bmag - 1 downto 0 do
      acc := (!acc *. float_of_int base) +. float_of_int b.bmag.(i)
    done;
    if b.bsign < 0 then -. !acc else !acc

let pp fmt n = Format.pp_print_string fmt (to_string n)

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( = ) = equal
  let ( < ) = lt
  let ( <= ) = leq
  let ( > ) = gt
  let ( >= ) = geq
  let ( ~- ) = neg
end

module For_tests = struct
  let force_big = function
    | Sml 0 -> Big { bsign = 0; bmag = [||] }
    | Sml v -> Big { bsign = (if v < 0 then -1 else 1); bmag = mag_of_int_abs v }
    | Big _ as t -> t

  let is_small = function Sml _ -> true | Big _ -> false

  let canonical = function
    | Sml v -> v <> Stdlib.min_int
    | Big b ->
      (b.bsign = 1 || b.bsign = -1)
      && Array.length b.bmag > 0
      && b.bmag.(Array.length b.bmag - 1) <> 0
      && mag_bitlength b.bmag > small_bits

  let add_ref a b = force_big (add_general a b)
  let sub_ref a b = force_big (add_general a (neg b))
  let mul_ref a b = force_big (mul_general a b)
end
