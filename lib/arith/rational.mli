(** Exact rational numbers over {!Bigint}.

    Shapley values are rationals with factorial denominators (Equations 1-2
    of the paper); probabilities in SPQE/SPPQE instances are rationals in
    [(0, 1]]; the linear systems inverted by the reductions live over ℚ.
    Values are kept normalized: [gcd num den = 1] and [den > 0]. *)

type t = private { num : Bigint.t; den : Bigint.t }

val zero : t
val one : t
val half : t

val make : Bigint.t -> Bigint.t -> t
(** [make num den] is the normalized rational [num/den].
    @raise Division_by_zero if [den] is zero. *)

val of_bigint : Bigint.t -> t
val of_int : int -> t
val of_ints : int -> int -> t
(** [of_ints a b] is [a/b]. @raise Division_by_zero if [b = 0]. *)

val num : t -> Bigint.t
val den : t -> Bigint.t

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val is_zero : t -> bool
val lt : t -> t -> bool
val leq : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val inv : t -> t
(** @raise Division_by_zero on zero. *)

val div : t -> t -> t
(** @raise Division_by_zero on zero divisor. *)

val mul_bigint : t -> Bigint.t -> t
val pow : t -> int -> t
(** [pow x e] for any integer [e]; [pow zero e] with [e < 0] raises
    [Division_by_zero]. *)

val is_integer : t -> bool
val to_bigint : t -> Bigint.t
(** @raise Invalid_argument if the value is not an integer. *)

val to_float : t -> float
val to_string : t -> string
val of_string : string -> t
(** Accepts ["a"], ["a/b"] and simple decimals like ["0.25"]. *)

val sqrt_upper : ?scale:int -> t -> t
(** [sqrt_upper x] is a rational upper bound on [√x], within
    [1/(den x · 10^scale)] of the true root (default [scale = 12]).
    Exact on [zero].  Confidence half-widths computed from it stay valid
    (slightly conservative) bounds, which is what keeps the sampling
    engine float-free.  @raise Invalid_argument on negative input. *)

val ln_upper : t -> t
(** [ln_upper x] for [x >= 1] is a rational upper bound on [ln x]:
    splitting [x = 2^k·r] with [1 <= r < 2] gives
    [k·0.693148 + (r - 1)].  The additive slack is at most [~0.307]
    (the [ln(1+t) <= t] gap at [r → 2]) — conservative but sound for
    the [ln(2/δ)] terms of Hoeffding bounds.
    @raise Invalid_argument on [x < 1]. *)

val pp : Format.formatter -> t -> unit

val sum : t list -> t

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( ~- ) : t -> t
end
