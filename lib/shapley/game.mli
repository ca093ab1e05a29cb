(** Cooperative games and the Shapley value (Section 3.1).

    A game is a finite player set [P] with a wealth function
    [v : ℘(P) → ℚ], [v(∅) = 0].  Players are integers [0 .. n-1] and
    coalitions are bitmasks, so brute-force computations are limited to
    [n ≤ 62] (and practically far less). *)

type t

val make : n:int -> wealth:(int -> Rational.t) -> t
(** [wealth] takes a coalition bitmask.  It is the caller's responsibility
    that [wealth 0 = ℚ0] (checked lazily by the axiom tests below). *)

val n : t -> int
val wealth : t -> int -> Rational.t

val shapley : t -> int -> Rational.t
(** Shapley value of a player by the subset formula (Equation 2);
    [O(2^n)] wealth evaluations. *)

val shapley_all : t -> Rational.t array

val shapley_permutations : t -> int -> Rational.t
(** Direct evaluation of Equation 1 over all [n!] permutations; ground
    truth for tiny games. *)

val banzhaf : t -> int -> Rational.t
(** The Banzhaf value [2^{1-n} Σ_B (v(B∪p) - v(B))] — the other classical
    power index studied alongside the Shapley value in provenance work;
    like the Shapley value it is a counting quantity (cf. {!Svc.banzhaf}).
    [O(2^n)] wealth evaluations. *)

val is_monotone : t -> bool
val is_binary : t -> bool
(** Wealth image included in [{0, 1}]. *)

val efficiency_defect : t -> Rational.t
(** [v(P) - v(∅) - Σ_p Sh(p)]; zero for every game (the efficiency axiom),
    exposed for property tests. *)

(** {1 Query games} *)

val of_query : Query.t -> Database.t -> t * Fact.t array
(** The game of Section 3.1: players are the endogenous facts (returned in
    the indexing array), wealth of [S] is [v_S - v_x] where [v_S] tells
    whether [S ∪ Dₓ ⊨ q]. *)
