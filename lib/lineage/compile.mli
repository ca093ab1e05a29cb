(** Model counting on lineage formulas by memoized Shannon expansion.

    The central routine computes the {e size-generating polynomial} of a
    formula over a variable universe: the coefficient of [z^j] counts the
    satisfying assignments with exactly [j] variables set to true.  This
    single polynomial answers the whole family of problems of Section 3:

    - [FGMC_j] is coefficient [j] (over universe [Dₙ]);
    - [GMC] is the total [p(1)];
    - [SPPQE] at probability [p] is [p(z)/(1+z)^n] for [z = p/(1-p)]
      (Claim A.2);
    - arbitrary tuple-independent [PQE] is the weighted variant below.

    The expansion conditions on one variable at a time, memoizes on the
    simplified sub-formula, and multiplies variable-disjoint conjuncts
    (the d-DNNF-style decomposition rule). *)

type stats = { cache_hits : int; cache_misses : int }

(** A shareable, bounded memo cache for {!size_polynomial_with}.

    {b Not domain-safe:} the cache is a plain [Hashtbl] with no
    synchronization, so a [Memo.t] must only ever be mutated from the
    domain that owns it.  Callers that fan counting out across domains
    (the parallel {!Engine}) give each domain its own cache.

    Keys are the conditioned sub-formulas themselves, hashed structurally
    ({!Bform.hash}); a cached polynomial counts over exactly [vars phi],
    which makes one cache sound across any number of calls — in particular
    across the per-fact conditionings of a batched SVC run.  At capacity,
    new results are still computed and returned but not retained (counted
    as [drops]), so a bound can never change an answer.  [poly_ops] counts
    the polynomial ring operations performed by the counter. *)
module Memo : sig
  type t

  val create : ?capacity:int -> unit -> t
  (** Default capacity: unbounded.
      @raise Invalid_argument on negative capacity. *)

  val copy : t -> t
  (** A new cache with the same entries and capacity but fresh (zero)
      counters.  The copy shares no mutable structure with the original,
      so it is the way to hand a warm cache to another domain without
      violating the single-owner rule: copy first (while no domain is
      mutating the source), then let the receiving domain own the copy. *)

  val length : t -> int
  val capacity : t -> int
  val hits : t -> int
  val misses : t -> int
  val drops : t -> int
  val poly_ops : t -> int
  val clear : t -> unit
end

val conjunct_components : Bform.t list -> (Bform.t * Fact.Set.t) list
(** Split the juncts of a conjunction into the finest variable-disjoint
    groups (the d-DNNF decomposition rule), each rebuilt as one conjunct
    and tagged with its variable set, by union-find in time near-linear
    in the juncts' total size.  The counter splits disjunctions the same
    way, and the {!Circuit} compiler (its decomposable ∧-nodes) and the
    {!Plan} planner (its AND-components) split through this function.

    The order is fixed, because the rebuilt groups are memo and
    circuit-cache keys.  Reading the juncts in order, each one absorbs
    every earlier group it shares a variable with and heads the merged
    group.  Groups come newest head first.  Within a group, the head
    comes first, then the groups it absorbed, newest first, each listed
    the same way.  Juncts without variables stay singleton groups. *)

val branch_variable : Bform.t -> Fact.t option
(** The Shannon branching heuristic (most frequently occurring variable);
    [None] iff the formula is constant.  Exposed so {!Circuit} expands in
    the same order as the counter, keeping the two backends' structures —
    and their cache behaviours — comparable. *)

val one_plus_z_pow : int -> Poly.Z.t
(** [(1 + z)^k], the size polynomial of the always-true function over [k]
    variables — the padding factor for variables a sub-formula does not
    mention.  Memoized in a {e domain-local} table (safe to call from any
    domain) and referentially transparent: every call returns a polynomial
    equal to [Poly.Z.of_coeffs (Array.to_list (Bigint.binomial_row k))].
    @raise Invalid_argument on negative [k]. *)

val size_polynomial_with :
  memo:Memo.t -> universe:Fact.t list -> Bform.t -> Poly.Z.t
(** As {!size_polynomial}, but looking sub-results up in — and charging
    instrumentation to — the given shared cache.
    @raise Invalid_argument if the formula mentions a fact outside the
    universe. *)

val size_polynomial : universe:Fact.t list -> Bform.t -> Poly.Z.t
(** @raise Invalid_argument if the formula mentions a fact outside the
    universe. *)

val size_polynomial_stats : universe:Fact.t list -> Bform.t -> Poly.Z.t * stats

val size_polynomial_naive : universe:Fact.t list -> Bform.t -> Poly.Z.t
(** No memoization, no decomposition: Shannon expansion only (ablation
    baseline). *)

val count_models : universe:Fact.t list -> Bform.t -> Bigint.t
(** Total number of satisfying assignments over the universe. *)

val probability : prob:(Fact.t -> Rational.t) -> Bform.t -> Rational.t
(** Probability that the formula is true when each fact variable [f] is
    independently true with probability [prob f]. *)

val probability_naive : prob:(Fact.t -> Rational.t) -> Bform.t -> Rational.t
