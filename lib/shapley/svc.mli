(** Shapley value computation for facts ([SVC_q], Section 3.1).

    Two independent implementations:

    - {!svc_brute} evaluates Equation 2 directly on the query game
      ([O(2^|Dₙ|)] query evaluations);
    - {!svc} runs the reduction of Claim A.1 through the lineage-based FGMC
      engine: [Sh(μ) = Σ_j C_j (FGMC_j(Dₙ∖μ, Dₓ∪μ) - FGMC_j(Dₙ∖μ, Dₓ))]
      with [C_j = j!(|Dₙ|-j-1)!/|Dₙ|!].

    When the [SVC_DEBUG] environment variable is set (to anything but [""]
    or ["0"]), every entry point first runs the static analyzer
    ({!Analyze.query}, {!Analyze.database}, {!Analyze.pair}) on its inputs
    and raises [Invalid_argument] with the rendered diagnostics if any
    [Error]-severity diagnostic is reported. *)

val svc : Query.t -> Database.t -> Fact.t -> Rational.t
(** @raise Invalid_argument if the fact is not endogenous. *)

val svc_brute : Query.t -> Database.t -> Fact.t -> Rational.t
(** @raise Invalid_argument if the fact is not endogenous. *)

val svc_all :
  ?tel:Telemetry.t -> ?jobs:int -> ?backend:Engine.backend -> Query.t ->
  Database.t -> (Fact.t * Rational.t) list
(** Shapley values of all endogenous facts, through the batched
    {!Engine}: one lineage compilation shared by all facts, each fact's
    polynomials derived by conditioning against a shared memo cache — or,
    under [~backend:`Circuit] (and under [`Auto], the default, on large
    serial instances), read off one d-DNNF compilation with no per-fact
    conditioning at all.  [jobs] (default [1]; [0] = auto) fans the
    per-fact conditionings out across that many domains — values and
    order are identical for every [jobs] and every backend.  [tel] is
    handed to the underlying {!Engine.create}.

    For instances beyond exact reach, [~backend:(`Sample cfg)] swaps in
    the seeded anytime estimator of [lib/sample]: approximate values
    with rational confidence intervals by permutation sampling,
    deterministic given [cfg.seed].
    @raise Invalid_argument if [jobs < 0]. *)

val engine : Query.t -> Database.t -> Engine.t
(** {!Engine.create} with the default settings, behind the [SVC_DEBUG]
    gate: one compiled engine serves every Shapley and Banzhaf value of
    the pair. *)

val svc_all_naive : Query.t -> Database.t -> (Fact.t * Rational.t) list
(** The pre-engine path: an independent {!svc} call per fact, i.e. two
    fresh lineage compilations each.  Kept as the differential-testing and
    benchmarking baseline for {!svc_all}. *)

val svc_hierarchical : Cq.t -> Database.t -> Fact.t -> Rational.t
(** The FP side of the [11] dichotomy with a polynomial-time {e guarantee}:
    Claim A.1 routed through the lifted evaluator ({!Lifted.cq}), which
    covers every hierarchical self-join-free CQ.
    @raise Invalid_argument when the lifted rules get stuck (e.g. on a
    non-hierarchical query) or if the fact is not endogenous. *)

val svc_from_polynomials : with_mu_exo:Poly.Z.t -> without_mu:Poly.Z.t -> n:int -> Rational.t
(** The Claim A.1 arithmetic alone: combine the two FGMC generating
    polynomials (both over a universe of [n-1] endogenous facts, [n] being
    the player count including [μ]). *)

(** {1 Banzhaf values}

    The other classical power index.  The paper's "SVC is a matter of
    counting" thesis is even more immediate here: the Banzhaf value of [μ]
    is [(GMC(Dₙ∖μ, Dₓ∪μ) - GMC(Dₙ∖μ, Dₓ)) / 2^(n-1)] — two plain GMC
    calls, no size grouping needed. *)

val banzhaf : Query.t -> Database.t -> Fact.t -> Rational.t
(** Lineage-based, via the two GMC counts.
    @raise Invalid_argument if the fact is not endogenous. *)

val banzhaf_brute : Query.t -> Database.t -> Fact.t -> Rational.t
