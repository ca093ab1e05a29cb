(** Anytime sampling SVC estimator.

    Every exact backend (conditioning, circuit, planned circuit) is
    limited to ~100 endogenous facts by the #P-hardness wall.  This
    module trades exactness for scale: it estimates Shapley (and
    Banzhaf) values of a compiled lineage by randomized sampling, with
    {e rational-arithmetic} confidence intervals — no floats anywhere in
    the estimate or the bound, so a run is a pure function of
    [(lineage, universe, config)] and in particular of the [seed]:
    bit-identical on every host and at every [jobs] count.

    {2 Permutation sampling}

    The Shapley estimator is ApproShapley permutation sampling.  One
    uniform random permutation of the universe yields a marginal
    contribution for {e every} fact at once; the estimate for each fact
    is the mean of its contributions.  For monotone lineages exactly one
    fact per permutation flips the query, at the least prefix length at
    which the lineage holds: one min/max sweep over the lineage finds it
    (a fact needs its own position, an ∧ the latest of its children, an
    ∨ the earliest), and the sweep counts as one evaluation.  Other
    lineages are evaluated at every prefix.  One "draw" = one
    permutation, shared by all facts, so the interval width at a given
    draw count does not depend on the number of facts.

    {2 Confidence intervals}

    Per fact, the reported [half_width] is a valid
    [confidence]-level Hoeffding bound on [|value - Sh(μ)|].  Every fact
    shares it, since every fact sees the same draws.  The report's
    [familywise_half_width] holds for all [n] facts at once (a union
    bound over the [n] intervals).  All bound arithmetic uses
    {!Rational.sqrt_upper} / {!Rational.ln_upper}, so the intervals are
    conservative rational over-approximations — the stopping rule can
    only stop {e later} than an ideal real-valued rule, never report a
    half-width below what the inequality certifies.

    {2 Anytime stopping}

    Draws proceed in batches of 64; after each batch the rule stops
    as soon as the per-fact half-width is [<= epsilon]
    ([all_converged = true]) or the [max_draws] budget of shared
    permutations is exhausted ([all_converged] reports whether the
    target was still met). *)

type strategy = Monte_carlo
(** Kept only for perfbench/svcbench.ml, which still passes
    [~strategy:Monte_carlo] to {!config}: permutation sampling is the
    only estimator, so the argument is accepted and ignored. *)

type config = {
  seed : int;  (** master seed; every substream is derived from it *)
  epsilon : Rational.t;  (** target CI half-width, [> 0] *)
  confidence : Rational.t;  (** CI level in [(0, 1)], e.g. [19/20] *)
  max_draws : int;  (** budget of shared draws, [>= 1] *)
}

val default : config
(** Seed [0], [epsilon = 1/20], [confidence = 19/20],
    [max_draws = 4096]. *)

val config :
  ?strategy:strategy -> ?seed:int -> ?epsilon:Rational.t ->
  ?confidence:Rational.t -> ?max_draws:int -> unit -> config
(** {!default} with overrides, validated.  [strategy] is ignored (see
    {!strategy}).
    @raise Invalid_argument as {!validate}. *)

val validate : config -> unit
(** @raise Invalid_argument if [epsilon <= 0], [confidence] outside
    [(0, 1)] or [max_draws < 1]. *)

type estimate = {
  fact : Fact.t;
  value : Rational.t;  (** point estimate of the Shapley/Banzhaf value *)
  half_width : Rational.t;
      (** per-fact CI half-width at [confidence], the same for every
          fact *)
}

type report = {
  estimates : estimate array;  (** in universe order *)
  total_draws : int;  (** shared draws, counted once *)
  total_evals : int;
      (** lineage evaluations performed.  {!shapley} evaluates the
          empty and the full universe once, then takes one threshold
          sweep per permutation of a monotone lineage (none if that
          lineage is constant) and one evaluation per prefix of any
          other; {!banzhaf} takes [1 + n] per draw. *)
  max_half_width : Rational.t;  (** the per-fact half-width *)
  familywise_half_width : Rational.t;
      (** the half-width at which all [n] intervals hold at once at
          [confidence]: the Hoeffding width at [total_draws] with
          {!Bound.log_term} [~intervals:n].  Equal to [max_half_width]
          at [n = 1], larger beyond; [0] when [n = 0]. *)
  all_converged : bool;  (** [max_half_width <= epsilon] *)
}

val shapley :
  ?tel:Telemetry.t -> config -> universe:Fact.t list -> Bform.t -> report
(** Estimate the Shapley value of every fact of [universe] (the
    endogenous facts, in engine order) for the lineage [phi].  The
    result is a deterministic function of [(config, universe, phi)].
    When [tel] is given, the run is a [sample.eval] span with one
    [sample.round] span per batch round, and the [sample.draws] /
    [sample.evals] counters and the [sample.max_hw_ppm] gauge
    (half-width in parts per million, rounded up) are updated.  Each
    round's span carries its [draws] and the per-fact half-width
    [hw_ppm] it reaches, and the gauge takes that width after every
    round.
    @raise Invalid_argument if the config is invalid ({!validate}) or
    [phi] mentions a fact outside [universe]. *)

val banzhaf :
  ?tel:Telemetry.t -> config -> universe:Fact.t list -> Bform.t -> report
(** Banzhaf estimates by uniform coalition sampling (one shared subset
    per draw serves every fact), with seed, epsilon, confidence, budget
    and telemetry as in {!shapley}. *)

(** The confidence-interval arithmetic, exposed for the statistical test
    layer.  Draw values live in an interval of width [range]
    ([{0,1}] for monotone lineages, [{-1,0,1}] otherwise). *)
module Bound : sig
  val log_term : confidence:Rational.t -> intervals:int -> Rational.t
  (** [ln_upper (2/δ')] with [δ' = (1 - confidence)/intervals] — the
      per-interval log term after a union bound over [intervals]
      simultaneous intervals. *)

  val hoeffding : range:Rational.t -> log_term:Rational.t -> m:int -> Rational.t
  (** [range · √(log_term/(2m))]: with probability [>= 1 - δ'] the
      sample mean of [m] i.i.d. draws is within this of the true mean. *)
end

(** Deterministic seeded PRNG (a splitmix64-mixed xorshift64-star
    stream), exposed for the statistical test layer.  Substreams derived via {!of_path}
    from distinct paths are independent for all practical purposes,
    which is what makes every draw sequence a function of the
    master seed alone — independent of evaluation order and [jobs]. *)
module Rng : sig
  type t

  val create : int -> t
  val of_path : int -> int list -> t
  val int : t -> int -> int
  (** [int t bound] is uniform in [[0, bound)].
      @raise Invalid_argument if [bound <= 0]. *)

  val bool : t -> bool
end
