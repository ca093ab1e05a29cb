(** Batched, memoizing SVC evaluation engine.

    Computing all Shapley values of a database with per-fact {!Svc.svc}
    does [2n] full lineage compilations of the same query.  This engine
    compiles the lineage {e once} per (query, database) and derives each
    fact's two FGMC generating polynomials from the shared compiled form:
    [φ[μ:=1]] by {e conditioning} (exact because the size-generating
    polynomial depends only on the Boolean function), and [φ[μ:=0]] for
    free from the splitting identity
    [C(φ) = z·C(φ[μ:=1]) + C(φ[μ:=0])] against the full count [C(φ)]
    computed once.  Additionally:

    - all conditioned sub-formulas memoized in one shared, bounded,
      structurally-hashed cache ({!Compile.Memo}) — they overlap massively
      across facts;
    - the Shapley coefficients [j!(n-j-1)!/n!] read off a factorial table
      ({!Bigint.factorial_table}) built once, on the first Shapley value
      ([`Sample] engines and Banzhaf-only runs never build it);
    - under [`Auto], one evaluation per class of interchangeable facts
      ({!Symmetry}): by Shapley's symmetry axiom every member of a class
      has its representative's value, which is copied to it.

    {2 Parallelism}

    The per-fact conditioning step is embarrassingly parallel — every
    fact's polynomial reads only the shared immutable lineage and the
    full count — so at [jobs > 1] the batched entry points
    ({!svc_all}, {!banzhaf_all}) fan it out across [min jobs k] stdlib
    domains for [k] class representatives, one per static slice
    ({!Pool.run}).  That is all [jobs] does: it plays no part in
    resolving [`Auto].

    {b Cache-ownership invariant:} a {!Compile.Memo} is an
    unsynchronized [Hashtbl] and must never be mutated from two domains.
    The engine's own shared cache is therefore used only from the
    calling domain (the serial path, the full polynomial, per-fact
    {!svc}/{!banzhaf} calls); a parallel batched run gives each worker
    slot a {e private} cache of the same capacity, created and dropped
    inside the run.  Worker slots own static slices of the [k] class
    representatives (with [s = min jobs k] slots, [slot i] evaluates
    representatives [i·k/s, (i+1)·k/s), never an empty slice; [k = n]
    unless [`Auto] merged facts) and
    each value is copied to every member of its class at the members'
    original indices, so output order and values are bit-identical for
    every [jobs] — only wall clock and the per-slot counters
    ({!Stats.domain_stat}) depend on it.

    Every call is instrumented; see {!Stats}. *)

type t
(** A compiled engine for one (query, database) pair.  Mutable only in its
    instrumentation and cache; all answers are deterministic. *)

type backend = [ `Auto | `Conditioning | `Circuit | `Sample of Sample.config ]
(** The evaluation strategy for batched answers:

    - [`Conditioning]: the PR-3 path — one conditioned size-polynomial
      count per fact against the shared memo cache (parallelizable);
    - [`Circuit]: compile the lineage once into a smoothed deterministic
      decomposable NNF circuit ({!Circuit}) and read {e every} fact's
      polynomial off it with one bottom-up + one top-down traversal — no
      per-fact conditioning at all;
    - [`Auto] (the default): per class, cost-based ({!auto_rule}).  The
      players are first split into classes of interchangeable facts
      ({!Symmetry.detect}, in an [engine.classes] span), and only one
      representative per class is evaluated.  Below
      {!Plan.min_circuit_facts} classes it conditions once per class
      without planning (every hierarchical star lands here: hub and
      spokes are two classes).  Above the floor the instance is
      analyzed by the compilation planner ({!Plan.analyze}), and a
      circuit whose predicted size fits {!Plan.circuit_node_budget}
      ({!Plan.recommend}) is compiled along the plan.  The prediction
      comes from the lineage's induced width and is only an estimate,
      so an instance predicted past the budget compiles without
      the plan under a cap of that many new nodes (the trial):
      it gets [`Circuit] if the build fits, and conditions once per
      class only if it overflows.  The choice is the same at every
      [jobs].  Explicit [`Conditioning] and [`Circuit] stay per fact:
      they are the references [`Auto] is checked against;
    - [`Sample cfg]: the anytime sampling estimator ({!Sample}) — the
      only {e approximate} backend, and therefore never auto-selected:
      every answer carries a seeded-deterministic estimate whose
      confidence interval is reported through {!stats}
      ({!Stats.Sample}) and {!Sample.report}.  [svc]/[svc_all] and
      [banzhaf]/[banzhaf_all] run (and cache) one estimation pass each;
      {!fgmc_polynomial} stays exact via the conditioning path.  [jobs]
      does not affect the values (the estimator is a pure function of
      the seed).

    The exact backends return bit-identical values in the same order. *)

val create :
  ?tel:Telemetry.t -> ?jobs:int -> ?backend:backend -> Query.t -> Database.t -> t
(** Compiles the lineage (the single compilation of the engine's life)
    and opens the engine's two caches, which every {!rebuild} carries
    on: the memo of conditioned sub-formulas and the circuit
    {!Circuit.Session} that every circuit compile of the engine, the
    [`Auto] trial included, appends to.  One constant, [2{^20}] entries,
    bounds both the memo and the circuit's formula→node cache; results
    past the bound are recomputed, never wrong.  [jobs] sets how many
    domains a batched conditioning run may fan out across: default [1]
    (fully serial, no domain ever spawned), [0] resolves to
    {!Pool.recommended_domains}; the circuit and sample backends are
    always serial.  [backend] selects the evaluation strategy (default
    [`Auto]).

    [tel] (default: a private disabled tracer, making every span a free
    no-op) hosts the engine's whole instrumentation and its only clock:
    the [engine.compilations]/[engine.conditionings] counters live in its
    registry — {!stats} is a projection of it, not a separate record —
    and, when enabled, the run is recorded as spans: [engine.lineage]
    (the one compilation), [engine.classes] (class detection, [`Auto]
    only), [engine.eval] per batched entry point, [engine.full] (the
    unconditioned polynomial), [engine.fact] per evaluated class
    representative on the serial path, [engine.slice] per worker slot
    on track [slot + 1] at [jobs > 1] (one Chrome lane per domain), and
    [engine.merge] for the deterministic merge; the circuit backend adds
    {!Circuit}'s [circuit.*] spans, counters and gauges.  An [`Auto]
    instance predicted past the node budget runs {!auto_rule}'s trial
    compile here, in [create], so its [circuit.compile] span precedes
    [engine.eval] (and is the only circuit span if the trial
    overflowed).
    @raise Invalid_argument if [jobs < 0]. *)

type change = [ `Insert of [ `Endo | `Exo ] * Fact.t | `Delete of Fact.t ]
(** A single-fact delta against the engine's database: insert a fresh
    fact into the endogenous or exogenous part, or delete a present
    fact from whichever part holds it. *)

val rebuild : t -> Database.t -> t
(** Catch-up recompilation over a new database.  Returns a {e new}
    engine over [db], with the same query and settings, whose answers
    are rationally equal to [create]-ing from scratch — the differential
    identity the test suite pins.  It recompiles the lineage and plans
    with {!Plan.analyze}, as {!create} does, and carries over the two
    artifacts measured to pay:

    - the shared {!Compile.Memo} (sound across formulas: a cached
      polynomial counts over exactly its formula's variables).  After one
      write a rebuilt conditioning engine misses far less than a cold one
      (bipartite size 6, seeds 1–10, 30 rebuilds: 44,489 misses against
      103,191);
    - the circuit compilation session, so a later circuit compile
      resolves every hash-consed sub-circuit the new database did not
      touch to its existing arena node ({!Circuit.reused_nodes}).  A
      catch-up read on a serve-sized grid took 21.1 ms with it and
      32.0 ms without.

    Any number of writes separates [db] from {!database}: one rebuild
    catches up with all of them, which is how [svc serve] refreshes a
    stale cached engine.  The original engine stays fully usable (its
    answers still describe the old database), and it can be rebuilt
    again: every rebuild compiles into the session {!create} opened,
    so the first rebuild after a cold start already finds the cold
    engine's sub-circuits in the formula cache.  Per-answer caches (full
    polynomial, circuit evaluation, sample reports) start cold in the new
    engine; the backend is re-resolved from the originally requested
    one, so an [`Auto] engine may flip strategy as the instance grows or
    shrinks.  Runs in an [engine.update] span and bumps the
    [engine.updates] counter (registered on first use). *)

val apply_change : Database.t -> change -> Database.t
(** The database after one write, validated against the database it
    applies to.  [svc serve] applies its writes through it.
    @raise Invalid_argument ["fact F is already present"] on inserting a
    present fact and ["fact F is not present"] on deleting an absent
    one. *)

val update : t -> change -> t
(** One write: {!rebuild} over [apply_change (database t) change].
    @raise Invalid_argument as {!apply_change} does. *)

val backend : t -> [ `Conditioning | `Circuit | `Sample of Sample.config ]
(** The resolved backend. *)

val requested_backend : t -> backend
(** The backend as originally asked of {!create} (what {!rebuild}
    re-resolves). *)

val backend_name : [< backend ] -> string
(** The backend's wire and CLI name: [auto], [conditioning], [circuit] or
    [sample]. *)

val circuit_reused_nodes : t -> int
(** {!Circuit.reused_nodes} of the engine's compiled circuit: nodes
    inherited from earlier compiles through the shared session.  [0]
    if no circuit was compiled or it was the session's first. *)

val sample_report : t -> Sample.report option
(** The cached report of the last sampled batched run ([None] unless the
    engine is a [`Sample] backend and an entry point has run; prefers
    the Shapley report when both Shapley and Banzhaf passes ran).
    Carries per-fact confidence intervals, draw counts and convergence
    flags — the data behind {!Stats.Sample} in {!stats}. *)

val auto_rule :
  n_facts:int ->
  classes:int ->
  trial:Circuit.t option Lazy.t ->
  Plan.t Lazy.t ->
  [ `Circuit | `Conditioning ] * string
(** The one [`Auto] rule, with a one-line reason naming the class count:
    [`Conditioning] once per class below {!Plan.min_circuit_facts}
    classes, without forcing the plan; otherwise [`Circuit] when
    {!Plan.recommend} on the plan with [~n_facts:classes] predicts a
    circuit within the budget.  Past the budget the rule forces
    [trial], the lineage compiled without the plan under a cap of
    {!Plan.circuit_node_budget} new nodes ([None] if it overflowed),
    and nowhere else: [`Circuit] if the trial fit, with a reason naming
    the predicted and the real node count, and [`Conditioning] once per
    class if it overflowed.  {!create} and {!rebuild} resolve [`Auto]
    through it at every [jobs]. *)

val auto_reason : t -> string option
(** The reason {!auto_rule} gave when this engine resolved [`Auto];
    [None] for an explicit backend. *)

val classes : t -> Symmetry.t
(** The classes of interchangeable players the engine evaluates once
    each: {!Symmetry.detect}'s partition under [`Auto], one class per
    fact otherwise.  It also indexes the players for {!svc} and
    {!banzhaf}. *)

val plan : t -> Plan.t option
(** The compilation plan {!create} or {!rebuild} computed: present for an
    explicit [`Circuit] backend and for an [`Auto] with at least
    {!Plan.min_circuit_facts} classes, at every [jobs] (where it decided
    the resolution and will steer any circuit compilation); absent for
    [`Conditioning], [`Sample] and few-class [`Auto] engines, and for
    an [`Auto] engine whose circuit is {!auto_rule}'s unplanned trial. *)

val query : t -> Query.t
val database : t -> Database.t

val jobs : t -> int
(** The resolved worker count ([>= 1]). *)

val lineage : t -> Bform.t
(** The shared compiled lineage [φ]. *)

val svc : t -> Fact.t -> Rational.t
(** Shapley value by conditioning the shared lineage (Claim A.1), found
    through the class index and evaluated on the fact's class
    representative.
    @raise Invalid_argument if the fact is not endogenous. *)

val svc_all : t -> (Fact.t * Rational.t) list
(** Shapley values of all endogenous facts — one lineage compilation
    total, then the full polynomial once and one conditioning per class
    under [`Auto] ([k + 1] conditioned counts for [k] classes of
    interchangeable facts, each value copied to its class), or one per
    fact under an explicit [`Conditioning] ([n + 1]).  At [jobs > 1] the
    conditionings run on [jobs] domains with private caches and a
    deterministic merge; the result is identical to the [jobs = 1]
    output, in the same order. *)

val banzhaf : t -> Fact.t -> Rational.t
(** Banzhaf value from the same conditioned polynomials (two GMC totals).
    @raise Invalid_argument if the fact is not endogenous. *)

val banzhaf_all : t -> (Fact.t * Rational.t) list

val fgmc_polynomial : t -> Poly.Z.t
(** The FGMC generating polynomial of the unconditioned lineage, through
    the same shared cache. *)

val stats : t -> Stats.t
(** Projection of the engine's telemetry registry and caches into
    {!Stats.t}, with the resolved backend's counters only; [spans] carries
    {!Telemetry.aggregate} of the engine's tracer, the record's only
    durations. *)

val telemetry : t -> Telemetry.t
(** The tracer given to (or created by) {!create}. *)

val shapley_of_polynomials :
  factorials:Bigint.t array ->
  with_mu_exo:Poly.Z.t ->
  without_mu:Poly.Z.t ->
  n:int ->
  Rational.t
(** The Claim A.1 arithmetic alone, against a caller-supplied factorial
    table ([factorials.(i) = i!], length [> n]).
    @raise Invalid_argument if the table is too small. *)
