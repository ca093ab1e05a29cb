(** Knowledge-compilation backend: d-DNNF circuits for lineage formulas.

    The conditioning engine ({!Engine}) answers a batched SVC query with
    one size-polynomial extraction {e per fact}.  This module attacks the
    asymptotics themselves, following Deutch, Frost, Kimelfeld &
    Moskovitch ("Computing the Shapley Value of Facts in Query
    Answering"): compile the lineage {e once} into a smoothed,
    decomposable, deterministic NNF circuit, then read every fact's
    Shapley polynomial off the circuit with a single bottom-up pass
    (per-node size polynomials) plus a single top-down gradient pass
    (per-node partial derivatives of the root polynomial) — no per-fact
    conditioning at all.

    {2 The circuit}

    Nodes are [⊤], [⊥], literals [μ]/[¬μ], ∧ and ∨, stored in one arena
    with structural-hash node sharing (a child's id is always smaller
    than its parent's, so id order is a topological order).  The
    invariants, checkable independently with {!Check}:

    - {e decomposable}: the children of every ∧ mention pairwise disjoint
      variable sets (so their polynomials multiply);
    - {e deterministic}: the children of every ∨ are pairwise mutually
      exclusive (so their polynomials add) — guaranteed structurally,
      because every ∨ is either a Shannon decision node on a variable or
      a smoothing gadget [μ ∨ ¬μ];
    - {e smooth}: the children of every ∨ mention the {e same} variable
      set (so all polynomials count over a consistent universe);
      smoothing gadgets are inserted during construction and counted as
      [smoothing_nodes].

    Compilation is Shannon expansion with the same branching heuristic
    and variable-disjoint ∧-decomposition as {!Compile}, memoized on the
    conditioned sub-formula in a bounded cache with the {!Compile.Memo}
    discipline: at capacity, sub-circuits are still built (node sharing
    keeps them small) but the formula→node binding is not retained,
    counted as a drop — a bound can never change the circuit's meaning.

    {2 The single-pass evaluator}

    For a smooth deterministic decomposable circuit, the root's size
    polynomial [P(z)] is multilinear in the leaf weights
    [w(μ) = z, w(¬μ) = 1], so [∂P/∂w(μ)] — computed for {e all} leaves at
    once by one reverse sweep — is exactly the generating polynomial of
    the satisfying assignments with [μ] true, i.e. [C(φ[μ:=1])], the
    [with_mu_exo] polynomial of Claim A.1.  {!evaluate} returns it for
    every fact of the universe (null players handled by padding), plus
    the full polynomial [C(φ)]. *)

type t
(** A compiled circuit for one formula.  Immutable once compiled; the
    instrumentation counters are frozen at compile time. *)

(** A compilation session: the node arena, the structural hash-cons
    table and the formula→node cache, persisted across compiles.
    Compiling several (versions of) lineages through one session makes
    every structurally identical sub-circuit — every conditioned
    sub-formula untouched by a delta update — come back as the {e same}
    arena node instead of being rebuilt: the subtree-reuse substrate of
    {!Engine.update} and the serving cache.

    Sound by construction: the arena is append-only (a compiled
    circuit's id range is frozen at compile time and never mutated), and
    the cached formula→node bindings are plan- and database-independent
    — the node built for a formula always represents exactly that
    formula over exactly its variables.  Sessions are single-domain;
    share one session per serving thread, like {!Compile.Memo}. *)
module Session : sig
  type t

  val create : unit -> t

  val nodes : t -> int
  (** The arena length: every node the session's compiles have
      allocated, reachable or not.  [0] for a fresh session. *)
end

exception Node_cap
(** Raised by {!compile} [~max_nodes] when the build needs more than
    [max_nodes] new nodes. *)

val compile :
  ?tel:Telemetry.t ->
  ?plan:Plan.t ->
  ?cache_capacity:int ->
  ?max_nodes:int ->
  ?session:Session.t ->
  Bform.t ->
  t
(** Compile a lineage formula.  [cache_capacity] bounds the number of
    formula→node memo entries (default unbounded; the bound affects
    compile time, never the result).

    [max_nodes] caps the nodes the build allocates in the arena
    (default unbounded): nodes inherited from the session are free,
    and nodes the build allocates but the root does not reach count.
    A build that fits the cap gives the same circuit as an uncapped
    one; a build that would pass it stops and raises {!Node_cap}.  A
    stopped build leaves its session as it found it: the nodes it
    allocated leave the arena, the hash-cons table and the formula
    cache, so {!Session.nodes} reads as before the build.

    [plan] steers the build without being trusted for correctness:
    Shannon expansion decides variables in the plan's branch order
    (reverse elimination order) instead of the occurrence-count
    heuristic, keeping each decision's cut at the plan's induced width.
    Every conjunction, the root included, is split into its
    variable-disjoint components by {!Compile.conjunct_components}, so
    the root splits along the same AND-components the plan reports.  A
    plan whose orders miss variables only ranks those variables last;
    the circuit invariants come from construction, never from the
    plan.

    [session] (default: a fresh one) is the {!Session} the build
    compiles into: hash-consing resolves every sub-circuit already built
    by an earlier compile of the session to its existing node, and the
    formula→node cache warm-starts from all previous compiles.  The
    number of inherited nodes reachable from the new root is
    {!reused_nodes}.  Circuits compiled earlier in the session remain
    valid and unchanged.

    [tel] hosts the circuit's instrumentation: the whole build runs in a
    [circuit.compile] span, the memo counters live in the registry as
    [circuit.cache_hits]/[circuit.cache_misses]/[circuit.cache_drops],
    and the live size lands in the [circuit.nodes]/[circuit.edges]/
    [circuit.smoothing]/[circuit.reused_nodes] gauges.  The default is a
    private disabled tracer, so the per-circuit accessors below are
    unshared; compiling twice against the {e same} [tel] accumulates
    into shared counters.
    @raise Node_cap when the build needs more than [max_nodes] nodes.
    @raise Invalid_argument on negative capacity or [max_nodes]. *)

val vars : t -> Fact.Set.t
(** The variables the circuit mentions (= the formula's variables unless
    the formula was constant). *)

val node_count : t -> int
val edge_count : t -> int

val smoothing_nodes : t -> int
(** Nodes allocated by smoothing alone — the structural overhead paid so
    the one-pass evaluator can read all facts off the circuit. *)

val reused_nodes : t -> int
(** Of the nodes reachable from this circuit's root, how many were
    inherited from earlier compiles of the same {!Session} rather than
    built — 0 for the first compile of a session.  The delta-update
    payoff metric. *)

val cache_hits : t -> int
val cache_misses : t -> int
val cache_drops : t -> int

type evaluation = {
  full : Poly.Z.t;
      (** [C(φ, U)]: the size polynomial over the whole universe. *)
  by_fact : (Fact.t * Poly.Z.t) array;
      (** One entry per universe fact, in the given order: the fact and
          its [C(φ[μ:=1], U∖{μ})] polynomial ([with_mu_exo]).  The
          [φ[μ:=0]] side follows from the splitting identity
          [C(φ) = z·C(φ[μ:=1]) + C(φ[μ:=0])] without another pass. *)
  poly_ops : int;  (** polynomial ring operations spent evaluating *)
}

val evaluate : ?tel:Telemetry.t -> t -> universe:Fact.t list -> evaluation
(** One bottom-up + one top-down traversal; every fact's polynomial from
    a single compilation, no per-fact conditioning.  Both sweeps visit
    only the nodes reachable from this circuit's root, so the cost is
    linear in the live circuit, not in a session arena that earlier
    compiles have grown.  They run in [circuit.bottom_up] and
    [circuit.top_down] spans on [tel].

    The ring follows the universe size [n]: with [n ≤ Sys.int_size − 2]
    (61 on 64-bit) the sweeps run on unboxed native-int polynomials and
    only the returned ones become {!Poly.Z.t}; larger universes compute
    in {!Poly.Z} throughout.  The native ring is exact with no overflow
    check: the circuit is decomposable, deterministic and smooth, so
    every polynomial the sweeps form has non-negative coefficients that
    count assignments over a subset of the universe, each at most
    [2^n < max_int].  Both rings return the same result, [poly_ops]
    included.
    @raise Invalid_argument if the circuit mentions a fact outside the
    universe, or if the universe lists a fact twice. *)

(** Independent invariant verifier, in the style of {!Certcheck}: it
    recomputes every variable set from the raw node structure and checks
    decomposability and smoothness structurally, then verifies
    determinism {e semantically} by enumerating all assignments over the
    root's variables and evaluating every reachable node under each —
    trusting neither the compiler's cached variable sets nor its
    structural guarantees. *)
module Check : sig
  type report = {
    nodes_checked : int;  (** reachable nodes visited *)
    and_nodes : int;
    or_nodes : int;
    assignments : int;  (** assignments enumerated for determinism *)
  }

  val check : ?max_vars:int -> ?formula:Bform.t -> t -> (report, string) result
  (** [check c] is [Ok report] iff every reachable ∧ is decomposable,
      every reachable ∨ is smooth and deterministic, and child ids are
      topologically ordered.  With [formula], additionally checks the
      circuit is logically equivalent to it under every enumerated
      assignment.  Determinism/equivalence enumeration needs
      [2^|vars|] evaluations, so circuits over more than [max_vars]
      (default [16]) variables are an [Error] rather than silently
      unverified. *)
end

(** {2 Test hooks} *)

module For_tests : sig
  val evaluate_poly_z :
    ?tel:Telemetry.t -> t -> universe:Fact.t list -> evaluation
  (** {!evaluate} with the sweeps forced onto {!Poly.Z} whatever the
      universe size — the reference the differential suite pins the
      native ring against.  Nothing in the library uses it. *)
end
