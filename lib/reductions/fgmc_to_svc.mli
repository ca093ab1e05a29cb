(** The paper's main results: reductions [FGMC_q ≤ poly SVC_q] (Section 5).

    All three lemmas share one engine, the construction of Figure 2:

    {v
        Aⁱ  =  D′ ∪ S⁰ ∪ S¹ ∪ … ∪ Sⁱ ∪ S⁻
    v}

    where [D′ = D ⊎ S′] ([S′] exogenous), [S = S⁰ ⊎ S⁻] is the minimal
    support being duplicated, [S⁰] the facts containing the pivot constant
    [a], and each [Sᵏ] renames [a] to a fresh constant.  Endogenous facts
    of [Aⁱ]: those of [D], the distinguished [μ ∈ S⁰] and its copies
    [μᵏ], and all of [S⁻].  Three steps recover the whole FGMC vector:
    {!measure} queries the SVC oracle on [(Aⁱ, μ)] for [i = 0..|Dₙ|],
    {!clean} subtracts the closed-form contribution of the degenerate
    cases of Lemma 5.1, and {!invert} solves the shifted-factorial linear
    system.

    {!Max_svc_red} (Proposition 6.2) runs the same three steps with
    [m = |S⁻| = 0]; {!Const_red} (Proposition 6.3) runs {!measure} and
    {!invert} with [m = 0] on raw values, which need no cleaning; and
    {!Negation_red} (Proposition 6.1, Lemma D.2) calls {!reduce_engine}
    itself. *)

type mode =
  | Count        (** Lemmas 4.1/4.3: case (3) of Lemma 5.1 collects the
                     generalized supports. *)
  | Complement   (** Lemma 4.4: case (3) collects the non-supports of the
                     conjunct being counted (as does Prop. 6.3's system). *)

val reduce_engine :
  svc:Oracle.svc ->
  count_query:Query.t ->
  query_consts:Term.Sset.t ->
  s_prime:Fact.Set.t ->
  support:Fact.Set.t ->
  pivot:string ->
  mode:mode ->
  Database.t ->
  Poly.Z.t
(** The shared construction.  [count_query] is the query whose FGMC vector
    is computed ([q] for Lemmas 4.1/4.3, a conjunct [qᵢ] for Lemma 4.4);
    the [svc] oracle answers SVC for the (possibly different) oracle query.
    @raise Invalid_argument if [pivot ∉ const(support) ∖ query_consts]. *)

(** {1 The Lemma 5.1 arithmetic}

    Shared by every construction of the Figure 2 shape.  Factorials come
    from one {!Bigint.factorial_table} per call. *)

val measure :
  ('a -> Rational.t) -> add:('c -> 'a -> 'a) -> 'a -> 'c array -> Rational.t array
(** [measure oracle ~add a0 copies] is the oracle's value on
    [A⁰ = a0, A¹, …, Aⁿ] with [n = Array.length copies] and
    [Aⁱ = add copies.(i-1) Aⁱ⁻¹]: one oracle call per instance, in
    order. *)

val add_copy : Fact.Set.t * Fact.t -> Database.t -> Database.t
(** [add_copy (Sᵏ, μᵏ)] is Figure 2's step [Aⁱ⁻¹ → Aⁱ] on databases:
    [μᵏ] endogenous, the rest of [Sᵏ] exogenous. *)

val clean : m:int -> Rational.t array -> Rational.t array
(** [clean ~m sh] maps the [n + 1] measurements [shᵢ = Sh(Aⁱ, μ)] to
    [1 - shᵢ - Zᵢ], where [Zᵢ] is the closed-form contribution of the
    sets covered by cases (1)/(2) of Lemma 5.1 (some [μᵏ] present, or
    part of the [m] facts of [S⁻] missing). *)

val invert : m:int -> mode -> Rational.t array -> Poly.Z.t
(** [invert ~m mode v] solves
    [vᵢ = Σ_j (j+m)!(n+i-j)!/(n+i+m+1)! · y_j] for [i, j = 0..n]
    ([n + 1 = Array.length v]) and returns the polynomial [Σ_j x_j z^j]
    with [x_j = y_j] ([Count]) or [x_j = C(n,j) - y_j] ([Complement]).
    @raise Invalid_argument if a solution coordinate is not an integer. *)

(** {1 Lemma 4.1 — pseudo-connected queries} *)

val lemma41 :
  svc:Oracle.svc ->
  query:Query.t ->
  island:Fact.Set.t ->
  pivot:string ->
  Database.t ->
  Poly.Z.t
(** [island] must be an island minimal support of [query] over constants
    fresh w.r.t. the input database, [pivot ∈ const(island) ∖ C]. *)

val lemma41_auto : svc:Oracle.svc -> query:Query.t -> Database.t -> Poly.Z.t option
(** Derive the island support via {!Query.fresh_support} and pick any
    constant outside [C] as pivot; [None] when no such support exists.
    Soundness of using that support as an island is the caller's burden
    (e.g. [query] connected hom-closed — Lemma 4.2 — or an RPQ with a long
    word — Lemma B.1). *)

(** {1 Lemma 4.3 — variable-connected q, oracle query q ∧ q′} *)

val lemma43 :
  svc:Oracle.svc ->
  q:Query.t ->
  q':Query.t ->
  Database.t ->
  Poly.Z.t
(** The [svc] oracle answers [SVC_{q ∧ q′}].  Builds [S′] as a fresh
    minimal support of [q′] and [S] as a fresh minimal support of [q],
    checking hypothesis (2a) ([S′ ⊭ q]).  Hypotheses (1), (2b), (2c), (3)
    — variable-connectedness and absence of q-leaks — are the caller's
    burden (automatic for self-join-free or constant-free [q], cf.
    Corollary 4.5).
    @raise Invalid_argument when a required fresh support does not exist or
    [S′ ⊨ q]. *)

(** {1 Lemma 4.4 — decomposable queries} *)

val lemma44 :
  svc:Oracle.svc ->
  q1:Query.t ->
  q2:Query.t ->
  ?split:(Fact.t -> [ `Left | `Right | `Neither ]) ->
  Database.t ->
  Poly.Z.t
(** The [svc] oracle answers [SVC_{q1 ∧ q2}]; the result is the FGMC vector
    of [q1 ∧ q2] on the input database.  [split] assigns each fact to the
    conjunct it can be relevant to (default: by relation vocabulary, which
    is complete for disjoint-vocabulary decompositions, Lemma 4.5).
    @raise Invalid_argument if the vocabularies overlap and no [split] is
    given, or a conjunct has no fresh support with a constant outside
    [C]. *)

val lemma_d1 :
  svc:Oracle.svc ->
  q1:Query.t ->
  q2:Query.t ->
  ?split:(Fact.t -> [ `Left | `Right | `Neither ]) ->
  Database.t ->
  Poly.Z.t
(** Lemma D.1: the purely endogenous variant of {!lemma44} for queries
    {e decomposable with an unshared constant}.  The pivot is a constant of
    the support occurring in exactly one fact, so [S⁰] is a singleton and
    the construction adds no exogenous facts — wrap the oracle with
    {!Oracle.svc_endo_only} to certify.
    @raise Invalid_argument if the input database has exogenous facts or a
    support has no unshared constant. *)
