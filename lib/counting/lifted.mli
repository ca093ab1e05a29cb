(** Lifted (intensional) FGMC evaluation for safe UCQs.

    {!Safety} certifies queries as safe by lifted-inference rules; this
    module {e executes} those same rules on generating polynomials, making
    every [Safe] verdict constructive:

    - CQ rules: coring, independent join of vocabulary-disjoint
      variable-components, independent project on a separator variable
      (a variable occurring in every atom: facts partition by its value,
      so complement polynomials multiply), read-once single atoms
      ([(1+z)^m - 1] over the [m] matching facts);
    - UCQ rules: independent union of vocabulary-disjoint groups
      (complement product) and inclusion–exclusion over the conjunctions
      of disjuncts.

    Functions return [None] when the rules get stuck — by construction
    exactly when {!Safety} does not answer [Safe] (tested invariant).  On
    hierarchical self-join-free CQs they never get stuck, and every step
    is polynomial-size arithmetic on polynomials, so the evaluation is
    polynomial in the database — the FP side of Proposition 3.1 /
    Corollary 4.2. *)

val cq : Cq.t -> Database.t -> Poly.Z.t option
val ucq : Ucq.t -> Database.t -> Poly.Z.t option

val fgmc_polynomial : Ucq.t -> Database.t -> Poly.Z.t
(** @raise Invalid_argument when the rules get stuck (query not certified
    safe). *)
