(** Lineage computation: from a query and a partitioned database to a
    Boolean function of the endogenous facts.

    For every [S ⊆ Dₙ]:  [Bform.eval (lineage q db) S  ⇔  S ∪ Dₓ ⊨ q].

    Monotone queries yield the disjunction of their minimal supports
    (restricted to endogenous facts); CQ¬ queries yield a non-monotone
    formula with negated fact variables. *)

val lineage : Query.t -> Database.t -> Bform.t
