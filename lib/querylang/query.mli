(** Unified Boolean queries.

    The studied problems (SVC, model counting, probabilistic evaluation) are
    parameterized by an arbitrary Boolean query; this module packages the
    concrete languages behind one evaluation interface, together with the
    structural data the paper's reductions consume: constants [C] for
    C-hom-closure, vocabulary, canonical minimal supports, relevance,
    q-leaks (Section 4.1). *)

type t =
  | True                    (** the trivial query ⊤ *)
  | Cq of Cq.t
  | Ucq of Ucq.t
  | Rpq of Rpq.t
  | Crpq of Crpq.t
  | Ucrpq of Ucrpq.t
  | Cqneg of Cqneg.t
  | Gcq of Gcq.t            (** guarded generalized CQ (Appendix D.2.3) *)
  | And of t * t            (** conjunction (the [q ∧ q′] of Lemma 4.3) *)
  | Or of t * t

val eval : t -> Fact.Set.t -> bool

val holds : t -> Database.t -> bool
(** [holds q db = eval q (Database.all db)]. *)

val consts : t -> Term.Sset.t
(** The constants of the query, i.e. the set [C] for which the query is
    C-hom-closed ({!Cqneg} queries are not hom-closed; their constants are
    still returned). *)

val rels : t -> Term.Sset.t

val is_hom_closed_syntactically : t -> bool
(** Whether the query belongs to a (C-)hom-closed fragment by its syntax
    (everything except {!Cqneg} and combinations containing one). *)

val name : t -> string
(** A short description for reports. *)

(** {1 Supports} *)

val minimal_supports_in : t -> Fact.Set.t -> Fact.Set.t list
(** All ⊆-minimal subsets [S] of the given facts with [S ⊨ q], computed by
    language-specific enumeration for (U)CQs and RPQs
    ({!Rpq.minimal_supports_in}) and by subset search otherwise.
    @raise Invalid_argument when subset search would run over more than
    20 facts. *)

val fresh_support : t -> Fact.Set.t option
(** A minimal support over fresh constants (and the query's own constants),
    suitable as the support [S] of the paper's constructions; [None] when
    the query is unsatisfiable or satisfied by the empty database. *)

val is_support : t -> Fact.Set.t -> bool
val is_minimal_support : t -> Fact.Set.t -> bool

val relevant_in : t -> Fact.Set.t -> Fact.t -> bool
(** Whether the fact belongs to some minimal support of [q] within the
    given fact set (the "relevant" of Section 2, relativized to a concrete
    database). *)

(** {1 Leak detection (Section 4.1)} *)

val leak_witness : t -> canonical:Fact.Set.t list -> Fact.t -> bool
(** [leak_witness q ~canonical f] checks whether [f] is a q-leak witnessed
    by one of the given minimal supports: some fact [α'] of a support admits
    a C-homomorphism onto [f] sending a constant outside [C = consts q]
    into [C]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
