(** Boolean conjunctive queries (Section 2).

    A CQ is a conjunction of atoms with all variables existentially
    quantified; [D ⊨ q] iff there is a valuation of its variables into the
    constants of [D] mapping every atom to a fact of [D] (i.e. a
    [C-hom] with [C = const(q)]). *)

type t

val of_atoms : Atom.t list -> t
(** @raise Invalid_argument on an empty atom list (use {!Query.True} for
    the trivial query). Duplicate atoms are removed. *)

val atoms : t -> Atom.t list
val vars : t -> Term.Sset.t
val consts : t -> Term.Sset.t
val rels : t -> Term.Sset.t

val eval : t -> Fact.Set.t -> bool

(** {1 Syntactic classes} *)

val is_self_join_free : t -> bool
(** No two atoms share a relation name. *)

val is_constant_free : t -> bool

val is_connected : t -> bool
(** Connectivity of the incidence graph (shared variables or constants). *)

val is_variable_connected : t -> bool
(** Connectivity after removing constant nodes (Section 4.1). *)

val variable_components : t -> t list
(** Maximal variable-connected subqueries; atoms without variables form
    singleton components. *)

val is_hierarchical : t -> bool
(** [q] is hierarchical iff there are no atoms [α₁, α₂, α₃] with
    [vars α₁ ∩ vars α₂ ⊄ vars α₃] and [vars α₃ ∩ vars α₂ ⊄ vars α₁]
    (footnote 5 of the paper; equivalently, for any two variables the sets
    of atoms containing them are disjoint or nested). *)

(** {1 Minimality and supports} *)

val core : t -> t
(** An equivalent subquery that is minimal (its canonical database is a
    core).  Computed by searching for proper retractions; exact, intended
    for the small queries manipulated here. *)

val is_minimal : t -> bool
(** Whether [q] equals its core (up to atom set). *)

val canonical_support : ?prefix:string -> t -> Fact.Set.t * string Term.Smap.t
(** The canonical database of [q]: each variable mapped to a fresh constant.
    Returns the facts and the variable valuation used.  For a minimal [q],
    this is a minimal support. *)

val minimal_supports_in : t -> Fact.Set.t -> Fact.Set.t list
(** All ⊆-minimal supports of [q] inside the given fact set, in the order
    {!Homomorphism.minimal_images} gives them.  On a self-join-free [q]
    these are the homomorphic images in enumeration order: each has
    exactly [|q|] facts and determines its valuation, so the dedup and
    subset filters are skipped. *)

val homomorphic_to : t -> t -> bool
(** [homomorphic_to q q'] iff there is a query homomorphism [q → q']
    (fixing constants), i.e. [q'] implies [q]. *)

val equivalent : t -> t -> bool

val rename_apart : avoid:Term.Sset.t -> t -> t
(** Rename the variables of [q] so that their names avoid clashes with
    [avoid] (variables live in their own namespace; this is for hygiene when
    conjoining queries). *)

val conjoin : t list -> t
(** The conjunction of the queries, each one's variables renamed apart
    from those of the queries before it ({!rename_apart}).
    @raise Invalid_argument on an empty list. *)

val instantiate : (string * string) list -> t -> t
(** [instantiate tuple q] substitutes each variable by the paired constant —
    the Remark 3.1 transformation turning a non-Boolean query plus an
    answer tuple into a Boolean query (with constants).
    @raise Invalid_argument if a named variable does not occur in [q]. *)

(** {1 Lifted-inference rule conditions}

    Shared by the safety verdicts ({!Safety}) and the lifted evaluator
    ({!Lifted}), which apply the same rules. *)

val separator : t -> string option
(** A variable occurring in every atom (the smallest such name), the
    pivot of the independent-project rule; [None] if there is none. *)

val vocabularies_disjoint : t list -> bool
(** No relation name occurs in two of the queries: the independence
    condition of the lifted join rule. *)

(** {1 Parsing and printing} *)

val parse : string -> t
(** Comma-separated atoms; variables are [?]-prefixed, other identifiers
    are constants.  Example: ["R(?x,?y), S(?y,alice)"].
    @raise Invalid_argument on syntax errors. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val compare : t -> t -> int
val equal : t -> t -> bool
