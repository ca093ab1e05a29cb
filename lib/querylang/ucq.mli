(** Unions of conjunctive queries (Section 2). *)

type t

val of_cqs : Cq.t list -> t
(** @raise Invalid_argument on an empty list. *)

val disjuncts : t -> Cq.t list
val of_cq : Cq.t -> t

val vars : t -> Term.Sset.t
val consts : t -> Term.Sset.t
val rels : t -> Term.Sset.t

val eval : t -> Fact.Set.t -> bool

val is_constant_free : t -> bool

val is_connected : t -> bool
(** Every disjunct of the reduced form is connected; for constant-free
    UCQs this matches "every minimal support is connected" (connected
    hom-closed queries, Section 4.1). *)

val reduce : t -> t
(** Remove redundant disjuncts (those implied by another disjunct) and
    replace each disjunct by its core.  The minimal supports of the result
    are exactly the C-hom images of its disjuncts' canonical databases. *)

val minimal_supports_in : t -> Fact.Set.t -> Fact.Set.t list

val canonical_supports : t -> Fact.Set.t list
(** One canonical (fresh-constant) minimal support per disjunct of the
    reduced form. *)

val implies : t -> t -> bool
(** [implies q q'] iff every database satisfying [q] satisfies [q']. *)

val equivalent : t -> t -> bool

val parse : string -> t
(** Disjuncts separated by ["|"], each in {!Cq.parse} syntax. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** {1 Lifted-inference rules}

    Shared by the safety verdicts ({!Safety}) and the lifted evaluator
    ({!Lifted}); both apply them to a {!reduce}d union. *)

val independent_groups : t -> t list
(** The disjuncts grouped by shared relation names: two disjuncts land in
    one group when a chain of disjuncts sharing relation names links
    them.  Groups are pairwise vocabulary-disjoint, so the union is
    their independent union; group order is unspecified. *)

val inclusion_exclusion :
  (odd:bool -> Cq.t -> 'a -> 'a option) -> 'a -> t -> 'a option
(** [inclusion_exclusion step init q] folds [step] over the conjunction
    ({!Cq.conjoin}) of every non-empty subset of [q]'s disjuncts, [odd]
    telling whether the subset has an odd number of them, and stops at
    the first [None].  [None] also when [q] has more than 6 disjuncts. *)
