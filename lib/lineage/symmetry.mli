(** Classes of interchangeable facts.

    Shapley's symmetry axiom: if swapping two players maps the lineage
    onto itself, the two players have the same Shapley value (and the
    same Banzhaf value).  The relation "the transposition [(x y)] is an
    automorphism of the lineage" is an equivalence — reflexive,
    symmetric, and transitive because [(x z) = (x y)(y z)(x y)] — so its
    classes partition the players, and one evaluation per class answers
    every member.

    {!detect} finds the classes of a {e positive DNF} lineage: [True],
    [False], a conjunction of fact variables, or a disjunction of such
    conjunctions — the shape {!Lineage.lineage} gives CQs, UCQs and
    RPQs.  Any other shape gets singleton classes, which is trivially
    sound.  On a positive DNF, a transposition that maps the set of terms
    onto itself preserves the Boolean function, so the detector decides
    membership on the terms:

    - players are grouped by a hashed signature that no automorphism
      changes (degree, term sizes, the degrees inside each term);
    - within a group, a player's candidate classes are the classes of
      players with the same {e context} (the set of its terms with the
      player removed; equal contexts mean interchangeable, never sharing
      a term) and of players sharing a term with it — between them they
      reach every class the player could belong to;
    - a player joins a class only after swapping it with the class
      representative maps every term onto a term.  Because the relation
      is an equivalence, that one check per member is exact.

    The partition is a certificate: {!check} re-derives the terms from
    the formula with its own code and re-verifies every member against
    its representative, in the style of {!Plancheck}.  Unlike a plan, a
    wrong class changes answers, so the check runs in the test suite, in
    CI and in [svc plan]. *)

type t
(** A partition of a player array into classes, with a player index. *)

val detect : players:Fact.t array -> Bform.t -> t
(** The classes of interchangeable players of a lineage.  Classes are
    numbered in the order of their representatives, and each
    representative is its class's first member in [players] order.
    Facts of the formula that are not players are never swapped. *)

val discrete : Fact.t array -> t
(** One class per player, in [players] order: the partition of an
    evaluation that stays per fact. *)

val count : t -> int
(** The number of classes. *)

val position : t -> Fact.t -> int option
(** The player's index in the array the partition was built from. *)

val class_of : t -> int -> int
(** The class of the player at an index. *)

val representative : t -> int -> int
(** The player index of a class's representative. *)

val classes : t -> Fact.t list list
(** Every class, representative first and members in [players] order,
    classes in order of their representatives. *)

type report = {
  r_classes : int;  (** classes verified *)
  r_facts : int;  (** players covered *)
  r_swaps : int;  (** member-representative transpositions replayed *)
}

val check :
  players:Fact.t array -> Bform.t -> Fact.t list list -> (report, string) result
(** [check ~players phi classes] verifies a claimed partition from first
    principles: the classes cover [players] exactly once; on a positive
    DNF every member's transposition with its class's first fact maps
    every term onto a term; on any other shape every class is a
    singleton.  [Error msg] names the first violated clause. *)

val report_to_string : report -> string
(** ["verified (k class(es) over n fact(s), s swap(s) replayed)"]. *)
