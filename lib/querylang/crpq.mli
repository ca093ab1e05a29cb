(** Conjunctive regular path queries (Section 2): existentially quantified
    conjunctions of path atoms [L(t, t')] over a binary schema. *)

type path_atom = { lang : Regex.t; psrc : Term.t; pdst : Term.t }

type t

val of_path_atoms : path_atom list -> t
(** @raise Invalid_argument on an empty list. *)

val path_atoms : t -> path_atom list

val vars : t -> Term.Sset.t
val consts : t -> Term.Sset.t
val rels : t -> Term.Sset.t
(** Union of the path-atom alphabets (the vocabulary). *)

val eval : t -> Fact.Set.t -> bool
(** Whether some binding of the variables to constants puts every path
    atom's endpoints in its language's reachable pairs over the facts
    (an ε-language also relates each constant of the facts and the query
    to itself).  The search tries the atoms with the fewest pairs first
    and stops at the first solution. *)

val bindings : t -> Fact.Set.t -> string Term.Smap.t list
(** Every distinct solution of the same search, run over the atoms in
    query order: one binding of every variable per solution, in reverse
    search order (a binding found twice sits where it was found last).
    A CRPQ's lineage is a disjunction in this order, so the order is
    part of the lineage's shape. *)

val is_constant_free : t -> bool

val is_self_join_free : t -> bool
(** Path atoms have pairwise disjoint alphabets (sjf-CRPQ, Section 4.2). *)

val components : t -> t list
(** Connected components of the path atoms via shared terms. *)

val is_connected : t -> bool

val is_cc_disjoint : t -> bool
(** Connected components have pairwise disjoint vocabularies
    (cc-disjoint-CRPQ, Corollary 4.6). *)

val to_ucq : max_len:int -> t -> Ucq.t option
(** Expand every path atom into the union of its words of length ≤
    [max_len]; [Some] only when every language is finite with all words
    within the bound, in which case the result is an equivalent UCQ
    (boundedness witness). *)

val parse : string -> t
(** Comma-separated path atoms [regex(term,term)] with [?]-prefixed
    variables, e.g. ["(AB+BA)(?x,a)"]. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
