(** Incidence graphs and connectivity of atom sets (Section 2).

    The incidence graph [G_S] of a set of atoms [S] has the atoms and their
    terms as nodes, and an edge between each atom and each of its terms.
    [S] is {e connected} if [G_S] is; it is {e variable-connected} if [G_S]
    stays connected after removing all constant nodes (Section 4.1). *)

val connected : Atom.t list -> bool
(** Whether the incidence graph of the atoms is connected.  The empty set
    and singletons are connected. *)

val variable_connected : Atom.t list -> bool
(** Connectivity of [G_S] after removal of the constant nodes: atoms are
    adjacent only through shared variables. *)

val components : Atom.t list -> Atom.t list list
(** Connected components (via shared terms), coarsest partition. *)

val variable_components : Atom.t list -> Atom.t list list
(** Connected components via shared variables only. *)

val facts_connected_outside : fixed:Term.Sset.t -> Fact.Set.t -> bool
(** Whether the facts form a connected incidence graph when only constants
    outside [fixed] count as shared nodes — the invariant of the support
    [S^k ⊎ S⁻] in Claim 5.3 ("every atom is connected to every other by
    some constant outside of C"). *)

val fact_components_outside : fixed:Term.Sset.t -> Fact.Set.t -> Fact.Set.t list
(** Components of the above graph. *)

val components_by : ('a -> string list) -> 'a list -> 'a list list
(** [components_by keys items] is the generic union-find underneath
    all of the above: items sharing a key land in one group (elements
    keep their relative order inside a group; group order is
    unspecified).  Exposed for the query languages, which group UCQ
    disjuncts by shared relation names and CRPQ path atoms by shared
    terms with it. *)
