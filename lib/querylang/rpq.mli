(** Regular path queries [L(a,b)] over graph databases (Section 2).

    [D ⊨ L(a,b)] iff some word [R₁…Rₗ ∈ L] labels a directed path
    [a = c₀ →R₁ c₁ → … →Rₗ cₗ = b] of facts of [D].  The empty word is
    allowed: if [ε ∈ L] then [L(a,a)] holds in every database. *)

type t

val make : Regex.t -> src:string -> dst:string -> t
val of_string : string -> src:string -> dst:string -> t
(** Regex in {!Regex.parse} syntax. *)

val lang : t -> Regex.t
val src : t -> string
val dst : t -> string
val consts : t -> Term.Sset.t
val rels : t -> Term.Sset.t

val eval : t -> Fact.Set.t -> bool
(** Facts of arity other than 2 are ignored (graph queries live on binary
    schemas). *)

val minimal_supports_in : t -> Fact.Set.t -> Fact.Set.t list
(** The minimal supports of the query inside a fact set, by a walk of
    the product of the graph and the language's automaton (the subset
    enumeration behind {!Query.minimal_supports_in}'s other languages is
    exponential in the fact count).  [[∅]] when [ε ∈ L] and [a = b], [[]]
    when the query does not hold; each support once, in reverse order of
    first discovery. *)

val reachable_pairs : Regex.t -> Fact.Set.t -> (string * string) list
(** All pairs [(c, d)] of constants of the fact set with [L(c, d)]
    witnessed inside it (the ε-pairs [(c, c)] are included when [ε ∈ L]). *)

val fresh_path_support : ?min_len:int -> t -> (Fact.Set.t * string list) option
(** A minimal support built from a shortest accepted word of length
    [≥ min_len] (default 1): a simple path from [src] to [dst] through
    fresh intermediate constants, as in the proof of Lemma B.1.  [None] if
    the language has no such word.  Returns the facts and the word used. *)

val is_pseudo_connected : t -> bool
(** Lemma B.1: an RPQ is pseudo-connected as soon as its language contains
    a word of length ≥ 2. *)

val dichotomy_hard : t -> bool
(** Corollary 4.3: SVC is #P-hard iff the language contains a word of
    length ≥ 3 (and in FP otherwise). *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
