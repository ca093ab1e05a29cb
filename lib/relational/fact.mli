(** Facts: ground atoms [R(a₁, …, aₖ)] over constants only. *)

type t = { rel : string; args : string list }

val make : string -> string list -> t
(** Nullary facts [R()] are allowed (propositional relations).
    @raise Invalid_argument on an empty relation name. *)

val rel : t -> string
val args : t -> string list
val arity : t -> int

val consts : t -> Term.Sset.t

val to_atom : t -> Atom.t
val of_atom : Atom.t -> t
(** @raise Invalid_argument if the atom is not ground. *)

val of_atom_opt : Atom.t -> t option

val rename : string Term.Smap.t -> t -> t
(** [rename rho f] replaces each constant bound in [rho] by its image. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Set : sig
  include Set.S with type elt = t

  val consts : t -> Term.Sset.t
  (** All constants appearing in the set. *)

  val rels : t -> Term.Sset.t
  (** All relation names appearing in the set. *)

  val rename : string Term.Smap.t -> t -> t

  val add_distinct : t -> t list -> t list
  (** [add_distinct s l] is [s :: l] unless [l] already holds a set equal
      to [s], in which case it is [l].  Folding it over a list keeps each
      set once, at its first occurrence, in reverse order: the dedup pass
      of every minimal-support enumeration. *)

  val minimal : t list -> t list
  (** The sets of the list that no other set of the list strictly
      contains, in their order: the subsumption pass of every
      minimal-support enumeration. *)

  val pp : Format.formatter -> t -> unit
end

module Map : Map.S with type key = t
