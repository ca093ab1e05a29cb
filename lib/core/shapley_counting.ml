(** Shapley-counting: a library reproducing
    "When is Shapley Value Computation a Matter of Counting?"
    (Bienvenu, Figueira, Lafourcade — PODS 2024).

    This umbrella module re-exports the full public API in dependency
    order.  Start with {!Quickstart} below, or the [examples/] directory.

    {1 Layers}

    - arithmetic: {!Bigint}, {!Rational}, {!Poly}, {!Linalg}
    - relational: {!Term}, {!Atom}, {!Fact}, {!Database},
      {!Homomorphism}, {!Incidence}
    - automata: {!Regex}, {!Nfa}, {!Dfa}, {!Words}
    - queries: {!Cq}, {!Ucq}, {!Rpq}, {!Crpq}, {!Ucrpq}, {!Cqneg},
      {!Query}
    - lineage: {!Bform}, {!Lineage}, {!Compile}
    - counting: {!Model_counting}, {!Prob_db}, {!Pqe}
    - Shapley: {!Game}, {!Svc}, {!Max_svc}, {!Const_svc}
    - reductions (Figure 1a): {!Oracle}, {!Svc_to_fgmc}, {!Fgmc_sppqe},
      {!Fgmc_to_svc}, {!Endogenous}, {!Max_svc_red}, {!Const_red},
      {!Negation_red}
    - dichotomies (Figure 1b): {!Hierarchical}, {!Safety},
      {!Pseudo_connected}, {!Decomposable}, {!Classify} *)

(* Arithmetic substrate *)
module Bigint = Bigint
module Rational = Rational
module Poly = Poly
module Linalg = Linalg

(* Relational substrate *)
module Term = Term
module Atom = Atom
module Fact = Fact
module Database = Database
module Homomorphism = Homomorphism
module Incidence = Incidence

(* Automata substrate *)
module Regex = Regex
module Nfa = Nfa
module Dfa = Dfa
module Words = Words

(* Query languages *)
module Cq = Cq
module Ucq = Ucq
module Rpq = Rpq
module Crpq = Crpq
module Ucrpq = Ucrpq
module Cqneg = Cqneg
module Gcq = Gcq
module Query = Query
module Query_parse = Query_parse

(* Lineage and knowledge compilation *)
module Bform = Bform
module Lineage = Lineage
module Compile = Compile

(* Counting and probabilistic problems *)
module Model_counting = Model_counting
module Prob_db = Prob_db
module Pqe = Pqe
module Lifted = Lifted

(* Shapley values *)
module Game = Game
module Svc = Svc
module Max_svc = Max_svc
module Const_svc = Const_svc

(* Reductions (Figure 1a) *)
module Oracle = Oracle
module Svc_to_fgmc = Svc_to_fgmc
module Fgmc_sppqe = Fgmc_sppqe
module Fgmc_to_svc = Fgmc_to_svc
module Endogenous = Endogenous
module Max_svc_red = Max_svc_red
module Const_red = Const_red
module Negation_red = Negation_red
module Mc_pqe_half = Mc_pqe_half

(* Provenance semirings *)
module Semiring = Semiring
module Annotate = Annotate

(* Workload generators *)
module Workload = Workload

(* Dichotomies (Figure 1b) *)
module Hierarchical = Hierarchical
module Safety = Safety
module Pseudo_connected = Pseudo_connected
module Decomposable = Decomposable
module Classify = Classify
module Shatter = Shatter
