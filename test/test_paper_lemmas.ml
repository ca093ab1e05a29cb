open Test_util

(* Direct empirical checks of the paper's lemmas as mathematical statements
   (not of our reductions): island supports, the Claim A.2 identity, the
   Lemma 4.5 characterization, hierarchy structure. *)

(* Lemma 4.2: a fresh minimal support S of a connected hom-closed query is
   an island — for any fact set S' sharing no constants with S, every
   minimal support of q inside S ∪ S' is contained in S or in S'. *)
let prop_island_support =
  qcheck ~count:40 "Lemma 4.2: island property of connected supports"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
       let q = Query_parse.parse "R(?x), S(?x,?y), T(?y)" in
       Term.reset_fresh ();
       let s = Option.get (Query.fresh_support q) in
       let r = Workload.rng seed in
       (* an environment with entirely disjoint constants *)
       let s' =
         Database.all
           (Workload.random_database r ~rels:[ ("R", 1); ("S", 2); ("T", 1) ]
              ~consts:[ "e1"; "e2"; "e3" ] ~n_endo:(1 + Workload.int r 5) ~n_exo:0)
       in
       assert (Term.Sset.is_empty (Term.Sset.inter (Fact.Set.consts s) (Fact.Set.consts s')));
       List.for_all
         (fun m -> Fact.Set.subset m s || Fact.Set.subset m s')
         (Query.minimal_supports_in q (Fact.Set.union s s')))

(* Lemma B.1: the fresh path support of an RPQ with |word| ≥ 2 is an island
   even against environments sharing the endpoint constants. *)
let prop_island_rpq =
  qcheck ~count:40 "Lemma B.1: RPQ path supports are islands"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
       let rpq = Rpq.of_string "AB" ~src:"s" ~dst:"t" in
       let q = Query.Rpq rpq in
       Term.reset_fresh ();
       let s, _ = Option.get (Rpq.fresh_path_support ~min_len:2 rpq) in
       let r = Workload.rng seed in
       (* environment may use the constants of C = {s, t} *)
       let s' =
         Database.all
           (Workload.random_graph r ~labels:[ "A"; "B" ] ~nodes:[ "s"; "t"; "u"; "v" ]
              ~n_endo:(1 + Workload.int r 5) ~n_exo:0)
       in
       List.for_all
         (fun m -> Fact.Set.subset m s || Fact.Set.subset m s')
         (Query.minimal_supports_in q (Fact.Set.union s s')))

(* Corollary 4.4's duplicable singleton supports are islands trivially:
   any minimal support either is the singleton or avoids it. *)
let prop_island_singleton =
  qcheck ~count:30 "Cor 4.4: singleton supports are islands"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
       let q = Query_parse.parse "ucq: A(?x) | R(?x), S(?x,?y), T(?y)" in
       match Pseudo_connected.duplicable_singleton q with
       | None -> false
       | Some w ->
         let s = w.Pseudo_connected.island in
         let r = Workload.rng seed in
         let s' =
           Database.all
             (Workload.random_database r
                ~rels:[ ("A", 1); ("R", 1); ("S", 2); ("T", 1) ]
                ~consts:[ "1"; "2" ] ~n_endo:(1 + Workload.int r 4) ~n_exo:0)
         in
         List.for_all
           (fun m -> Fact.Set.subset m s || Fact.Set.subset m s')
           (Query.minimal_supports_in q (Fact.Set.union s s')))

(* Claim A.2's identity: (1+z)^n · Pr(D_z ⊨ q) = Σ_j z^j FGMC_j, evaluated
   at several rational points. *)
let prop_claim_a2_identity =
  qcheck ~count:40 "Claim A.2: the generating identity"
    QCheck2.Gen.(pair (int_range 0 1000000) (int_range 1 6))
    (fun (seed, znum) ->
       let q = Query_parse.parse "R(?x), S(?x,?y), T(?y)" in
       let r = Workload.rng seed in
       let db =
         Workload.random_database r ~rels:[ ("R", 1); ("S", 2); ("T", 1) ]
           ~consts:[ "1"; "2" ] ~n_endo:(1 + Workload.int r 4) ~n_exo:(Workload.int r 2)
       in
       let n = Database.size_endo db in
       let z = Rational.of_ints znum 3 in
       let p = Rational.div z (Rational.add Rational.one z) in
       let lhs =
         Rational.mul
           (Rational.pow (Rational.add Rational.one z) n)
           (Pqe.pqe_brute q (Prob_db.uniform db p))
       in
       let rhs = Poly.Z.eval_rational (Model_counting.fgmc_polynomial_brute q db) z in
       Rational.equal lhs rhs)

(* Lemma 4.5: for constant-free hom-closed queries, decomposability is
   exactly a disjoint-vocabulary conjunction — check the "⇐" on concrete
   minimal supports: supports of the two conjuncts are always disjoint. *)
let prop_lemma_45 =
  qcheck ~count:30 "Lemma 4.5: disjoint vocabularies ⇒ disjoint supports"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
       let q1 = Query_parse.parse "R(?x), S(?x,?y)" in
       let q2 = Query_parse.parse "T(?u,?v)" in
       let r = Workload.rng seed in
       let db =
         Database.all
           (Workload.random_database r ~rels:[ ("R", 1); ("S", 2); ("T", 2) ]
              ~consts:[ "1"; "2" ] ~n_endo:(2 + Workload.int r 4) ~n_exo:0)
       in
       List.for_all
         (fun m1 ->
            List.for_all
              (fun m2 -> Fact.Set.is_empty (Fact.Set.inter m1 m2))
              (Query.minimal_supports_in q2 db))
         (Query.minimal_supports_in q1 db))

(* Hierarchy structure: a connected hierarchical sjf-CQ has a separator
   variable (what the lifted project rule relies on); conversely, the
   non-hierarchical witness triple has no separator in its component. *)
let test_hierarchy_separators () =
  let has_separator atoms =
    let cq = Cq.of_atoms atoms in
    Term.Sset.exists
      (fun x -> List.for_all (fun a -> Term.Sset.mem x (Atom.vars a)) atoms)
      (Cq.vars cq)
  in
  List.iter
    (fun qs ->
       let q = Cq.parse qs in
       List.iter
         (fun comp ->
            if List.length (Cq.atoms comp) > 1 then
              Alcotest.(check bool)
                (qs ^ " component has separator")
                (Cq.is_hierarchical q)
                (has_separator (Cq.atoms comp)))
         (Cq.variable_components q))
    [ "R(?x), S(?x,?y)"; "R(?x), S(?x,?y), U(?x,?y,?z)"; "R(?x), S(?x,?y), T(?y)";
      "A(?x,?y), B(?y,?z), C(?z,?w)" ]

(* Efficiency + symmetry of the Shapley value on query games (the axioms
   the §3.1 introduction recalls). *)
let prop_axioms_on_query_games =
  qcheck ~count:30 "Shapley axioms on query games" QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
       let q = Query_parse.parse "R(?x), S(?x,?y)" in
       let r = Workload.rng seed in
       let db =
         Workload.random_database r ~rels:[ ("R", 1); ("S", 2) ] ~consts:[ "1"; "2" ]
           ~n_endo:(1 + Workload.int r 4) ~n_exo:(Workload.int r 2)
       in
       let game, _ = Game.of_query q db in
       Rational.is_zero (Game.efficiency_defect game) && Game.is_monotone game
       && Game.is_binary game)

(* Claim 5.2 (completion): with S′ a fresh minimal support of q′ added as
   exogenous facts, FGMC_q(D, j) = FGMC_{q∧q′}(D ⊎ S′, j) for every j —
   under Claim 5.1's preconditions (Dₓ ⊭ q, disjoint constants). *)
let prop_claim_52_completion =
  qcheck ~count:30 "Claim 5.2: exogenous completion preserves the counts"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
       let q = Query_parse.parse "R(?x), S(?x,?y), T(?y)" in
       let q' = Query_parse.parse "U(?u,?v)" in
       let qand = Query.And (q, q') in
       Term.reset_fresh ();
       let s' = Option.get (Query.fresh_support q') in
       let r = Workload.rng seed in
       let db =
         Workload.random_database r ~rels:[ ("R", 1); ("S", 2); ("T", 1) ]
           ~consts:[ "1"; "2" ] ~n_endo:(1 + Workload.int r 4) ~n_exo:(Workload.int r 2)
       in
       Query.eval q (Database.exo db)
       ||
       let db' =
         Fact.Set.fold (fun f acc -> Database.add_exo f acc) s' db
       in
       Poly.Z.equal
         (Model_counting.fgmc_polynomial_brute q db)
         (Model_counting.fgmc_polynomial_brute qand db'))

(* Claim 5.3 (duplication): the pivot-renamed copies S^k ⊎ S⁻ are supports
   of q, connected through constants outside C, and pairwise distinct. *)
let test_claim_53_duplication () =
  let q = Query_parse.parse "R(?x), S(?x,?y), T(?y)" in
  Term.reset_fresh ();
  let s = Option.get (Query.fresh_support q) in
  let c = Query.consts q in
  let pivot = Term.Sset.min_elt (Fact.Set.consts s) in
  let s0 = Fact.Set.filter (fun f -> Term.Sset.mem pivot (Fact.consts f)) s in
  let s_minus = Fact.Set.diff s s0 in
  let copies =
    List.init 4 (fun k ->
        let fresh = Term.fresh_const ~prefix:(Printf.sprintf "copy%d" k) () in
        Fact.Set.rename (Term.Smap.singleton pivot fresh) s0)
  in
  List.iter
    (fun sk ->
       let support = Fact.Set.union sk s_minus in
       Alcotest.(check bool) "S^k ⊎ S⁻ supports q" true (Query.eval q support);
       Alcotest.(check bool) "connected outside C" true
         (Incidence.facts_connected_outside ~fixed:c support))
    copies;
  (* pairwise distinct *)
  List.iteri
    (fun i si ->
       List.iteri
         (fun j sj ->
            if i < j then
              Alcotest.(check bool) "distinct copies" false (Fact.Set.equal si sj))
         copies)
    copies

let suite =
  [
    prop_claim_52_completion;
    Alcotest.test_case "Claim 5.3: duplication structure" `Quick test_claim_53_duplication;
    prop_island_support;
    prop_island_rpq;
    prop_island_singleton;
    prop_claim_a2_identity;
    prop_lemma_45;
    Alcotest.test_case "hierarchy ⇔ separators" `Quick test_hierarchy_separators;
    prop_axioms_on_query_games;
  ]
