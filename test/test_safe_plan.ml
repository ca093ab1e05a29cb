open Test_util

(* Safe plans: the lifted FGMC evaluator ({!Lifted}) on hierarchical
   sjf-CQs, where its rules never get stuck — validated against brute
   force, and the PTIME SVC built on it. *)

let lifted q db =
  match Lifted.cq q db with
  | Some p -> p
  | None -> Alcotest.failf "lifted rules stuck on %s" (Cq.to_string q)

let test_single_atom () =
  let q = Cq.parse "R(?x)" in
  let db = Database.make ~endo:[ fact "R" [ "1" ]; fact "R" [ "2" ]; fact "S" [ "3" ] ] ~exo:[] in
  (* subsets with ≥1 R fact, S(3) free: (1+z)^2 - 1 times (1+z) *)
  check_zpoly "single atom"
    (Model_counting.fgmc_polynomial_brute (Query.Cq q) db)
    (lifted q db);
  (* an exogenous match makes the query certain *)
  let db2 = Database.make ~endo:[ fact "R" [ "1" ] ] ~exo:[ fact "R" [ "9" ] ] in
  check_zpoly "exo certain"
    (Poly.Z.of_coeffs [ Bigint.one; Bigint.one ])
    (lifted q db2)

let test_repeated_variable () =
  let q = Cq.parse "R(?x,?x)" in
  let db =
    Database.make ~endo:[ fact "R" [ "1"; "1" ]; fact "R" [ "1"; "2" ] ] ~exo:[]
  in
  check_zpoly "diagonal only"
    (Model_counting.fgmc_polynomial_brute (Query.Cq q) db)
    (lifted q db)

let test_join_with_separator () =
  let q = Cq.parse "R(?x), S(?x,?y)" in
  let db =
    Database.make
      ~endo:[ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "S" [ "1"; "3" ];
              fact "R" [ "4" ]; fact "S" [ "4"; "5" ]; fact "S" [ "9"; "9" ] ]
      ~exo:[]
  in
  check_zpoly "separator projection"
    (Model_counting.fgmc_polynomial_brute (Query.Cq q) db)
    (lifted q db)

let test_independent_join () =
  let q = Cq.parse "R(?x), T(?y)" in
  let db =
    Database.make ~endo:[ fact "R" [ "1" ]; fact "T" [ "2" ]; fact "T" [ "3" ] ] ~exo:[]
  in
  check_zpoly "independent join"
    (Model_counting.fgmc_polynomial_brute (Query.Cq q) db)
    (lifted q db)

let test_three_level () =
  (* R(x), S(x,y), U(x,y,z): hierarchical with nested separators *)
  let q = Cq.parse "R(?x), S(?x,?y), U(?x,?y,?z)" in
  let db =
    Database.make
      ~endo:[ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "U" [ "1"; "2"; "3" ];
              fact "U" [ "1"; "2"; "4" ]; fact "S" [ "1"; "5" ]; fact "U" [ "1"; "5"; "6" ] ]
      ~exo:[ fact "R" [ "7" ] ]
  in
  check_zpoly "nested separators"
    (Model_counting.fgmc_polynomial_brute (Query.Cq q) db)
    (lifted q db)

let test_constants_in_query () =
  let q = Cq.parse "R(a,?x), S(?x)" in
  let db =
    Database.make
      ~endo:[ fact "R" [ "a"; "1" ]; fact "R" [ "b"; "2" ]; fact "S" [ "1" ]; fact "S" [ "2" ] ]
      ~exo:[]
  in
  check_zpoly "query constants"
    (Model_counting.fgmc_polynomial_brute (Query.Cq q) db)
    (lifted q db)

let test_guards () =
  let db = Database.make ~endo:[ fact "R" [ "1" ] ] ~exo:[] in
  let q_rst = Cq.parse "R(?x), S(?x,?y), T(?y)" in
  Alcotest.(check bool) "non-hierarchical: rules stuck" true
    (Option.is_none (Lifted.cq q_rst db));
  Alcotest.check_raises "svc_hierarchical refuses a stuck query"
    (Invalid_argument "Svc.svc_hierarchical: lifted rules stuck") (fun () ->
        ignore (Svc.svc_hierarchical q_rst db (fact "R" [ "1" ])));
  Alcotest.check_raises "svc_hierarchical needs an endogenous fact"
    (Invalid_argument "Svc.svc_hierarchical: fact is not endogenous")
    (fun () ->
        ignore (Svc.svc_hierarchical (Cq.parse "R(?x)") db (fact "R" [ "2" ])))

let prop_matches_brute =
  qcheck ~count:60 "safe plan = brute force on random instances"
    QCheck2.Gen.(pair (int_range 0 1000000) (oneofl [ "R(?x), S(?x,?y)"; "R(?x), S(?x,?y), U(?x,?y,?z)"; "R(?x), T(?y)"; "R(a,?x)" ]))
    (fun (seed, qs) ->
       let q = Cq.parse qs in
       let r = Workload.rng seed in
       let db =
         Workload.random_database r
           ~rels:[ ("R", 1); ("S", 2); ("T", 1); ("U", 3) ]
           ~consts:[ "a"; "1"; "2" ]
           ~n_endo:(1 + Workload.int r 5)
           ~n_exo:(Workload.int r 3)
       in
       (* adapt R's arity for the constant-pattern query *)
       let db =
         if qs = "R(a,?x)" then
           let r2 = Workload.rng seed in
           Workload.random_database r2 ~rels:[ ("R", 2); ("S", 2) ]
             ~consts:[ "a"; "1"; "2" ]
             ~n_endo:(1 + Workload.int r2 5)
             ~n_exo:(Workload.int r2 3)
         else db
       in
       Poly.Z.equal
         (lifted q db)
         (Model_counting.fgmc_polynomial_brute (Query.Cq q) db))

let prop_polynomial_guarantee =
  (* the safe plan handles instances far beyond brute force *)
  qcheck ~count:5 "scales to large instances" QCheck2.Gen.(int_range 20 60) (fun spokes ->
      let db = Gen.star ~spokes in
      let q = Cq.parse "R(?x), S(?x,?y)" in
      let p = lifted q db in
      (* on a single star: supports = subsets containing R(hub) and ≥1 spoke *)
      Bigint.equal (Poly.Z.total p)
        (Bigint.sub (Bigint.pow Bigint.two spokes) Bigint.one))

let test_svc_hierarchical () =
  let q = Cq.parse "R(?x), S(?x,?y)" in
  let db =
    Database.make
      ~endo:[ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "S" [ "1"; "3" ]; fact "R" [ "4" ] ]
      ~exo:[ fact "S" [ "4"; "5" ] ]
  in
  List.iter
    (fun f ->
       check_rational (Fact.to_string f)
         (Svc.svc_brute (Query.Cq q) db f)
         (Svc.svc_hierarchical q db f))
    (Database.endo_list db);
  (* scales to instances far beyond brute force *)
  let big = Gen.star ~spokes:60 in
  let hub = fact "R" [ "hub" ] in
  let v = Svc.svc_hierarchical q big hub in
  Alcotest.(check bool) "hub dominates" true (Rational.compare v Rational.half > 0)

let prop_svc_hierarchical_random =
  qcheck ~count:30 "PTIME SVC = brute on random hierarchical instances"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
       let q = Cq.parse "R(?x), S(?x,?y)" in
       let r = Workload.rng seed in
       let db =
         Workload.random_database r ~rels:[ ("R", 1); ("S", 2) ] ~consts:[ "1"; "2"; "3" ]
           ~n_endo:(1 + Workload.int r 5) ~n_exo:(Workload.int r 3)
       in
       List.for_all
         (fun f ->
            Rational.equal (Svc.svc_hierarchical q db f) (Svc.svc_brute (Query.Cq q) db f))
         (Database.endo_list db))

let suite =
  [
    Alcotest.test_case "single atom" `Quick test_single_atom;
    Alcotest.test_case "PTIME SVC (dichotomy FP side)" `Quick test_svc_hierarchical;
    prop_svc_hierarchical_random;
    Alcotest.test_case "repeated variable" `Quick test_repeated_variable;
    Alcotest.test_case "separator projection" `Quick test_join_with_separator;
    Alcotest.test_case "independent join" `Quick test_independent_join;
    Alcotest.test_case "nested separators" `Quick test_three_level;
    Alcotest.test_case "query constants" `Quick test_constants_in_query;
    Alcotest.test_case "guards" `Quick test_guards;
    prop_matches_brute;
    prop_polynomial_guarantee;
  ]
