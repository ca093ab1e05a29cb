open Test_util

let test_ucq_reduce () =
  let u = Ucq.parse "R(?x,?y) | R(?x,?x)" in
  Alcotest.(check int) "redundant disjunct dropped" 1
    (List.length (Ucq.disjuncts (Ucq.reduce u)));
  let u2 = Ucq.parse "R(?x,?y), R(?x,?z) | S(?x)" in
  let r2 = Ucq.reduce u2 in
  Alcotest.(check bool) "cores taken" true
    (List.for_all (fun c -> List.length (Cq.atoms c) = 1) (Ucq.disjuncts r2));
  (* equivalence class keeps one representative *)
  let u3 = Ucq.parse "R(?x,?y) | R(?u,?v)" in
  Alcotest.(check int) "equivalent disjuncts merged" 1
    (List.length (Ucq.disjuncts (Ucq.reduce u3)))

let test_ucq_eval_implies () =
  let u = Ucq.parse "R(?x) | S(?x,?y)" in
  Alcotest.(check bool) "first" true (Ucq.eval u (facts [ fact "R" [ "1" ] ]));
  Alcotest.(check bool) "second" true (Ucq.eval u (facts [ fact "S" [ "1"; "2" ] ]));
  Alcotest.(check bool) "neither" false (Ucq.eval u (facts [ fact "T" [ "1" ] ]));
  Alcotest.(check bool) "CQ implies its union" true
    (Ucq.implies (Ucq.parse "R(?x)") u);
  Alcotest.(check bool) "union does not imply disjunct" false
    (Ucq.implies u (Ucq.parse "R(?x)"));
  Alcotest.(check bool) "equivalent after padding" true
    (Ucq.equivalent (Ucq.parse "R(?x)") (Ucq.parse "R(?x) | R(?y), R(?z)"))

let test_ucq_minimal_supports () =
  let u = Ucq.parse "R(?x), S(?x) | T(?y)" in
  let db = facts [ fact "R" [ "1" ]; fact "S" [ "1" ]; fact "T" [ "2" ] ] in
  let ms = Ucq.minimal_supports_in u db in
  Alcotest.(check int) "two supports" 2 (List.length ms);
  Alcotest.(check bool) "T alone" true
    (List.exists (Fact.Set.equal (facts [ fact "T" [ "2" ] ])) ms)

let test_query_eval_combinators () =
  let q1 = Query_parse.parse "cq: R(?x)" in
  let q2 = Query_parse.parse "cq: S(?x)" in
  let both = Query.And (q1, q2) in
  let either = Query.Or (q1, q2) in
  let db_r = facts [ fact "R" [ "1" ] ] in
  let db_rs = facts [ fact "R" [ "1" ]; fact "S" [ "2" ] ] in
  Alcotest.(check bool) "and needs both" false (Query.eval both db_r);
  Alcotest.(check bool) "and sat" true (Query.eval both db_rs);
  Alcotest.(check bool) "or sat" true (Query.eval either db_r);
  Alcotest.(check bool) "true query" true (Query.eval Query.True Fact.Set.empty)

let test_query_parse () =
  (match Query_parse.parse "rpq: (A B* C)(s, t)" with
   | Query.Rpq r ->
     Alcotest.(check string) "src" "s" (Rpq.src r);
     Alcotest.(check string) "dst" "t" (Rpq.dst r)
   | _ -> Alcotest.fail "expected RPQ");
  (match Query_parse.parse "R(?x,?y)" with
   | Query.Cq _ -> ()
   | _ -> Alcotest.fail "default tag is cq");
  (match Query_parse.parse "cqneg: R(?x), !S(?x)" with
   | Query.Cqneg _ -> ()
   | _ -> Alcotest.fail "expected CQ¬");
  Alcotest.(check bool) "true" true (Query_parse.parse "true" = Query.True);
  Alcotest.check_raises "bad tag"
    (Invalid_argument
       "Query_parse: unknown language tag \"zzz\" at offset 0 (near token \"zzz\")")
    (fun () -> ignore (Query_parse.parse "zzz: R(?x)"));
  (match Query_parse.parse_result "zzz: R(?x)" with
   | Error d ->
     Alcotest.(check string) "diag code" "Q002" d.Query_parse.code;
     Alcotest.(check int) "diag offset" 0 d.Query_parse.offset;
     Alcotest.(check (option string)) "diag token" (Some "zzz") d.Query_parse.token
   | Ok _ -> Alcotest.fail "expected a parse diagnostic");
  (match Query_parse.parse_result "R(?x" with
   | Error d -> Alcotest.(check string) "syntax code" "Q001" d.Query_parse.code
   | Ok _ -> Alcotest.fail "expected a parse diagnostic")

let test_minimal_supports_generic () =
  let q = Query_parse.parse "rpq: (AB)(s,t)" in
  let db = facts [ fact "A" [ "s"; "1" ]; fact "B" [ "1"; "t" ]; fact "A" [ "s"; "2" ] ] in
  let ms = Query.minimal_supports_in q db in
  Alcotest.(check int) "one support" 1 (List.length ms);
  Alcotest.(check bool) "true has empty support" true
    (Query.minimal_supports_in Query.True db = [ Fact.Set.empty ]);
  Alcotest.(check int) "unsatisfied" 0
    (List.length (Query.minimal_supports_in q (facts [ fact "A" [ "s"; "1" ] ])))

let test_fresh_supports () =
  let check_fresh q expected_size =
    match Query.fresh_support q with
    | Some s ->
      Alcotest.(check int) (Query.to_string q) expected_size (Fact.Set.cardinal s);
      Alcotest.(check bool) "is minimal support" true (Query.is_minimal_support q s)
    | None -> Alcotest.fail ("no support for " ^ Query.to_string q)
  in
  check_fresh (Query_parse.parse "R(?x), S(?x,?y), T(?y)") 3;
  check_fresh (Query_parse.parse "rpq: (AB)(s,t)") 2;
  check_fresh (Query_parse.parse "crpq: A(?x,?y), B(?y,?z)") 2;
  check_fresh (Query_parse.parse "ucq: R(?x) | S(?x,?y)") 1;
  check_fresh
    (Query.And (Query_parse.parse "R(?x)", Query_parse.parse "S(?y)"))
    2;
  Alcotest.(check bool) "⊤ has no fresh support" true (Query.fresh_support Query.True = None)

let test_fresh_support_core_collapse () =
  (* non-minimal CQ: the fresh support uses the core *)
  let q = Query_parse.parse "R(?x,?y), R(?x,?z)" in
  match Query.fresh_support q with
  | Some s -> Alcotest.(check int) "core size" 1 (Fact.Set.cardinal s)
  | None -> Alcotest.fail "expected support"

let test_relevance () =
  let q = Query_parse.parse "R(?x), S(?x,?y)" in
  let db = facts [ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "S" [ "9"; "9" ] ] in
  Alcotest.(check bool) "R(1) relevant" true (Query.relevant_in q db (fact "R" [ "1" ]));
  Alcotest.(check bool) "S(9,9) irrelevant" false
    (Query.relevant_in q db (fact "S" [ "9"; "9" ]))

let test_hom_closed_flag () =
  Alcotest.(check bool) "CQ closed" true
    (Query.is_hom_closed_syntactically (Query_parse.parse "R(?x)"));
  Alcotest.(check bool) "negation open" false
    (Query.is_hom_closed_syntactically (Query_parse.parse "cqneg: R(?x), !S(?x)"));
  Alcotest.(check bool) "And propagates" false
    (Query.is_hom_closed_syntactically
       (Query.And (Query_parse.parse "R(?x)", Query_parse.parse "cqneg: R(?x), !S(?x)")))

let test_cqneg_evaluation () =
  let q = Cqneg.parse "R(?x), !S(?x)" in
  Alcotest.(check bool) "negation blocks" false
    (Cqneg.eval q (facts [ fact "R" [ "1" ]; fact "S" [ "1" ] ]));
  Alcotest.(check bool) "other witness" true
    (Cqneg.eval q (facts [ fact "R" [ "1" ]; fact "R" [ "2" ]; fact "S" [ "1" ] ]));
  Alcotest.check_raises "unsafe rejected"
    (Invalid_argument "Cqneg.make: unsafe negation (variable not in positive part)") (fun () ->
        ignore (Cqneg.make ~pos:[ Atom.make "R" [ Term.var "x" ] ]
                  ~neg:[ Atom.make "S" [ Term.var "y" ] ]))

let test_cqneg_components () =
  let q = Cqneg.parse "R(?x), S(?x,?y), T(?u), !W(?x), !V(?u)" in
  let comps = Cqneg.positive_variable_components q in
  Alcotest.(check int) "two components" 2 (List.length comps);
  Alcotest.(check bool) "guarded" true (Cqneg.has_component_guarded_negation q);
  let q2 = Cqneg.parse "R(?x), T(?u), !W(?x,?u)" in
  Alcotest.(check bool) "cross-component negation unguarded" false
    (Cqneg.has_component_guarded_negation q2)

(* lineage-level agreement: Query.eval vs Bform.eval on all subsets *)
let prop_supports_are_supports =
  qcheck ~count:60 "fresh supports satisfy their query" QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
       ignore seed;
       List.for_all
         (fun qs ->
            let q = Query_parse.parse qs in
            match Query.fresh_support q with
            | Some s -> Query.eval q s
            | None -> false)
         [ "R(?x), S(?x,?y), T(?y)"; "ucq: R(?x) | T(?y)"; "rpq: (AB*C)(s,t)";
           "crpq: (AB+BA)(?x,a)" ])

let suite =
  [
    Alcotest.test_case "UCQ reduce" `Quick test_ucq_reduce;
    Alcotest.test_case "UCQ eval and implication" `Quick test_ucq_eval_implies;
    Alcotest.test_case "UCQ minimal supports" `Quick test_ucq_minimal_supports;
    Alcotest.test_case "And/Or/True" `Quick test_query_eval_combinators;
    Alcotest.test_case "front-end parser" `Quick test_query_parse;
    Alcotest.test_case "generic minimal supports" `Quick test_minimal_supports_generic;
    Alcotest.test_case "fresh supports" `Quick test_fresh_supports;
    Alcotest.test_case "fresh support via core" `Quick test_fresh_support_core_collapse;
    Alcotest.test_case "relevance" `Quick test_relevance;
    Alcotest.test_case "hom-closure flag" `Quick test_hom_closed_flag;
    Alcotest.test_case "CQ¬ evaluation" `Quick test_cqneg_evaluation;
    Alcotest.test_case "CQ¬ components" `Quick test_cqneg_components;
    prop_supports_are_supports;
  ]
