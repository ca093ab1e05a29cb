open Test_util

let test_rpq_eval () =
  let q = Rpq.of_string "A B* C" ~src:"s" ~dst:"t" in
  let g = facts [ fact "A" [ "s"; "1" ]; fact "B" [ "1"; "1" ]; fact "C" [ "1"; "t" ] ] in
  Alcotest.(check bool) "loop path" true (Rpq.eval q g);
  Alcotest.(check bool) "missing edge" false
    (Rpq.eval q (facts [ fact "A" [ "s"; "1" ]; fact "B" [ "1"; "1" ] ]));
  Alcotest.(check bool) "wrong direction" false
    (Rpq.eval q (facts [ fact "A" [ "1"; "s" ]; fact "C" [ "1"; "t" ] ]))

let test_rpq_epsilon () =
  let q = Rpq.of_string "A*" ~src:"s" ~dst:"s" in
  Alcotest.(check bool) "ε self loop on empty db" true (Rpq.eval q Fact.Set.empty);
  let q2 = Rpq.of_string "A*" ~src:"s" ~dst:"t" in
  Alcotest.(check bool) "ε distinct endpoints" false (Rpq.eval q2 Fact.Set.empty);
  Alcotest.(check bool) "path still needed" true
    (Rpq.eval q2 (facts [ fact "A" [ "s"; "t" ] ]))

let test_rpq_nonbinary_ignored () =
  let q = Rpq.of_string "A" ~src:"s" ~dst:"t" in
  Alcotest.(check bool) "ternary A ignored" false
    (Rpq.eval q (facts [ fact "A" [ "s"; "t"; "u" ] ]))

let test_reachable_pairs () =
  let g = facts [ fact "A" [ "1"; "2" ]; fact "A" [ "2"; "3" ]; fact "B" [ "3"; "1" ] ] in
  let pairs = Rpq.reachable_pairs (Regex.parse "AA") g in
  Alcotest.(check (list (pair string string))) "AA pairs" [ ("1", "3") ] pairs;
  let pairs_star = Rpq.reachable_pairs (Regex.parse "A*") g in
  Alcotest.(check bool) "ε pairs included" true (List.mem ("3", "3") pairs_star);
  Alcotest.(check bool) "transitive" true (List.mem ("1", "3") pairs_star)

let test_fresh_path_support () =
  let q = Rpq.of_string "AB*C" ~src:"s" ~dst:"t" in
  (match Rpq.fresh_path_support ~min_len:2 q with
   | Some (s, word) ->
     Alcotest.(check int) "shortest ≥ 2" 2 (List.length word);
     Alcotest.(check bool) "supports" true (Rpq.eval q s);
     Fact.Set.iter
       (fun f ->
          Alcotest.(check bool) "minimal" false (Rpq.eval q (Fact.Set.remove f s)))
       s
   | None -> Alcotest.fail "expected support");
  Alcotest.(check bool) "no long word" true
    (Rpq.fresh_path_support ~min_len:2 (Rpq.of_string "A" ~src:"s" ~dst:"t") = None)

let test_rpq_dichotomy_flags () =
  let mk l = Rpq.of_string l ~src:"s" ~dst:"t" in
  Alcotest.(check bool) "A: easy" false (Rpq.dichotomy_hard (mk "A"));
  Alcotest.(check bool) "AB: easy" false (Rpq.dichotomy_hard (mk "AB"));
  Alcotest.(check bool) "ABC: hard" true (Rpq.dichotomy_hard (mk "ABC"));
  Alcotest.(check bool) "AB*: hard (ABB…)" true (Rpq.dichotomy_hard (mk "AB*"));
  Alcotest.(check bool) "A+B pseudo-connected: no" false (Rpq.is_pseudo_connected (mk "A+B"));
  Alcotest.(check bool) "AB pseudo-connected" true (Rpq.is_pseudo_connected (mk "AB"))

let test_crpq_eval () =
  let q = Crpq.parse "(AB+BA)(?x,a), C(?x,?y)" in
  let g =
    facts
      [ fact "A" [ "1"; "2" ]; fact "B" [ "2"; "a" ]; fact "C" [ "1"; "9" ] ]
  in
  Alcotest.(check bool) "sat" true (Crpq.eval q g);
  (* remove the C edge: x has no outgoing C *)
  let g2 = facts [ fact "A" [ "1"; "2" ]; fact "B" [ "2"; "a" ] ] in
  Alcotest.(check bool) "no C" false (Crpq.eval q g2);
  (* shared variable must be consistent *)
  let g3 =
    facts
      [ fact "A" [ "1"; "2" ]; fact "B" [ "2"; "a" ]; fact "C" [ "7"; "9" ] ]
  in
  Alcotest.(check bool) "inconsistent x" false (Crpq.eval q g3)

let test_crpq_structure () =
  let q = Crpq.parse "A(?x,?y), B(?y,?z)" in
  Alcotest.(check bool) "connected" true (Crpq.is_connected q);
  Alcotest.(check bool) "sjf" true (Crpq.is_self_join_free q);
  let q2 = Crpq.parse "A(?x,?y), B(?u,?v)" in
  Alcotest.(check bool) "disconnected" false (Crpq.is_connected q2);
  Alcotest.(check int) "components" 2 (List.length (Crpq.components q2));
  Alcotest.(check bool) "cc-disjoint" true (Crpq.is_cc_disjoint q2);
  let q3 = Crpq.parse "A(?x,?y), A(?u,?v)" in
  Alcotest.(check bool) "shared vocab not cc-disjoint" false (Crpq.is_cc_disjoint q3)

let test_crpq_to_ucq () =
  let q = Crpq.parse "(AB+BA)(?x,a)" in
  (match Crpq.to_ucq ~max_len:2 q with
   | Some u ->
     Alcotest.(check int) "two disjuncts" 2 (List.length (Ucq.disjuncts u));
     (* agreement on a few graphs *)
     List.iter
       (fun g ->
          Alcotest.(check bool) "agree" (Crpq.eval q g) (Ucq.eval u g))
       [
         facts [ fact "A" [ "1"; "2" ]; fact "B" [ "2"; "a" ] ];
         facts [ fact "B" [ "1"; "2" ]; fact "A" [ "2"; "a" ] ];
         facts [ fact "A" [ "1"; "2" ]; fact "B" [ "3"; "a" ] ];
         Fact.Set.empty;
       ]
   | None -> Alcotest.fail "expected expansion");
  Alcotest.(check bool) "unbounded refused" true (Crpq.to_ucq ~max_len:3 (Crpq.parse "A*B(?x,?y)") = None)

let test_ucrpq () =
  let q = Ucrpq.parse "A(?x,?y) | (BC)(?x,a)" in
  Alcotest.(check bool) "first disjunct" true (Ucrpq.eval q (facts [ fact "A" [ "1"; "2" ] ]));
  Alcotest.(check bool) "second disjunct" true
    (Ucrpq.eval q (facts [ fact "B" [ "1"; "2" ]; fact "C" [ "2"; "a" ] ]));
  Alcotest.(check bool) "neither" false (Ucrpq.eval q (facts [ fact "C" [ "1"; "2" ] ]));
  Alcotest.(check bool) "not constant free" false (Ucrpq.is_constant_free q)

(* random-graph agreement between CRPQ evaluation and its UCQ expansion *)
let prop_crpq_ucq_agree =
  qcheck ~count:60 "CRPQ ≡ bounded UCQ expansion" QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
       let r = Workload.rng seed in
       let g =
         Database.all
           (Workload.random_graph r ~labels:[ "A"; "B" ] ~nodes:[ "a"; "1"; "2"; "3" ]
              ~n_endo:6 ~n_exo:0)
       in
       let q = Crpq.parse "(AB+BA)(?x,a)" in
       match Crpq.to_ucq ~max_len:2 q with
       | Some u -> Crpq.eval q g = Ucq.eval u g
       | None -> false)

let prop_rpq_monotone =
  qcheck ~count:60 "RPQ evaluation is monotone" QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
       let r = Workload.rng seed in
       let g =
         Database.all
           (Workload.random_graph r ~labels:[ "A"; "B"; "C" ]
              ~nodes:[ "s"; "t"; "1"; "2" ] ~n_endo:6 ~n_exo:0)
       in
       let q = Rpq.of_string "AB*C" ~src:"s" ~dst:"t" in
       (not (Rpq.eval q g))
       || Rpq.eval q (Fact.Set.add (fact "A" [ "s"; "s" ]) g))

(* A random regular expression over {A, B, C} of depth at most [d]. *)
let rec random_regex r d =
  let sym () = Regex.sym (Workload.pick r [ "A"; "B"; "C" ]) in
  if d = 0 then sym ()
  else
    match Workload.int r 5 with
    | 0 -> sym ()
    | 1 -> Regex.seq (random_regex r (d - 1)) (random_regex r (d - 1))
    | 2 -> Regex.alt (random_regex r (d - 1)) (random_regex r (d - 1))
    | 3 -> Regex.star (random_regex r (d - 1))
    | _ -> Regex.opt (random_regex r (d - 1))

(* The product-automaton walk against the definition, by subset
   enumeration over graphs of at most 12 facts: every returned set is a
   minimal support, listed once, and every satisfying subset contains
   one of them. *)
let prop_rpq_minimal_supports =
  qcheck ~count:300 "RPQ walk finds exactly the minimal supports" Gen.seed_gen
    (fun seed ->
       let r = Workload.rng seed in
       let nodes = [ "s"; "t"; "1"; "2" ] in
       let lang = random_regex r 3 in
       let q =
         Rpq.make lang ~src:(Workload.pick r nodes) ~dst:(Workload.pick r nodes)
       in
       let g =
         Database.all
           (Workload.random_graph r ~labels:[ "A"; "B"; "C" ] ~nodes
              ~n_endo:(Workload.int r 13) ~n_exo:0)
       in
       let supports = Rpq.minimal_supports_in q g in
       let minimal s =
         Fact.Set.subset s g && Rpq.eval q s
         && Fact.Set.for_all (fun f -> not (Rpq.eval q (Fact.Set.remove f s))) s
       in
       let arr = Array.of_list (Fact.Set.elements g) in
       let subset mask =
         let s = ref Fact.Set.empty in
         Array.iteri
           (fun i f -> if mask land (1 lsl i) <> 0 then s := Fact.Set.add f !s)
           arr;
         !s
       in
       let rec covered mask =
         mask < 0
         || ((let s = subset mask in
              (not (Rpq.eval q s))
              || List.exists (fun m -> Fact.Set.subset m s) supports)
             && covered (mask - 1))
       in
       List.for_all minimal supports
       && List.length (List.sort_uniq Fact.Set.compare supports)
          = List.length supports
       && covered ((1 lsl Array.length arr) - 1))

let suite =
  [
    Alcotest.test_case "RPQ evaluation" `Quick test_rpq_eval;
    Alcotest.test_case "RPQ ε cases" `Quick test_rpq_epsilon;
    Alcotest.test_case "non-binary facts ignored" `Quick test_rpq_nonbinary_ignored;
    Alcotest.test_case "reachable pairs" `Quick test_reachable_pairs;
    Alcotest.test_case "fresh path support (Lemma B.1)" `Quick test_fresh_path_support;
    Alcotest.test_case "RPQ dichotomy flags (Cor 4.3)" `Quick test_rpq_dichotomy_flags;
    Alcotest.test_case "CRPQ evaluation" `Quick test_crpq_eval;
    Alcotest.test_case "CRPQ structure" `Quick test_crpq_structure;
    Alcotest.test_case "CRPQ → UCQ expansion" `Quick test_crpq_to_ucq;
    Alcotest.test_case "UCRPQ" `Quick test_ucrpq;
    prop_crpq_ucq_agree;
    prop_rpq_monotone;
    prop_rpq_minimal_supports;
  ]
