open Test_util

let test_terms () =
  Alcotest.(check bool) "const" true (Term.is_const (Term.const "a"));
  Alcotest.(check bool) "var" true (Term.is_var (Term.var "x"));
  Alcotest.(check bool) "const ≠ var" false (Term.equal (Term.const "a") (Term.var "a"));
  Alcotest.(check string) "pp var" "?x" (Term.to_string (Term.var "x"));
  let c1 = Term.fresh_const () and c2 = Term.fresh_const () in
  Alcotest.(check bool) "fresh distinct" false (c1 = c2)

let test_atoms () =
  let a = Atom.make "R" [ Term.var "x"; Term.const "c" ] in
  Alcotest.(check int) "arity" 2 (Atom.arity a);
  Alcotest.(check bool) "vars" true (Term.Sset.equal (Atom.vars a) (Term.Sset.singleton "x"));
  Alcotest.(check bool) "consts" true (Term.Sset.equal (Atom.consts a) (Term.Sset.singleton "c"));
  Alcotest.(check bool) "not ground" false (Atom.is_ground a);
  let g = Atom.apply (Term.Smap.singleton "x" (Term.const "d")) a in
  Alcotest.(check bool) "ground after apply" true (Atom.is_ground g);
  let n = Atom.make "R" [] in
  Alcotest.(check int) "nullary arity" 0 (Atom.arity n);
  Alcotest.(check bool) "nullary ground" true (Atom.is_ground n);
  Alcotest.(check string) "nullary fact" "R()" (Fact.to_string (Fact.make "R" []))

let test_facts () =
  let f = fact "R" [ "a"; "b" ] in
  Alcotest.(check string) "to_string" "R(a,b)" (Fact.to_string f);
  let a = Fact.to_atom f in
  Alcotest.(check bool) "roundtrip" true (Fact.equal f (Fact.of_atom a));
  let renamed = Fact.rename (Term.Smap.singleton "a" "z") f in
  Alcotest.(check string) "rename" "R(z,b)" (Fact.to_string renamed);
  Alcotest.(check bool) "of_atom_opt non-ground" true
    (Fact.of_atom_opt (Atom.make "R" [ Term.var "x" ]) = None)

let test_database_partition () =
  let f1 = fact "R" [ "1" ] and f2 = fact "S" [ "2" ] in
  let db = Database.make ~endo:[ f1 ] ~exo:[ f2 ] in
  Alcotest.(check bool) "mem endo" true (Database.mem_endo f1 db);
  Alcotest.(check bool) "mem exo" true (Database.mem_exo f2 db);
  Alcotest.(check int) "size" 2 (Database.size db);
  Alcotest.(check int) "size endo" 1 (Database.size_endo db);
  Alcotest.check_raises "overlap rejected"
    (Invalid_argument "Database.of_sets: endogenous and exogenous parts overlap") (fun () ->
        ignore (Database.make ~endo:[ f1 ] ~exo:[ f1 ]));
  Alcotest.check_raises "add_endo conflict"
    (Invalid_argument "Database.add_endo: fact is exogenous") (fun () ->
        ignore (Database.add_endo f2 db))

let test_database_moves () =
  let f1 = fact "R" [ "1" ] in
  let db = Database.make ~endo:[ f1 ] ~exo:[] in
  let db' = Database.make_exogenous f1 db in
  Alcotest.(check bool) "moved" true (Database.mem_exo f1 db');
  let db'' = Database.make_endogenous f1 db' in
  Alcotest.(check bool) "moved back" true (Database.mem_endo f1 db'');
  Alcotest.(check bool) "equal roundtrip" true (Database.equal db db'')

let test_union_disjoint () =
  let a = Database.make ~endo:[ fact "R" [ "1" ] ] ~exo:[ fact "S" [ "2" ] ] in
  let b = Database.make ~endo:[ fact "T" [ "3" ] ] ~exo:[] in
  let u = Database.union_disjoint a b in
  Alcotest.(check int) "sizes" 3 (Database.size u);
  Alcotest.check_raises "shared fact rejected"
    (Invalid_argument "Database.union_disjoint: databases share facts") (fun () ->
        ignore (Database.union_disjoint a a))

let test_rename_away () =
  let db =
    Database.make ~endo:[ fact "R" [ "a"; "b" ] ] ~exo:[ fact "S" [ "b"; "c" ] ]
  in
  let keep = Term.Sset.singleton "c" in
  let avoid = Term.Sset.of_list [ "a"; "b" ] in
  let db', rho = Database.rename_away ~keep ~avoid db in
  Alcotest.(check int) "renamed two constants" 2 (Term.Smap.cardinal rho);
  let cs = Database.consts db' in
  Alcotest.(check bool) "a gone" false (Term.Sset.mem "a" cs);
  Alcotest.(check bool) "b gone" false (Term.Sset.mem "b" cs);
  Alcotest.(check bool) "c kept" true (Term.Sset.mem "c" cs);
  Alcotest.(check int) "same size" 2 (Database.size db')

let test_fold_subsets () =
  let db =
    Database.make
      ~endo:[ fact "R" [ "1" ]; fact "R" [ "2" ]; fact "R" [ "3" ] ]
      ~exo:[ fact "S" [ "9" ] ]
  in
  let count = Database.fold_endo_subsets (fun _ acc -> acc + 1) db 0 in
  Alcotest.(check int) "2^3 subsets" 8 count;
  let sizes =
    Database.fold_endo_subsets (fun s acc -> Fact.Set.cardinal s + acc) db 0
  in
  Alcotest.(check int) "total elements = 3·2^2" 12 sizes

let test_restrict () =
  let db =
    Database.make
      ~endo:[ fact "R" [ "a"; "b" ]; fact "R" [ "a"; "c" ] ]
      ~exo:[ fact "S" [ "b" ] ]
  in
  let r = Database.restrict_to_consts (Term.Sset.of_list [ "a"; "b" ]) db in
  Alcotest.(check int) "induced size" 2 (Database.size r);
  Alcotest.(check bool) "keeps R(a,b)" true (Database.mem (fact "R" [ "a"; "b" ]) r);
  Alcotest.(check bool) "drops R(a,c)" false (Database.mem (fact "R" [ "a"; "c" ]) r)

let test_incidence () =
  let parse = Cq.parse in
  Alcotest.(check bool) "connected path" true
    (Incidence.connected (Cq.atoms (parse "R(?x,?y), S(?y,?z)")));
  Alcotest.(check bool) "disconnected" false
    (Incidence.connected (Cq.atoms (parse "R(?x), S(?y)")));
  Alcotest.(check bool) "connected via constant" true
    (Incidence.connected (Cq.atoms (parse "R(?x,c), S(c,?y)")));
  Alcotest.(check bool) "not variable-connected via constant" false
    (Incidence.variable_connected (Cq.atoms (parse "R(?x,c), S(c,?y)")));
  Alcotest.(check int) "two components" 2
    (List.length (Incidence.components (Cq.atoms (parse "R(?x), S(?y)"))));
  Alcotest.(check int) "var components split on constants" 2
    (List.length (Incidence.variable_components (Cq.atoms (parse "R(?x,c), S(c,?y)"))))

let test_fact_components () =
  let fs =
    facts [ fact "A" [ "a"; "x" ]; fact "B" [ "x"; "b" ]; fact "C" [ "a"; "b" ] ]
  in
  let fixed = Term.Sset.of_list [ "a"; "b" ] in
  (* only x counts as a connector: A-B glued by x; C isolated *)
  Alcotest.(check int) "components outside C" 2
    (List.length (Incidence.fact_components_outside ~fixed fs));
  Alcotest.(check bool) "not connected outside C" false
    (Incidence.facts_connected_outside ~fixed fs);
  Alcotest.(check bool) "connected with empty fixed" true
    (Incidence.facts_connected_outside ~fixed:Term.Sset.empty fs)

let test_db_text_roundtrip () =
  let db =
    Database.make
      ~endo:[ fact "R" [ "a"; "b" ]; fact "S" [ "b" ] ]
      ~exo:[ fact "T" [ "c" ] ]
  in
  let db' = Db_text.parse (Db_text.to_string db) in
  Alcotest.(check bool) "roundtrip" true (Database.equal db db')

(* The two passes every minimal-support enumeration shares. *)
let test_support_filters () =
  let a = facts [ fact "R" [ "1" ] ] and a' = facts [ fact "R" [ "1" ] ] in
  let b = facts [ fact "S" [ "1"; "2" ] ] and c = facts [ fact "T" [ "2" ] ] in
  let ab = Fact.Set.union a b in
  let sets = Alcotest.list fact_set_t in
  let distinct =
    List.fold_left (fun acc s -> Fact.Set.add_distinct s acc) [] [ a; b; a'; c; b ]
  in
  Alcotest.check sets "each set once, reverse first-occurrence order"
    [ c; b; a ] distinct;
  Alcotest.(check bool) "the first occurrence is the one kept" true
    (List.nth distinct 2 == a);
  Alcotest.check sets "a strict superset is dropped, order kept" [ c; a; b ]
    (Fact.Set.minimal [ ab; c; a; b ]);
  Alcotest.check sets "equal sets are not strict supersets" [ a; a' ]
    (Fact.Set.minimal [ a; a' ]);
  Alcotest.check sets "the empty set subsumes every other" [ Fact.Set.empty ]
    (Fact.Set.minimal [ b; Fact.Set.empty; ab ])

let suite =
  [
    Alcotest.test_case "terms" `Quick test_terms;
    Alcotest.test_case "atoms" `Quick test_atoms;
    Alcotest.test_case "facts" `Quick test_facts;
    Alcotest.test_case "database partition" `Quick test_database_partition;
    Alcotest.test_case "endo/exo moves" `Quick test_database_moves;
    Alcotest.test_case "disjoint union" `Quick test_union_disjoint;
    Alcotest.test_case "rename away" `Quick test_rename_away;
    Alcotest.test_case "fold subsets" `Quick test_fold_subsets;
    Alcotest.test_case "restrict to constants" `Quick test_restrict;
    Alcotest.test_case "incidence graphs" `Quick test_incidence;
    Alcotest.test_case "fact components outside C" `Quick test_fact_components;
    Alcotest.test_case "db text roundtrip" `Quick test_db_text_roundtrip;
    Alcotest.test_case "support filters" `Quick test_support_filters;
  ]
