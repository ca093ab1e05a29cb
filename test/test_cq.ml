open Test_util

let parse = Cq.parse

let test_parse_print () =
  let q = parse "R(?x,?y), S(?y,b)" in
  Alcotest.(check int) "two atoms" 2 (List.length (Cq.atoms q));
  Alcotest.(check bool) "vars" true
    (Term.Sset.equal (Cq.vars q) (Term.Sset.of_list [ "x"; "y" ]));
  Alcotest.(check bool) "consts" true
    (Term.Sset.equal (Cq.consts q) (Term.Sset.singleton "b"));
  Alcotest.(check bool) "reparse" true (Cq.equal (parse (Cq.to_string q)) q);
  Alcotest.check_raises "empty" (Invalid_argument "Cq.of_atoms: empty conjunction (use Query.True)")
    (fun () -> ignore (Cq.of_atoms []))

let test_eval () =
  let q = parse "R(?x,?y), S(?y,?z)" in
  Alcotest.(check bool) "sat" true
    (Cq.eval q (facts [ fact "R" [ "1"; "2" ]; fact "S" [ "2"; "3" ] ]));
  Alcotest.(check bool) "join mismatch" false
    (Cq.eval q (facts [ fact "R" [ "1"; "2" ]; fact "S" [ "4"; "3" ] ]));
  Alcotest.(check bool) "collapsing allowed" true
    (Cq.eval q (facts [ fact "R" [ "1"; "1" ]; fact "S" [ "1"; "1" ] ]));
  Alcotest.(check bool) "empty db" false (Cq.eval q Fact.Set.empty)

let test_syntactic_classes () =
  Alcotest.(check bool) "sjf" true (Cq.is_self_join_free (parse "R(?x), S(?x,?y)"));
  Alcotest.(check bool) "self join" false (Cq.is_self_join_free (parse "R(?x,?y), R(?y,?z)"));
  Alcotest.(check bool) "constant free" true (Cq.is_constant_free (parse "R(?x)"));
  Alcotest.(check bool) "has constant" false (Cq.is_constant_free (parse "R(a)"));
  Alcotest.(check bool) "connected" true (Cq.is_connected (parse "R(?x,?y), S(?y)"));
  Alcotest.(check bool) "disconnected" false (Cq.is_connected (parse "R(?x), S(?y)"));
  Alcotest.(check bool) "variable connected" true
    (Cq.is_variable_connected (parse "R(?x,?y), S(?y,?z)"));
  Alcotest.(check bool) "constant bridge not variable connected" false
    (Cq.is_variable_connected (parse "R(?x,c), S(c,?y)"))

let test_hierarchical () =
  (* the canonical non-hierarchical query q_RST *)
  Alcotest.(check bool) "q_RST" false (Cq.is_hierarchical (parse "R(?x), S(?x,?y), T(?y)"));
  Alcotest.(check bool) "R,S" true (Cq.is_hierarchical (parse "R(?x), S(?x,?y)"));
  Alcotest.(check bool) "single atom" true (Cq.is_hierarchical (parse "R(?x,?y)"));
  Alcotest.(check bool) "nested" true (Cq.is_hierarchical (parse "R(?x), S(?x,?y), U(?x,?y,?z)"));
  (* example E.1 of the paper is variable-connected and non-hierarchical *)
  let e1 = parse "R(?x,?y), S(a,?x), S(?x,a), T(?x,?z)" in
  Alcotest.(check bool) "E.1 variable connected" true (Cq.is_variable_connected e1)

let test_hierarchical_witness () =
  (match Hierarchical.witness_violation (parse "R(?x), S(?x,?y), T(?y)") with
   | Some (a1, a2, a3) ->
     let names = List.sort compare [ Atom.rel a1; Atom.rel a2; Atom.rel a3 ] in
     Alcotest.(check (list string)) "witness atoms" [ "R"; "S"; "T" ] names
   | None -> Alcotest.fail "expected violation");
  Alcotest.(check bool) "no witness for hierarchical" true
    (Hierarchical.witness_violation (parse "R(?x), S(?x,?y)") = None)

let test_core () =
  let c = Cq.core (parse "R(?x,?y), R(?x,?z)") in
  Alcotest.(check int) "core collapses" 1 (List.length (Cq.atoms c));
  let c2 = Cq.core (parse "R(?x,?y), S(?y,?z)") in
  Alcotest.(check int) "already minimal" 2 (List.length (Cq.atoms c2));
  Alcotest.(check bool) "is_minimal" true (Cq.is_minimal (parse "R(?x,?y), S(?y,?z)"));
  Alcotest.(check bool) "not minimal" false (Cq.is_minimal (parse "R(?x,?y), R(?x,?z)"));
  (* core with constants: R(x,y) ∧ R(a,z) does NOT collapse (a rigid) *)
  let c3 = Cq.core (parse "R(?x,?y), R(a,?z)") in
  Alcotest.(check int) "constant blocks retraction onto R(x,y)? no: R(x,y) maps to R(a,z)" 1
    (List.length (Cq.atoms c3))

let test_canonical_support () =
  let q = parse "R(?x,?y), S(?y,b)" in
  let s, valuation = Cq.canonical_support q in
  Alcotest.(check int) "two facts" 2 (Fact.Set.cardinal s);
  Alcotest.(check int) "two variables valued" 2 (Term.Smap.cardinal valuation);
  Alcotest.(check bool) "satisfies" true (Cq.eval q s);
  Alcotest.(check bool) "keeps b" true (Term.Sset.mem "b" (Fact.Set.consts s))

let test_minimal_supports () =
  let q = parse "R(?x), S(?x,?y)" in
  let db =
    facts
      [ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "S" [ "1"; "3" ];
        fact "R" [ "4" ]; fact "S" [ "5"; "6" ] ]
  in
  let ms = Cq.minimal_supports_in q db in
  Alcotest.(check int) "two minimal supports" 2 (List.length ms);
  List.iter
    (fun s ->
       Alcotest.(check bool) "satisfies" true (Cq.eval q s);
       Fact.Set.iter
         (fun f ->
            Alcotest.(check bool) "minimal" false (Cq.eval q (Fact.Set.remove f s)))
         s)
    ms

let test_homomorphic_equivalence () =
  Alcotest.(check bool) "R(x,y) ← R(x,x)" true
    (Cq.homomorphic_to (parse "R(?x,?y)") (parse "R(?x,?x)"));
  Alcotest.(check bool) "R(x,x) not ← R(x,y)" false
    (Cq.homomorphic_to (parse "R(?x,?x)") (parse "R(?x,?y)"));
  Alcotest.(check bool) "equivalent duplicates" true
    (Cq.equivalent (parse "R(?x,?y)") (parse "R(?u,?v), R(?u,?w)"));
  Alcotest.(check bool) "different relations" false
    (Cq.equivalent (parse "R(?x)") (parse "S(?x)"))

let test_variable_components () =
  let q = parse "R(?x,?y), S(?y), T(?u,?v), U(a,b)" in
  let comps = Cq.variable_components q in
  Alcotest.(check int) "three components" 3 (List.length comps)

let test_rename_apart () =
  let q = parse "R(?x,?y)" in
  let q' = Cq.rename_apart ~avoid:(Term.Sset.of_list [ "x" ]) q in
  Alcotest.(check bool) "x renamed" false (Term.Sset.mem "x" (Cq.vars q'));
  Alcotest.(check bool) "y kept" true (Term.Sset.mem "y" (Cq.vars q'));
  Alcotest.(check bool) "still equivalent" true (Cq.equivalent q (Cq.of_atoms (Cq.atoms q')))

let prop_eval_monotone =
  qcheck ~count:80 "CQ evaluation is monotone" QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
       let r = Workload.rng seed in
       let db =
         Workload.random_database r ~rels:[ ("R", 1); ("S", 2); ("T", 1) ]
           ~consts:[ "1"; "2"; "3" ] ~n_endo:6 ~n_exo:0
       in
       let q = parse "R(?x), S(?x,?y), T(?y)" in
       let all = Database.all db in
       (not (Cq.eval q all))
       || Fact.Set.for_all
         (fun f -> Cq.eval q (Fact.Set.add f all))
         (facts [ fact "R" [ "9" ]; fact "T" [ "9" ] ]))

let prop_core_equivalent =
  qcheck ~count:50 "core is equivalent to the query" QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
       let r = Workload.rng seed in
       (* random small CQ over R/S with vars from a small pool *)
       let var () = Term.var (Workload.pick r [ "x"; "y"; "z" ]) in
       let atom () =
         if Workload.bool r then Atom.make "R" [ var (); var () ]
         else Atom.make "S" [ var () ]
       in
       let q = Cq.of_atoms (List.init (1 + Workload.int r 3) (fun _ -> atom ())) in
       Cq.equivalent q (Cq.core q))

(* Self-join-free CQs with constants: a nonempty subset of four
   relations (bit mask), each atom's arguments drawn from three variables
   and two constants. *)
let sjf_cq mask picks =
  let rels = [ ("R", 1); ("S", 2); ("T", 1); ("U", 2) ] in
  let terms =
    [| Term.var "x"; Term.var "y"; Term.var "z"; Term.const "1"; Term.const "2" |]
  in
  let picks = ref picks in
  let next () =
    match !picks with
    | p :: rest -> picks := rest; terms.(p)
    | [] -> terms.(0)
  in
  Cq.of_atoms
    (List.filteri (fun i _ -> mask land (1 lsl i) <> 0) rels
     |> List.map (fun (r, arity) -> Atom.make r (List.init arity (fun _ -> next ()))))

(* the self-join-free shortcut returns Homomorphism.minimal_images list
   for list: same supports, same order *)
let prop_sjf_supports =
  qcheck ~count:300 "self-join-free supports = minimal images, list for list"
    QCheck2.Gen.(
      triple (int_range 1 15) (list_repeat 6 (int_range 0 4)) Gen.seed_gen)
    (fun (mask, picks, seed) ->
       let q = sjf_cq mask picks in
       let facts =
         Database.all
           (Gen.random_db
              ~rels:[ ("R", 1); ("S", 2); ("T", 1); ("U", 2) ]
              ~consts:[ "1"; "2"; "3" ] ~max_endo:10 seed)
       in
       Cq.is_self_join_free q
       && List.equal Fact.Set.equal
            (Cq.minimal_supports_in q facts)
            (Homomorphism.minimal_images ~into:facts (Cq.atoms q)))

let suite =
  [
    Alcotest.test_case "parse and print" `Quick test_parse_print;
    Alcotest.test_case "evaluation" `Quick test_eval;
    Alcotest.test_case "syntactic classes" `Quick test_syntactic_classes;
    Alcotest.test_case "hierarchical" `Quick test_hierarchical;
    Alcotest.test_case "hierarchy witness" `Quick test_hierarchical_witness;
    Alcotest.test_case "core" `Quick test_core;
    Alcotest.test_case "canonical support" `Quick test_canonical_support;
    Alcotest.test_case "minimal supports" `Quick test_minimal_supports;
    Alcotest.test_case "homomorphic equivalence" `Quick test_homomorphic_equivalence;
    Alcotest.test_case "variable components" `Quick test_variable_components;
    Alcotest.test_case "rename apart" `Quick test_rename_apart;
    prop_eval_monotone;
    prop_core_equivalent;
    prop_sjf_supports;
  ]
