open Test_util

(* Section 6: purely endogenous databases, negation, max-SVC, constants. *)

let qrst = Query_parse.parse "R(?x), S(?x,?y), T(?y)"

let test_lemma61_call_count () =
  (* 2^k FMC calls for k exogenous facts, per queried size *)
  let db =
    Database.make ~endo:[ fact "S" [ "1"; "2" ] ]
      ~exo:[ fact "R" [ "1" ]; fact "T" [ "2" ]; fact "T" [ "9" ] ]
  in
  let fmc = Oracle.fgmc_brute_of qrst in
  let v = Endogenous.fgmc_via_fmc ~fmc db 1 in
  check_bigint "count" (Model_counting.fgmc_brute qrst db 1) v;
  Alcotest.(check int) "2^3 calls" 8 (Oracle.calls fmc)

let test_lemma61_oracle_purity () =
  (* the FMC oracle must only ever see purely endogenous databases *)
  let db =
    Database.make ~endo:[ fact "S" [ "1"; "2" ] ] ~exo:[ fact "R" [ "1" ]; fact "T" [ "2" ] ]
  in
  let fmc =
    Oracle.make (fun (db, j) ->
        if not (Fact.Set.is_empty (Database.exo db)) then
          Alcotest.fail "oracle saw exogenous facts";
        Model_counting.fgmc_brute qrst db j)
  in
  check_zpoly "polynomial"
    (Model_counting.fgmc_polynomial_brute qrst db)
    (Endogenous.fgmc_polynomial_via_fmc ~fmc db)

let test_cor61_svc_endo () =
  let db =
    Database.make
      ~endo:[ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "T" [ "2" ]; fact "S" [ "1"; "3" ] ]
      ~exo:[]
  in
  let mu = fact "S" [ "1"; "2" ] in
  check_rational "SVCⁿ via FMC"
    (Svc.svc_brute qrst db mu)
    (Svc_to_fgmc.svc_endo ~fgmc:(Oracle.fgmc_of qrst) db mu);
  let db_exo = Database.make ~endo:[ fact "R" [ "1" ] ] ~exo:[ fact "T" [ "2" ] ] in
  Alcotest.check_raises "guard"
    (Invalid_argument "Svc_to_fgmc.svc_endo: database has exogenous facts") (fun () ->
        ignore (Svc_to_fgmc.svc_endo ~fgmc:(Oracle.fgmc_of qrst) db_exo (fact "R" [ "1" ])))

let test_lemma62_unshared_constant () =
  (* q = R(x) ∧ S(x,y): the canonical support has the y-constant in exactly
     one fact, so S⁰ is a singleton and no exogenous facts are added *)
  Term.reset_fresh ();
  let q = Query_parse.parse "R(?x), S(?x,?y)" in
  let island = Option.get (Query.fresh_support q) in
  let pivot =
    Term.Sset.min_elt
      (Term.Sset.filter
         (fun c ->
            Fact.Set.cardinal
              (Fact.Set.filter (fun f -> Term.Sset.mem c (Fact.consts f)) island)
            = 1)
         (Fact.Set.consts island))
  in
  let db =
    Database.make
      ~endo:[ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "R" [ "3" ]; fact "S" [ "3"; "4" ] ]
      ~exo:[]
  in
  (* the endo-only oracle fails the whole test if exogenous facts appear *)
  let svc = Oracle.svc_endo_only (Oracle.svc_brute_of q) in
  let poly = Fgmc_to_svc.lemma41 ~svc ~query:q ~island ~pivot db in
  check_zpoly "Lemma 6.2" (Model_counting.fgmc_polynomial_brute q db) poly

let test_prop62_max_svc () =
  let db =
    Database.make
      ~endo:[ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "T" [ "2" ]; fact "S" [ "1"; "3" ] ]
      ~exo:[ fact "T" [ "3" ] ]
  in
  match Max_svc_red.reduce_auto ~max_svc:(Oracle.max_svc_of qrst) ~query:qrst db with
  | Some poly -> check_zpoly "Prop 6.2" (Model_counting.fgmc_polynomial_brute qrst db) poly
  | None -> Alcotest.fail "expected result"

let test_prop62_trivial () =
  let db =
    Database.make ~endo:[ fact "R" [ "9" ] ]
      ~exo:[ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "T" [ "2" ] ]
  in
  match Max_svc_red.reduce_auto ~max_svc:(Oracle.max_svc_of qrst) ~query:qrst db with
  | Some poly ->
    check_zpoly "binomial" (Poly.Z.of_coeffs [ Bigint.one; Bigint.one ]) poly
  | None -> Alcotest.fail "expected result"

let test_prop63_forward () =
  let q = Query_parse.parse "R(?x,?y), T(?y,?z)" in
  let fs =
    facts
      [ fact "R" [ "1"; "2" ]; fact "T" [ "2"; "3" ]; fact "R" [ "4"; "2" ]; fact "T" [ "2"; "5" ] ]
  in
  let inst =
    Const_svc.make_instance ~facts:fs ~endo_consts:(Term.Sset.of_list [ "1"; "2"; "4" ])
  in
  let poly =
    Const_red.fgmc_const_via_svc_const ~svc_const:(Oracle.svc_const_of q) ~query:q inst
  in
  check_zpoly "Prop 6.3 →" (Const_svc.fgmc_const_polynomial_brute q inst) poly

let test_prop63_backward () =
  let q = Query_parse.parse "R(?x,?y), T(?y,?z)" in
  let fs = facts [ fact "R" [ "1"; "2" ]; fact "T" [ "2"; "3" ]; fact "R" [ "4"; "2" ] ] in
  let inst =
    Const_svc.make_instance ~facts:fs ~endo_consts:(Term.Sset.of_list [ "1"; "2"; "4" ])
  in
  let fgmc_const = Const_red.fgmc_const_oracle q in
  List.iter
    (fun c ->
       check_rational c
         (Const_svc.svc_const q inst c)
         (Const_red.svc_const_via_fgmc_const ~fgmc_const inst c))
    [ "1"; "2"; "4" ]

let test_prop63_guard () =
  (* query constants must be exogenous *)
  let q = Query_parse.parse "R(a,?x)" in
  let fs = facts [ fact "R" [ "a"; "b" ] ] in
  let inst = Const_svc.make_instance ~facts:fs ~endo_consts:(Term.Sset.of_list [ "a" ]) in
  Alcotest.check_raises "guard"
    (Invalid_argument "Const_red.fgmc_const_via_svc_const: query constants must be exogenous")
    (fun () ->
       ignore
         (Const_red.fgmc_const_via_svc_const ~svc_const:(Oracle.svc_const_of q) ~query:q inst))

(* Oracle traffic of Section 6's reductions: Prop. 6.2 asks max-SVC once on
   each of A⁰…Aⁿ, Prop. 6.3 asks SVC^const once on each of its |Cₙ|+1
   instances, and its Claim A.1 direction asks FGMC^const two counts per
   size. *)
let test_prop62_call_count () =
  let db =
    Database.make
      ~endo:[ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "T" [ "2" ]; fact "S" [ "1"; "3" ] ]
      ~exo:[ fact "T" [ "3" ] ]
  in
  let max_svc = Oracle.max_svc_of qrst in
  let support = Option.get (Query.fresh_support qrst) in
  ignore (Max_svc_red.reduce ~max_svc ~query:qrst ~support db);
  Alcotest.(check int) "|Dₙ|+1 oracle calls" (Database.size_endo db + 1) (Oracle.calls max_svc)

let prop63_instance () =
  let q = Query_parse.parse "R(?x,?y), T(?y,?z)" in
  let fs =
    facts
      [ fact "R" [ "1"; "2" ]; fact "T" [ "2"; "3" ]; fact "R" [ "4"; "2" ]; fact "T" [ "2"; "5" ] ]
  in
  let cn = Term.Sset.of_list [ "1"; "2"; "4" ] in
  (q, cn, Const_svc.make_instance ~facts:fs ~endo_consts:cn)

let test_prop63_forward_call_count () =
  let q, cn, inst = prop63_instance () in
  let svc_const = Oracle.svc_const_of q in
  ignore (Const_red.fgmc_const_via_svc_const ~svc_const ~query:q inst);
  Alcotest.(check int) "|Cₙ|+1 oracle calls" (Term.Sset.cardinal cn + 1)
    (Oracle.calls svc_const)

let test_prop63_backward_call_count () =
  let q, cn, inst = prop63_instance () in
  Term.Sset.iter
    (fun c ->
       let fgmc_const = Const_red.fgmc_const_oracle q in
       ignore (Const_red.svc_const_via_fgmc_const ~fgmc_const inst c);
       Alcotest.(check int) ("2|Cₙ| oracle calls for " ^ c) (2 * Term.Sset.cardinal cn)
         (Oracle.calls fgmc_const))
    cn

let test_prop61_negation () =
  let qn = Cqneg.parse "R(?x), S(?x,?y), !T(?y)" in
  let db =
    Database.make
      ~endo:[ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "T" [ "2" ]; fact "S" [ "1"; "3" ] ]
      ~exo:[ fact "T" [ "9" ] ]
  in
  let q_tilde, poly =
    Negation_red.prop61 ~svc:(Oracle.svc_of (Query.Cqneg qn)) ~q:qn db
  in
  check_zpoly "Prop 6.1" (Model_counting.fgmc_polynomial_brute q_tilde db) poly

let test_prop61_multi_component () =
  (* q = R(x) S(x,y) !W(y)  ∧  T(u): the vc-component is R,S with guarded W *)
  let qn = Cqneg.parse "R(?x), S(?x,?y), T(?u), !W(?y)" in
  let db =
    Database.make
      ~endo:[ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "W" [ "2" ]; fact "S" [ "1"; "3" ] ]
      ~exo:[ fact "T" [ "9" ] ]
  in
  let q_tilde, poly =
    Negation_red.prop61 ~svc:(Oracle.svc_of (Query.Cqneg qn)) ~q:qn db
  in
  check_zpoly "multi-component" (Model_counting.fgmc_polynomial_brute q_tilde db) poly

let test_prop61_guards () =
  let not_sjf = Cqneg.parse "R(?x), R(?y,?z)" in
  let db = Database.make ~endo:[ fact "R" [ "1" ] ] ~exo:[] in
  Alcotest.check_raises "sjf guard"
    (Invalid_argument "Negation_red.prop61: query is not self-join-free") (fun () ->
        ignore (Negation_red.prop61 ~svc:(Oracle.svc_of (Query.Cqneg not_sjf)) ~q:not_sjf db));
  let varfree = Cqneg.parse "R(?x), !W(c)" in
  Alcotest.check_raises "variable-free negation"
    (Invalid_argument "Negation_red.prop61: variable-free negative atoms unsupported")
    (fun () ->
       ignore (Negation_red.prop61 ~svc:(Oracle.svc_of (Query.Cqneg varfree)) ~q:varfree db))

let test_lemma_d1 () =
  (* q1 ∧ q2 decomposable with unshared constants: R(x),S(x,y) and T(u,v);
     the endo-only oracle certifies that no exogenous facts appear *)
  let q1 = Query_parse.parse "R(?x), S(?x,?y)" in
  let q2 = Query_parse.parse "T(?u,?v)" in
  let qand = Query.And (q1, q2) in
  let db =
    Database.make
      ~endo:[ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "T" [ "a"; "b" ];
              fact "T" [ "a"; "c" ]; fact "S" [ "3"; "4" ] ]
      ~exo:[]
  in
  let svc = Oracle.svc_endo_only (Oracle.svc_of qand) in
  let poly = Fgmc_to_svc.lemma_d1 ~svc ~q1 ~q2 db in
  check_zpoly "Lemma D.1" (Model_counting.fgmc_polynomial_brute qand db) poly;
  (* the guard *)
  let db_exo = Database.make ~endo:[ fact "R" [ "1" ] ] ~exo:[ fact "T" [ "a"; "b" ] ] in
  Alcotest.check_raises "exogenous input rejected"
    (Invalid_argument "Fgmc_to_svc.lemma_d1: database has exogenous facts") (fun () ->
        ignore (Fgmc_to_svc.lemma_d1 ~svc ~q1 ~q2 db_exo))

let prop_lemma_d1_random =
  qcheck ~count:15 "Lemma D.1 on random purely endogenous instances"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
       let q1 = Query_parse.parse "R(?x), S(?x,?y)" in
       let q2 = Query_parse.parse "T(?u,?v)" in
       let qand = Query.And (q1, q2) in
       let r = Workload.rng seed in
       let db =
         Workload.random_database r ~rels:[ ("R", 1); ("S", 2); ("T", 2) ]
           ~consts:[ "1"; "2"; "3" ] ~n_endo:(2 + Workload.int r 4) ~n_exo:0
       in
       let svc = Oracle.svc_endo_only (Oracle.svc_of qand) in
       Poly.Z.equal
         (Fgmc_to_svc.lemma_d1 ~svc ~q1 ~q2 db)
         (Model_counting.fgmc_polynomial qand db))

let prop_lemma61_random =
  qcheck ~count:25 "Lemma 6.1 on random instances" QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
       let r = Workload.rng seed in
       let db =
         Workload.random_database r ~rels:[ ("R", 1); ("S", 2); ("T", 1) ]
           ~consts:[ "1"; "2" ] ~n_endo:(1 + Workload.int r 3) ~n_exo:(Workload.int r 3)
       in
       Poly.Z.equal
         (Endogenous.fgmc_polynomial_via_fmc ~fmc:(Oracle.fgmc_of qrst) db)
         (Model_counting.fgmc_polynomial qrst db))

let prop_prop62_random =
  qcheck ~count:15 "Prop 6.2 on random instances" QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
       let r = Workload.rng seed in
       let db =
         Workload.random_database r ~rels:[ ("R", 1); ("S", 2); ("T", 1) ]
           ~consts:[ "1"; "2" ] ~n_endo:(1 + Workload.int r 3) ~n_exo:(Workload.int r 2)
       in
       match Max_svc_red.reduce_auto ~max_svc:(Oracle.max_svc_of qrst) ~query:qrst db with
       | Some poly -> Poly.Z.equal poly (Model_counting.fgmc_polynomial qrst db)
       | None -> false)

let prop_prop63_random =
  qcheck ~count:15 "Prop 6.3 on random graph instances" QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
       let r = Workload.rng seed in
       let g =
         Workload.random_graph r ~labels:[ "R"; "T" ] ~nodes:[ "1"; "2"; "3"; "4" ]
           ~n_endo:5 ~n_exo:0
       in
       let fs = Database.all g in
       let q = Query_parse.parse "R(?x,?y), T(?y,?z)" in
       let consts = Fact.Set.consts fs in
       if Term.Sset.cardinal consts < 2 then true
       else begin
         let endo_consts =
           Term.Sset.of_list
             (List.filteri (fun i _ -> i < 3) (Term.Sset.elements consts))
         in
         let inst = Const_svc.make_instance ~facts:fs ~endo_consts in
         Poly.Z.equal
           (Const_red.fgmc_const_via_svc_const ~svc_const:(Oracle.svc_const_of q) ~query:q inst)
           (Const_svc.fgmc_const_polynomial_brute q inst)
       end)

(* Max-SVC: exhaustive differential sweep over EVERY partitioned database
   of a small q_RST universe — [max_svc] must agree with its own brute
   force, with per-fact Eq. 2 enumeration, and with the game view
   ([Game.of_query] + [shapley_all]); [top_contributors] must be exactly
   the argmax set and Lemma 6.3 must hold on every instance. *)
let test_max_svc_exhaustive () =
  let universe =
    [ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "T" [ "2" ]; fact "T" [ "1" ] ]
  in
  Gen.iter_databases universe (fun db ->
      let fail fmt =
        Printf.ksprintf
          (fun m -> Alcotest.failf "%s on %s" m (Format.asprintf "%a" Database.pp db))
          fmt
      in
      (match (Max_svc.max_svc qrst db, Max_svc.max_svc_brute qrst db) with
       | None, None ->
         if Database.size_endo db <> 0 then fail "None on a nonempty database"
       | Some (f, v), Some (_, vb) ->
         if not (Rational.equal v vb) then fail "max_svc <> max_svc_brute";
         (* the returned fact attains the reported maximum *)
         if not (Rational.equal v (Svc.svc_brute qrst db f)) then
           fail "returned fact does not attain the maximum";
         (* game view: max over Game.shapley_all is the same value *)
         let game, _ = Game.of_query qrst db in
         let values = Game.shapley_all game in
         let vmax = Array.fold_left
             (fun acc x -> if Rational.lt acc x then x else acc)
             values.(0) values
         in
         if not (Rational.equal v vmax) then fail "max_svc <> game maximum";
         (* top_contributors = the argmax set, each at the maximum *)
         let tops = Max_svc.top_contributors qrst db in
         let argmax =
           List.filter
             (fun mu -> Rational.equal (Svc.svc_brute qrst db mu) v)
             (Database.endo_list db)
         in
         if
           not
             (Fact.Set.equal
                (Fact.Set.of_list (List.map fst tops))
                (Fact.Set.of_list argmax))
         then fail "top_contributors <> argmax set";
         if not (List.for_all (fun (_, x) -> Rational.equal x v) tops) then
           fail "top contributor below the maximum"
       | _ -> fail "max_svc/max_svc_brute disagree on emptiness");
      (* Lemma 6.3 on every instance of the monotone q_RST game *)
      if not (Max_svc.singleton_support_is_max qrst db) then
        fail "singleton support is not maximal")

let prop_max_svc_random =
  qcheck ~count:40 "max-SVC differential on random instances" Gen.seed_gen
    (fun seed ->
       let db = Gen.random_db ~max_endo:5 ~max_exo:2 seed in
       match (Max_svc.max_svc qrst db, Max_svc.max_svc_brute qrst db) with
       | None, None -> Database.size_endo db = 0
       | Some (f, v), Some (_, vb) ->
         Rational.equal v vb
         && Rational.equal v (Svc.svc_brute qrst db f)
         && Max_svc.singleton_support_is_max qrst db
       | _ -> false)

(* Const-SVC: the wealth function of the constants game, built here
   independently from [Query.eval] over induced fact sets, must give
   [Const_svc.svc_const] for every endogenous constant of every
   endo/exo constant partition of a small database. *)
let const_game q inst =
  let cn = Array.of_list (Term.Sset.elements (Const_svc.endo_consts inst)) in
  let coalition mask =
    let s = ref Term.Sset.empty in
    Array.iteri (fun i c -> if mask land (1 lsl i) <> 0 then s := Term.Sset.add c !s) cn;
    !s
  in
  let baseline = Query.eval q (Const_svc.induced inst Term.Sset.empty) in
  let wealth mask =
    let holds = Query.eval q (Const_svc.induced inst (coalition mask)) in
    match (holds, baseline) with
    | true, false -> Rational.one
    | false, true -> Rational.neg Rational.one
    | _ -> Rational.zero
  in
  (Game.make ~n:(Array.length cn) ~wealth, cn)

let test_const_svc_exhaustive () =
  let q = Query_parse.parse "R(?x,?y), T(?y,?z)" in
  let fs =
    facts
      [ fact "R" [ "1"; "2" ]; fact "T" [ "2"; "3" ]; fact "R" [ "4"; "2" ];
        fact "T" [ "2"; "1" ] ]
  in
  let consts = Term.Sset.elements (Fact.Set.consts fs) in
  let n = List.length consts in
  for mask = 0 to (1 lsl n) - 1 do
    let endo_consts =
      List.fold_left
        (fun acc (i, c) ->
           if mask land (1 lsl i) <> 0 then Term.Sset.add c acc else acc)
        Term.Sset.empty
        (List.mapi (fun i c -> (i, c)) consts)
    in
    let inst = Const_svc.make_instance ~facts:fs ~endo_consts in
    let game, cn = const_game q inst in
    let values = Game.shapley_all game in
    Array.iteri
      (fun i c ->
         if not (Rational.equal values.(i) (Const_svc.svc_const q inst c)) then
           Alcotest.failf "svc_const <> game Shapley for %s on partition %d" c mask)
      cn
  done

let prop_const_svc_random =
  qcheck ~count:25 "const-SVC vs constants game on random graphs" Gen.seed_gen
    (fun seed ->
       let q = Query_parse.parse "R(?x,?y), T(?y,?z)" in
       let r = Workload.rng seed in
       let g =
         Workload.random_graph r ~labels:[ "R"; "T" ] ~nodes:[ "1"; "2"; "3"; "4" ]
           ~n_endo:(1 + Workload.int r 5) ~n_exo:0
       in
       let fs = Database.all g in
       let consts = Fact.Set.consts fs in
       let endo_consts =
         Term.Sset.filter (fun _ -> Workload.bool r) consts
       in
       let inst = Const_svc.make_instance ~facts:fs ~endo_consts in
       let game, cn = const_game q inst in
       let values = Game.shapley_all game in
       let ok = ref true in
       Array.iteri
         (fun i c ->
            if not (Rational.equal values.(i) (Const_svc.svc_const q inst c)) then
              ok := false)
         cn;
       List.for_all2
         (fun (c1, v1) (c2, v2) -> c1 = c2 && Rational.equal v1 v2)
         (Const_svc.svc_const_all q inst)
         (Array.to_list (Array.mapi (fun i c -> (c, values.(i))) cn))
       && !ok)

let suite =
  [
    Alcotest.test_case "Lemma 6.1: 2^k calls" `Quick test_lemma61_call_count;
    Alcotest.test_case "Lemma 6.1: oracle purity" `Quick test_lemma61_oracle_purity;
    Alcotest.test_case "Corollary 6.1: SVCⁿ via FMC" `Quick test_cor61_svc_endo;
    Alcotest.test_case "Lemma 6.2: unshared constant" `Quick test_lemma62_unshared_constant;
    Alcotest.test_case "Prop 6.2: max-SVC" `Quick test_prop62_max_svc;
    Alcotest.test_case "Prop 6.2: trivial case" `Quick test_prop62_trivial;
    Alcotest.test_case "Prop 6.3: forward" `Quick test_prop63_forward;
    Alcotest.test_case "Prop 6.3: backward" `Quick test_prop63_backward;
    Alcotest.test_case "Prop 6.3: guard" `Quick test_prop63_guard;
    Alcotest.test_case "Prop 6.2: |Dₙ|+1 oracle calls" `Quick test_prop62_call_count;
    Alcotest.test_case "Prop 6.3: |Cₙ|+1 oracle calls" `Quick test_prop63_forward_call_count;
    Alcotest.test_case "Prop 6.3: 2|Cₙ| oracle calls" `Quick test_prop63_backward_call_count;
    Alcotest.test_case "Prop 6.1: negation" `Quick test_prop61_negation;
    Alcotest.test_case "Prop 6.1: multi-component" `Quick test_prop61_multi_component;
    Alcotest.test_case "Prop 6.1: guards" `Quick test_prop61_guards;
    Alcotest.test_case "Lemma D.1: decomposable, purely endogenous" `Quick test_lemma_d1;
    Alcotest.test_case "max-SVC: all databases vs brute force and game" `Slow
      test_max_svc_exhaustive;
    Alcotest.test_case "const-SVC: all partitions vs constants game" `Slow
      test_const_svc_exhaustive;
    prop_lemma_d1_random;
    prop_lemma61_random;
    prop_prop62_random;
    prop_prop63_random;
    prop_max_svc_random;
    prop_const_svc_random;
  ]
