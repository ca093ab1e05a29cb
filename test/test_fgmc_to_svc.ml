open Test_util

(* The paper's main results: Lemmas 4.1, 4.3, 4.4 — FGMC recovered exactly
   through an SVC oracle. *)

let qrst = Query_parse.parse "R(?x), S(?x,?y), T(?y)"

let random_db ~rels seed =
  let r = Workload.rng seed in
  Workload.random_database r ~rels ~consts:[ "1"; "2"; "3" ]
    ~n_endo:(1 + Workload.int r 4)
    ~n_exo:(Workload.int r 3)

let test_lemma41_qrst () =
  let db =
    Database.make
      ~endo:[ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "T" [ "2" ]; fact "S" [ "1"; "3" ] ]
      ~exo:[ fact "T" [ "3" ] ]
  in
  let svc = Oracle.svc_of qrst in
  (match Fgmc_to_svc.lemma41_auto ~svc ~query:qrst db with
   | Some poly ->
     check_zpoly "recovered" (Model_counting.fgmc_polynomial_brute qrst db) poly;
     (* n+1 constructions, one oracle call each *)
     Alcotest.(check int) "n+1 oracle calls" (Database.size_endo db + 1) (Oracle.calls svc)
   | None -> Alcotest.fail "expected witness")

let test_lemma41_trivial_case () =
  (* Dₓ ⊨ q: binomial counts, no oracle calls at all *)
  let db =
    Database.make ~endo:[ fact "R" [ "9" ]; fact "R" [ "8" ] ]
      ~exo:[ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "T" [ "2" ] ]
  in
  let svc = Oracle.svc_of qrst in
  (match Fgmc_to_svc.lemma41_auto ~svc ~query:qrst db with
   | Some poly ->
     check_zpoly "binomial"
       (Poly.Z.of_coeffs [ Bigint.one; Bigint.of_int 2; Bigint.one ])
       poly;
     Alcotest.(check int) "no oracle calls" 0 (Oracle.calls svc)
   | None -> Alcotest.fail "expected result")

let test_lemma41_constant_clash () =
  (* database reusing the support's would-be constants: the engine must
     rename the input database away *)
  Term.reset_fresh ();
  let q = Query_parse.parse "R(?x), S(?x,?y)" in
  let support = Option.get (Query.fresh_support q) in
  let pivot = Term.Sset.min_elt (Fact.Set.consts support) in
  (* craft a database that uses the support's own constants *)
  let clash_const = Term.Sset.max_elt (Fact.Set.consts support) in
  let db =
    Database.make
      ~endo:[ fact "R" [ clash_const ]; fact "S" [ clash_const; "z" ] ]
      ~exo:[]
  in
  let svc = Oracle.svc_of q in
  let poly = Fgmc_to_svc.lemma41 ~svc ~query:q ~island:support ~pivot db in
  check_zpoly "clash handled" (Model_counting.fgmc_polynomial_brute q db) poly

let test_lemma41_rpq () =
  let rq = Query_parse.parse "rpq: (ABC)(s,t)" in
  let db =
    Database.make
      ~endo:[ fact "A" [ "s"; "1" ]; fact "B" [ "1"; "2" ]; fact "C" [ "2"; "t" ];
              fact "B" [ "1"; "4" ]; fact "C" [ "4"; "t" ] ]
      ~exo:[ fact "A" [ "s"; "9" ] ]
  in
  (match rq with
   | Query.Rpq r ->
     (match Pseudo_connected.rpq r with
      | Some w ->
        let svc = Oracle.svc_of rq in
        let poly =
          Fgmc_to_svc.lemma41 ~svc ~query:rq ~island:w.Pseudo_connected.island
            ~pivot:w.Pseudo_connected.pivot db
        in
        check_zpoly "RPQ recovered" (Model_counting.fgmc_polynomial_brute rq db) poly
      | None -> Alcotest.fail "expected Lemma B.1 witness")
   | _ -> assert false)

let test_lemma41_ucq () =
  let q = Query_parse.parse "ucq: R(?x), S(?x,?y) | S(?x,?y), T(?y)" in
  let db =
    Database.make
      ~endo:[ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "T" [ "2" ] ]
      ~exo:[]
  in
  let svc = Oracle.svc_of q in
  match Fgmc_to_svc.lemma41_auto ~svc ~query:q db with
  | Some poly -> check_zpoly "UCQ recovered" (Model_counting.fgmc_polynomial_brute q db) poly
  | None -> Alcotest.fail "expected witness"

let test_lemma41_duplicable_singleton () =
  (* A(x) ∨ q with q = RST: pseudo-connected via Corollary 4.4 *)
  let q = Query_parse.parse "ucq: A(?x) | R(?x), S(?x,?y), T(?y)" in
  (match Pseudo_connected.duplicable_singleton q with
   | Some w ->
     Alcotest.(check int) "singleton island" 1 (Fact.Set.cardinal w.Pseudo_connected.island);
     let db =
       Database.make
         ~endo:[ fact "A" [ "7" ]; fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "T" [ "2" ] ]
         ~exo:[]
     in
     let svc = Oracle.svc_of q in
     let poly =
       Fgmc_to_svc.lemma41 ~svc ~query:q ~island:w.Pseudo_connected.island
         ~pivot:w.Pseudo_connected.pivot db
     in
     check_zpoly "Cor 4.4 recovered" (Model_counting.fgmc_polynomial_brute q db) poly
   | None -> Alcotest.fail "expected duplicable singleton")

let test_lemma43 () =
  let q = Query_parse.parse "R(?x), S(?x,?y), T(?y)" in
  let q' = Query_parse.parse "U(?u,?v)" in
  let qand = Query.And (q, q') in
  let db =
    Database.make
      ~endo:[ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "T" [ "2" ]; fact "U" [ "7"; "8" ] ]
      ~exo:[ fact "R" [ "5" ] ]
  in
  let svc = Oracle.svc_of qand in
  let poly = Fgmc_to_svc.lemma43 ~svc ~q ~q' db in
  check_zpoly "Lemma 4.3" (Model_counting.fgmc_polynomial_brute q db) poly

let test_lemma43_hypothesis_2a () =
  (* S′ ⊨ q must be rejected *)
  let q = Query_parse.parse "R(?x)" in
  let q' = Query_parse.parse "R(?x), S(?x)" in
  let db = Database.make ~endo:[ fact "R" [ "1" ] ] ~exo:[] in
  Alcotest.check_raises "2a violated"
    (Invalid_argument "Fgmc_to_svc.lemma43: hypothesis (2a) violated: S′ ⊨ q") (fun () ->
        ignore (Fgmc_to_svc.lemma43 ~svc:(Oracle.svc_of q) ~q ~q' db))

let test_lemma44 () =
  let q1 = Query_parse.parse "R(?x), S(?x,?y)" in
  let q2 = Query_parse.parse "T(?u), U(?u,?v)" in
  let qand = Query.And (q1, q2) in
  let db =
    Database.make
      ~endo:[ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "T" [ "a" ]; fact "U" [ "a"; "b" ];
              fact "U" [ "a"; "c" ]; fact "W" [ "z" ] ]
      ~exo:[ fact "S" [ "1"; "9" ] ]
  in
  let svc = Oracle.svc_of qand in
  let poly = Fgmc_to_svc.lemma44 ~svc ~q1 ~q2 db in
  check_zpoly "Lemma 4.4" (Model_counting.fgmc_polynomial_brute qand db) poly

let test_lemma44_vocab_guard () =
  let q1 = Query_parse.parse "R(?x)" in
  let q2 = Query_parse.parse "R(?y), S(?y)" in
  let db = Database.make ~endo:[ fact "R" [ "1" ] ] ~exo:[] in
  Alcotest.check_raises "overlap rejected"
    (Invalid_argument "Fgmc_to_svc.lemma44: conjunct vocabularies overlap; provide ~split")
    (fun () ->
       ignore (Fgmc_to_svc.lemma44 ~svc:(Oracle.svc_of (Query.And (q1, q2))) ~q1 ~q2 db))

let test_engine_pivot_guards () =
  let q = Query_parse.parse "R(?x)" in
  let support = facts [ fact "R" [ "c1" ] ] in
  let db = Database.make ~endo:[ fact "R" [ "1" ] ] ~exo:[] in
  Alcotest.check_raises "pivot not in support"
    (Invalid_argument "Fgmc_to_svc: pivot does not occur in the support") (fun () ->
        ignore
          (Fgmc_to_svc.reduce_engine ~svc:(Oracle.svc_of q) ~count_query:q
             ~query_consts:Term.Sset.empty ~s_prime:Fact.Set.empty ~support ~pivot:"zz"
             ~mode:Fgmc_to_svc.Count db));
  Alcotest.check_raises "empty support" (Invalid_argument "Fgmc_to_svc: empty support")
    (fun () ->
       ignore
         (Fgmc_to_svc.reduce_engine ~svc:(Oracle.svc_of q) ~count_query:q
            ~query_consts:Term.Sset.empty ~s_prime:Fact.Set.empty ~support:Fact.Set.empty
            ~pivot:"zz" ~mode:Fgmc_to_svc.Count db))

let prop_lemma41_random =
  qcheck ~count:25 "Lemma 4.1 on random q_RST instances"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
       let db = random_db ~rels:[ ("R", 1); ("S", 2); ("T", 1) ] seed in
       match Fgmc_to_svc.lemma41_auto ~svc:(Oracle.svc_of qrst) ~query:qrst db with
       | Some poly -> Poly.Z.equal poly (Model_counting.fgmc_polynomial qrst db)
       | None -> false)

let prop_lemma41_random_sjf2 =
  qcheck ~count:25 "Lemma 4.1 on random R-S instances"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
       let q = Query_parse.parse "R(?x,?y), S(?y,?z)" in
       let db = random_db ~rels:[ ("R", 2); ("S", 2) ] seed in
       match Fgmc_to_svc.lemma41_auto ~svc:(Oracle.svc_of q) ~query:q db with
       | Some poly -> Poly.Z.equal poly (Model_counting.fgmc_polynomial q db)
       | None -> false)

let prop_lemma44_random =
  qcheck ~count:20 "Lemma 4.4 on random decomposable instances"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
       let q1 = Query_parse.parse "R(?x), S(?x,?y)" in
       let q2 = Query_parse.parse "T(?u,?v)" in
       let qand = Query.And (q1, q2) in
       let db = random_db ~rels:[ ("R", 1); ("S", 2); ("T", 2) ] seed in
       Poly.Z.equal
         (Fgmc_to_svc.lemma44 ~svc:(Oracle.svc_of qand) ~q1 ~q2 db)
         (Model_counting.fgmc_polynomial qand db))

let prop_lemma43_random =
  qcheck ~count:20 "Lemma 4.3 on random instances" QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
       let q = qrst in
       let q' = Query_parse.parse "U(?u,?v)" in
       let qand = Query.And (q, q') in
       let db = random_db ~rels:[ ("R", 1); ("S", 2); ("T", 1); ("U", 2) ] seed in
       Poly.Z.equal
         (Fgmc_to_svc.lemma43 ~svc:(Oracle.svc_of qand) ~q ~q' db)
         (Model_counting.fgmc_polynomial q db))

(* Lemma 5.1's system written out entry by entry, independently of
   [Fgmc_to_svc]: shᵢ = Σ_j (j+m)!(n+i-j)!/(n+i+m+1)! · y_j with y_j = x_j
   (Count) or C(n,j) - x_j (Complement).  [invert] must give back x. *)
let prop_invert_recovers_counts =
  qcheck ~count:60 "Lemma 5.1 system: invert recovers the count vector"
    Gen.seed_gen
    (fun seed ->
       let r = Workload.rng seed in
       let n = Workload.int r 8 and m = Workload.int r 4 in
       let mode = if Workload.bool r then Fgmc_to_svc.Count else Fgmc_to_svc.Complement in
       let x =
         Array.init (n + 1) (fun j ->
             Bigint.of_int (Workload.int r (Bigint.to_int (Bigint.binomial n j) + 1)))
       in
       let y j =
         match mode with
         | Fgmc_to_svc.Count -> x.(j)
         | Fgmc_to_svc.Complement -> Bigint.sub (Bigint.binomial n j) x.(j)
       in
       let sh =
         Array.init (n + 1) (fun i ->
             let acc = ref Rational.zero in
             for j = 0 to n do
               let w =
                 Rational.make
                   (Bigint.mul (Bigint.factorial (j + m)) (Bigint.factorial (n + i - j)))
                   (Bigint.factorial (n + i + m + 1))
               in
               acc := Rational.add !acc (Rational.mul w (Rational.of_bigint (y j)))
             done;
             !acc)
       in
       Poly.Z.equal (Poly.Z.of_coeffs (Array.to_list x)) (Fgmc_to_svc.invert ~m mode sh))

(* structurally random connected constant-free sjf-CQs: build a random tree
   over k variables, one binary atom per edge, plus unary atoms on random
   variables — connected by construction *)
let random_connected_cq r =
  let nvars = 2 + Workload.int r 2 in
  let var i = Term.var (Printf.sprintf "v%d" i) in
  let edges =
    List.init (nvars - 1) (fun i ->
        let parent = Workload.int r (i + 1) in
        Atom.make (Printf.sprintf "E%d" i) [ var parent; var (i + 1) ])
  in
  let unary =
    List.init (Workload.int r 2) (fun i ->
        Atom.make (Printf.sprintf "U%d" i) [ var (Workload.int r nvars) ])
  in
  Cq.of_atoms (edges @ unary)

let prop_lemma41_random_queries =
  qcheck ~count:15 "Lemma 4.1 on structurally random connected queries"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
       let r = Workload.rng seed in
       let cq = random_connected_cq r in
       let q = Query.Cq cq in
       (* a random database over the query's own schema *)
       let rels =
         List.map (fun a -> (Atom.rel a, Atom.arity a)) (Cq.atoms cq)
       in
       let db =
         Workload.random_database r ~rels ~consts:[ "1"; "2" ]
           ~n_endo:(1 + Workload.int r 4)
           ~n_exo:(Workload.int r 2)
       in
       match Fgmc_to_svc.lemma41_auto ~svc:(Oracle.svc_of q) ~query:q db with
       | Some poly -> Poly.Z.equal poly (Model_counting.fgmc_polynomial_brute q db)
       | None -> false)

let suite =
  [
    Alcotest.test_case "Lemma 4.1: q_RST" `Quick test_lemma41_qrst;
    prop_lemma41_random_queries;
    Alcotest.test_case "Lemma 4.1: trivial case" `Quick test_lemma41_trivial_case;
    Alcotest.test_case "Lemma 4.1: constant clash" `Quick test_lemma41_constant_clash;
    Alcotest.test_case "Lemma 4.1: RPQ (Lemma B.1)" `Quick test_lemma41_rpq;
    Alcotest.test_case "Lemma 4.1: UCQ" `Quick test_lemma41_ucq;
    Alcotest.test_case "Corollary 4.4: duplicable singleton" `Quick test_lemma41_duplicable_singleton;
    Alcotest.test_case "Lemma 4.3" `Quick test_lemma43;
    Alcotest.test_case "Lemma 4.3: hypothesis 2a" `Quick test_lemma43_hypothesis_2a;
    Alcotest.test_case "Lemma 4.4" `Quick test_lemma44;
    Alcotest.test_case "Lemma 4.4: vocabulary guard" `Quick test_lemma44_vocab_guard;
    Alcotest.test_case "engine guards" `Quick test_engine_pivot_guards;
    prop_lemma41_random;
    prop_lemma41_random_sjf2;
    prop_lemma44_random;
    prop_lemma43_random;
    prop_invert_recovers_counts;
  ]
