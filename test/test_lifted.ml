open Test_util

(* The lifted UCQ engine: executable counterpart of the Safety classifier. *)

let random_db ~rels seed =
  let r = Workload.rng seed in
  Workload.random_database r ~rels ~consts:[ "1"; "2"; "3" ]
    ~n_endo:(1 + Workload.int r 5)
    ~n_exo:(Workload.int r 3)

let test_safe_corpus_constructive () =
  (* every query our Safety procedure certifies Safe must be evaluable by
     the lifted engine, and exactly *)
  let corpus =
    [ ("R(?x)", [ ("R", 1) ]);
      ("R(?x), S(?x,?y)", [ ("R", 1); ("S", 2) ]);
      ("R(?x), S(?x,?y), U(?x,?y,?z)", [ ("R", 1); ("S", 2); ("U", 3) ]);
      ("R(?x), S(?y)", [ ("R", 1); ("S", 1) ]);
      ("R(?x) | S(?x,?y)", [ ("R", 1); ("S", 2) ]);
      ("R(?x), S(?x,?y) | S(?u,?v)", [ ("R", 1); ("S", 2) ]);
      ("R(?x,?y), R(?x,?z)", [ ("R", 2) ]);
    ]
  in
  List.iter
    (fun (qs, rels) ->
       let u = Ucq.parse qs in
       Alcotest.(check string) (qs ^ " certified safe") "safe"
         (Safety.verdict_to_string (Safety.ucq u));
       for seed = 1 to 10 do
         let db = random_db ~rels (seed * 37) in
         match Lifted.ucq u db with
         | Some p ->
           Alcotest.(check bool) (qs ^ " exact") true
             (Poly.Z.equal p (Model_counting.fgmc_polynomial_brute (Query.Ucq u) db))
         | None -> Alcotest.failf "lifted rules stuck on certified-safe %s" qs
       done)
    corpus

let test_unsafe_stuck () =
  let u = Ucq.parse "R(?x), S(?x,?y), T(?y)" in
  let db = random_db ~rels:[ ("R", 1); ("S", 2); ("T", 1) ] 3 in
  Alcotest.(check bool) "stuck on q_RST" true (Lifted.ucq u db = None);
  Alcotest.check_raises "raising front-end"
    (Invalid_argument "Lifted.fgmc_polynomial: lifted rules stuck (query not certified safe)")
    (fun () -> ignore (Lifted.fgmc_polynomial u db))

let test_scales_beyond_brute () =
  (* a polynomial-time guarantee: large safe instance *)
  let u = Ucq.parse "R(?x), S(?x,?y)" in
  let db = Gen.star ~spokes:100 in
  match Lifted.ucq u db with
  | Some p ->
    check_bigint "closed form: 2^100 - 1"
      (Bigint.sub (Bigint.pow Bigint.two 100) Bigint.one)
      (Poly.Z.total p)
  | None -> Alcotest.fail "stuck on a safe query"

let test_independent_union_large () =
  (* vocabulary-disjoint union of three queries, exogenous facts included *)
  let u = Ucq.parse "R(?x) | S(?x,?y) | T(?x), W(?x,?y)" in
  let db =
    Database.make
      ~endo:[ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "T" [ "3" ];
              fact "W" [ "3"; "4" ]; fact "T" [ "5" ] ]
      ~exo:[ fact "S" [ "9"; "9" ] ]
  in
  match Lifted.ucq u db with
  | Some p ->
    check_zpoly "independent union"
      (Model_counting.fgmc_polynomial_brute (Query.Ucq u) db)
      p
  | None -> Alcotest.fail "stuck"

let test_ambiguous_bucket_conservative () =
  (* self-join where a single fact serves two atoms with different
     separator values: the engine must give up rather than double-count *)
  let q = Cq.parse "R(?x,a), R(b,?x)" in
  let db =
    Database.make
      ~endo:[ fact "R" [ "b"; "a" ]; fact "R" [ "c"; "a" ]; fact "R" [ "b"; "d" ] ]
      ~exo:[]
  in
  (match Lifted.cq q db with
   | None -> () (* conservative: fine *)
   | Some p ->
     (* if it does answer, it must be exact *)
     Alcotest.(check bool) "exact if answered" true
       (Poly.Z.equal p (Model_counting.fgmc_polynomial_brute (Query.Cq q) db)))

let prop_lifted_sound =
  qcheck ~count:60 "whenever the lifted engine answers, it is exact"
    QCheck2.Gen.(pair (int_range 0 1000000)
                   (oneofl
                      [ "R(?x), S(?x,?y)"; "R(?x) | S(?x,?y)";
                        "R(?x), S(?x,?y) | S(?u,?v)"; "R(?x), S(?x,?y), T(?y)";
                        "R(?x), T(?y)"; "R(?x,?y), R(?x,?z)" ]))
    (fun (seed, qs) ->
       let u = Ucq.parse qs in
       let db = random_db ~rels:[ ("R", 2); ("S", 2); ("T", 1) ] seed in
       let db =
         (* unary R variant for most queries *)
         if qs = "R(?x,?y), R(?x,?z)" then db
         else random_db ~rels:[ ("R", 1); ("S", 2); ("T", 1) ] seed
       in
       match Lifted.ucq u db with
       | None -> true
       | Some p ->
         Poly.Z.equal p (Model_counting.fgmc_polynomial_brute (Query.Ucq u) db))

(* random sjf queries over distinct relations: whenever Safety certifies
   Safe, the lifted engine must answer, and exactly *)
let prop_safe_implies_constructive =
  qcheck ~count:60 "Safety = safe ⇒ lifted engine answers exactly"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
       let r = Workload.rng seed in
       let vars = [ "x"; "y"; "z" ] in
       let atoms =
         List.init
           (1 + Workload.int r 3)
           (fun i ->
              let arity = 1 + Workload.int r 2 in
              Atom.make
                (Printf.sprintf "P%d" i)
                (List.init arity (fun _ -> Term.var (Workload.pick r vars))))
       in
       let q = Cq.of_atoms atoms in
       match Safety.cq q with
       | Safety.Safe ->
         let rels = List.map (fun a -> (Atom.rel a, Atom.arity a)) atoms in
         let db = random_db ~rels (seed + 1) in
         (match Lifted.cq q db with
          | Some p ->
            Poly.Z.equal p (Model_counting.fgmc_polynomial_brute (Query.Cq q) db)
          | None -> false)
       | Safety.Unsafe | Safety.Unknown -> true)

(* random UCQs of 1–3 disjuncts, with constants and self-joins: the
   shared lifted rules keep every Safe verdict constructive *)
let prop_safe_ucq_constructive =
  qcheck ~count:1000 "Safety.ucq = safe ⇒ lifted engine answers exactly"
    Gen.seed_gen
    (fun seed ->
       let r = Workload.rng seed in
       let rels = [ ("R", 1); ("S", 2); ("T", 1) ] in
       let term () =
         if Workload.int r 4 = 0 then Term.const (Workload.pick r [ "1"; "2" ])
         else Term.var (Workload.pick r [ "x"; "y"; "z" ])
       in
       let disjunct () =
         Cq.of_atoms
           (List.init
              (1 + Workload.int r 3)
              (fun _ ->
                 let rel, arity = Workload.pick r rels in
                 Atom.make rel (List.init arity (fun _ -> term ()))))
       in
       let u = Ucq.of_cqs (List.init (1 + Workload.int r 3) (fun _ -> disjunct ())) in
       match Safety.ucq u with
       | Safety.Safe ->
         let db = random_db ~rels (seed + 1) in
         (match Lifted.ucq u db with
          | Some p ->
            Poly.Z.equal p (Model_counting.fgmc_polynomial_brute (Query.Ucq u) db)
          | None -> false)
       | Safety.Unsafe | Safety.Unknown -> true)

let prop_safe_plan_agreement =
  qcheck ~count:40 "lifted engine = lineage counting on hierarchical sjf-CQs"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
       let q = Cq.parse "R(?x), S(?x,?y)" in
       let db = random_db ~rels:[ ("R", 1); ("S", 2) ] seed in
       match Lifted.cq q db with
       | Some p ->
         Poly.Z.equal p (Model_counting.fgmc_polynomial (Query.Cq q) db)
       | None -> false)

let suite =
  [
    Alcotest.test_case "Safe verdicts are constructive" `Quick test_safe_corpus_constructive;
    Alcotest.test_case "stuck on unsafe queries" `Quick test_unsafe_stuck;
    Alcotest.test_case "polynomial scaling" `Quick test_scales_beyond_brute;
    Alcotest.test_case "independent union" `Quick test_independent_union_large;
    Alcotest.test_case "ambiguous buckets are conservative" `Quick
      test_ambiguous_bucket_conservative;
    prop_lifted_sound;
    prop_safe_implies_constructive;
    prop_safe_plan_agreement;
    prop_safe_ucq_constructive;
  ]
