(* Differential property suite for the batched memoizing engine.

   The engine must be observationally equivalent to the per-fact Claim A.1
   path ([Svc.svc_all_naive]) and to raw Eq. 2 enumeration
   ([Svc.svc_brute]) on every query class, and the classic Shapley axioms
   must hold of its output.  On top of the differentials, the
   instrumentation contract is pinned: one lineage compilation per
   (query, database), n+1 conditioned counts per [svc_all], and a bounded
   memo that drops rather than lies. *)

open Test_util

let qrst = Query_parse.parse "R(?x), S(?x,?y), T(?y)"

let values_equal v1 v2 =
  List.length v1 = List.length v2
  && List.for_all2
       (fun (f1, x1) (f2, x2) -> Fact.equal f1 f2 && Rational.equal x1 x2)
       v1 v2

(* engine ≡ naive per-fact path ≡ brute force, across the query corpus *)
let prop_engine_vs_naive =
  qcheck ~count:300 "engine svc_all = naive = brute" Gen.seed_gen
    (fun seed ->
       let q, db = Gen.random_case seed in
       let e = Engine.create q db in
       let batched = Engine.svc_all e in
       values_equal batched (Svc.svc_all_naive q db)
       && List.for_all
            (fun (f, v) -> Rational.equal v (Svc.svc_brute q db f))
            batched)

let prop_engine_vs_naive_graph =
  qcheck ~count:100 "engine on rpq graph instances" Gen.seed_gen
    (fun seed ->
       let q, db = Gen.random_graph_case seed in
       let e = Engine.create q db in
       values_equal (Engine.svc_all e) (Svc.svc_all_naive q db))

(* efficiency: the values sum to q(Dn ∪ Dx) − q(Dx) ∈ {0, 1} *)
let prop_efficiency =
  qcheck ~count:100 "efficiency axiom" Gen.seed_gen
    (fun seed ->
       let q, db = Gen.random_case seed in
       let e = Engine.create q db in
       let total =
         List.fold_left
           (fun acc (_, v) -> Rational.add acc v)
           Rational.zero (Engine.svc_all e)
       in
       let as01 b = if b then Rational.one else Rational.zero in
       let full = as01 (Query.eval q (Database.all db)) in
       let empty = as01 (Query.eval q (Database.exo db)) in
       Rational.equal total (Rational.sub full empty))

let prop_banzhaf =
  qcheck ~count:50 "engine banzhaf = per-fact banzhaf" Gen.seed_gen
    (fun seed ->
       let q, db = Gen.random_case seed in
       let e = Engine.create q db in
       values_equal (Engine.banzhaf_all e)
         (List.map (fun f -> (f, Svc.banzhaf q db f)) (Database.endo_list db)))

(* The polynomials the conditioning path reads every value off, counted
   against [memo]: the full count C(φ, U), then C(φ[μ:=1], U∖{μ}) per
   endogenous fact μ. *)
let conditioned_polynomials ~memo q db =
  let phi = Lineage.lineage q db in
  let universe = Database.endo_list db in
  Compile.size_polynomial_with ~memo ~universe phi
  :: List.map
       (fun mu ->
          Compile.size_polynomial_with ~memo
            ~universe:(List.filter (fun f -> not (Fact.equal f mu)) universe)
            (Bform.condition mu true phi))
       universe

(* a bounded memo changes counters, never answers *)
let prop_bounded_cache =
  qcheck ~count:50 "tiny cache, same values" Gen.seed_gen
    (fun seed ->
       let q, db = Gen.random_case seed in
       let bounded = Compile.Memo.create ~capacity:2 () in
       List.equal Poly.Z.equal
         (conditioned_polynomials ~memo:(Compile.Memo.create ()) q db)
         (conditioned_polynomials ~memo:bounded q db)
       && Compile.Memo.length bounded <= 2
       && Compile.Memo.capacity bounded = 2)

(* symmetry: the spokes of a star join are interchangeable, so they all
   get the same Shapley value *)
let test_symmetry () =
  let db = Gen.star ~spokes:6 in
  let q = Query_parse.parse "R(?x), S(?x,?y)" in
  let e = Engine.create q db in
  let spoke_values =
    List.filter_map
      (fun (f, v) -> if Fact.rel f = "S" then Some v else None)
      (Engine.svc_all e)
  in
  (match spoke_values with
   | [] -> Alcotest.fail "no spokes"
   | v :: rest ->
     List.iteri
       (fun i v' -> check_rational (Printf.sprintf "spoke %d" (i + 1)) v v')
       rest)

(* null player: a fact whose relation the query never mentions *)
let test_null_player () =
  let db =
    Database.make
      ~endo:[ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "T" [ "2" ];
              fact "Z" [ "9" ] ]
      ~exo:[]
  in
  let e = Engine.create qrst db in
  check_rational "null player value" Rational.zero
    (Engine.svc e (fact "Z" [ "9" ]))

(* the whole point: exactly one compilation per (query, database), and
   n+1 conditioned counts for a full svc_all.  Backend pinned: the
   cost-based `Auto would (correctly) pick the circuit for this
   instance, and this test is about the conditioning path's contract. *)
let test_single_compilation () =
  let db = Gen.star ~spokes:8 in
  let q = Query_parse.parse "R(?x), S(?x,?y)" in
  let e = Engine.create ~backend:`Conditioning q db in
  ignore (Engine.svc_all e);
  let s = Engine.stats e in
  let n = Database.size_endo db in
  (* (misses, drops) of the shared memo *)
  let memo s =
    match s.Stats.backend with
    | Stats.Conditioning c -> (c.cache_misses, c.cache_drops)
    | Stats.Circuit _ | Stats.Sample _ ->
      Alcotest.fail "expected conditioning stats"
  in
  let misses, drops = memo s in
  Alcotest.(check int) "players" n s.Stats.players;
  Alcotest.(check int) "one compilation" 1 s.Stats.compilations;
  Alcotest.(check int) "n+1 conditioned counts" (n + 1) s.Stats.conditionings;
  Alcotest.(check bool) "cache was useful" true (misses > 0);
  Alcotest.(check int) "nothing dropped" 0 drops;
  (* a second full pass recompiles nothing and re-counts nothing new *)
  ignore (Engine.svc_all e);
  let s2 = Engine.stats e in
  Alcotest.(check int) "still one compilation" 1 s2.Stats.compilations;
  Alcotest.(check int) "no new misses" misses (fst (memo s2))

let test_bounded_cache_drops () =
  let db = Gen.bipartite ~rows:3 in
  let bounded = Compile.Memo.create ~capacity:4 () in
  Alcotest.(check bool) "same polynomials" true
    (List.equal Poly.Z.equal
       (conditioned_polynomials ~memo:bounded qrst db)
       (conditioned_polynomials ~memo:(Compile.Memo.create ()) qrst db));
  Alcotest.(check bool) "drops happened" true (Compile.Memo.drops bounded > 0);
  Alcotest.(check bool) "size bounded" true (Compile.Memo.length bounded <= 4)

(* the shared memo is reusable across independent counts: the second
   evaluation of the same formula is a single top-level hit *)
let test_memo_reuse () =
  let db =
    Database.make
      ~endo:[ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "T" [ "2" ];
              fact "S" [ "1"; "3" ] ]
      ~exo:[ fact "T" [ "3" ] ]
  in
  let phi = Lineage.lineage qrst db in
  let universe = Database.endo_list db in
  let memo = Compile.Memo.create () in
  let p1 = Compile.size_polynomial_with ~memo ~universe phi in
  let misses = Compile.Memo.misses memo in
  let hits = Compile.Memo.hits memo in
  let p2 = Compile.size_polynomial_with ~memo ~universe phi in
  check_zpoly "same polynomial" p1 p2;
  Alcotest.(check int) "no new misses" misses (Compile.Memo.misses memo);
  Alcotest.(check bool) "pure hit" true (Compile.Memo.hits memo > hits)

let test_engine_guards () =
  let db = Database.make ~endo:[ fact "R" [ "1" ] ] ~exo:[ fact "T" [ "2" ] ] in
  let e = Engine.create qrst db in
  Alcotest.check_raises "not endogenous"
    (Invalid_argument "Engine.svc: fact is not endogenous") (fun () ->
        ignore (Engine.svc e (fact "T" [ "2" ])));
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Compile.Memo.create: negative capacity") (fun () ->
        ignore (Compile.Memo.create ~capacity:(-1) ()))

(* the engine's fgmc polynomial is the plain model-counting one *)
let test_fgmc_polynomial () =
  let db = Gen.random_db 3 in
  let e = Engine.create qrst db in
  check_zpoly "fgmc via engine"
    (Model_counting.fgmc_polynomial qrst db)
    (Engine.fgmc_polynomial e)

(* a workload case evaluates through one engine *)
let test_workload_eval () =
  let c =
    Workload.case ~name:"star" ~query_src:"R(?x), S(?x,?y)"
      ~db:(Gen.star ~spokes:3)
  in
  let e = Engine.create c.Workload.query c.Workload.db in
  let total =
    List.fold_left
      (fun acc (_, v) -> Rational.add acc v)
      Rational.zero (Engine.svc_all e)
  in
  Alcotest.(check int) "one compilation" 1 (Engine.stats e).Stats.compilations;
  check_rational "efficiency" Rational.one total

(* An [`Auto] engine whose capped circuit trial overflows keeps none of
   the trial's nodes: this 50-fact road resolves to conditioning, and
   its engine holds well under a megabyte of live heap after [create]
   (44 MB while the stopped build stayed in the engine's session). *)
let test_overflowed_trial_heap () =
  let c = Workload.generate ~family:"rpq-road" ~seed:2 ~size:30 in
  Gc.compact ();
  let before = (Gc.stat ()).Gc.live_words in
  let e = Engine.create c.Workload.query c.Workload.db in
  Gc.compact ();
  let after = (Gc.stat ()).Gc.live_words in
  Alcotest.(check string) "resolves to conditioning" "conditioning"
    (Engine.backend_name (Engine.backend e));
  let mb = float_of_int (after - before) *. 8. /. 1e6 in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f MB live after create <= 1 MB" mb)
    true (mb <= 1.)

let suite =
  [
    prop_engine_vs_naive;
    prop_engine_vs_naive_graph;
    prop_efficiency;
    prop_banzhaf;
    prop_bounded_cache;
    Alcotest.test_case "symmetry on star spokes" `Quick test_symmetry;
    Alcotest.test_case "null player" `Quick test_null_player;
    Alcotest.test_case "single compilation + counter contract" `Quick
      test_single_compilation;
    Alcotest.test_case "bounded cache drops, never lies" `Quick
      test_bounded_cache_drops;
    Alcotest.test_case "memo reuse across counts" `Quick test_memo_reuse;
    Alcotest.test_case "guards" `Quick test_engine_guards;
    Alcotest.test_case "fgmc polynomial" `Quick test_fgmc_polynomial;
    Alcotest.test_case "workload eval stats" `Quick test_workload_eval;
    Alcotest.test_case "an overflowed trial leaves no dead nodes" `Quick
      test_overflowed_trial_heap;
  ]
