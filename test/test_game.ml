open Test_util

(* a 3-player weighted majority game: v(S) = 1 iff S contains player 0 and
   at least one other *)
let majority =
  Game.make ~n:3 ~wealth:(fun mask ->
      if mask land 1 <> 0 && mask land 6 <> 0 then Rational.one else Rational.zero)

let test_known_shapley () =
  (* classic apex values: Sh(0) = 2/3, Sh(1) = Sh(2) = 1/6 *)
  check_rational "apex player" (Rational.of_ints 2 3) (Game.shapley majority 0);
  check_rational "minor player 1" (Rational.of_ints 1 6) (Game.shapley majority 1);
  check_rational "minor player 2" (Rational.of_ints 1 6) (Game.shapley majority 2)

let test_permutation_agreement () =
  for p = 0 to 2 do
    check_rational
      (Printf.sprintf "player %d" p)
      (Game.shapley_permutations majority p)
      (Game.shapley majority p)
  done

let test_axioms () =
  check_rational "efficiency" Rational.zero (Game.efficiency_defect majority);
  (* null player: a game ignoring player 2 *)
  let g =
    Game.make ~n:3 ~wealth:(fun mask -> if mask land 1 <> 0 then Rational.one else Rational.zero)
  in
  check_rational "null player gets zero" Rational.zero (Game.shapley g 2);
  check_rational "dictator gets all" Rational.one (Game.shapley g 0);
  (* symmetry: interchangeable players get the same value *)
  let sym =
    Game.make ~n:3 ~wealth:(fun mask ->
        if mask land 3 <> 0 then Rational.one else Rational.zero)
  in
  check_rational "symmetric" (Game.shapley sym 0) (Game.shapley sym 1)

let test_monotone_binary () =
  Alcotest.(check bool) "majority monotone" true (Game.is_monotone majority);
  Alcotest.(check bool) "majority binary" true (Game.is_binary majority);
  let non_mono =
    Game.make ~n:2 ~wealth:(fun mask -> if mask = 1 then Rational.one else Rational.zero)
  in
  Alcotest.(check bool) "non-monotone detected" false (Game.is_monotone non_mono);
  let non_bin = Game.make ~n:1 ~wealth:(fun mask -> Rational.of_int (2 * mask)) in
  Alcotest.(check bool) "non-binary detected" false (Game.is_binary non_bin)

let test_query_game () =
  let q = Query_parse.parse "R(?x), S(?x)" in
  let db =
    Database.make ~endo:[ fact "R" [ "1" ]; fact "S" [ "1" ] ] ~exo:[]
  in
  let game, players = Game.of_query q db in
  Alcotest.(check int) "two players" 2 (Game.n game);
  Alcotest.(check int) "player array" 2 (Array.length players);
  (* both facts needed: each gets 1/2 *)
  check_rational "split" Rational.half (Game.shapley game 0);
  check_rational "split" Rational.half (Game.shapley game 1);
  Alcotest.(check bool) "monotone" true (Game.is_monotone game);
  Alcotest.(check bool) "binary" true (Game.is_binary game)

let test_query_game_exo_satisfied () =
  (* when Dₓ ⊨ q, the wealth is identically zero *)
  let q = Query_parse.parse "R(?x)" in
  let db = Database.make ~endo:[ fact "R" [ "1" ] ] ~exo:[ fact "R" [ "2" ] ] in
  let game, _ = Game.of_query q db in
  check_rational "zero value" Rational.zero (Game.shapley game 0)

let test_guards () =
  Alcotest.check_raises "bad player count" (Invalid_argument "Game.make: player count out of range")
    (fun () -> ignore (Game.make ~n:(-1) ~wealth:(fun _ -> Rational.zero)));
  Alcotest.check_raises "no such player" (Invalid_argument "Game.shapley: no such player")
    (fun () -> ignore (Game.shapley majority 5))

(* random monotone binary games from random queries: Lemma 6.3 property *)
let prop_lemma_6_3 =
  qcheck ~count:40 "Lemma 6.3: singleton supports take the max"
    QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
       let r = Workload.rng seed in
       let db =
         Workload.random_database r ~rels:[ ("R", 1); ("S", 2) ]
           ~consts:[ "1"; "2" ] ~n_endo:(2 + Workload.int r 3) ~n_exo:(Workload.int r 2)
       in
       let q = Query_parse.parse "ucq: R(?x) | S(?x,?y)" in
       Max_svc.singleton_support_is_max q db)

let prop_efficiency_random =
  qcheck ~count:30 "efficiency axiom on query games" QCheck2.Gen.(int_range 0 1000000)
    (fun seed ->
       let r = Workload.rng seed in
       let db =
         Workload.random_database r ~rels:[ ("R", 1); ("S", 2); ("T", 1) ]
           ~consts:[ "1"; "2" ] ~n_endo:(1 + Workload.int r 4) ~n_exo:(Workload.int r 2)
       in
       let game, _ = Game.of_query (Query_parse.parse "R(?x), S(?x,?y), T(?y)") db in
       Rational.is_zero (Game.efficiency_defect game))

let prop_subset_vs_permutation =
  qcheck ~count:20 "Eq. 1 = Eq. 2 on random small games"
    QCheck2.Gen.(pair (int_range 0 100000) (int_range 1 4))
    (fun (seed, n) ->
       let r = Workload.rng seed in
       (* random monotone wealth: union of random minimal winning coalitions *)
       let winners = List.init (1 + Workload.int r 2) (fun _ -> 1 + Workload.int r ((1 lsl n) - 1)) in
       let wealth mask =
         if List.exists (fun w -> mask land w = w) winners then Rational.one
         else Rational.zero
       in
       let g = Game.make ~n ~wealth in
       List.for_all
         (fun p -> Rational.equal (Game.shapley g p) (Game.shapley_permutations g p))
         (List.init n Fun.id))

let test_banzhaf () =
  (* apex game: Banzhaf(0) = 3/4, Banzhaf(1) = Banzhaf(2) = 1/4 *)
  check_rational "apex" (Rational.of_ints 3 4) (Game.banzhaf majority 0);
  check_rational "minor" (Rational.of_ints 1 4) (Game.banzhaf majority 1);
  check_rational "minor" (Rational.of_ints 1 4) (Game.banzhaf majority 2);
  Alcotest.check_raises "bad player" (Invalid_argument "Game.banzhaf: no such player")
    (fun () -> ignore (Game.banzhaf majority 7))

let suite =
  [
    Alcotest.test_case "known Shapley values" `Quick test_known_shapley;
    Alcotest.test_case "Banzhaf values" `Quick test_banzhaf;
    Alcotest.test_case "Eq.1 = Eq.2" `Quick test_permutation_agreement;
    Alcotest.test_case "axioms" `Quick test_axioms;
    Alcotest.test_case "monotone/binary predicates" `Quick test_monotone_binary;
    Alcotest.test_case "query games" `Quick test_query_game;
    Alcotest.test_case "exo-satisfied game" `Quick test_query_game_exo_satisfied;
    Alcotest.test_case "guards" `Quick test_guards;
    prop_lemma_6_3;
    prop_efficiency_random;
    prop_subset_vs_permutation;
  ]
