(* Statistical test layer for the anytime sampling engine (lib/sample).

   Three kinds of guarantee are pinned:

   - arithmetic: the rational CI machinery (isqrt, sqrt_upper, ln_upper,
     Hoeffding) really produces upper bounds — checked against
     float references with slack only in the sound direction;
   - statistical: across the query corpus the exact Shapley/Banzhaf
     value lies inside every reported confidence interval (at a δ so
     small that a failure means a bug, not bad luck), and the familywise
     width is never narrower than the per-fact one;
   - determinism: the whole report is a function of the master seed —
     reruns and jobs counts are unobservable. *)

open Test_util

let qrst = Query_parse.parse "R(?x), S(?x,?y), T(?y)"

let values_equal v1 v2 =
  List.length v1 = List.length v2
  && List.for_all2
       (fun (f1, x1) (f2, x2) -> Fact.equal f1 f2 && Rational.equal x1 x2)
       v1 v2

(* ------------------------------------------------------------------ *)
(* Rational CI arithmetic                                              *)
(* ------------------------------------------------------------------ *)

let test_isqrt () =
  List.iter
    (fun (n, r) ->
       check_bigint
         (Printf.sprintf "isqrt %d" n)
         (Bigint.of_int r)
         (Bigint.isqrt (Bigint.of_int n)))
    [ (0, 0); (1, 1); (2, 1); (3, 1); (4, 2); (8, 2); (9, 3); (99, 9);
      (100, 10); (10_000, 100); (999_999, 999) ];
  Alcotest.check_raises "negative input"
    (Invalid_argument "Bigint.isqrt: negative argument") (fun () ->
        ignore (Bigint.isqrt (Bigint.of_int (-1))))

let prop_isqrt =
  qcheck ~count:300 "isqrt: s² <= n < (s+1)²"
    QCheck2.Gen.(
      triple (int_range 0 1_000_000) (int_range 0 1_000_000)
        (int_range 0 1_000_000))
    (fun (a, b, c) ->
       let n =
         Bigint.add (Bigint.mul (Bigint.of_int a) (Bigint.of_int b))
           (Bigint.of_int c)
       in
       let s = Bigint.isqrt n in
       Bigint.leq (Bigint.mul s s) n
       && Bigint.lt n (Bigint.mul (Bigint.succ s) (Bigint.succ s)))

let prop_sqrt_upper =
  qcheck ~count:300 "sqrt_upper: upper bound, tight to 1e-6"
    QCheck2.Gen.(pair (int_range 1 1_000_000) (int_range 1 1_000_000))
    (fun (a, b) ->
       let q = Rational.of_ints a b in
       let s = Rational.sqrt_upper q in
       Rational.leq q (Rational.mul s s)
       && Rational.to_float s <= sqrt (Rational.to_float q) +. 1e-6)

let prop_ln_upper =
  qcheck ~count:300 "ln_upper: upper bound, slack < 0.35"
    QCheck2.Gen.(pair (int_range 0 1_000_000) (int_range 1 1_000))
    (fun (a, b) ->
       (* x = 1 + a/b ranges over [1, 10^6] *)
       let x = Rational.add Rational.one (Rational.of_ints a b) in
       let u = Rational.to_float (Rational.ln_upper x) in
       let l = log (Rational.to_float x) in
       u >= l -. 1e-9 && u <= l +. 0.35)

let conf_95 = Rational.of_ints 19 20
let eps_05 = Rational.of_ints 1 20

let test_hoeffding () =
  let log_term = Sample.Bound.log_term ~confidence:conf_95 ~intervals:1 in
  let hw m = Sample.Bound.hoeffding ~range:Rational.one ~log_term ~m in
  Alcotest.(check bool) "m=768 converges at ε=1/20" true
    (Rational.leq (hw 768) eps_05);
  Alcotest.(check bool) "m=100 does not" false (Rational.leq (hw 100) eps_05);
  let widths = List.map hw [ 1; 2; 4; 16; 64; 256; 1024 ] in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> Rational.lt b a && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "strictly decreasing in m" true (decreasing widths);
  (* more simultaneous intervals ⇒ wider intervals (union bound) *)
  let lt16 = Sample.Bound.log_term ~confidence:conf_95 ~intervals:16 in
  Alcotest.(check bool) "union bound widens" true
    (Rational.lt (hw 256)
       (Sample.Bound.hoeffding ~range:Rational.one ~log_term:lt16 ~m:256))

(* ------------------------------------------------------------------ *)
(* Seeded PRNG                                                         *)
(* ------------------------------------------------------------------ *)

let test_rng () =
  let stream seed = List.init 100 (fun _ -> Sample.Rng.int (seed ()) 1000) in
  let fresh s () = Sample.Rng.create s in
  (* one shared generator per stream *)
  let draws s =
    let r = Sample.Rng.create s in
    List.init 100 (fun _ -> Sample.Rng.int r 1000)
  in
  ignore (stream (fresh 1));
  Alcotest.(check (list int)) "same seed, same stream" (draws 42) (draws 42);
  Alcotest.(check bool) "different seeds differ" false (draws 1 = draws 2);
  let path p =
    let r = Sample.Rng.of_path 7 p in
    List.init 50 (fun _ -> Sample.Rng.int r 1000)
  in
  Alcotest.(check bool) "substreams [1] vs [2] differ" false
    (path [ 1 ] = path [ 2 ]);
  Alcotest.(check (list int)) "substream is path-deterministic"
    (path [ 3; 4 ]) (path [ 3; 4 ]);
  let r = Sample.Rng.create 5 in
  Alcotest.(check bool) "int bound respected" true
    (List.for_all (fun _ -> let d = Sample.Rng.int r 7 in 0 <= d && d < 7)
       (List.init 1000 Fun.id));
  let trues =
    let r = Sample.Rng.create 11 in
    List.fold_left
      (fun acc _ -> if Sample.Rng.bool r then acc + 1 else acc)
      0 (List.init 1000 Fun.id)
  in
  Alcotest.(check bool) "bool roughly balanced" true
    (400 <= trues && trues <= 600);
  Alcotest.(check bool) "zero bound rejected" true
    (try ignore (Sample.Rng.int (Sample.Rng.create 0) 0); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Config hygiene                                                      *)
(* ------------------------------------------------------------------ *)

let test_validate () =
  let rejects name k =
    Alcotest.(check bool) name true
      (try ignore (k ()); false with Invalid_argument _ -> true)
  in
  rejects "epsilon 0" (fun () ->
      Sample.config ~epsilon:Rational.zero ());
  rejects "negative epsilon" (fun () ->
      Sample.config ~epsilon:(Rational.of_ints (-1) 20) ());
  rejects "confidence 1" (fun () -> Sample.config ~confidence:Rational.one ());
  rejects "confidence 0" (fun () ->
      Sample.config ~confidence:Rational.zero ());
  rejects "max_draws 0" (fun () -> Sample.config ~max_draws:0 ());
  Sample.validate Sample.default

let test_universe_guard () =
  let f1 = fact "R" [ "1" ] in
  Alcotest.(check bool) "lineage outside the universe" true
    (try
       ignore
         (Sample.shapley Sample.default ~universe:[] (Bform.Fv f1));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "duplicate fact in universe" true
    (try
       ignore
         (Sample.shapley Sample.default ~universe:[ f1; f1 ] (Bform.Fv f1));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* CI coverage: the exact value lies inside every reported interval     *)
(* ------------------------------------------------------------------ *)

(* δ = 10⁻⁶: any observed miss over 600 cases is a soundness bug, not a
   statistical fluke.  ε = 1/1000 keeps the budget (rather than
   convergence) the binding constraint, so the intervals are the widest
   the run reports. *)
let coverage_cfg seed =
  Sample.config ~seed
    ~epsilon:(Rational.of_ints 1 1000)
    ~confidence:(Rational.of_ints 999_999 1_000_000)
    ~max_draws:256 ()

let inside_ci (r : Sample.report) exact =
  Array.for_all
    (fun (e : Sample.estimate) ->
       let v = List.assoc e.Sample.fact exact in
       Rational.leq
         (Rational.abs (Rational.sub e.Sample.value v))
         e.Sample.half_width)
    r.Sample.estimates

let prop_ci_coverage =
  qcheck ~count:600 "exact Shapley value inside the reported CI"
    Gen.seed_gen
    (fun seed ->
       let q, db = Gen.random_case seed in
       let e = Engine.create ~backend:(`Sample (coverage_cfg seed)) q db in
       ignore (Engine.svc_all e);
       inside_ci
         (Option.get (Engine.sample_report e))
         (Svc.svc_all_naive q db))

let prop_banzhaf_coverage =
  qcheck ~count:150 "exact Banzhaf value inside the reported CI"
    Gen.seed_gen
    (fun seed ->
       let q, db = Gen.random_case seed in
       let e = Engine.create ~backend:(`Sample (coverage_cfg seed)) q db in
       ignore (Engine.banzhaf_all e);
       inside_ci
         (Option.get (Engine.sample_report e))
         (List.map
            (fun f -> (f, Svc.banzhaf q db f))
            (Database.endo_list db)))

(* ------------------------------------------------------------------ *)
(* Seeded determinism                                                  *)
(* ------------------------------------------------------------------ *)

let prop_determinism =
  qcheck ~count:60 "same seed ⇒ bit-identical values at any jobs count"
    Gen.seed_gen
    (fun seed ->
       let q, db = Gen.random_case seed in
       let cfg = coverage_cfg seed in
       let run jobs =
         let e = Engine.create ~jobs ~backend:(`Sample cfg) q db in
         let v = Engine.svc_all e in
         (v, Stats.normalize (Engine.stats e))
       in
       let v1, s1 = run 1 in
       let v4, s4 = run 4 in
       let v1', s1' = run 1 in
       let v4', s4' = run 4 in
       (* values are jobs-invariant; normalized stats are rerun-invariant
          at each jobs count (the jobs field itself legitimately differs
          across jobs counts) *)
       values_equal v1 v4 && values_equal v1 v1' && values_equal v4 v4'
       && s1 = s1' && s4 = s4')

(* the estimates really are a function of the seed: on a non-trivial
   instance, changing the seed changes the sampled permutations and so
   the pivot counts *)
let test_seed_matters () =
  let db = Gen.bipartite ~rows:2 in
  let run s =
    let cfg = Sample.config ~seed:s ~max_draws:128 () in
    Engine.svc_all (Engine.create ~backend:(`Sample cfg) qrst db)
  in
  Alcotest.(check bool) "seed 0 vs seed 1" false (values_equal (run 0) (run 1))

(* ------------------------------------------------------------------ *)
(* Stopping rule                                                       *)
(* ------------------------------------------------------------------ *)

let test_stopping () =
  let db = Gen.bipartite ~rows:2 in
  (* generous ε: one batch suffices and the loop stops there *)
  let loose =
    Sample.config ~seed:3 ~epsilon:Rational.one ~max_draws:4096 ()
  in
  let e = Engine.create ~backend:(`Sample loose) qrst db in
  ignore (Engine.svc_all e);
  let r = Option.get (Engine.sample_report e) in
  Alcotest.(check int) "stops after the first batch" 64 r.Sample.total_draws;
  Alcotest.(check bool) "converged" true r.Sample.all_converged;
  (* unreachable ε: the budget binds exactly, and the report says so *)
  let tight =
    Sample.config ~seed:3 ~epsilon:(Rational.of_ints 1 1_000_000)
      ~max_draws:100 ()
  in
  let e = Engine.create ~backend:(`Sample tight) qrst db in
  ignore (Engine.svc_all e);
  let r = Option.get (Engine.sample_report e) in
  Alcotest.(check int) "budget binds exactly" 100 r.Sample.total_draws;
  Alcotest.(check bool) "not converged" false r.Sample.all_converged;
  Alcotest.(check bool) "honest width: hw > ε" true
    (Rational.lt (Rational.of_ints 1 1_000_000) r.Sample.max_half_width)

(* ------------------------------------------------------------------ *)
(* Familywise width                                                    *)
(* ------------------------------------------------------------------ *)

(* At n = 1 the union bound changes nothing; from n = 2 on it is
   strictly wider (ln_upper overshoots ln by less than ln 2, so doubling
   its argument always raises it). *)
let test_familywise () =
  let run n =
    let universe = List.init n (fun i -> fact "R" [ string_of_int i ]) in
    Sample.shapley Sample.default ~universe
      (Bform.Or (List.map (fun f -> Bform.Fv f) universe))
  in
  let r = run 1 in
  check_rational "n = 1: familywise = per-fact" r.Sample.max_half_width
    r.Sample.familywise_half_width;
  List.iter
    (fun n ->
       let r = run n in
       Alcotest.(check bool)
         (Printf.sprintf "n = %d: familywise > per-fact" n)
         true
         (Rational.lt r.Sample.max_half_width r.Sample.familywise_half_width))
    [ 2; 16; 1000 ];
  let r = run 0 in
  check_rational "n = 0: no width" Rational.zero r.Sample.familywise_half_width

(* the stats pipeline reports what the sampler did *)
let test_stats_surface () =
  let db = Gen.bipartite ~rows:2 in
  let cfg = Sample.config ~seed:9 ~max_draws:128 () in
  let e = Engine.create ~backend:(`Sample cfg) qrst db in
  ignore (Engine.svc_all e);
  match (Engine.stats e).Stats.backend with
  | Stats.Sample x ->
    Alcotest.(check int) "seed" 9 x.seed;
    let r = Option.get (Engine.sample_report e) in
    Alcotest.(check int) "draws agree with the report" r.Sample.total_draws
      x.draws;
    Alcotest.(check string) "familywise width agrees with the report"
      (Rational.to_string r.Sample.familywise_half_width)
      x.familywise_hw;
    Alcotest.(check string) "epsilon echoed" "1/20" x.epsilon
  | Stats.Conditioning _ | Stats.Circuit _ ->
    Alcotest.fail "expected sample stats"

let suite =
  [
    Alcotest.test_case "isqrt: units and guard" `Quick test_isqrt;
    prop_isqrt;
    prop_sqrt_upper;
    prop_ln_upper;
    Alcotest.test_case "hoeffding width" `Quick test_hoeffding;
    Alcotest.test_case "seeded rng" `Quick test_rng;
    Alcotest.test_case "config validation" `Quick test_validate;
    Alcotest.test_case "universe guards" `Quick test_universe_guard;
    prop_ci_coverage;
    prop_banzhaf_coverage;
    prop_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_matters;
    Alcotest.test_case "stopping rule" `Quick test_stopping;
    Alcotest.test_case "stats surface" `Quick test_stats_surface;
    Alcotest.test_case "familywise half-width" `Quick test_familywise;
  ]
