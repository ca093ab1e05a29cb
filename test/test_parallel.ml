(* Differential/metamorphic suite for the multicore parallel engine and
   the [lib/parallel] fork/join pool.

   The parallel engine's contract is that [jobs] is unobservable in the
   answers: for every (query, database), jobs ∈ {1, 2, 4} produce lists
   that are structurally equal to each other and to the pre-engine
   per-fact oracle [Svc.svc_all_naive] — same facts, same order, same
   rationals.  On top of the differentials: a determinism regression
   (two jobs=4 runs are identical, values and normalized stats), a check
   that [jobs] leaves the [`Auto] resolution alone, and a unit suite for
   the pool itself (degenerate shapes, exception propagation without
   wedging). *)

open Test_util

let values_equal v1 v2 =
  List.length v1 = List.length v2
  && List.for_all2
       (fun (f1, x1) (f2, x2) -> Fact.equal f1 f2 && Rational.equal x1 x2)
       v1 v2

(* ------------------------------------------------------------------ *)
(* Pool unit suite                                                     *)
(* ------------------------------------------------------------------ *)

let test_pool_empty () =
  Alcotest.(check (array int)) "no slots, empty out" [||]
    (Pool.run 0 (fun _ -> Alcotest.fail "no slot may run"))

let test_pool_single () =
  let caller = Domain.self () in
  Alcotest.(check (array bool)) "one slot, run in the caller" [| true |]
    (Pool.run 1 (fun _ -> Domain.self () = caller))

let test_pool_matches_array_init () =
  List.iter
    (fun slots ->
       Alcotest.(check (array int))
         (Printf.sprintf "%d slots" slots)
         (Array.init slots (fun i -> (i * i) - 3))
         (Pool.run slots (fun i -> (i * i) - 3)))
    [ 0; 1; 2; 4 ];
  let caller = (Domain.self () :> int) in
  let ids = Pool.run 4 (fun _ -> (Domain.self () :> int)) in
  Alcotest.(check int) "slot 0 runs in the caller" caller ids.(0);
  Alcotest.(check int) "one domain per slot" 4
    (List.length (List.sort_uniq compare (Array.to_list ids)))

(* Slots 1 and 2 both raise, slot 2 first in time: [run] reports slot 1,
   and only after joining slot 3, which is still running when slot 1
   raises. *)
let test_pool_exception () =
  let two_raised = Atomic.make false and one_raised = Atomic.make false in
  let three_done = Atomic.make false in
  let await flag = while not (Atomic.get flag) do Domain.cpu_relax () done in
  let slot = function
    | 1 ->
      await two_raised;
      Atomic.set one_raised true;
      failwith "slot 1"
    | 2 ->
      Atomic.set two_raised true;
      failwith "slot 2"
    | 3 ->
      await one_raised;
      let acc = ref 0 in
      for i = 1 to 2_000_000 do acc := Sys.opaque_identity (!acc + i) done;
      Atomic.set three_done true;
      3
    | i -> i
  in
  Alcotest.check_raises "the lowest-numbered slot's exception"
    (Failure "slot 1") (fun () -> ignore (Pool.run 4 slot));
  Alcotest.(check bool) "every domain joined before the raise" true
    (Atomic.get three_done);
  Alcotest.(check (array int)) "the next run succeeds" [| 0; 1; 2; 3 |]
    (Pool.run 4 Fun.id)

let test_pool_guards () =
  Alcotest.check_raises "negative slot count"
    (Invalid_argument "Pool.run: slots must be >= 0") (fun () ->
        ignore (Pool.run (-1) Fun.id));
  Alcotest.(check bool) "recommended_domains >= 1" true
    (Pool.recommended_domains () >= 1)

(* The bench JSONs' "skipped" field is machine-read by CI tooling; pin
   the exact strings so a rewording shows up as a test failure, not as
   a silently broken artifact consumer. *)
let test_bench_gate_shape () =
  let check = Alcotest.(check (option string)) in
  check "1-domain host, no cap" (Some "host_domains=1")
    (Pool.bench_gate ~required:4 ~host:1 ~cap:None);
  check "host check outranks the cap" (Some "host_domains=1")
    (Pool.bench_gate ~required:4 ~host:1 ~cap:(Some 20));
  check "capped smoke run on a capable host" (Some "cap=20")
    (Pool.bench_gate ~required:4 ~host:4 ~cap:(Some 20));
  check "enforceable gate" None (Pool.bench_gate ~required:4 ~host:8 ~cap:None)

(* ------------------------------------------------------------------ *)
(* Differential properties: jobs is unobservable in the values         *)
(* ------------------------------------------------------------------ *)

let prop_jobs_vs_naive =
  qcheck ~count:200 "svc_all jobs∈{1,2,4} = naive oracle" Gen.seed_gen
    (fun seed ->
       let q, db = Gen.random_case seed in
       let naive = Svc.svc_all_naive q db in
       List.for_all
         (fun jobs -> values_equal naive (Svc.svc_all ~jobs q db))
         [ 1; 2; 4 ])

let prop_jobs_vs_naive_graph =
  qcheck ~count:100 "parallel engine on rpq graph instances" Gen.seed_gen
    (fun seed ->
       let q, db = Gen.random_graph_case seed in
       let naive = Svc.svc_all_naive q db in
       List.for_all
         (fun jobs -> values_equal naive (Svc.svc_all ~jobs q db))
         [ 2; 4 ])

let prop_banzhaf_parallel =
  qcheck ~count:60 "parallel banzhaf_all = per-fact banzhaf" Gen.seed_gen
    (fun seed ->
       let q, db = Gen.random_case seed in
       let e = Engine.create ~jobs:4 q db in
       values_equal (Engine.banzhaf_all e)
         (List.map (fun f -> (f, Svc.banzhaf q db f)) (Database.endo_list db)))

(* jobs=0 resolves to the host's core count *)
let prop_auto_jobs =
  qcheck ~count:40 "jobs=0 auto" Gen.seed_gen
    (fun seed ->
       let q, db = Gen.random_case seed in
       let auto = Engine.create ~jobs:0 q db in
       Engine.jobs auto >= 1
       && values_equal (Svc.svc_all_naive q db) (Engine.svc_all auto))

(* `Auto is one function at every jobs: on every registry family the
   resolved backend and the rule's reason at jobs ∈ {2, 4} equal those at
   jobs = 1 *)
let prop_auto_same_at_every_jobs =
  qcheck ~count:100 "auto resolves the same at every jobs"
    QCheck2.Gen.(pair (int_range 1 3) (int_range 1 4))
    (fun (seed, size) ->
       List.for_all
         (fun (fam : Workload.Family.t) ->
            let c = Workload.generate ~family:fam.name ~seed ~size in
            let resolve jobs =
              let e = Engine.create ~jobs c.Workload.query c.Workload.db in
              (Engine.backend e, Engine.auto_reason e)
            in
            let serial = resolve 1 in
            List.for_all
              (fun jobs ->
                 resolve jobs = serial
                 || QCheck2.Test.fail_reportf
                      "%s seed %d size %d: jobs=%d resolves unlike jobs=1"
                      fam.name seed size jobs)
              [ 2; 4 ])
         (Workload.families ()))

(* ------------------------------------------------------------------ *)
(* Determinism regression: two jobs=4 runs of the same workload are    *)
(* identical — ordered values and every deterministic stats field      *)
(* ------------------------------------------------------------------ *)

let test_determinism_regression () =
  let run (c : Workload.case) =
    let e = Engine.create ~jobs:4 c.Workload.query c.Workload.db in
    let values = Engine.svc_all e in
    (values, Engine.stats e)
  in
  List.iter
    (fun (c : Workload.case) ->
       let v1, s1 = run c and v2, s2 = run c in
       Alcotest.(check bool)
         (c.Workload.cname ^ ": identical ordered values") true
         (values_equal v1 v2);
       Alcotest.(check bool)
         (c.Workload.cname ^ ": identical deterministic stats")
         true
         (Stats.normalize s1 = Stats.normalize s2))
    [ Workload.case ~name:"star" ~query_src:"R(?x), S(?x,?y)"
        ~db:(Gen.star ~spokes:7);
      Workload.case ~name:"rst" ~query_src:"R(?x), S(?x,?y), T(?y)"
        ~db:(Gen.bipartite ~rows:3) ]

(* the parallel stats contract: every fact evaluated exactly once across
   the domain slots under the explicit conditioning backend, n+1
   conditionings as in the serial engine, one slot record per worker;
   under `Auto the slots share out the class representatives instead,
   and two classes at jobs 4 run two slots *)
let test_parallel_stats_shape () =
  let db = Gen.star ~spokes:9 in
  let q = Query_parse.parse "R(?x), S(?x,?y)" in
  let e = Engine.create ~jobs:4 ~backend:`Conditioning q db in
  ignore (Engine.svc_all e);
  let s = Engine.stats e in
  let n = Database.size_endo db in
  Alcotest.(check int) "jobs" 4 s.Stats.jobs;
  Alcotest.(check int) "one slot per worker" 4
    (match s.Stats.backend with
     | Stats.Conditioning c -> Array.length c.domains
     | Stats.Circuit _ | Stats.Sample _ -> 0);
  Alcotest.(check int) "every fact evaluated once" n (Stats.par_facts s);
  Alcotest.(check int) "one compilation" 1 s.Stats.compilations;
  Alcotest.(check int) "n+1 conditionings" (n + 1) s.Stats.conditionings;
  Alcotest.(check bool) "per-domain caches did work" true (Stats.par_misses s > 0);
  let auto = Engine.create ~jobs:4 q db in
  let values = Engine.svc_all auto in
  let s = Engine.stats auto in
  Alcotest.(check int) "auto: hub and spokes are two classes" 2
    (Symmetry.count (Engine.classes auto));
  Alcotest.(check int) "auto: one slot per class, not per job" 2
    (match s.Stats.backend with
     | Stats.Conditioning c -> Array.length c.domains
     | Stats.Circuit _ | Stats.Sample _ -> 0);
  Alcotest.(check int) "auto: jobs as configured" 4 s.Stats.jobs;
  Alcotest.(check int) "auto: every class evaluated once" 2 (Stats.par_facts s);
  Alcotest.(check int) "auto: classes+1 conditionings" 3 s.Stats.conditionings;
  Alcotest.(check bool) "auto: same values" true
    (List.for_all2
       (fun (f, v) (f', v') -> Fact.equal f f' && Rational.equal v v')
       values (Engine.svc_all e))

(* ------------------------------------------------------------------ *)
(* Compile padding-polynomial memoization is referentially transparent *)
(* (its table is domain-local, so this also holds inside workers)      *)
(* ------------------------------------------------------------------ *)

let prop_one_plus_z_pow_transparent =
  qcheck ~count:100 "one_plus_z_pow k = (1+z)^k, stable across calls"
    QCheck2.Gen.(int_range 0 60)
    (fun k ->
       let expected =
         Poly.Z.of_coeffs (Array.to_list (Bigint.binomial_row k))
       in
       Poly.Z.equal expected (Compile.one_plus_z_pow k)
       && Poly.Z.equal (Compile.one_plus_z_pow k) (Compile.one_plus_z_pow k))

let test_one_plus_z_pow_in_domains () =
  (* the memo table is domain-local: a fresh domain starts cold and still
     answers identically *)
  let ks = [ 0; 1; 5; 17 ] in
  let here = List.map Compile.one_plus_z_pow ks in
  let there =
    Domain.join (Domain.spawn (fun () -> List.map Compile.one_plus_z_pow ks))
  in
  List.iter2 (check_zpoly "same polynomial across domains") here there

let suite =
  [
    Alcotest.test_case "pool: empty array" `Quick test_pool_empty;
    Alcotest.test_case "pool: single item" `Quick test_pool_single;
    Alcotest.test_case "pool: run = Array.init" `Quick
      test_pool_matches_array_init;
    Alcotest.test_case "pool: exceptions propagate, pool survives" `Quick
      test_pool_exception;
    Alcotest.test_case "pool: guards" `Quick test_pool_guards;
    Alcotest.test_case "bench_gate skip-reason shape" `Quick
      test_bench_gate_shape;
    prop_jobs_vs_naive;
    prop_jobs_vs_naive_graph;
    prop_banzhaf_parallel;
    prop_auto_jobs;
    prop_auto_same_at_every_jobs;
    Alcotest.test_case "determinism regression at jobs=4" `Quick
      test_determinism_regression;
    Alcotest.test_case "parallel stats shape" `Quick test_parallel_stats_shape;
    prop_one_plus_z_pow_transparent;
    Alcotest.test_case "padding memo is domain-local" `Quick
      test_one_plus_z_pow_in_domains;
  ]
