(* Differential and metamorphic property suite for the d-DNNF circuit
   backend.

   The circuit engine must be bit-identical to the conditioning engine and
   to the per-fact Claim A.1 path ([Svc.svc_all_naive]) on every query
   class — exact [Rational] equality, no tolerance.  On top of the
   differentials: metamorphic invariances (fact insertion order,
   endogenous→exogenous relabeling, duplicate-clause idempotence), the
   circuit invariants themselves verified by the independent
   [Circuit.Check] verifier (decomposability, smoothness, determinism,
   equivalence to the compiled formula), and the instrumentation contract
   (zero conditionings, deterministic normalized stats, stable JSON
   shape). *)

open Test_util

let qrst = Query_parse.parse "R(?x), S(?x,?y), T(?y)"

let values_equal v1 v2 =
  List.length v1 = List.length v2
  && List.for_all2
       (fun (f1, x1) (f2, x2) -> Fact.equal f1 f2 && Rational.equal x1 x2)
       v1 v2

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let circuit_values q db =
  Engine.svc_all (Engine.create ~backend:`Circuit q db)

let conditioning_values q db =
  Engine.svc_all (Engine.create ~backend:`Conditioning q db)

(* a road RPQ from the registry: the 27-fact size-20 seed-1 road is the
   size of the batch benchmark's roads *)
let road ~size ~seed = Workload.generate ~family:"rpq-road" ~seed ~size

let road_lineage ~size ~seed =
  let case = road ~size ~seed in
  (Lineage.lineage case.Workload.query case.Workload.db,
   Database.endo_list case.Workload.db)

(* circuit ≡ conditioning ≡ naive per-fact path, across the query corpus *)
let prop_circuit_vs_conditioning_vs_naive =
  qcheck ~count:300 "circuit = conditioning = naive" Gen.seed_gen
    (fun seed ->
       let q, db = Gen.random_case seed in
       let via_circuit = circuit_values q db in
       values_equal via_circuit (conditioning_values q db)
       && values_equal via_circuit (Svc.svc_all_naive q db))

let prop_circuit_graph =
  qcheck ~count:100 "circuit on rpq graph instances" Gen.seed_gen
    (fun seed ->
       let q, db = Gen.random_graph_case seed in
       values_equal (circuit_values q db) (conditioning_values q db))

(* Fisher–Yates on the deterministic Workload rng, so qcheck shrinking
   stays reproducible. *)
let shuffle r l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Workload.int r (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

(* metamorphic: the order facts are listed in cannot matter — the same
   partitioned database rebuilt from shuffled lists yields the same
   values in the same (canonical) order *)
let prop_permutation_invariance =
  qcheck ~count:100 "fact-order permutation invariance" Gen.seed_gen
    (fun seed ->
       let q, db = Gen.random_case seed in
       let r = Workload.rng (seed + 1) in
       let db' =
         Database.make
           ~endo:(shuffle r (Fact.Set.elements (Database.endo db)))
           ~exo:(shuffle r (Fact.Set.elements (Database.exo db)))
       in
       values_equal (circuit_values q db) (circuit_values q db'))

(* metamorphic: relabel one endogenous fact as exogenous; the two backends
   must keep agreeing on the smaller game (exercises lineages with
   exogenous facts folded in as constants) *)
let prop_relabel_exogenous =
  qcheck ~count:60 "endogenous→exogenous relabeling" Gen.seed_gen
    (fun seed ->
       let q, db = Gen.random_case seed in
       match Database.endo_list db with
       | [] -> true
       | mu :: _ ->
         let db' = Database.make_exogenous mu db in
         let via_circuit = circuit_values q db' in
         values_equal via_circuit (conditioning_values q db')
         && values_equal via_circuit (Svc.svc_all_naive q db'))

(* metamorphic: conjoining or disjoining a lineage with itself changes
   nothing — the circuits of φ, φ∧φ and φ∨φ evaluate identically *)
let prop_duplicate_clause_idempotence =
  qcheck ~count:60 "duplicate-clause idempotence" Gen.seed_gen
    (fun seed ->
       let q, db = Gen.random_case seed in
       let phi = Lineage.lineage q db in
       let universe = Database.endo_list db in
       let eval f = Circuit.evaluate (Circuit.compile f) ~universe in
       let same (a : Circuit.evaluation) (b : Circuit.evaluation) =
         Poly.Z.equal a.Circuit.full b.Circuit.full
         && Array.for_all2
              (fun (f1, p1) (f2, p2) -> Fact.equal f1 f2 && Poly.Z.equal p1 p2)
              a.Circuit.by_fact b.Circuit.by_fact
       in
       let reference = eval phi in
       same reference (eval (Bform.conj [ phi; phi ]))
       && same reference (eval (Bform.disj [ phi; phi ])))

(* every compiled circuit passes the independent verifier, including the
   semantic equivalence check against the formula it was compiled from *)
let prop_check_invariants =
  qcheck ~count:100 "Check: smooth + decomposable + deterministic" Gen.seed_gen
    (fun seed ->
       let q, db = Gen.random_case seed in
       let phi = Lineage.lineage q db in
       let c = Circuit.compile phi in
       match Circuit.Check.check ~formula:phi c with
       | Ok r ->
         r.Circuit.Check.nodes_checked = Circuit.node_count c
         && r.Circuit.Check.assignments
            = 1 lsl Fact.Set.cardinal (Bform.vars phi)
       | Error msg -> QCheck2.Test.fail_report msg)

let prop_banzhaf_circuit =
  qcheck ~count:50 "circuit banzhaf = conditioning banzhaf" Gen.seed_gen
    (fun seed ->
       let q, db = Gen.random_case seed in
       values_equal
         (Engine.banzhaf_all (Engine.create ~backend:`Circuit q db))
         (Engine.banzhaf_all (Engine.create ~backend:`Conditioning q db)))

(* the tentpole contract: zero per-fact conditionings, one lineage
   compilation, a live circuit in the stats *)
let test_no_conditioning () =
  let db = Gen.star ~spokes:8 in
  let q = Query_parse.parse "R(?x), S(?x,?y)" in
  let e = Engine.create ~backend:`Circuit q db in
  Alcotest.(check bool) "resolved to circuit" true (Engine.backend e = `Circuit);
  ignore (Engine.svc_all e);
  let s = Engine.stats e in
  Alcotest.(check string) "backend" "circuit" (Stats.backend_name s);
  Alcotest.(check int) "one compilation" 1 s.Stats.compilations;
  Alcotest.(check int) "zero conditionings" 0 s.Stats.conditionings;
  (match s.Stats.backend with
   | Stats.Circuit c ->
     Alcotest.(check bool) "live nodes" true (c.nodes > 0);
     Alcotest.(check bool) "live edges" true (c.edges > 0)
   | Stats.Conditioning _ | Stats.Sample _ ->
     Alcotest.fail "expected circuit stats");
  (* a second pass reuses the cached evaluation wholesale *)
  ignore (Engine.svc_all e);
  let s2 = Engine.stats e in
  Alcotest.(check int) "still zero conditionings" 0 s2.Stats.conditionings;
  Alcotest.(check bool) "same circuit" true (s.Stats.backend = s2.Stats.backend)

(* `Auto resolution: circuit past the class floor when the planner
   predicts a small circuit, which a complete q_RST grid (24 facts, no
   two interchangeable) gets at every jobs; a star is two classes (hub
   and spokes) at any size, so it conditions once per class without a
   plan *)
let test_auto_selection () =
  let q = Query_parse.parse "R(?x), S(?x,?y)" in
  let big = Gen.bipartite ~rows:4 in
  let star = Gen.star ~spokes:26 in
  let small = Gen.star ~spokes:4 in
  let e_big = Engine.create qrst big in
  Alcotest.(check int) "grid: one class per fact" (Database.size_endo big)
    (Symmetry.count (Engine.classes e_big));
  Alcotest.(check bool) "big serial → circuit" true
    (Engine.backend e_big = `Circuit && Engine.auto_reason e_big <> None);
  let e_par = Engine.create ~jobs:2 qrst big in
  Alcotest.(check bool) "big parallel → circuit" true
    (Engine.backend e_par = `Circuit
     && Engine.auto_reason e_par = Engine.auto_reason e_big
     && Engine.plan e_par <> None);
  let e_star = Engine.create q star in
  Alcotest.(check bool) "star → conditioning per class, unplanned" true
    (Engine.backend e_star = `Conditioning
     && Engine.plan e_star = None
     && Symmetry.count (Engine.classes e_star) = 2);
  let e_small = Engine.create q small in
  Alcotest.(check bool) "small → conditioning" true
    (Engine.backend e_small = `Conditioning);
  let e_forced = Engine.create ~backend:`Conditioning qrst big in
  Alcotest.(check bool) "forced conditioning sticks" true
    (Engine.backend e_forced = `Conditioning && Engine.auto_reason e_forced = None);
  Alcotest.(check bool) "auto = explicit circuit" true
    (values_equal (Engine.svc_all e_big) (Engine.svc_all (Engine.create ~backend:`Circuit qrst big)));
  Alcotest.(check bool) "star: auto = explicit circuit" true
    (values_equal (Engine.svc_all e_star)
       (Engine.svc_all (Engine.create ~backend:`Circuit q star)));
  (* within the budget the rule never runs the trial *)
  let grid_plan = Plan.analyze (Engine.lineage e_big) in
  let n_big = Database.size_endo big in
  Alcotest.(check bool) "within budget: planned circuit, no trial" true
    (fst
       (Engine.auto_rule ~n_facts:n_big ~classes:n_big
          ~trial:(lazy (Alcotest.fail "trial forced within the budget"))
          (Lazy.from_val grid_plan))
     = `Circuit);
  (* past the budget the unplanned trial decides: a road predicted at
     ~2.3·10⁸ nodes compiles to a few hundred without the plan *)
  let r = road ~size:20 ~seed:1 in
  let e_road = Engine.create r.Workload.query r.Workload.db in
  let road_plan = Plan.analyze (Engine.lineage e_road) in
  Alcotest.(check bool) "road: predicted past the budget" true
    (road_plan.Plan.predicted_nodes > Plan.circuit_node_budget);
  Alcotest.(check bool) "road → unplanned circuit" true
    (Engine.backend e_road = `Circuit && Engine.plan e_road = None);
  let road_values = Engine.svc_all e_road in
  let nodes =
    match (Engine.stats e_road).Stats.backend with
    | Stats.Circuit c -> c.nodes
    | Stats.Conditioning _ | Stats.Sample _ ->
      Alcotest.fail "expected circuit stats"
  in
  let reason = Option.value ~default:"" (Engine.auto_reason e_road) in
  Alcotest.(check bool) "road reason names both node counts" true
    (contains_substring reason
       (Printf.sprintf "~%d predicted nodes" road_plan.Plan.predicted_nodes)
     && contains_substring reason (Printf.sprintf "with %d nodes" nodes));
  Alcotest.(check bool) "road: auto = conditioning" true
    (values_equal road_values
       (conditioning_values r.Workload.query r.Workload.db));
  let classes = Symmetry.count (Engine.classes e_road) in
  let n_road = Database.size_endo r.Workload.db in
  let overflowed, why =
    Engine.auto_rule ~n_facts:n_road ~classes ~trial:(lazy None)
      (Lazy.from_val road_plan)
  in
  Alcotest.(check bool) "overflowed trial → conditioning per class" true
    (overflowed = `Conditioning
     && contains_substring why "unplanned circuit overflowed"
     && contains_substring why "conditioning once per class")

(* Rebuilding one engine several times: each rebuild must answer as a
   cold engine does.  The road answers from the unplanned trial, compiled
   in [create] and without a plan, so its rebuilds plan afresh; the
   grid's planned circuit is compiled by its first answer.  Both circuits
   are compiled into the session [create] opened, and every rebuild
   appends to that one session. *)
let test_repeated_rebuilds () =
  let check (case : Workload.case) ~evaluate_first ~every =
    let e = Engine.create case.Workload.query case.Workload.db in
    Alcotest.(check bool) (case.Workload.cname ^ " → circuit") true
      (Engine.backend e = `Circuit);
    if evaluate_first then ignore (Engine.svc_all e);
    List.iteri
      (fun i f ->
         if i mod every = 0 then
           Alcotest.(check bool)
             (Printf.sprintf "%s without %s: rebuild = cold" case.Workload.cname
                (Fact.to_string f))
             true
             (values_equal
                (Engine.svc_all (Engine.update e (`Delete f)))
                (conditioning_values case.Workload.query
                   (Database.remove f case.Workload.db))))
      (Database.endo_list case.Workload.db)
  in
  check (road ~size:20 ~seed:1) ~evaluate_first:false ~every:4;
  check (Workload.generate ~family:"bipartite" ~seed:1 ~size:4)
    ~evaluate_first:true ~every:3

let same_polynomials (a : Circuit.evaluation) (b : Circuit.evaluation) =
  Poly.Z.equal a.Circuit.full b.Circuit.full
  && Array.length a.Circuit.by_fact = Array.length b.Circuit.by_fact
  && Array.for_all2
       (fun (f1, p1) (f2, p2) -> Fact.equal f1 f2 && Poly.Z.equal p1 p2)
       a.Circuit.by_fact b.Circuit.by_fact

let same_evaluation a b =
  same_polynomials a b && a.Circuit.poly_ops = b.Circuit.poly_ops

(* a bounded circuit compile cache changes counters, never answers *)
let test_bounded_circuit_cache () =
  let db = Gen.bipartite ~rows:3 in
  let phi = Lineage.lineage qrst db and universe = Database.endo_list db in
  let plan = Plan.analyze phi in
  let bounded = Circuit.compile ~plan ~cache_capacity:2 phi in
  let unbounded = Circuit.compile ~plan phi in
  Alcotest.(check bool) "same polynomials" true
    (same_polynomials
       (Circuit.evaluate bounded ~universe)
       (Circuit.evaluate unbounded ~universe));
  Alcotest.(check bool) "drops happened" true (Circuit.cache_drops bounded > 0);
  Alcotest.(check bool) "hits still happened" true
    (Circuit.cache_hits bounded > 0)

(* smoothing gadgets exist exactly when Shannon branches forget variables *)
let test_smoothing_counted () =
  let db = Gen.bipartite ~rows:3 in
  let c = Circuit.compile (Lineage.lineage qrst db) in
  Alcotest.(check bool) "smoothing nodes counted" true
    (Circuit.smoothing_nodes c > 0);
  match Circuit.Check.check c with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "verifier rejected smoothed circuit: %s" msg

(* Stats.normalize zeroes the span durations and nothing else, and the
   circuit backend's JSON carries exactly its pinned keys *)
let test_stats_normalize_and_json () =
  let db = Gen.star ~spokes:6 in
  let q = Query_parse.parse "R(?x), S(?x,?y)" in
  let run () =
    let e =
      Engine.create ~tel:(Telemetry.create ()) ~backend:`Circuit q db
    in
    ignore (Engine.svc_all e);
    Engine.stats e
  in
  let raw = run () in
  let s = Stats.normalize raw in
  Alcotest.(check bool) "spans recorded" true (Array.length s.Stats.spans > 0);
  Alcotest.(check bool) "span durations zeroed" true
    (Array.for_all (fun (_, _, d) -> d = 0.) s.Stats.spans);
  Alcotest.(check bool) "counters survive normalize" true
    ({ raw with Stats.spans = s.Stats.spans } = s);
  (* two runs of the same workload normalize identically *)
  Alcotest.(check string) "deterministic normalized JSON"
    (Stats.to_json s)
    (Stats.to_json (Stats.normalize (run ())));
  (* the JSON shape itself is a stable contract *)
  Alcotest.(check (list string)) "circuit JSON keys"
    (stats_json_keys "circuit") (json_keys (Stats.to_json s))

(* null players sit outside the circuit's variable set and still get
   Shapley value 0 through the padding path *)
let test_null_player () =
  let db =
    Database.make
      ~endo:[ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "T" [ "2" ];
              fact "Z" [ "9" ] ]
      ~exo:[]
  in
  let e = Engine.create ~backend:`Circuit qrst db in
  check_rational "null player value" Rational.zero (Engine.svc e (fact "Z" [ "9" ]));
  Alcotest.check_raises "not endogenous"
    (Invalid_argument "Engine.svc: fact is not endogenous") (fun () ->
        ignore (Engine.svc e (fact "T" [ "9" ])))

(* degenerate lineages: constant-true and constant-false circuits *)
let test_constant_lineages () =
  let q = Query_parse.parse "R(?x)" in
  (* true lineage: an exogenous R fact satisfies the query outright *)
  let db_true =
    Database.make ~endo:[ fact "S" [ "1"; "2" ] ] ~exo:[ fact "R" [ "1" ] ]
  in
  (* false lineage: no R fact at all *)
  let db_false = Database.make ~endo:[ fact "S" [ "1"; "2" ] ] ~exo:[] in
  List.iter
    (fun db ->
       Alcotest.(check bool) "constant lineage agrees" true
         (values_equal (circuit_values q db) (Svc.svc_all_naive q db)))
    [ db_true; db_false ];
  let c = Circuit.compile Bform.True in
  (match Circuit.Check.check ~formula:Bform.True c with
   | Ok r -> Alcotest.(check int) "⊤ circuit is one node" 1 r.Circuit.Check.nodes_checked
   | Error msg -> Alcotest.fail msg);
  Alcotest.(check int) "⊤ mentions nothing" 0 (Fact.Set.cardinal (Circuit.vars c))

(* a workload case answers the same under either exact backend *)
let test_workload_backend () =
  let c =
    Workload.case ~name:"star" ~query_src:"R(?x), S(?x,?y)"
      ~db:(Gen.star ~spokes:3)
  in
  let run backend =
    let e = Engine.create ~backend c.Workload.query c.Workload.db in
    (Engine.svc_all e, Engine.stats e)
  in
  let circuit_values, circuit_stats = run `Circuit in
  Alcotest.(check bool) "same values" true
    (values_equal circuit_values (fst (run `Conditioning)));
  Alcotest.(check string) "circuit stats backend" "circuit"
    (Stats.backend_name circuit_stats)

(* Check's max_vars guard refuses rather than silently skipping *)
let test_check_max_vars_guard () =
  let facts = List.init 10 (fun i -> fact "R" [ string_of_int i ]) in
  let phi = Bform.disj (List.map (fun f -> Bform.Fv f) facts) in
  let c = Circuit.compile phi in
  (match Circuit.Check.check ~max_vars:4 c with
   | Ok _ -> Alcotest.fail "expected Error from max_vars guard"
   | Error msg ->
     Alcotest.(check bool) "mentions the bound" true
       (contains_substring msg "10 > 4"));
  match Circuit.Check.check ~max_vars:10 c with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg

(* a universe that lists a fact twice would pad over its length, not
   over its facts: refused, on both rings *)
let test_repeated_universe_fact () =
  let a = fact "R" [ "a" ] in
  let c = Circuit.compile (Bform.Fv a) in
  let refused = Invalid_argument "Circuit.evaluate: the universe repeats a fact" in
  Alcotest.check_raises "native ring" refused (fun () ->
      ignore (Circuit.evaluate c ~universe:[ a; a ]));
  Alcotest.check_raises "Poly.Z ring" refused (fun () ->
      ignore (Circuit.For_tests.evaluate_poly_z c ~universe:[ a; a ]));
  check_zpoly "a listed once" Poly.Z.x (Circuit.evaluate c ~universe:[ a ]).Circuit.full

(* a session arena keeps every earlier compile's nodes; recompiling φ₁
   after φ₂ must cost exactly what the first φ₁ did, because the sweeps
   only visit what the root reaches *)
let test_session_skips_dead_nodes () =
  let instance seed =
    let case = Workload.generate ~family:"bipartite" ~seed ~size:4 in
    (Lineage.lineage case.Workload.query case.Workload.db,
     Database.endo_list case.Workload.db)
  in
  let phi1, universe = instance 23 in
  let phi2, _ = instance 11 in
  let session = Circuit.Session.create () in
  let first = Circuit.compile ~session phi1 in
  let second = Circuit.compile ~session phi2 in
  let third = Circuit.compile ~session phi1 in
  Alcotest.(check bool) "φ₂ is a real detour" true
    (Circuit.node_count second > Circuit.node_count first / 2);
  Alcotest.(check int) "same live circuit" (Circuit.node_count first)
    (Circuit.node_count third);
  let e1 = Circuit.evaluate first ~universe in
  let e3 = Circuit.evaluate third ~universe in
  Alcotest.(check int) "same poly_ops" e1.Circuit.poly_ops e3.Circuit.poly_ops;
  Alcotest.(check bool) "same polynomials" true (same_evaluation e1 e3)

(* a cap the build fits under changes nothing; one below the live size
   raises *)
let test_node_cap () =
  let phi, universe = road_lineage ~size:20 ~seed:1 in
  let free = Circuit.compile phi in
  let capped = Circuit.compile ~max_nodes:Plan.circuit_node_budget phi in
  Alcotest.(check (list int)) "same node, edge and smoothing counts"
    [ Circuit.node_count free; Circuit.edge_count free;
      Circuit.smoothing_nodes free ]
    [ Circuit.node_count capped; Circuit.edge_count capped;
      Circuit.smoothing_nodes capped ];
  Alcotest.(check bool) "same evaluation" true
    (same_evaluation
       (Circuit.evaluate free ~universe)
       (Circuit.evaluate capped ~universe));
  Alcotest.check_raises "cap of 60" Circuit.Node_cap (fun () ->
      ignore (Circuit.compile ~max_nodes:60 phi));
  Alcotest.check_raises "cap below the live size" Circuit.Node_cap (fun () ->
      ignore (Circuit.compile ~max_nodes:(Circuit.node_count free - 1) phi))

(* a build stopped at the cap leaves its session sound: recompiling the
   same road afterwards is a valid circuit with a fresh compile's
   polynomials (the session shares sub-circuits, so its ring-operation
   count may differ) *)
let test_node_cap_session () =
  let warm, _ = road_lineage ~size:12 ~seed:2 in
  let phi, universe = road_lineage ~size:20 ~seed:1 in
  let session = Circuit.Session.create () in
  ignore (Circuit.compile ~session warm : Circuit.t);
  Alcotest.check_raises "capped compile stops" Circuit.Node_cap (fun () ->
      ignore (Circuit.compile ~session ~max_nodes:60 phi));
  let again = Circuit.compile ~session phi in
  (* 27 variables are past the enumeration guard, which runs after the
     structural checks *)
  (match Circuit.Check.check again with
   | Ok _ -> ()
   | Error msg ->
     Alcotest.(check bool) ("only the enumeration guard: " ^ msg) true
       (contains_substring msg "too many variables"));
  Alcotest.(check bool) "same polynomials as a fresh compile" true
    (same_polynomials
       (Circuit.evaluate again ~universe)
       (Circuit.evaluate (Circuit.compile phi) ~universe))

(* a build stopped at the cap leaves its session as it found it: the
   arena keeps its length, and the next uncapped compile builds exactly
   what it builds in a session that never saw the stopped attempt — at a
   cap the arena does not grow past and at one it does *)
let test_node_cap_rollback () =
  let phi1, _ = road_lineage ~size:12 ~seed:2 in
  let phi2, universe = road_lineage ~size:20 ~seed:1 in
  let warm () =
    let session = Circuit.Session.create () in
    ignore (Circuit.compile ~session phi1 : Circuit.t);
    session
  in
  let clean = warm () in
  let base = Circuit.Session.nodes clean in
  let want = Circuit.compile ~session:clean phi2 in
  let built = Circuit.Session.nodes clean - base in
  List.iter
    (fun cap ->
       let session = warm () in
       Alcotest.check_raises
         (Printf.sprintf "cap %d stops the build" cap)
         Circuit.Node_cap
         (fun () -> ignore (Circuit.compile ~session ~max_nodes:cap phi2));
       Alcotest.(check int) "arena length unchanged" base
         (Circuit.Session.nodes session);
       let got = Circuit.compile ~session phi2 in
       Alcotest.(check (list int)) "same nodes, reuse and arena"
         [ Circuit.node_count want; Circuit.reused_nodes want;
           Circuit.Session.nodes clean ]
         [ Circuit.node_count got; Circuit.reused_nodes got;
           Circuit.Session.nodes session ];
       Alcotest.(check bool) "same evaluation" true
         (same_evaluation
            (Circuit.evaluate want ~universe)
            (Circuit.evaluate got ~universe)))
    [ 60; built - 1 ]

let both_rings_agree c ~universe =
  same_evaluation
    (Circuit.evaluate c ~universe)
    (Circuit.For_tests.evaluate_poly_z c ~universe)

(* one random insert or delete of an endogenous fact over the default
   schema *)
let random_edit r db =
  match Database.endo_list db with
  | endo when endo <> [] && Workload.int r 2 = 0 ->
    Database.remove (Workload.pick r endo) db
  | _ ->
    let rel, arity = Workload.pick r Gen.default_rels in
    let f = fact rel (List.init arity (fun _ -> Workload.pick r Gen.default_consts)) in
    if Database.mem f db then db else Database.add_endo f db

(* the native-int ring and Poly.Z return the same evaluation, poly_ops
   included: on fresh circuits, and along a session chain of edits whose
   arena accumulates dead nodes *)
let prop_native_ring_vs_poly_z =
  qcheck ~count:300 "native ring = Poly.Z ring" Gen.seed_gen (fun seed ->
      let q, db = Gen.random_case seed in
      let r = Workload.rng (seed + 1) in
      let session = Circuit.Session.create () in
      let rec chain db steps =
        let phi = Lineage.lineage q db in
        let universe = Database.endo_list db in
        both_rings_agree (Circuit.compile phi) ~universe
        && both_rings_agree (Circuit.compile ~session phi) ~universe
        && (steps = 0 || chain (random_edit r db) (steps - 1))
      in
      chain db 4)

(* R(?x) over n endogenous facts: C(φ) = (1+z)^n − 1 and every fact's
   C(φ[μ:=1]) = (1+z)^(n−1), whose middle coefficients reach C(61,30) ≈
   2.3·10¹⁷; 61 facts is the largest universe on the native ring, 62 the
   smallest on Poly.Z *)
let test_ring_boundary n () =
  let db =
    Database.make ~endo:(List.init n (fun i -> fact "R" [ string_of_int i ])) ~exo:[]
  in
  let c = Circuit.compile (Lineage.lineage (Query_parse.parse "R(?x)") db) in
  let universe = Database.endo_list db in
  let row k = Array.to_list (Bigint.binomial_row k) in
  let ev = Circuit.evaluate c ~universe in
  check_zpoly "full" (Poly.Z.of_coeffs (Bigint.zero :: List.tl (row n))) ev.Circuit.full;
  let with_mu = Poly.Z.of_coeffs (row (n - 1)) in
  Alcotest.(check int) "one entry per fact" n (Array.length ev.Circuit.by_fact);
  Array.iter (fun (_, p) -> check_zpoly "by_fact" with_mu p) ev.Circuit.by_fact;
  Alcotest.(check bool) "same as Poly.Z" true (both_rings_agree c ~universe)

let suite =
  [
    prop_circuit_vs_conditioning_vs_naive;
    prop_circuit_graph;
    prop_permutation_invariance;
    prop_relabel_exogenous;
    prop_duplicate_clause_idempotence;
    prop_check_invariants;
    prop_banzhaf_circuit;
    Alcotest.test_case "no per-fact conditioning" `Quick test_no_conditioning;
    Alcotest.test_case "auto backend selection" `Quick test_auto_selection;
    Alcotest.test_case "bounded circuit cache drops, never lies" `Quick
      test_bounded_circuit_cache;
    Alcotest.test_case "smoothing counted and verified" `Quick
      test_smoothing_counted;
    Alcotest.test_case "stats normalize + JSON shape" `Quick
      test_stats_normalize_and_json;
    Alcotest.test_case "null player via padding" `Quick test_null_player;
    Alcotest.test_case "constant lineages" `Quick test_constant_lineages;
    Alcotest.test_case "workload backend" `Quick test_workload_backend;
    Alcotest.test_case "Check max_vars guard" `Quick test_check_max_vars_guard;
    Alcotest.test_case "evaluate rejects a repeated universe fact" `Quick
      test_repeated_universe_fact;
    Alcotest.test_case "session circuit skips unreachable nodes" `Quick
      test_session_skips_dead_nodes;
    prop_native_ring_vs_poly_z;
    Alcotest.test_case "ring boundary: 61 facts (native)" `Quick
      (test_ring_boundary 61);
    Alcotest.test_case "ring boundary: 62 facts (Poly.Z)" `Quick
      (test_ring_boundary 62);
    Alcotest.test_case "repeated rebuilds of one circuit engine" `Quick
      test_repeated_rebuilds;
    Alcotest.test_case "node cap: fits or raises" `Quick test_node_cap;
    Alcotest.test_case "node cap leaves the session sound" `Quick
      test_node_cap_session;
    Alcotest.test_case "node cap rolls its build back" `Quick
      test_node_cap_rollback;
  ]
