(* The certified compilation planner (lib/plan) and its independent
   verifier (Plancheck).

   Three layers: (1) the bipartite acceptance instance — the plan's
   branch order must cut the n=24 complete-bipartite q_RST circuit well
   below half its unplanned size, and the certificate must verify;
   (2) mutation tests — Plancheck rejects certificates whose partition,
   orders or width claims are wrong, while accepting honestly weaker
   width bounds; (3) qcheck differentials — on 500+ random instances the
   plan certificate verifies, the plan-steered circuit passes the
   independent Circuit.Check against its own formula, and the circuit
   backend's values match conditioning exactly. *)

open Test_util

let qrst = Query_parse.parse "R(?x), S(?x,?y), T(?y)"

let values_equal v1 v2 =
  List.length v1 = List.length v2
  && List.for_all2
       (fun (f1, x1) (f2, x2) -> Fact.equal f1 f2 && Rational.equal x1 x2)
       v1 v2

let plancheck_ok phi plan =
  match Plancheck.check phi plan with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "plancheck rejected honest plan: %s" msg

let plancheck_rejects what phi plan =
  match Plancheck.check phi plan with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "plancheck accepted %s" what

(* ---- the acceptance instance: complete bipartite q_RST, rows = 4 ---- *)

(* ISSUE 6 acceptance: the plan-driven circuit for the n=24 instance
   must land at or below 1087 nodes (half the 2174-node unplanned
   Shannon expansion).  The pseudo-tree branch order gives 565. *)
let test_bipartite_plan () =
  let db = Gen.bipartite ~rows:4 in
  let phi = Lineage.lineage qrst db in
  let plan = Plan.analyze phi in
  Alcotest.(check int) "all 24 variables covered" 24 plan.Plan.n_vars;
  Alcotest.(check int) "one AND-component" 1 (Plan.component_count plan);
  plancheck_ok phi plan;
  let plain = Circuit.compile phi in
  let planned = Circuit.compile ~plan phi in
  let n_plain = Circuit.node_count plain in
  let n_planned = Circuit.node_count planned in
  Alcotest.(check bool)
    (Printf.sprintf "planned %d <= 1087 (plain %d)" n_planned n_plain)
    true
    (n_planned <= 1087 && n_planned * 2 <= n_plain);
  (* the certificate's size prediction is an upper bound here *)
  Alcotest.(check bool)
    (Printf.sprintf "planned %d <= predicted %d" n_planned
       plan.Plan.predicted_nodes)
    true
    (n_planned <= plan.Plan.predicted_nodes)

(* the planned circuit still computes the right thing end to end *)
let test_bipartite_values () =
  let db = Gen.bipartite ~rows:3 in
  let circuit = Engine.create ~backend:`Circuit qrst db in
  let conditioning = Engine.create ~backend:`Conditioning qrst db in
  Alcotest.(check bool) "circuit = conditioning on rows=3" true
    (values_equal (Engine.svc_all circuit) (Engine.svc_all conditioning));
  match Engine.plan circuit with
  | None -> Alcotest.fail "circuit engine carries no plan"
  | Some plan -> plancheck_ok (Lineage.lineage qrst db) plan

(* ---- multi-component split: constant atoms decouple the root And ---- *)

let test_multi_component () =
  let db = Gen.bipartite ~rows:2 in
  (* R(l0) ∧ T(r1) shares no variables across the two conjuncts, so the
     root And splits into two independent components. *)
  let q = Query_parse.parse "R(l0), T(r1)" in
  let phi = Lineage.lineage q db in
  let plan = Plan.analyze phi in
  Alcotest.(check int) "two components" 2 (Plan.component_count plan);
  plancheck_ok phi plan;
  let planned = Circuit.compile ~plan phi in
  (match Circuit.Check.check ~formula:phi planned with
   | Ok _ -> ()
   | Error msg -> Alcotest.failf "multi-component circuit invalid: %s" msg);
  let circuit = Engine.create ~backend:`Circuit q db in
  let conditioning = Engine.create ~backend:`Conditioning q db in
  Alcotest.(check bool) "values agree across the split" true
    (values_equal (Engine.svc_all circuit) (Engine.svc_all conditioning))

(* a constant lineage has no variables and no components *)
let test_constant_lineage () =
  let db =
    Database.make ~endo:[ fact "Z" [ "9" ] ] ~exo:[ fact "R" [ "1" ] ]
  in
  let phi = Lineage.lineage (Query_parse.parse "R(1)") db in
  let plan = Plan.analyze phi in
  Alcotest.(check int) "no variables" 0 plan.Plan.n_vars;
  Alcotest.(check int) "no components" 0 (Plan.component_count plan);
  plancheck_ok phi plan

(* ---- Plancheck mutation rejections ---- *)

let bipartite_plan rows =
  let db = Gen.bipartite ~rows in
  let phi = Lineage.lineage qrst db in
  (phi, Plan.analyze phi)

let test_reject_understated_width () =
  let phi, plan = bipartite_plan 3 in
  let weakened =
    { plan with
      Plan.components =
        List.map
          (fun c -> { c with Plan.width = c.Plan.width - 1 })
          plan.Plan.components;
    }
  in
  plancheck_rejects "an understated width" phi weakened

let test_accept_overstated_width () =
  let phi, plan = bipartite_plan 3 in
  let overstated =
    { plan with
      Plan.components =
        List.map
          (fun c -> { c with Plan.width = c.Plan.width + 1 })
          plan.Plan.components;
      max_width = plan.Plan.max_width + 1;
      (* keep predicted_nodes consistent with the weaker claim *)
      predicted_nodes =
        List.fold_left
          (fun acc c ->
             acc
             + (List.length c.Plan.cvars + 1)
               * (1 lsl min (c.Plan.width + 2) 24))
          0 plan.Plan.components;
    }
  in
  match Plancheck.check phi overstated with
  | Ok _ -> ()
  | Error msg ->
    Alcotest.failf "overstated width is a valid weaker bound: %s" msg

let test_reject_order_not_permutation () =
  let phi, plan = bipartite_plan 2 in
  let mangle c =
    match c.Plan.order with
    | v :: _ :: rest -> { c with Plan.order = v :: v :: rest }
    | _ -> c
  in
  plancheck_rejects "a duplicated order entry" phi
    { plan with Plan.components = List.map mangle plan.Plan.components }

let test_reject_branch_not_permutation () =
  let phi, plan = bipartite_plan 2 in
  let mangle c =
    match c.Plan.branch with
    | _ :: rest -> { c with Plan.branch = rest }
    | [] -> c
  in
  plancheck_rejects "a branch order missing a variable" phi
    { plan with Plan.components = List.map mangle plan.Plan.components }

let test_reject_merged_components () =
  let db = Gen.bipartite ~rows:2 in
  let q = Query_parse.parse "R(l0), T(r1)" in
  let phi = Lineage.lineage q db in
  let plan = Plan.analyze phi in
  let merged =
    match plan.Plan.components with
    | [ a; b ] ->
      let cvars = List.sort Fact.compare (a.Plan.cvars @ b.Plan.cvars) in
      { plan with
        Plan.components =
          [ { a with
              Plan.cvars;
              order = a.Plan.order @ b.Plan.order;
              branch = a.Plan.branch @ b.Plan.branch;
            } ];
      }
    | _ -> Alcotest.fail "expected exactly two components"
  in
  plancheck_rejects "a merged component partition" phi merged

let test_reject_wrong_n_vars () =
  let phi, plan = bipartite_plan 2 in
  plancheck_rejects "a wrong n_vars" phi
    { plan with Plan.n_vars = plan.Plan.n_vars + 1 }

let test_reject_wrong_prediction () =
  let phi, plan = bipartite_plan 2 in
  plancheck_rejects "an inconsistent predicted_nodes" phi
    { plan with Plan.predicted_nodes = plan.Plan.predicted_nodes + 1 }

(* ---- qcheck: the satellite differentials over random instances ---- *)

(* 500+ random instances: the certificate verifies, the plan-steered
   circuit passes the independent checker against its own formula, and
   the circuit backend's Shapley values equal conditioning's. *)
let prop_planned_circuits =
  qcheck ~count:500 "planned circuit checks + matches conditioning"
    Gen.seed_gen (fun seed ->
        let q, db = Gen.random_case seed in
        let phi = Lineage.lineage q db in
        let plan = Plan.analyze phi in
        let cert_ok = Result.is_ok (Plancheck.check phi plan) in
        let circuit = Circuit.compile ~plan phi in
        let circuit_ok =
          Result.is_ok (Circuit.Check.check ~formula:phi circuit)
        in
        let circ = Engine.create ~backend:`Circuit q db in
        let cond = Engine.create ~backend:`Conditioning q db in
        cert_ok && circuit_ok
        && values_equal (Engine.svc_all circ) (Engine.svc_all cond))

(* both heuristics produce verifiable certificates, not just Best *)
let prop_heuristics_verify =
  qcheck ~count:200 "min-degree and min-fill plans verify" Gen.seed_gen
    (fun seed ->
       let q, db = Gen.random_case seed in
       let phi = Lineage.lineage q db in
       List.for_all
         (fun h ->
            Result.is_ok
              (Plancheck.check phi (Plan.analyze ~heuristic:h phi)))
         [ Plan.Min_degree; Plan.Min_fill; Plan.Best ])

(* random mutations: dropping a variable from any nonempty component's
   order always breaks the permutation clause *)
let prop_mutated_plans_rejected =
  qcheck ~count:200 "plancheck rejects truncated orders" Gen.seed_gen
    (fun seed ->
       let q, db = Gen.random_case seed in
       let phi = Lineage.lineage q db in
       let plan = Plan.analyze phi in
       match plan.Plan.components with
       | [] -> true (* constant lineage: nothing to mutate *)
       | c :: rest ->
         let truncated =
           { plan with
             Plan.components =
               { c with Plan.order = List.tl c.Plan.order } :: rest;
           }
         in
         Result.is_error (Plancheck.check phi truncated))

(* ---- the min-fill pick against an unbounded reference ---- *)

(* The min-fill elimination order by definition: at every step each live
   vertex's whole fill (pairs of live neighbours not yet adjacent) is
   counted, and the first vertex of minimum (fill, degree) in [cvars]
   order goes. *)
let reference_min_fill cvars cliques =
  let vars = Array.of_list cvars in
  let m = Array.length vars in
  let index f =
    let rec go i = if Fact.equal vars.(i) f then i else go (i + 1) in
    go 0
  in
  let adj = Array.make_matrix m m false in
  List.iter
    (fun cl ->
       let ids =
         List.map index
           (List.filter (fun f -> List.exists (Fact.equal f) cvars)
              (Fact.Set.elements cl))
       in
       List.iter
         (fun a -> List.iter (fun b -> if a <> b then adj.(a).(b) <- true) ids)
         ids)
    cliques;
  let alive = Array.make m true in
  let nbrs v = List.filter (fun w -> alive.(w) && adj.(v).(w)) (List.init m Fun.id) in
  let key v =
    let ns = nbrs v in
    let rec fill = function
      | [] -> 0
      | a :: rest ->
        List.length (List.filter (fun b -> not adj.(a).(b)) rest) + fill rest
    in
    (fill ns, List.length ns)
  in
  List.init m (fun _ ->
      let best = ref (-1) in
      for v = m - 1 downto 0 do
        if alive.(v) && (!best < 0 || key v <= key !best) then best := v
      done;
      let v = !best and ns = nbrs !best in
      List.iter (fun a -> List.iter (fun b -> if a <> b then adj.(a).(b) <- true) ns) ns;
      alive.(v) <- false;
      vars.(v))

(* Lineages with hubs and ties: random positive DNFs over up to 14
   variables, sometimes conjoined into several AND-components, and
   registry instances (stars, grids, road RPQs, CQ¬) of sizes 1-8. *)
let random_lineage seed =
  let r = Workload.rng seed in
  if Workload.int r 2 = 0 then
    let family = Workload.pick r [ "star"; "bipartite"; "rpq-road"; "cqneg"; "crpq" ] in
    let case = Workload.generate ~family ~seed:(Workload.int r 100) ~size:(1 + Workload.int r 8) in
    Lineage.lineage case.Workload.query case.Workload.db
  else
    let n = 2 + Workload.int r 13 in
    let var () = Bform.fv (fact "V" [ string_of_int (Workload.int r n) ]) in
    let dnf () =
      Bform.disj
        (List.init (1 + Workload.int r 10) (fun _ ->
             Bform.conj (List.init (1 + Workload.int r 4) (fun _ -> var ()))))
    in
    Bform.conj (List.init (1 + Workload.int r 2) (fun _ -> dnf ()))

let prop_min_fill_reference =
  qcheck ~count:300 "min-fill orders = unbounded reference" Gen.seed_gen
    (fun seed ->
       let phi = random_lineage seed in
       let cliques = Plan.cliques phi in
       List.for_all
         (fun c ->
            List.equal Fact.equal c.Plan.order
              (reference_min_fill c.Plan.cvars cliques))
         (Plan.analyze ~heuristic:Plan.Min_fill phi).Plan.components)

let suite =
  [
    Alcotest.test_case "bipartite n=24 plan beats the bar" `Quick
      test_bipartite_plan;
    Alcotest.test_case "bipartite values via planned circuit" `Quick
      test_bipartite_values;
    Alcotest.test_case "multi-component split" `Quick test_multi_component;
    Alcotest.test_case "constant lineage" `Quick test_constant_lineage;
    Alcotest.test_case "reject understated width" `Quick
      test_reject_understated_width;
    Alcotest.test_case "accept overstated width" `Quick
      test_accept_overstated_width;
    Alcotest.test_case "reject non-permutation order" `Quick
      test_reject_order_not_permutation;
    Alcotest.test_case "reject non-permutation branch" `Quick
      test_reject_branch_not_permutation;
    Alcotest.test_case "reject merged components" `Quick
      test_reject_merged_components;
    Alcotest.test_case "reject wrong n_vars" `Quick test_reject_wrong_n_vars;
    Alcotest.test_case "reject wrong prediction" `Quick
      test_reject_wrong_prediction;
    prop_planned_circuits;
    prop_heuristics_verify;
    prop_mutated_plans_rejected;
    prop_min_fill_reference;
  ]
