(* CIRCUIT: the d-DNNF knowledge-compilation backend vs the conditioning
   engine, on the SCALE instance families.  Emits BENCH_circuit.json
   (uploaded by the CI bench-smoke job) and validates that for every
   instance

   (a) the circuit backend returns exactly the conditioning values in the
       same order,
   (b) it performs zero per-fact conditionings (the whole point: one
       compilation, one traversal pair), and
   (c) two circuit runs are identical, values and normalized stats alike.

   The wall-clock gate — >= 2x speedup over the serial conditioning
   engine on the largest instance — is skipped on capped smoke runs
   (BENCH_CIRCUIT_CAP bounds |Dn|, as BENCH_ENGINE_CAP does for the
   engine experiment); correctness checks always run. *)

let speedup_target = 2.0

let cap () =
  match Sys.getenv_opt "BENCH_CIRCUIT_CAP" with
  | None | Some "" -> max_int
  | Some s -> (try int_of_string s with Failure _ -> max_int)

(* The recorded node count of the complete-bipartite n=24 circuit before
   the compilation planner existed: the plan-driven node gate asserts
   planned compilation at least halves it. *)
let bipartite24_baseline = 2174

type entry = {
  family : string;
  n_endo : int;
  conditioning_s : float;
  circuit_s : float;
  circuit_stats : Stats.t;
  planned_nodes : int;  (* plan-steered compilation (the engine default) *)
  unplanned_nodes : int;  (* same lineage, naive Shannon order *)
}

let json_of_entry e =
  Printf.sprintf
    "{\"family\":%S,\"n_endo\":%d,\"conditioning_ms\":%.3f,\
     \"circuit_ms\":%.3f,\"speedup\":%.2f,\"planned_nodes\":%d,\
     \"unplanned_nodes\":%d,\"circuit_stats\":%s}"
    e.family e.n_endo (e.conditioning_s *. 1000.) (e.circuit_s *. 1000.)
    (e.conditioning_s /. e.circuit_s)
    e.planned_nodes e.unplanned_nodes
    (Stats.to_json e.circuit_stats)

let write_json ~path entries ~gate ~pass =
  let oc = open_out path in
  output_string oc
    (Printf.sprintf
       "{\"experiment\":\"circuit\",\"cap\":%s,\"speedup_target\":%.1f,\
        \"bipartite24_baseline\":%d,\"gate\":%S,\"pass\":%b,\"entries\":[%s]}\n"
       (let c = cap () in if c = max_int then "null" else string_of_int c)
       speedup_target bipartite24_baseline gate pass
       (String.concat "," (List.map json_of_entry entries)));
  close_out oc

(* (nodes, smoothing nodes) of a circuit-backend stats record *)
let circuit_sizes st =
  match st.Stats.backend with
  | Stats.Circuit c -> (c.nodes, c.smoothing)
  | Stats.Conditioning _ | Stats.Sample _ -> (0, 0)

let values_equal v1 v2 =
  List.length v1 = List.length v2
  && List.for_all2
       (fun (f1, x1) (f2, x2) -> Fact.equal f1 f2 && Rational.equal x1 x2)
       v1 v2

(* Both backends timed end to end (engine creation included): the circuit
   side's pitch is that its one compilation replaces the n conditioned
   counts, so the compilations belong inside the timer.  Best of
   [rounds] runs — the minimum is the standard noise-robust estimator
   for a deterministic computation. *)
let rounds = 3

let timed_backend ~backend q db =
  let run () =
    let (e, values), s =
      Report.time_it (fun () ->
          let e = Engine.create ~backend q db in
          (e, Engine.svc_all e))
    in
    (values, Engine.stats e, s)
  in
  let first = run () in
  let rec refine best k =
    if k = 0 then best
    else
      let ((_, _, s) as r) = run () in
      let _, _, best_s = best in
      refine (if s < best_s then r else best) (k - 1)
  in
  refine first (rounds - 1)

let run_instance ~family q db =
  let n = Database.size_endo db in
  let cond_v, _, conditioning_s = timed_backend ~backend:`Conditioning q db in
  let circ_v, circuit_stats, circuit_s = timed_backend ~backend:`Circuit q db in
  let rerun_v, rerun_stats, _ = timed_backend ~backend:`Circuit q db in
  (* the engine's circuit backend is plan-steered, so its stats already
     report the planned size; the unplanned column recompiles the same
     lineage in naive Shannon order for comparison *)
  let planned_nodes = fst (circuit_sizes circuit_stats) in
  let unplanned_nodes =
    Circuit.node_count (Circuit.compile (Lineage.lineage q db))
  in
  let agree = values_equal cond_v circ_v in
  let contract =
    circuit_stats.Stats.conditionings = 0
    && circuit_stats.Stats.compilations = 1
    && planned_nodes > 0
  in
  let deterministic =
    values_equal circ_v rerun_v
    && Stats.normalize circuit_stats = Stats.normalize rerun_stats
  in
  if not agree then
    Printf.printf "!! %s n=%d: circuit/conditioning value MISMATCH\n" family n;
  if not contract then
    Printf.printf "!! %s n=%d: circuit instrumentation contract violated\n"
      family n;
  if not deterministic then
    Printf.printf "!! %s n=%d: circuit rerun NOT deterministic\n" family n;
  ( { family; n_endo = n; conditioning_s; circuit_s; circuit_stats;
      planned_nodes; unplanned_nodes },
    agree && contract && deterministic )

let circuit () =
  Report.heading "CIRCUIT"
    "d-DNNF knowledge-compilation backend vs conditioning engine (emits \
     BENCH_circuit.json)";
  let cap = cap () in
  (* Two roles: the star family is where compilation amortizes (lineage is
     a wide independent union, so the d-DNNF is linear-size and one
     compilation replaces n conditioned counts) and carries the gate at
     its largest size; the complete-bipartite q_RST family is adversarial
     for Shannon expansion (dense co-occurrence, so the circuit grows
     super-linearly while the conditioning counter exploits independent
     unions per branch) and is kept as correctness/telemetry coverage. *)
  let instances =
    Report.family_instances ~cap ~family:"star"
      ~label:"safe R(x),S(x,y) [star]" [ 8; 16; 32; 64; 96 ]
    @ Report.family_instances ~cap ~family:"bipartite"
        ~label:"unsafe q_RST [bipartite]" [ 2; 3; 4 ]
  in
  let results = List.map (fun (f, q, db) -> run_instance ~family:f q db) instances in
  let entries = List.map fst results in
  let all_ok = List.for_all snd results in
  Report.table
    ~headers:[ "query [instance family]"; "|Dn|"; "conditioning"; "circuit";
               "speedup"; "planned"; "unplanned"; "smoothing" ]
    (List.map
       (fun e ->
          [ e.family; string_of_int e.n_endo; Report.ms e.conditioning_s;
            Report.ms e.circuit_s;
            Printf.sprintf "%.1fx" (e.conditioning_s /. e.circuit_s);
            string_of_int e.planned_nodes;
            string_of_int e.unplanned_nodes;
            string_of_int (snd (circuit_sizes e.circuit_stats)) ])
       entries);
  (* plan-driven node gate: the bipartite n=24 circuit must land at or
     below half the recorded pre-planner baseline (skipped when the cap
     excludes the instance) *)
  let nodes_ok =
    match
      List.find_opt
        (fun e -> e.n_endo = 24 && e.family = "unsafe q_RST [bipartite]")
        entries
    with
    | None -> true
    | Some e ->
      let ok = e.planned_nodes * 2 <= bipartite24_baseline in
      Printf.printf
        "Bipartite n=24: %d planned nodes vs %d-node baseline (target: <= half) — %s\n"
        e.planned_nodes bipartite24_baseline (Report.ok ok);
      ok
  in
  let gate = if cap <> max_int then "skipped (capped smoke run)" else "enforced" in
  let largest =
    List.fold_left
      (fun best e ->
         match best with
         | Some b when b.n_endo >= e.n_endo -> best
         | _ -> Some e)
      None entries
  in
  let speedup_ok =
    match largest with
    | None -> false
    | Some e ->
      let s = e.conditioning_s /. e.circuit_s in
      Printf.printf
        "Largest size |Dn|=%d (%s): %.1fx circuit speedup (target: >= %.1fx) — %s\n"
        e.n_endo e.family s speedup_target
        (if gate = "enforced" then Report.ok (s >= speedup_target)
         else "gate " ^ gate);
      s >= speedup_target
  in
  let pass = all_ok && nodes_ok && (speedup_ok || gate <> "enforced") in
  write_json ~path:"BENCH_circuit.json" entries ~gate ~pass;
  Printf.printf "Wrote BENCH_circuit.json (%d entries).\n" (List.length entries);
  pass
