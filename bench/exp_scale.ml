(* SCALE + ablations: the FP/#P-hard complexity separation made visible, and
   the design choices of DESIGN.md §5 measured. *)

let qrst = Query_parse.parse "R(?x), S(?x,?y), T(?y)"

(* SCALE: lineage-based counting vs subset brute force as |D| grows, for a
   safe (hierarchical) query and an unsafe one.  The expected *shape*: the
   lineage algorithm is polynomial on the safe query and only the brute
   force blows up; on the unsafe query, the lineage engine also degrades
   (its cache no longer collapses the state space) — matching the paper's
   FP vs #P-hard divide. *)
let scale () =
  Report.heading "SCALE" "Complexity separation: safe vs unsafe query, lineage vs brute force";
  let rows = ref [] in
  let run (family, q, db) =
    let _, t_lineage = Report.time_it (fun () -> Model_counting.fgmc_polynomial q db) in
    let t_brute =
      if Database.size_endo db <= 18 then
        snd (Report.time_it (fun () -> Model_counting.fgmc_polynomial_brute q db))
      else Float.nan
    in
    rows :=
      [ family; string_of_int (Database.size_endo db);
        Report.ms t_lineage;
        (if Float.is_nan t_brute then "(skipped: 2^n)" else Report.ms t_brute) ]
      :: !rows
  in
  List.iter run
    (Report.family_instances ~cap:max_int ~family:"star"
       ~label:"safe R(x),S(x,y) [star]" [ 6; 10; 14; 18; 40; 80; 160 ]
     @ Report.family_instances ~cap:max_int ~family:"bipartite"
         ~label:"unsafe q_RST [bipartite]" [ 2; 3; 4; 5; 6; 7 ]);
  Report.table ~headers:[ "query [instance family]"; "|Dn|"; "lineage"; "brute force" ]
    (List.rev !rows);
  Printf.printf
    "Shape check: the safe query scales to hundreds of facts; the unsafe one\n\
     grows combinatorially even for the compiled lineage — the FP/#P divide.\n";
  true

(* SAMPLE: the anytime sampling backend where exact SVC is out of
   reach — 10^3..10^4 endogenous facts, on the unsafe q_RST complete
   bipartite family and the safe star family.  Emits BENCH_sample.json
   (uploaded by the CI bench-smoke job).  The gate: on every instance
   the Monte-Carlo estimator reports a 95% CI half-width <= 1/20 within
   the draw budget.  On a small instance the exact values must
   additionally lie inside a high-confidence run's intervals — that
   check always runs.
   BENCH_SAMPLE_CAP bounds |Dn| on smoke runs, which skips the
   convergence gate (machine-readably, like BENCH_parallel.json). *)
let sample_cap () =
  match Sys.getenv_opt "BENCH_SAMPLE_CAP" with
  | None | Some "" -> max_int
  | Some s -> (try int_of_string s with Failure _ -> max_int)

(* Lineage construction ([Engine.create]) per instance, keyed by |Dn|, at
   the commit before the self-join-free shortcut in
   [Cq.minimal_supports_in] (median of 3 full runs, release build,
   2-vCPU x86_64 host): the "before" next to each entry's [lineage_ms]. *)
let lineage_ms_before =
  [ (1088, 75.5); (2600, 526.7); (5040, 2013.2); (10200, 8177.3);
    (1001, 124.2); (10001, 11692.4) ]

let sample () =
  Report.heading "SAMPLE"
    "Anytime sampling backend at 10^3..10^4 facts (emits BENCH_sample.json)";
  let cap = sample_cap () in
  let epsilon = Rational.of_ints 1 20 in
  let cfg = Sample.config ~seed:1 ~epsilon ~max_draws:4096 () in
  let instances =
    Report.family_instances ~cap ~family:"bipartite"
      ~label:"unsafe q_RST [bipartite]" [ 32; 50; 70; 100 ]
    @ Report.family_instances ~cap ~family:"star"
        ~label:"safe R(x),S(x,y) [star]" [ 1000; 10000 ]
  in
  let rows = ref [] and entries = ref [] and all_converged = ref true in
  List.iter
    (fun (family, q, db) ->
       let n = Database.size_endo db in
       let e, lineage_s =
         Report.time_it (fun () -> Engine.create ~backend:(`Sample cfg) q db)
       in
       let _, eval_s = Report.time_it (fun () -> Engine.svc_all e) in
       let st = Engine.stats e in
       let hw, draws, converged =
         match Engine.sample_report e with
         | Some r ->
           (Rational.to_float r.Sample.max_half_width, r.Sample.total_draws,
            r.Sample.all_converged)
         | None -> (Float.nan, 0, false)
       in
       if not converged then all_converged := false;
       rows :=
         [ family; string_of_int n; Report.ms lineage_s; string_of_int draws;
           Printf.sprintf "%.4f" hw; Report.ms eval_s;
           (if converged then "yes" else "NO") ]
         :: !rows;
       entries :=
         Printf.sprintf
           "{\"family\":%S,\"n_endo\":%d,\"lineage_ms\":%.1f,\
            \"lineage_ms_before\":%s,\"eval_ms\":%.1f,\"max_hw_float\":%.5f,\
            \"stats\":%s}"
           family n (lineage_s *. 1000.)
           (match List.assoc_opt n lineage_ms_before with
            | Some ms -> Printf.sprintf "%.1f" ms
            | None -> "null")
           (eval_s *. 1000.) hw (Stats.to_json st)
         :: !entries)
    instances;
  Report.table
    ~headers:[ "query [instance family]"; "|Dn|"; "lineage"; "draws"; "95% CI hw";
               "eval"; "converged" ]
    (List.rev !rows);
  (* small-instance sanity: on a 15-fact instance the exact values must
     lie inside every interval of a budget-bound run at confidence
     1 - 10^-6, so a miss means an unsound bound, not bad luck *)
  let sanity_case = Workload.generate ~family:"bipartite" ~seed:0 ~size:3 in
  let q_sanity = sanity_case.Workload.query
  and db = sanity_case.Workload.db in
  let coverage =
    Sample.config ~seed:1 ~epsilon:(Rational.of_ints 1 1000)
      ~confidence:(Rational.of_ints 999_999 1_000_000) ~max_draws:256 ()
  in
  let sampled = Engine.create ~backend:(`Sample coverage) q_sanity db in
  ignore (Engine.svc_all sampled);
  let exact = Engine.svc_all (Engine.create ~backend:`Conditioning q_sanity db) in
  let sanity =
    match Engine.sample_report sampled with
    | None -> false
    | Some r ->
      Array.length r.Sample.estimates = List.length exact
      && Array.for_all
           (fun (e : Sample.estimate) ->
              Rational.leq
                (Rational.abs
                   (Rational.sub e.Sample.value (List.assoc e.Sample.fact exact)))
                e.Sample.half_width)
           r.Sample.estimates
  in
  Printf.printf "Exact values inside the sampled intervals (|Dn|=%d): %s\n"
    (Database.size_endo db) (Report.ok sanity);
  let skipped =
    Pool.bench_gate ~required:1 ~host:(Pool.recommended_domains ())
      ~cap:(if cap = max_int then None else Some cap)
  in
  let gate =
    match skipped with
    | Some _ -> "skipped (capped smoke run)"
    | None -> "enforced"
  in
  let pass = sanity && (!all_converged || skipped <> None) in
  let oc = open_out "BENCH_sample.json" in
  output_string oc
    (Printf.sprintf
       "{\"experiment\":\"sample\",\"cap\":%s,\"seed\":1,\
        \"epsilon\":\"1/20\",\"confidence\":\"19/20\",\"max_draws\":4096,\
        \"coverage_sanity\":%b,\"gate\":%S,\"skipped\":%s,\"pass\":%b,\
        \"entries\":[%s]}\n"
       (if cap = max_int then "null" else string_of_int cap)
       sanity gate
       (match skipped with None -> "null" | Some r -> Printf.sprintf "%S" r)
       pass
       (String.concat "," (List.rev !entries)));
  close_out oc;
  Printf.printf "Wrote BENCH_sample.json (%d entries).\n" (List.length !entries);
  pass

let ablate_compile () =
  Report.heading "ABL-COMPILE"
    "Ablation: decomposed+memoized Shannon expansion vs naive expansion";
  (* a conjunction of vocabulary-disjoint subqueries, one star per conjunct:
     the lineage is an AND of variable-disjoint ORs, so the decomposition
     rule turns the count into a product while naive Shannon expansion pays
     the product of the branch spaces *)
  let multi_star ~stars ~spokes =
    let facts =
      List.concat
        (List.init stars (fun s ->
             let hub = Printf.sprintf "hub%d" s in
             Fact.make (Printf.sprintf "R%d" s) [ hub ]
             :: List.init spokes (fun i ->
                 Fact.make (Printf.sprintf "S%d" s) [ hub; Printf.sprintf "n%d_%d" s i ])))
    in
    Database.make ~endo:facts ~exo:[]
  in
  let conj_query stars =
    let conjunct s = Query_parse.parse (Printf.sprintf "R%d(?x), S%d(?x,?y)" s s) in
    List.fold_left
      (fun acc s -> Query.And (acc, conjunct s))
      (conjunct 0)
      (List.init (stars - 1) (fun i -> i + 1))
  in
  let rows = ref [] in
  List.iter
    (fun stars ->
       let db = multi_star ~stars ~spokes:6 in
       let q = conj_query stars in
       let phi = Lineage.lineage q db in
       let universe = Database.endo_list db in
       let p1, t_memo = Report.time_it (fun () -> Compile.size_polynomial ~universe phi) in
       let p2, t_naive =
         if stars <= 5 then begin
           let p, t =
             Report.time_it (fun () -> Compile.size_polynomial_naive ~universe phi)
           in
           (Some p, t)
         end
         else (None, Float.nan)
       in
       (match p2 with Some p2 -> assert (Poly.Z.equal p1 p2) | None -> ());
       rows :=
         [ string_of_int (Database.size_endo db); Report.ms t_memo;
           (if Float.is_nan t_naive then "(skipped: exponential)" else Report.ms t_naive) ]
         :: !rows)
    [ 1; 2; 3; 4; 5; 8 ];
  Report.table
    ~headers:[ "|Dn| (disjoint stars)"; "decomp+memo"; "naive Shannon" ]
    (List.rev !rows);
  Printf.printf
    "On variable-disjoint components the decomposition rule is the whole\n\
     difference between polynomial and exponential compilation.\n";
  true

let ablate_poly () =
  Report.heading "ABL-POLY" "Ablation: one generating polynomial vs per-size recounts";
  let db = Workload.rst_gadget ~rows:4 ~extra_exo:false () in
  let n = Database.size_endo db in
  let _, t_once = Report.time_it (fun () -> Model_counting.fgmc_polynomial qrst db) in
  let _, t_per_size =
    Report.time_it (fun () ->
        for j = 0 to n do
          ignore (Model_counting.fgmc qrst db j)
        done)
  in
  Report.table ~headers:[ "strategy"; "time" ]
    [ [ "one polynomial, all sizes"; Report.ms t_once ];
      [ Printf.sprintf "recount per size (%d compilations)" (n + 1); Report.ms t_per_size ] ];
  true

let ablate_shapley () =
  Report.heading "ABL-SHAPLEY"
    "Ablation: SVC via FGMC polynomial vs Eq. 2 subset sum (unsafe q_RST), and the PTIME route (safe query)";
  let rows = ref [] in
  List.iter
    (fun k ->
       let db = Workload.rst_gadget ~rows:k ~extra_exo:false () in
       let mu = List.hd (Database.endo_list db) in
       let v1, t_fgmc = Report.time_it (fun () -> Svc.svc qrst db mu) in
       let v2, t_brute =
         if Database.size_endo db <= 16 then
           let v, t = Report.time_it (fun () -> Svc.svc_brute qrst db mu) in
           (Some v, t)
         else (None, Float.nan)
       in
       (match v2 with Some v2 -> assert (Rational.equal v1 v2) | None -> ());
       rows :=
         [ string_of_int (Database.size_endo db); Report.ms t_fgmc;
           (if Float.is_nan t_brute then "(skipped: 2^n)" else Report.ms t_brute) ]
         :: !rows)
    [ 2; 3; 4; 5 ];
  Report.table ~headers:[ "|Dn| (q_RST)"; "via FGMC (Claim A.1)"; "Eq. 2 subset sum" ]
    (List.rev !rows);
  (* the FP side of the [11] dichotomy: guaranteed-PTIME SVC for
     hierarchical sjf-CQs via the safe plan *)
  Report.subheading "PTIME SVC on the safe side (Svc.svc_hierarchical)";
  let q_safe_cq = Cq.parse "R(?x), S(?x,?y)" in
  let rows2 = ref [] in
  List.iter
    (fun spokes ->
       let db = Workload.star_join ~spokes in
       let mu = Fact.make "R" [ "hub" ] in
       let _, t = Report.time_it (fun () -> Svc.svc_hierarchical q_safe_cq db mu) in
       rows2 := [ string_of_int (Database.size_endo db); Report.ms t ] :: !rows2)
    [ 20; 60; 120 ];
  Report.table ~headers:[ "|Dn| (star)"; "svc_hierarchical" ] (List.rev !rows2);
  true

let reduction_scaling () =
  Report.heading "RED-SCALE"
    "Scaling of the Lemma 4.1 reduction: n+1 SVC calls on growing A^i instances";
  Printf.printf
    "Polynomial-time Turing reduction made concrete: total work grows\n\
     polynomially in |Dn| (each of the n+1 oracle calls runs on an instance\n\
     of size ≤ 2n+|S|).\n";
  let rows = ref [] in
  List.iter
    (fun k ->
       (* a safe instance family so that the SVC oracle itself stays fast;
          measuring the reduction's own overhead *)
       let q = Query_parse.parse "R(?x), S(?x,?y)" in
       let db = Workload.star_join ~spokes:k in
       let svc = Oracle.svc_of q in
       let p, t = Report.time_it (fun () -> Fgmc_to_svc.lemma41_auto ~svc ~query:q db) in
       (match p with
        | Some poly -> assert (Poly.Z.equal poly (Model_counting.fgmc_polynomial q db))
        | None -> assert false);
       rows :=
         [ string_of_int (Database.size_endo db); string_of_int (Oracle.calls svc);
           Report.ms t ]
         :: !rows)
    [ 4; 8; 12; 16; 20 ];
  Report.table ~headers:[ "|Dn|"; "SVC oracle calls"; "total time" ] (List.rev !rows);
  true

let ablate_safeplan () =
  Report.heading "ABL-SAFEPLAN"
    "Ablation: lifted safe-plan FGMC vs generic lineage compilation";
  (* a two-level hierarchical query on data where the generic engine's
     heuristics still work but pay compilation overhead; the safe plan has
     a polynomial guarantee *)
  let q = Cq.parse "R(?x), S(?x,?y)" in
  let instance hubs spokes =
    let facts =
      List.concat
        (List.init hubs (fun h ->
             let hub = Printf.sprintf "h%d" h in
             Fact.make "R" [ hub ]
             :: List.init spokes (fun i ->
                 Fact.make "S" [ hub; Printf.sprintf "n%d_%d" h i ])))
    in
    Database.make ~endo:facts ~exo:[]
  in
  let rows = ref [] in
  List.iter
    (fun (hubs, spokes) ->
       let db = instance hubs spokes in
       let p1, t_plan = Report.time_it (fun () -> Option.get (Lifted.cq q db)) in
       let p2, t_lineage =
         Report.time_it (fun () -> Model_counting.fgmc_polynomial (Query.Cq q) db)
       in
       assert (Poly.Z.equal p1 p2);
       rows :=
         [ string_of_int (Database.size_endo db); Report.ms t_plan; Report.ms t_lineage ]
         :: !rows)
    [ (2, 10); (4, 20); (8, 30); (12, 40) ];
  Report.table ~headers:[ "|Dn| (multi-star)"; "safe plan"; "lineage engine" ]
    (List.rev !rows);
  true

let ablate_homsearch () =
  Report.heading "ABL-HOMSEARCH" "Ablation: fail-first vs syntactic atom ordering";
  (* a query whose syntactic order is adversarial: the most selective atom
     is listed last *)
  let atoms = Cq.atoms (Cq.parse "S(?x,?y), S(?y,?z), S(?z,?w), R(?w)") in
  let r = Workload.rng 2718 in
  let db =
    Workload.random_database r ~rels:[ ("S", 2) ] ~consts:(List.init 40 string_of_int)
      ~n_endo:500 ~n_exo:0
  in
  let facts = Fact.Set.add (Fact.make "R" [ "0" ]) (Database.all db) in
  let count ordering =
    let n = ref 0 in
    Homomorphism.iter_valuations ~ordering ~into:facts atoms (fun _ -> incr n);
    !n
  in
  let n1, t_ff = Report.time_it (fun () -> count Homomorphism.Fail_first) in
  let n2, t_syn = Report.time_it (fun () -> count Homomorphism.Syntactic) in
  assert (n1 = n2);
  Report.table ~headers:[ "ordering"; "valuations found"; "time" ]
    [ [ "fail-first (selective atom first)"; string_of_int n1; Report.ms t_ff ];
      [ "syntactic (adversarial order)"; string_of_int n2; Report.ms t_syn ] ];
  true
