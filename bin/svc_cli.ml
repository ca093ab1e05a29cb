(* svc — command-line front end.

   Databases are text files in the Db_text format (one "endo FACT" or
   "exo FACT" per line); queries use the Query_parse syntax with an optional
   language tag ("cq:", "ucq:", "rpq:", "crpq:", "ucrpq:", "cqneg:"). *)

open Cmdliner

let db_arg =
  let doc = "Database file (lines of 'endo R(a,b)' / 'exo S(c)')." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"DATABASE" ~doc)

let query_arg pos_i =
  let doc =
    "Boolean query, e.g. 'R(?x), S(?x,?y)' or 'rpq: (A B* C)(s,t)'."
  in
  Arg.(required & pos pos_i (some string) None & info [] ~docv:"QUERY" ~doc)

(* Input errors exit 2 with a "svc CMD:" line, as bad options do. *)
let load_db cmd path =
  try Db_text.load path
  with Invalid_argument msg ->
    Printf.eprintf "svc %s: %s: %s\n" cmd path msg;
    exit 2

let parse_query cmd s =
  match Query_parse.parse_result s with
  | Ok q -> q
  | Error d ->
    Printf.eprintf "svc %s: %s\n" cmd (Query_parse.diagnostic_to_string d);
    exit 2

(* The value block of [shapley], [eval] and [banzhaf]: one line per fact,
   largest value first. *)
let print_values values =
  List.iter
    (fun (f, v) ->
       Printf.printf "%-30s %s  (≈ %.4f)\n" (Fact.to_string f) (Rational.to_string v)
         (Rational.to_float v))
    (List.sort (fun (_, a) (_, b) -> Rational.compare b a) values)

(* Shapley values close with their sum, which efficiency makes q(D) - q(Dₓ). *)
let print_shapley_values values =
  print_values values;
  let total = List.fold_left (fun acc (_, v) -> Rational.add acc v) Rational.zero values in
  Printf.printf "sum: %s\n" (Rational.to_string total)

(* ---------------- shapley ---------------- *)

let shapley_cmd =
  let run db_path query_str =
    let db = load_db "shapley" db_path in
    let q = parse_query "shapley" query_str in
    print_shapley_values (Svc.svc_all q db)
  in
  let doc = "Shapley value of every endogenous fact (SVC_q)." in
  Cmd.v (Cmd.info "shapley" ~doc) Term.(const run $ db_arg $ query_arg 1)

(* ---------------- eval ---------------- *)

let eval_cmd =
  let stats_arg =
    Arg.(value
         & opt ~vopt:(Some `Text) (some (enum [ ("text", `Text); ("json", `Json) ])) None
         & info [ "stats" ] ~docv:"FORMAT"
             ~doc:"Print the engine's instrumentation record after the values \
                   ($(b,--stats) for text, $(b,--stats=json) for one JSON line): \
                   the resolved backend's counters and the run's telemetry \
                   spans, which carry every duration.")
  in
  let jobs_arg =
    Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Fan the per-class conditionings of a conditioning run out \
                 across up to $(docv) domains, one per static slice and \
                 never more slices than classes (default 1 = serial, 0 = \
                 one per available core).  The circuit and \
                 sample backends never fan out, and $(b,auto) picks the \
                 same backend at every $(docv).  Values and order are \
                 identical for every $(docv).")
  in
  let backend_arg =
    let doc =
      Printf.sprintf
        "Evaluation backend: $(b,conditioning) (one conditioned count per \
         fact), $(b,circuit) (one d-DNNF compilation, every fact read off \
         a single traversal pair), $(b,auto) (default: one evaluation per \
         class of interchangeable facts; below %d classes it conditions \
         once per class, otherwise a circuit whose size the compilation \
         planner predicts within %d nodes, or whose compile without the \
         plan fits that cap, and conditioning once per class only if \
         that compile overflows; the $(b,note:) line gives the reason), \
         or $(b,sample) (seeded anytime estimation with rational \
         confidence intervals — the only approximate backend, never \
         auto-selected: permutation sampling, see $(b,--seed), \
         $(b,--epsilon) and $(b,--max-draws)).  The exact backends \
         produce identical values for every choice."
        Plan.min_circuit_facts Plan.circuit_node_budget
    in
    Arg.(value & opt string "auto" & info [ "backend" ] ~docv:"BACKEND" ~doc)
  in
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N"
           ~doc:"Sampling backend: master PRNG seed (default 0).  Same \
                 seed, bit-identical estimates — at any $(b,--jobs).")
  in
  let epsilon_arg =
    Arg.(value & opt string "1/20" & info [ "epsilon" ] ~docv:"E"
           ~doc:"Sampling backend: target confidence-interval half-width \
                 as an exact rational ($(b,1/20), $(b,0.05), ...); \
                 sampling stops early once every fact's interval is this \
                 tight (default 1/20).")
  in
  let max_draws_arg =
    Arg.(value & opt int 4096 & info [ "max-draws" ] ~docv:"K"
           ~doc:"Sampling backend: draw budget (default 4096) in random \
                 permutations, each one a draw for every fact at once.")
  in
  let plan_flag =
    Arg.(value & flag
         & info [ "plan" ]
             ~doc:"Print the compilation plan (AND-components, \
                   elimination orders, induced widths, predicted size) \
                   before the values, and verify its certificate with \
                   the independent checker (failure exits 1).")
  in
  let trace_arg =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record the run's telemetry spans and write a Chrome \
                 trace_event JSON file to $(docv) (loadable in Perfetto / \
                 about:tracing; at $(b,--jobs) N each worker domain gets \
                 its own trace lane).  Inspect it with \
                 $(b,svc trace summary).")
  in
  let run db_path query_str stats jobs backend seed epsilon max_draws show_plan
      trace =
    if jobs < 0 then begin
      Printf.eprintf "svc eval: --jobs must be >= 0 (got %d)\n" jobs;
      exit 2
    end;
    let backend =
      match backend with
      | "auto" -> `Auto
      | "conditioning" -> `Conditioning
      | "circuit" -> `Circuit
      | "sample" ->
        let epsilon =
          match Rational.of_string epsilon with
          | e when Rational.sign e > 0 -> e
          | _ ->
            Printf.eprintf "svc eval: --epsilon must be > 0 (got %s)\n"
              epsilon;
            exit 2
          | exception _ ->
            Printf.eprintf
              "svc eval: --epsilon must be a rational like 1/20 (got %s)\n"
              epsilon;
            exit 2
        in
        if max_draws < 1 then begin
          Printf.eprintf "svc eval: --max-draws must be >= 1 (got %d)\n"
            max_draws;
          exit 2
        end;
        `Sample (Sample.config ~seed ~epsilon ~max_draws ())
      | other ->
        Printf.eprintf
          "svc eval: unknown backend %S (expected auto, conditioning, \
           circuit or sample)\n"
          other;
        exit 2
    in
    let db = load_db "eval" db_path in
    let q = parse_query "eval" query_str in
    (* --stats reads its durations off the spans, so it records them too *)
    let tel = Telemetry.create ~enabled:(trace <> None || stats <> None) () in
    let e = Engine.create ~tel ~jobs ~backend q db in
    (* below the floor in facts there is nothing for the rule to decide *)
    (match Engine.auto_reason e with
     | Some reason when Database.size_endo db >= Plan.min_circuit_facts ->
       Printf.printf "note: auto-selected %s backend (%s); --backend overrides\n"
         (Engine.backend_name (Engine.backend e)) reason
     | _ -> ());
    if show_plan then begin
      let phi = Engine.lineage e in
      let pl =
        match Engine.plan e with Some pl -> pl | None -> Plan.analyze phi
      in
      print_string (Plan.to_string pl);
      match Plancheck.check phi pl with
      | Ok r -> Printf.printf "certificate : %s\n" (Plancheck.report_to_string r)
      | Error msg ->
        Printf.eprintf "svc eval: plan certificate verification failed: %s\n"
          msg;
        exit 1
    end;
    print_shapley_values (Engine.svc_all e);
    (match stats with
     | None -> ()
     | Some `Text -> print_string (Stats.to_string (Engine.stats e))
     | Some `Json -> print_endline (Stats.to_json (Engine.stats e)));
    match trace with
    | None -> ()
    | Some path ->
      (try
         Telemetry.Export.write_chrome tel path;
         Printf.printf "trace   : wrote %s (%d spans)\n" path
           (List.length (Telemetry.events tel))
       with Sys_error msg ->
         Printf.eprintf "svc eval: cannot write trace: %s\n" msg;
         exit 2)
  in
  let doc =
    "Shapley value of every endogenous fact through the batched memoizing \
     engine (one lineage compilation, then per-fact conditioning or a \
     single d-DNNF circuit evaluation), with optional instrumentation."
  in
  Cmd.v (Cmd.info "eval" ~doc)
    Term.(const run $ db_arg $ query_arg 1 $ stats_arg $ jobs_arg $ backend_arg
          $ seed_arg $ epsilon_arg $ max_draws_arg $ plan_flag $ trace_arg)

(* ---------------- plan ---------------- *)

let plan_cmd =
  let format_arg =
    Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
         & info [ "format" ] ~docv:"FORMAT"
             ~doc:"Output format: $(b,text) or $(b,json).")
  in
  let run db_path query_str format =
    let db = load_db "plan" db_path in
    let q = parse_query "plan" query_str in
    let e = Engine.create q db in
    let phi = Engine.lineage e in
    let pl = match Engine.plan e with Some pl -> pl | None -> Plan.analyze phi in
    let players = Array.of_list (Database.endo_list db) in
    let n_facts = Array.length players in
    let cert =
      match Plancheck.check phi pl with
      | Ok r -> Plancheck.report_to_string r
      | Error msg ->
        Printf.eprintf "svc plan: certificate verification FAILED: %s\n" msg;
        exit 1
    in
    let classes = Engine.classes e in
    let classes_cert =
      match Symmetry.check ~players phi (Symmetry.classes classes) with
      | Ok r -> Symmetry.report_to_string r
      | Error msg ->
        Printf.eprintf "svc plan: class verification FAILED: %s\n" msg;
        exit 1
    in
    let backend = Engine.backend_name (Engine.backend e) in
    match format with
    | `Json ->
      Printf.printf
        "{\"query\":%s,\"n_facts\":%d,\"plan\":%s,\"certificate\":%s,\
         \"classes\":%d,\"classes_certificate\":%s,\"recommended_backend\":%s}\n"
        (Tracejson.quote (Query.to_string q)) n_facts (Plan.to_json pl)
        (Tracejson.quote cert) (Symmetry.count classes)
        (Tracejson.quote classes_cert) (Tracejson.quote backend)
    | `Text ->
      Printf.printf "query   : %s\n" (Query.to_string q);
      Printf.printf "lineage : %d nodes over %d fact variables\n"
        (Bform.size phi) pl.Plan.n_vars;
      print_string (Plan.to_string pl);
      Printf.printf "certificate : %s\n" cert;
      Printf.printf "classes : %s\n" classes_cert;
      Printf.printf "recommended backend : %s (%s)\n" backend
        (Option.get (Engine.auto_reason e))
  in
  let doc =
    "Static compilation plan for a (query, database) pair: AND-components \
     of the lineage's co-occurrence graph, per-component elimination \
     orders and induced widths, predicted circuit size, and the backend \
     the engine's $(b,auto) mode picks — with the plan certificate \
     re-verified by the independent checker."
  in
  Cmd.v (Cmd.info "plan" ~doc) Term.(const run $ db_arg $ query_arg 1 $ format_arg)

(* ---------------- count ---------------- *)

let count_cmd =
  let size =
    Arg.(value & opt (some int) None & info [ "size"; "n" ] ~docv:"N"
           ~doc:"Report only FGMC(D, $(docv)).")
  in
  let run db_path query_str size =
    let db = load_db "count" db_path in
    let q = parse_query "count" query_str in
    let poly = Model_counting.fgmc_polynomial q db in
    (match size with
     | Some n -> Printf.printf "FGMC(D, %d) = %s\n" n (Bigint.to_string (Poly.Z.coeff poly n))
     | None ->
       Printf.printf "FGMC polynomial: %s\n" (Format.asprintf "%a" Poly.Z.pp poly);
       Printf.printf "GMC (total)    : %s\n" (Bigint.to_string (Poly.Z.total poly)))
  in
  let doc = "(Fixed-size) generalized model counting (FGMC_q / GMC_q)." in
  Cmd.v (Cmd.info "count" ~doc) Term.(const run $ db_arg $ query_arg 1 $ size)

(* ---------------- prob ---------------- *)

let prob_cmd =
  let p_arg =
    Arg.(value & opt string "1/2" & info [ "p"; "prob" ] ~docv:"PROB"
           ~doc:"Probability of each endogenous fact (rational, e.g. 1/3).")
  in
  let run db_path query_str p_str =
    let p =
      match Rational.of_string p_str with
      | p when Rational.sign p > 0 && Rational.compare p Rational.one <= 0 -> p
      | _ ->
        Printf.eprintf "svc prob: --p must lie in (0, 1] (got %s)\n" p_str;
        exit 2
      | exception _ ->
        Printf.eprintf "svc prob: --p must be a rational like 1/3 (got %s)\n"
          p_str;
        exit 2
    in
    let db = load_db "prob" db_path in
    let q = parse_query "prob" query_str in
    let pr = Pqe.sppqe q db p in
    Printf.printf "Pr(D ⊨ q) = %s  (≈ %.6f)\n" (Rational.to_string pr) (Rational.to_float pr)
  in
  let doc =
    "Probabilistic query evaluation with uniform probability on endogenous \
     facts (SPPQE_q)."
  in
  Cmd.v (Cmd.info "prob" ~doc) Term.(const run $ db_arg $ query_arg 1 $ p_arg)

(* ---------------- classify ---------------- *)

let classify_cmd =
  let run query_str =
    let q = parse_query "classify" query_str in
    let j = Classify.classify q in
    Printf.printf "query  : %s\n" (Query.to_string q);
    Printf.printf "verdict: %s\n" (Classify.verdict_to_string j.Classify.verdict);
    Printf.printf "rule   : %s\n" j.Classify.rule
  in
  let doc = "FP / #P-hard classification of SVC_q (Figure 1b)." in
  Cmd.v (Cmd.info "classify" ~doc) Term.(const run $ query_arg 0)

(* ---------------- reduce ---------------- *)

let reduce_cmd =
  let run db_path query_str =
    let db = load_db "reduce" db_path in
    let q = parse_query "reduce" query_str in
    let svc = Oracle.svc_of q in
    match Fgmc_to_svc.lemma41_auto ~svc ~query:q db with
    | Some poly ->
      Printf.printf "FGMC polynomial recovered through the SVC oracle:\n  %s\n"
        (Format.asprintf "%a" Poly.Z.pp poly);
      Printf.printf "SVC oracle calls: %d\n" (Oracle.calls svc);
      let expected = Model_counting.fgmc_polynomial q db in
      Printf.printf "cross-check vs direct counting: %s\n"
        (if Poly.Z.equal poly expected then "ok" else "MISMATCH")
    | None ->
      prerr_endline
        "No pseudo-connectivity witness (query must have a fresh minimal \
         support with a constant outside C).";
      exit 1
  in
  let doc =
    "Run the Lemma 4.1 reduction: compute FGMC_q through an SVC_q oracle."
  in
  Cmd.v (Cmd.info "reduce" ~doc) Term.(const run $ db_arg $ query_arg 1)

(* ---------------- max ---------------- *)

let max_cmd =
  let run db_path query_str =
    let db = load_db "max" db_path in
    let q = parse_query "max" query_str in
    match Max_svc.max_svc q db with
    | Some (f, v) ->
      Printf.printf "max contributor: %s with value %s\n" (Fact.to_string f)
        (Rational.to_string v)
    | None -> print_endline "no endogenous facts"
  in
  let doc = "A fact of maximal Shapley value (max-SVC_q, Section 6.3)." in
  Cmd.v (Cmd.info "max" ~doc) Term.(const run $ db_arg $ query_arg 1)

(* ---------------- banzhaf ---------------- *)

let banzhaf_cmd =
  let run db_path query_str =
    let db = load_db "banzhaf" db_path in
    let q = parse_query "banzhaf" query_str in
    print_values (Engine.banzhaf_all (Svc.engine q db))
  in
  let doc =
    "Banzhaf value of every endogenous fact (one lineage compilation, \
     through the batched engine)."
  in
  Cmd.v (Cmd.info "banzhaf" ~doc) Term.(const run $ db_arg $ query_arg 1)

(* ---------------- lineage ---------------- *)

let lineage_cmd =
  let run db_path query_str =
    let db = load_db "lineage" db_path in
    let q = parse_query "lineage" query_str in
    let phi = Lineage.lineage q db in
    Printf.printf "lineage: %s\n" (Format.asprintf "%a" Bform.pp phi);
    Printf.printf "size   : %d nodes over %d fact variables\n" (Bform.size phi)
      (Fact.Set.cardinal (Bform.vars phi));
    let poly, stats =
      Compile.size_polynomial_stats ~universe:(Database.endo_list db) phi
    in
    Printf.printf "count  : %s\n" (Format.asprintf "%a" Poly.Z.pp poly);
    Printf.printf "cache  : %d hits / %d misses\n" stats.Compile.cache_hits
      stats.Compile.cache_misses
  in
  let doc = "Show the Boolean lineage of the query and its compilation stats." in
  Cmd.v (Cmd.info "lineage" ~doc) Term.(const run $ db_arg $ query_arg 1)

(* ---------------- explain ---------------- *)

let explain_cmd =
  let run db_path query_str =
    let db = load_db "explain" db_path in
    let q = parse_query "explain" query_str in
    Printf.printf "query    : %s\n" (Query.to_string q);
    Printf.printf "answer   : %b\n" (Query.holds q db);
    let j = Classify.classify q in
    Printf.printf "complexity of SVC: %s — %s\n\n"
      (Classify.verdict_to_string j.Classify.verdict)
      j.Classify.rule;
    (* the subset search behind CRPQs, UCRPQs, CQ¬ and GCQs refuses
       over 20 facts: say so and go on to the values *)
    let show_values =
      match Query.minimal_supports_in q (Database.all db) with
      | [] ->
        Printf.printf "no minimal supports: the query is not satisfied.\n";
        false
      | supports ->
        Printf.printf "minimal supports (%d):\n" (List.length supports);
        List.iter
          (fun s -> Printf.printf "  %s\n" (Format.asprintf "%a" Fact.Set.pp s))
          supports;
        true
      | exception Invalid_argument msg ->
        Printf.printf "minimal supports: not listed (%s)\n" msg;
        true
    in
    if show_values then begin
      Printf.printf "\nfact contributions (Shapley | Banzhaf):\n";
      let e = Svc.engine q db in
      let shapley = Engine.svc_all e and banzhaf = Engine.banzhaf_all e in
      List.iter
        (fun ((f, sv), (_, bz)) ->
           Printf.printf "  %-28s %-10s | %s\n" (Fact.to_string f)
             (Rational.to_string sv) (Rational.to_string bz))
        (List.stable_sort
           (fun ((_, a), _) ((_, b), _) -> Rational.compare b a)
           (List.combine shapley banzhaf));
      let pr = Pqe.sppqe q db Rational.half in
      Printf.printf "\nrobustness: Pr(q | each endogenous fact present w.p. 1/2) = %s (≈ %.4f)\n"
        (Rational.to_string pr) (Rational.to_float pr)
    end
  in
  let doc =
    "One-stop explanation report: answer, complexity verdict, minimal \
     supports, Shapley and Banzhaf contributions, robustness."
  in
  Cmd.v (Cmd.info "explain" ~doc) Term.(const run $ db_arg $ query_arg 1)

(* ---------------- analyze ---------------- *)

let analyze_cmd =
  let query_opt =
    Arg.(value & opt (some string) None
         & info [ "query"; "q" ] ~docv:"QUERY" ~doc:"Query to analyze.")
  in
  let db_opt =
    Arg.(value & opt (some file) None
         & info [ "db"; "d" ] ~docv:"FILE" ~doc:"Database file to analyze.")
  in
  let workload_opt =
    Arg.(value & opt (some file) None
         & info [ "workload"; "w" ] ~docv:"FILE" ~doc:"Workload file to analyze.")
  in
  let format_arg =
    Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
         & info [ "format" ] ~docv:"FORMAT" ~doc:"Output format: $(b,text) or $(b,json).")
  in
  let strict_arg =
    Arg.(value & flag
         & info [ "strict" ] ~doc:"Exit with status 1 on warnings, not just errors.")
  in
  let read_file path =
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let run query db workload format strict =
    if query = None && db = None && workload = None then begin
      prerr_endline
        "svc analyze: nothing to analyze (give --query, --db and/or --workload)";
      exit 2
    end;
    let q, query_ds =
      match query with
      | None -> (None, [])
      | Some s -> Analyze.query_src s
    in
    let dbv, db_ds =
      match db with
      | None -> (None, [])
      | Some path -> Analyze.database_src (read_file path)
    in
    let pair_ds =
      match (q, dbv) with
      | Some q, Some d -> Analyze.pair q d
      | _ -> []
    in
    let workload_ds =
      match workload with
      | None -> []
      | Some path -> snd (Analyze.workload_src (read_file path))
    in
    let ds = Diagnostic.sort (query_ds @ db_ds @ pair_ds @ workload_ds) in
    (match format with
     | `Json -> print_endline (Diagnostic.list_to_json ds)
     | `Text ->
       List.iter (fun d -> print_endline (Diagnostic.to_string d)) ds;
       Printf.printf "%s%d error(s), %d warning(s), %d hint(s)\n"
         (if ds = [] then "" else "\n")
         (Diagnostic.count Diagnostic.Error ds)
         (Diagnostic.count Diagnostic.Warning ds)
         (Diagnostic.count Diagnostic.Hint ds));
    if Diagnostic.gate ~strict ds then exit 1
  in
  let doc =
    "Statically analyze a query, database and/or workload; report \
     certificate-carrying diagnostics (codes Qxxx/Dxxx/Xxxx/Wxxx)."
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const run $ query_opt $ db_opt $ workload_opt $ format_arg $ strict_arg)

(* ---------------- workload ---------------- *)

let workload_cmd =
  let list_cmd =
    let format_arg =
      Arg.(value & opt (enum [ ("table", `Table); ("names", `Names) ]) `Table
           & info [ "format" ] ~docv:"FORMAT"
               ~doc:"Output format: $(b,table) (name, expected class, \
                     description) or $(b,names) (one family name per line, \
                     for scripting).")
    in
    let run format =
      let fams = Workload.families () in
      match format with
      | `Names ->
        List.iter (fun f -> print_endline f.Workload.Family.name) fams
      | `Table ->
        let width =
          List.fold_left
            (fun w f -> max w (String.length f.Workload.Family.name))
            0 fams
        in
        Printf.printf "%-*s  %-8s  %s\n" width "family" "class" "description";
        List.iter
          (fun f ->
             Printf.printf "%-*s  %-8s  %s\n" width f.Workload.Family.name
               (Workload.Family.tractability_to_string
                  f.Workload.Family.tractability)
               f.Workload.Family.description)
          fams
    in
    let doc = "List the registered workload generator families." in
    Cmd.v (Cmd.info "list" ~doc) Term.(const run $ format_arg)
  in
  let gen_cmd =
    let family_arg =
      Arg.(required & opt (some string) None
           & info [ "family"; "f" ] ~docv:"FAMILY"
               ~doc:"Generator family (see $(b,svc workload list)).")
    in
    let size_arg =
      Arg.(value & opt int 4 & info [ "size"; "n" ] ~docv:"N"
             ~doc:"Instance size parameter (>= 1, default 4).")
    in
    let seed_arg =
      Arg.(value & opt int 0 & info [ "seed"; "s" ] ~docv:"S"
             ~doc:"Generator seed (>= 0, default 0).  The same (family, \
                   seed, size) triple always reproduces a byte-identical \
                   instance.")
    in
    let format_arg =
      Arg.(value
           & opt (enum [ ("workload", `Workload); ("db", `Db); ("query", `Query) ])
               `Workload
           & info [ "format" ] ~docv:"FORMAT"
               ~doc:"Output format: $(b,workload) (the self-contained \
                     workload text format, default), $(b,db) (just the \
                     database in the Db_text format, for $(b,svc eval)), \
                     or $(b,query) (just the query source line).")
    in
    let run family size seed format =
      if size < 1 then begin
        Printf.eprintf "svc workload gen: --size must be >= 1 (got %d)\n" size;
        exit 2
      end;
      if seed < 0 then begin
        Printf.eprintf "svc workload gen: --seed must be >= 0 (got %d)\n" seed;
        exit 2
      end;
      match Workload.find_family family with
      | None ->
        Printf.eprintf
          "svc workload gen: unknown family %S (try 'svc workload list')\n"
          family;
        exit 2
      | Some _ ->
        let c = Workload.generate ~family ~seed ~size in
        (match format with
         | `Workload -> print_string (Workload.to_string (Workload.to_workload c))
         | `Db -> print_string (Db_text.to_string c.Workload.db)
         | `Query -> print_endline c.Workload.query_src)
    in
    let doc =
      "Generate one seeded instance of a registered family and print it \
       (workload, database or query form)."
    in
    Cmd.v (Cmd.info "gen" ~doc)
      Term.(const run $ family_arg $ size_arg $ seed_arg $ format_arg)
  in
  let doc =
    "Seeded workload generators spanning the paper's variant frontier \
     (safe CQs, the bipartite gadget, RPQ/CRPQ graphs, CQ¬, purely \
     endogenous and max-/const-SVC instances)."
  in
  Cmd.group (Cmd.info "workload" ~doc) [ list_cmd; gen_cmd ]

(* ---------------- trace ---------------- *)

let trace_cmd =
  let summary_cmd =
    let file_arg =
      let doc = "Chrome trace_event JSON file written by $(b,svc eval --trace)." in
      Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
    in
    let run path =
      let text =
        try
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        with Sys_error msg ->
          Printf.eprintf "svc trace summary: %s\n" msg;
          exit 1
      in
      match Tracejson.summarize ~name:(Filename.basename path) text with
      | Ok s -> print_string s
      | Error msg ->
        Printf.eprintf "svc trace summary: %s\n" msg;
        exit 1
    in
    let doc =
      "Validate a trace file against the Chrome trace_event schema and \
       print a summary (event counts, per-track span counts, per-name \
       span totals, final counter samples)."
    in
    Cmd.v (Cmd.info "summary" ~doc) Term.(const run $ file_arg)
  in
  let doc = "Inspect telemetry traces recorded by $(b,svc eval --trace)." in
  Cmd.group (Cmd.info "trace" ~doc) [ summary_cmd ]

(* ---------------- serve ---------------- *)

let serve_cmd =
  let db_args =
    let doc =
      "Preload a named database: $(docv) is NAME=FILE with FILE in the \
       Db_text format.  Repeatable."
    in
    Arg.(value & opt_all string [] & info [ "db" ] ~docv:"NAME=FILE" ~doc)
  in
  let capacity_arg =
    let doc = "Engine LRU cache capacity (entries)." in
    Arg.(value & opt int Server.default_capacity
         & info [ "cache-capacity" ] ~docv:"N" ~doc)
  in
  let jobs_arg =
    let doc =
      "Domains a conditioning evaluation fans out across, one per static \
       slice (0 = one per available core).  Answers and the auto \
       backend's choice are the same for every value."
    in
    Arg.(value & opt int 1 & info [ "jobs" ] ~docv:"N" ~doc)
  in
  let max_frame_arg =
    let doc = "Largest accepted frame payload, in bytes." in
    Arg.(value & opt int Frame.default_max_len
         & info [ "max-frame" ] ~docv:"BYTES" ~doc)
  in
  let fake_clock_arg =
    let doc =
      "Run telemetry on a deterministic fake clock advanced by 1ms per \
       frame — byte-exact transcripts and traces for tests."
    in
    Arg.(value & flag & info [ "fake-clock" ] ~doc)
  in
  let run dbs capacity jobs max_frame fake_clock =
    let tel, on_frame =
      if fake_clock then begin
        let clock, advance = Telemetry.Clock.fake () in
        (Telemetry.create ~clock (), fun () -> advance 0.001)
      end
      else (Telemetry.create (), Fun.id)
    in
    let server =
      try
        Server.create ~tel ~capacity ~max_frame ~jobs ()
      with Invalid_argument msg ->
        Printf.eprintf "svc serve: %s\n" msg;
        exit 2
    in
    List.iter
      (fun spec ->
         match String.index_opt spec '=' with
         | None ->
           Printf.eprintf "svc serve: --db expects NAME=FILE, got %S\n" spec;
           exit 2
         | Some i ->
           let name = String.sub spec 0 i in
           let path =
             String.sub spec (i + 1) (String.length spec - i - 1)
           in
           let text =
             try
               let ic = open_in_bin path in
               Fun.protect
                 ~finally:(fun () -> close_in_noerr ic)
                 (fun () -> really_input_string ic (in_channel_length ic))
             with Sys_error msg ->
               Printf.eprintf "svc serve: %s\n" msg;
               exit 2
           in
           (try Server.load_db server ~name ~text
            with Invalid_argument msg ->
              Printf.eprintf "svc serve: %s: %s\n" path msg;
              exit 2))
      dbs;
    Server.serve_channels ~on_frame server stdin stdout
  in
  let doc =
    "Serve SVC over length-prefixed JSON frames on stdin/stdout: a hot \
     per-(query,db) compilation cache with LRU eviction and delta \
     updates (after insert/delete, a stale engine is rebuilt once over \
     the current database: it keeps its memo and circuit session, so \
     sub-circuits the writes did not touch are reused, and plans \
     afresh).  Drive it \
     with $(b,svc client encode)/$(b,decode); see README.md for the \
     protocol reference."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run $ db_args $ capacity_arg $ jobs_arg $ max_frame_arg
          $ fake_clock_arg)

let client_cmd =
  let encode_cmd =
    let payload_args =
      let doc = "JSON request payloads, one frame each, in order." in
      Arg.(value & pos_all string [] & info [] ~docv:"JSON" ~doc)
    in
    let run payloads =
      List.iter (fun p -> print_string (Frame.encode p)) payloads
    in
    let doc =
      "Encode JSON payloads as protocol frames on stdout (pipe into \
       $(b,svc serve))."
    in
    Cmd.v (Cmd.info "encode" ~doc) Term.(const run $ payload_args)
  in
  let decode_cmd =
    let run () =
      let src = Frame.source_of_channel stdin in
      let rec loop () =
        match Frame.read src with
        | Ok None -> ()
        | Ok (Some payload) ->
          print_string payload;
          print_newline ();
          loop ()
        | Error e ->
          Printf.eprintf "svc client decode: %s\n" (Frame.error_message e);
          exit 1
      in
      loop ()
    in
    let doc =
      "Decode protocol frames from stdin to one JSON payload per line \
       (pipe $(b,svc serve) output through this)."
    in
    Cmd.v (Cmd.info "decode" ~doc) Term.(const run $ const ())
  in
  let doc = "Encode/decode the $(b,svc serve) frame protocol." in
  Cmd.group (Cmd.info "client" ~doc) [ encode_cmd; decode_cmd ]

let main =
  let doc =
    "Shapley value computation and model counting for database queries \
     (PODS 2024 reproduction)"
  in
  Cmd.group (Cmd.info "svc" ~version:"1.0.0" ~doc)
    [ shapley_cmd; eval_cmd; plan_cmd; count_cmd; prob_cmd; classify_cmd;
      reduce_cmd; max_cmd; banzhaf_cmd; lineage_cmd; explain_cmd; analyze_cmd;
      workload_cmd; trace_cmd; serve_cmd; client_cmd ]

let () = exit (Cmd.eval main)
