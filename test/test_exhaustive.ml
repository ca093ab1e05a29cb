(* Bounded-exhaustive correctness sweep.

   Enumerate EVERY partitioned database over a small fact universe (each
   fact absent / endogenous / exogenous) and check, for several queries of
   different classes, that the whole pipeline agrees with brute force:

   - FGMC polynomial (lineage+compile) = brute-force subset enumeration;
   - SVC via the Claim A.1 route = Eq. 2 brute force (for one fact);
   - the SPPQE identity of Claim A.2 at p = 1/3;
   - the Lemma 4.1 reduction where a pseudo-connectivity witness exists.

   Unlike the random property tests, this leaves no gaps within its
   universe: 3^|U| databases per query. *)

open Test_util

let universes =
  [
    ( "q_RST",
      Query_parse.parse "R(?x), S(?x,?y), T(?y)",
      [ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "T" [ "2" ];
        fact "S" [ "1"; "1" ]; fact "T" [ "1" ]; fact "R" [ "2" ] ] );
    ( "hierarchical",
      Query_parse.parse "R(?x), S(?x,?y)",
      [ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "S" [ "1"; "3" ];
        fact "R" [ "2" ]; fact "S" [ "2"; "3" ]; fact "S" [ "3"; "3" ] ] );
    ( "union",
      Query_parse.parse "ucq: R(?x) | S(?x,?y), T(?y)",
      [ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "T" [ "2" ];
        fact "S" [ "2"; "1" ]; fact "T" [ "1" ] ] );
    ( "rpq",
      Query_parse.parse "rpq: (AB)(s,t)",
      [ fact "A" [ "s"; "1" ]; fact "B" [ "1"; "t" ]; fact "A" [ "s"; "2" ];
        fact "B" [ "2"; "t" ]; fact "A" [ "s"; "t" ] ] );
    ( "negation",
      Query_parse.parse "cqneg: R(?x), S(?x,?y), !T(?y)",
      [ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "T" [ "2" ];
        fact "S" [ "1"; "1" ]; fact "T" [ "1" ] ] );
    ( "generalized negation",
      Query_parse.parse "gcq: S(?x,?y), !(A(?x) & B(?y))",
      [ fact "S" [ "1"; "2" ]; fact "A" [ "1" ]; fact "B" [ "2" ];
        fact "S" [ "2"; "1" ]; fact "A" [ "2" ] ] );
    ( "crpq",
      Query_parse.parse "crpq: (AB+BA)(?x,a)",
      [ fact "A" [ "1"; "2" ]; fact "B" [ "2"; "a" ]; fact "B" [ "1"; "2" ];
        fact "A" [ "2"; "a" ]; fact "A" [ "a"; "1" ] ] );
    ( "cq with constants",
      Query_parse.parse "R(a,?x), S(?x,b)",
      [ fact "R" [ "a"; "1" ]; fact "S" [ "1"; "b" ]; fact "R" [ "a"; "2" ];
        fact "S" [ "2"; "b" ]; fact "R" [ "c"; "1" ] ] );
    ( "rpq with epsilon",
      Query_parse.parse "rpq: (A*)(s,t)",
      [ fact "A" [ "s"; "1" ]; fact "A" [ "1"; "t" ]; fact "A" [ "s"; "t" ];
        fact "A" [ "t"; "s" ] ] );
    ( "conjunction",
      Query.And (Query_parse.parse "R(?x)", Query_parse.parse "ucq: S(?y) | T(?y,?z)"),
      [ fact "R" [ "1" ]; fact "S" [ "2" ]; fact "T" [ "2"; "3" ]; fact "R" [ "2" ];
        fact "T" [ "3"; "3" ] ] );
  ]

let sweep_counting (name, q, universe) =
  Alcotest.test_case (name ^ ": FGMC on all databases") `Slow (fun () ->
      let checked = ref 0 in
      Gen.iter_databases universe (fun db ->
          incr checked;
          if not (fgmc_agree q db) then
            Alcotest.failf "FGMC mismatch on %s" (Format.asprintf "%a" Database.pp db));
      Alcotest.(check int)
        "all databases checked"
        (int_of_float (3. ** float_of_int (List.length universe)))
        !checked)

let sweep_svc (name, q, universe) =
  Alcotest.test_case (name ^ ": SVC on all databases") `Slow (fun () ->
      Gen.iter_databases universe (fun db ->
          match Database.endo_list db with
          | [] -> ()
          | mu :: _ ->
            let v1 = Svc.svc q db mu in
            let v2 = Svc.svc_brute q db mu in
            if not (Rational.equal v1 v2) then
              Alcotest.failf "SVC mismatch on %s" (Format.asprintf "%a" Database.pp db)))

(* The circuit backend against raw Eq. 2 game enumeration, for EVERY fact
   of EVERY database over the universe — the knowledge-compilation path
   gets the same no-gaps treatment as the conditioning one. *)
let sweep_circuit (name, q, universe) =
  Alcotest.test_case (name ^ ": circuit backend on all databases") `Slow
    (fun () ->
       Gen.iter_databases universe (fun db ->
           if Database.size_endo db > 0 then
             let e = Engine.create ~backend:`Circuit q db in
             List.iter
               (fun (mu, v) ->
                  if not (Rational.equal v (Svc.svc_brute q db mu)) then
                    Alcotest.failf "circuit SVC mismatch on %s at %s"
                      (Format.asprintf "%a" Database.pp db)
                      (Fact.to_string mu))
               (Engine.svc_all e)))

(* The sampling backend gets the same no-gaps treatment: on EVERY
   database over the universe, (a) the hybrid estimator with every
   stratum under the exact cap equals Eq. 2 brute force rationally, and
   (b) a budget-bound Monte-Carlo run at δ = 10⁻⁹ traps the true value
   inside every reported interval — the stopping rule never reports a
   half-width below the true error. *)
let sweep_sample (name, q, universe) =
  Alcotest.test_case (name ^ ": sampling backend on all databases") `Slow
    (fun () ->
       let mc =
         Sample.config ~strategy:Sample.Monte_carlo ~seed:0
           ~epsilon:(Rational.of_ints 1 1000)
           ~confidence:(Rational.of_ints 999_999_999 1_000_000_000)
           ~max_draws:128 ()
       in
       Gen.iter_databases universe (fun db ->
           if Database.size_endo db > 0 then begin
             let brute =
               List.map
                 (fun f -> (f, Svc.svc_brute q db f))
                 (Database.endo_list db)
             in
             let hybrid =
               Engine.svc_all
                 (Engine.create ~backend:(`Sample Sample.default) q db)
             in
             List.iter2
               (fun (f1, v1) (f2, v2) ->
                  if not (Fact.equal f1 f2 && Rational.equal v1 v2) then
                    Alcotest.failf "hybrid-exact SVC mismatch on %s at %s"
                      (Format.asprintf "%a" Database.pp db)
                      (Fact.to_string f1))
               hybrid brute;
             let e = Engine.create ~backend:(`Sample mc) q db in
             ignore (Engine.svc_all e);
             let r = Option.get (Engine.sample_report e) in
             Array.iter
               (fun (est : Sample.estimate) ->
                  let truth = List.assoc est.Sample.fact brute in
                  if
                    Rational.lt est.Sample.half_width
                      (Rational.abs (Rational.sub est.Sample.value truth))
                  then
                    Alcotest.failf "CI misses the true value on %s at %s"
                      (Format.asprintf "%a" Database.pp db)
                      (Fact.to_string est.Sample.fact))
               r.Sample.estimates
           end))

let sweep_sppqe (name, q, universe) =
  Alcotest.test_case (name ^ ": SPPQE on all databases") `Slow (fun () ->
      let p = Rational.of_ints 1 3 in
      Gen.iter_databases universe (fun db ->
          let v1 = Pqe.sppqe q db p in
          let v2 = Pqe.pqe_brute q (Prob_db.uniform db p) in
          if not (Rational.equal v1 v2) then
            Alcotest.failf "SPPQE mismatch on %s" (Format.asprintf "%a" Database.pp db)))

let sweep_lemma41 =
  (* only for the hom-closed connected queries in the corpus; use a smaller
     universe to keep the n+1 SVC-oracle calls per database affordable *)
  Alcotest.test_case "q_RST: Lemma 4.1 on all small databases" `Slow (fun () ->
      let q = Query_parse.parse "R(?x), S(?x,?y), T(?y)" in
      let universe =
        [ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "T" [ "2" ]; fact "T" [ "1" ] ]
      in
      Gen.iter_databases universe (fun db ->
          match Fgmc_to_svc.lemma41_auto ~svc:(Oracle.svc_of q) ~query:q db with
          | Some poly ->
            if not (Poly.Z.equal poly (Model_counting.fgmc_polynomial q db)) then
              Alcotest.failf "Lemma 4.1 mismatch on %s"
                (Format.asprintf "%a" Database.pp db)
          | None -> Alcotest.fail "missing witness"))

(* Shapley values of constants, exhaustively over all endogenous-constant
   partitions of a fixed small database (Section 6.4 + Prop. 6.3). *)
let sweep_constants =
  Alcotest.test_case "constants: all partitions of a small database" `Slow (fun () ->
      let q = Query_parse.parse "R(?x,?y), T(?y,?z)" in
      let fs =
        facts
          [ fact "R" [ "1"; "2" ]; fact "T" [ "2"; "3" ]; fact "R" [ "4"; "2" ];
            fact "T" [ "2"; "1" ] ]
      in
      let consts = Term.Sset.elements (Fact.Set.consts fs) in
      let n = List.length consts in
      for mask = 0 to (1 lsl n) - 1 do
        let endo_consts =
          List.fold_left
            (fun acc (i, c) ->
               if mask land (1 lsl i) <> 0 then Term.Sset.add c acc else acc)
            Term.Sset.empty
            (List.mapi (fun i c -> (i, c)) consts)
        in
        let inst = Const_svc.make_instance ~facts:fs ~endo_consts in
        (* counting: lineage-based = brute *)
        if
          not
            (Poly.Z.equal
               (Const_svc.fgmc_const_polynomial q inst)
               (Const_svc.fgmc_const_polynomial_brute q inst))
        then Alcotest.failf "fgmc_const mismatch on mask %d" mask;
        (* Prop 6.3 backward direction on the first endogenous constant *)
        match Term.Sset.min_elt_opt endo_consts with
        | None -> ()
        | Some c ->
          let via_red =
            Const_red.svc_const_via_fgmc_const
              ~fgmc_const:(Const_red.fgmc_const_oracle q) inst c
          in
          if not (Rational.equal via_red (Const_svc.svc_const q inst c)) then
            Alcotest.failf "svc_const mismatch on mask %d" mask
      done)

(* ------------------------------------------------------------------ *)
(* Conformance goldens                                                 *)
(*                                                                     *)
(* MD5 digests of the full SVC output on pinned registry instances,    *)
(* per backend and at jobs ∈ {1, 4}.  These pin the outputs            *)
(* bit-identically: any change to arithmetic, compilation order, or    *)
(* the parallel merge that alters a single printed rational flips a    *)
(* digest.  The conditioning and circuit backends (and the hybrid      *)
(* sampler when every stratum fits under its exact cap, as on [star])  *)
(* must produce the same digest; the sampler's Monte-Carlo fallback on *)
(* [bipartite] is seeded, so its digest is pinned too — just to a      *)
(* different value.                                                    *)
(* ------------------------------------------------------------------ *)

let svc_digest ~backend ~jobs (case : Workload.case) =
  let e = Engine.create ~backend ~jobs case.Workload.query case.Workload.db in
  let lines =
    List.map
      (fun (f, v) -> Fact.to_string f ^ "=" ^ Rational.to_string v)
      (Engine.svc_all e)
  in
  Digest.to_hex (Digest.string (String.concat "\n" lines))

let golden_digests =
  [
    ("star", 0, 4, "conditioning", `Conditioning, "e14544f048cd5f512a659a81cb19c421");
    ("star", 0, 4, "circuit", `Circuit, "e14544f048cd5f512a659a81cb19c421");
    ("star", 0, 4, "sample", `Sample Sample.default, "e14544f048cd5f512a659a81cb19c421");
    ("bipartite", 0, 3, "conditioning", `Conditioning, "8992ce54d6c7c1d164db03d7ddecfd89");
    ("bipartite", 0, 3, "circuit", `Circuit, "8992ce54d6c7c1d164db03d7ddecfd89");
    ("bipartite", 0, 3, "sample", `Sample Sample.default, "4041ff4ef8eb85fe26781109ed998c4a");
  ]

let conformance_goldens =
  Alcotest.test_case "conformance: golden SVC digests per backend x jobs" `Quick
    (fun () ->
       List.iter
         (fun (family, seed, size, bname, backend, expected) ->
            let case = Workload.generate ~family ~seed ~size in
            List.iter
              (fun jobs ->
                 Alcotest.(check string)
                   (Printf.sprintf "%s/%d/%d %s jobs=%d" family seed size bname jobs)
                   expected
                   (svc_digest ~backend ~jobs case))
              [ 1; 4 ])
         golden_digests)

(* The one-line JSON emitted by [Stats.to_json] is consumed by the bench
   harness, the cram tests and CI; pin each backend's field names and
   order so a refactor of the stats record cannot silently reshape it,
   and check that no backend prints another backend's fields. *)
let stats_json_shape =
  Alcotest.test_case "Stats.to_json shape is pinned" `Quick (fun () ->
      let case = Workload.generate ~family:"star" ~seed:0 ~size:3 in
      List.iter
        (fun (backend, jobs) ->
           let e = Engine.create ~backend ~jobs case.Workload.query case.Workload.db in
           ignore (Engine.svc_all e);
           let s = Engine.stats e in
           let name = Stats.backend_name s in
           let keys = json_keys (Stats.to_json s) in
           let label = Printf.sprintf "%s jobs=%d" name jobs in
           Alcotest.(check (list string))
             (label ^ ": pinned keys") (stats_json_keys name) keys;
           List.iter
             (fun (prefix, owner) ->
                if owner <> name then
                  Alcotest.(check (list string))
                    (Printf.sprintf "%s: no %s* keys" label prefix) []
                    (List.filter (String.starts_with ~prefix) keys))
             [ ("circuit_", "circuit"); ("sample_", "sample");
               ("par_", "conditioning"); ("cache_", "conditioning") ])
        [ (`Conditioning, 1); (`Conditioning, 4); (`Circuit, 1); (`Circuit, 4);
          (`Sample Sample.default, 1); (`Sample Sample.default, 4) ])

let suite =
  List.concat_map
    (fun entry -> [ sweep_counting entry; sweep_sppqe entry ])
    universes
  @ List.map sweep_svc
      (List.filter (fun (n, _, _) -> n = "q_RST" || n = "negation") universes)
  @ List.map sweep_circuit
      (List.filter (fun (n, _, _) -> n = "q_RST" || n = "negation") universes)
  @ List.map sweep_sample
      (List.filter (fun (n, _, _) -> n = "q_RST" || n = "negation") universes)
  @ [ sweep_lemma41; sweep_constants; conformance_goldens; stats_json_shape ]
