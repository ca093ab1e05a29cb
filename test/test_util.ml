(* Shared helpers for the test suite. *)

let fact r a = Fact.make r a
let facts l = Fact.Set.of_list l

let bigint_t : Bigint.t Alcotest.testable =
  Alcotest.testable Bigint.pp Bigint.equal

let rational_t : Rational.t Alcotest.testable =
  Alcotest.testable Rational.pp Rational.equal

let zpoly_t : Poly.Z.t Alcotest.testable = Alcotest.testable Poly.Z.pp Poly.Z.equal

let fact_set_t : Fact.Set.t Alcotest.testable =
  Alcotest.testable Fact.Set.pp Fact.Set.equal

let check_bigint = Alcotest.check bigint_t
let check_rational = Alcotest.check rational_t
let check_zpoly = Alcotest.check zpoly_t

let qcheck ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* A pool of random partitioned databases for a given schema. *)
let random_dbs ~seed ~rounds ~rels ~consts ~n_endo ~n_exo =
  let r = Workload.rng seed in
  List.init rounds (fun _ ->
      Workload.random_database r ~rels ~consts
        ~n_endo:(1 + Workload.int r n_endo)
        ~n_exo:(Workload.int r (n_exo + 1)))

(* Exhaustively compare a query's lineage-based FGMC against brute force. *)
let fgmc_agree q db =
  Poly.Z.equal
    (Model_counting.fgmc_polynomial q db)
    (Model_counting.fgmc_polynomial_brute q db)

(* The pinned [Stats.to_json] key list of each backend: the shared five,
   the backend's own keys, then [spans].  The bench harness, the cram
   tests and CI read these names. *)
let stats_json_keys backend =
  let own =
    match backend with
    | "conditioning" ->
      [ "cache_hits"; "cache_misses"; "cache_size"; "cache_capacity";
        "cache_drops"; "poly_ops"; "par_facts"; "par_cache_hits";
        "par_cache_misses" ]
    | "circuit" ->
      [ "circuit_nodes"; "circuit_edges"; "circuit_smoothing";
        "circuit_cache_hits"; "circuit_cache_misses"; "circuit_cache_drops" ]
    | "sample" ->
      [ "sample_seed"; "sample_draws"; "sample_max_hw";
        "sample_familywise_hw"; "sample_epsilon"; "sample_confidence";
        "sample_converged" ]
    | other -> Alcotest.failf "no pinned stats keys for backend %S" other
  in
  [ "backend"; "players"; "jobs"; "compilations"; "conditionings" ]
  @ own @ [ "spans" ]

let json_fields text =
  match Tracejson.parse text with
  | Ok (Tracejson.Obj fields) -> fields
  | Ok _ -> Alcotest.fail "JSON is not an object"
  | Error msg -> Alcotest.failf "JSON failed to parse: %s" msg

let json_keys text = List.map fst (json_fields text)
