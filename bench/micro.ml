(* Bechamel microbenchmarks: one Test.make per experiment id, measuring the
   kernel that regenerates the corresponding artifact. *)

open Bechamel
open Toolkit

let qrst = Query_parse.parse "R(?x), S(?x,?y), T(?y)"

let small_db =
  Database.make
    ~endo:
      [ Fact.make "R" [ "1" ]; Fact.make "S" [ "1"; "2" ]; Fact.make "T" [ "2" ];
        Fact.make "S" [ "1"; "3" ] ]
    ~exo:[ Fact.make "T" [ "3" ] ]

let graph_db = Workload.path_graph ~label_word:[ "A"; "B"; "C" ] ~n_paths:3

let tests () =
  [
    Test.make ~name:"fig1a/svc_via_fgmc" (Staged.stage (fun () ->
        let mu = List.hd (Database.endo_list small_db) in
        Svc_to_fgmc.svc ~fgmc:(Oracle.fgmc_of qrst) small_db mu));
    Test.make ~name:"fig1a/fgmc_via_sppqe" (Staged.stage (fun () ->
        Fgmc_sppqe.fgmc_via_sppqe ~sppqe:(Oracle.sppqe_of qrst) small_db));
    Test.make ~name:"fig2/lemma41_engine" (Staged.stage (fun () ->
        Fgmc_to_svc.lemma41_auto ~svc:(Oracle.svc_of qrst) ~query:qrst small_db));
    Test.make ~name:"fig1b/classify_corpus" (Staged.stage (fun () ->
        List.map
          (fun s -> Classify.classify (Query_parse.parse s))
          [ "R(?x), S(?x,?y)"; "R(?x), S(?x,?y), T(?y)"; "ucq: R(?x) | S(?x,?y)" ]));
    Test.make ~name:"cor43/rpq_dichotomy" (Staged.stage (fun () ->
        Classify.classify_rpq (Rpq.of_string "A(B+C)*D" ~src:"s" ~dst:"t")));
    Test.make ~name:"cor43/rpq_fgmc" (Staged.stage (fun () ->
        Model_counting.fgmc_polynomial (Query_parse.parse "rpq: (ABC)(s,t)") graph_db));
    Test.make ~name:"lem61/fgmc_via_fmc" (Staged.stage (fun () ->
        Endogenous.fgmc_polynomial_via_fmc ~fmc:(Oracle.fgmc_of qrst) small_db));
    Test.make ~name:"lem63/max_svc" (Staged.stage (fun () -> Max_svc.max_svc qrst small_db));
    Test.make ~name:"prop63/const_counting" (Staged.stage (fun () ->
        let fs = Workload.bibliography ~n_authors:4 ~n_papers:5 ~seed:3 in
        let authors =
          Term.Sset.filter
            (fun c -> String.length c > 6 && String.sub c 0 6 = "author")
            (Fact.Set.consts fs)
        in
        let inst = Const_svc.make_instance ~facts:fs ~endo_consts:authors in
        Const_svc.fgmc_const_polynomial
          (Query_parse.parse "Publication(?x,?y), Keyword(?y,shapley)") inst));
    Test.make ~name:"scale/lineage_star40" (Staged.stage (fun () ->
        Model_counting.fgmc_polynomial
          (Query_parse.parse "R(?x), S(?x,?y)")
          (Workload.star_join ~spokes:40)));
    Test.make ~name:"safe_plan/fgmc_star40" (Staged.stage (fun () ->
        Lifted.cq (Cq.parse "R(?x), S(?x,?y)") (Workload.star_join ~spokes:40)));
    Test.make ~name:"provenance/nx_polynomial" (Staged.stage (fun () ->
        Annotate.provenance_polynomial (Cq.parse "R(?x), S(?x,?y)")
          (Database.all (Workload.star_join ~spokes:20))));
    Test.make ~name:"substrate/bigint_fact100" (Staged.stage (fun () -> Bigint.factorial 100));
    Test.make ~name:"substrate/vandermonde8" (Staged.stage (fun () ->
        let pts = Array.init 8 (fun i -> Rational.of_int (i + 1)) in
        let b = Array.init 8 (fun i -> Rational.of_int (i * i)) in
        Linalg.solve_vandermonde pts b));
  ]

(* ------------------------------------------------------------------ *)
(* ARITH: the adaptive small/big integer tier and the flat polynomial  *)
(* accumulator against their always-Big / always-allocating reference  *)
(* paths.  Emits BENCH_arith.json; gates >= 2x on the small-only       *)
(* kernel (the one the two-tier representation exists for).            *)
(* BENCH_ARITH_CAP bounds the iteration count (for CI smoke runs).     *)
(* ------------------------------------------------------------------ *)

let arith_cap () =
  match Sys.getenv_opt "BENCH_ARITH_CAP" with
  | None | Some "" -> max_int
  | Some s -> (try int_of_string s with Failure _ -> max_int)

type arith_entry = {
  kernel : string;
  iters : int;
  adaptive_s : float;
  reference_s : float;
}

let arith_json_of_entry e =
  Printf.sprintf
    "{\"kernel\":%S,\"iters\":%d,\"adaptive_ms\":%.3f,\"reference_ms\":%.3f,\
     \"speedup\":%.2f}"
    e.kernel e.iters (e.adaptive_s *. 1000.) (e.reference_s *. 1000.)
    (e.reference_s /. e.adaptive_s)

let arith_write_json entries ~pass =
  let oc = open_out "BENCH_arith.json" in
  output_string oc
    (Printf.sprintf
       "{\"experiment\":\"arith\",\"cap\":%s,\"speedup_target\":2.0,\
        \"pass\":%b,\"entries\":[%s]}\n"
       (let c = arith_cap () in
        if c = max_int then "null" else string_of_int c)
       pass
       (String.concat "," (List.map arith_json_of_entry entries)));
  close_out oc

(* One dot-product pass: acc += x.(i) * y.(i).  The adaptive side runs the
   public ops; the reference side runs the pre-promotion always-Big path
   (inputs forced to the magnitude-array representation outside the timed
   region, [For_tests.*_ref] keeping every intermediate there). *)
let dot_adaptive xs ys =
  let acc = ref Bigint.zero in
  for i = 0 to Array.length xs - 1 do
    acc := Bigint.add !acc (Bigint.mul xs.(i) ys.(i))
  done;
  !acc

let dot_reference xs ys =
  let acc = ref (Bigint.For_tests.force_big Bigint.zero) in
  for i = 0 to Array.length xs - 1 do
    acc := Bigint.For_tests.add_ref !acc (Bigint.For_tests.mul_ref xs.(i) ys.(i))
  done;
  !acc

let time_kernel ~iters f =
  (* one warm-up pass keeps first-touch allocation out of the sample *)
  ignore (Sys.opaque_identity (f ()));
  let (), s =
    Report.time_it (fun () ->
        for _ = 1 to iters do
          ignore (Sys.opaque_identity (f ()))
        done)
  in
  s

let dot_kernel ~name ~iters mk =
  let xs = Array.init 64 (fun i -> mk (17 * i + 1)) in
  let ys = Array.init 64 (fun i -> mk (23 * i + 5)) in
  let bxs = Array.map Bigint.For_tests.force_big xs in
  let bys = Array.map Bigint.For_tests.force_big ys in
  let adaptive_s = time_kernel ~iters (fun () -> dot_adaptive xs ys) in
  let reference_s = time_kernel ~iters (fun () -> dot_reference bxs bys) in
  if not (Bigint.equal (dot_adaptive xs ys) (dot_reference bxs bys)) then
    Printf.printf "!! %s: adaptive/reference MISMATCH\n" name;
  { kernel = name; iters; adaptive_s; reference_s }

(* Conditioning-shaped polynomial accumulation: acc += c . z^k . p, the
   engine's hot loop.  Adaptive = the in-place accumulator; reference =
   the allocating add . scale . shift composition. *)
let poly_kernel ~iters =
  let polys =
    Array.init 48 (fun i ->
        Poly.Z.of_coeffs
          (List.init 32 (fun j -> Bigint.of_int (((i + 2) * (j + 3)) mod 97))))
  in
  let adaptive () =
    let acc = Poly.Z.acc_create 128 in
    Array.iteri
      (fun i p -> Poly.Z.acc_add_scaled acc (Bigint.of_int (i + 1)) (i mod 7) p)
      polys;
    Poly.Z.acc_total acc
  in
  let reference () =
    let acc = ref Poly.Z.zero in
    Array.iteri
      (fun i p ->
         acc :=
           Poly.Z.add !acc
             (Poly.Z.scale (Bigint.of_int (i + 1)) (Poly.Z.shift (i mod 7) p)))
      polys;
    !acc
  in
  let adaptive_s = time_kernel ~iters adaptive in
  let reference_s = time_kernel ~iters reference in
  if not (Poly.Z.equal (adaptive ()) (reference ())) then
    Printf.printf "!! poly-accumulate: adaptive/reference MISMATCH\n";
  { kernel = "poly-accumulate"; iters; adaptive_s; reference_s }

let arith () =
  Report.heading "ARITH"
    "Adaptive small/big integers + in-place polynomial accumulation vs \
     always-Big reference (emits BENCH_arith.json)";
  let cap = arith_cap () in
  let iters = min cap 20_000 in
  let p40 = Bigint.pow (Bigint.of_int 10) 40 in
  let entries =
    [
      (* operands and every intermediate stay on the small tier *)
      dot_kernel ~name:"small-only" ~iters
        (fun v -> Bigint.of_int ((v mod 2000) - 1000));
      (* operands near 2^31: products straddle the promotion boundary *)
      dot_kernel ~name:"mixed" ~iters:(min cap 4_000)
        (fun v -> Bigint.of_int ((1 lsl 30) + (v * 1_000_003)));
      (* 40-digit operands: both paths run the magnitude-array code *)
      dot_kernel ~name:"big-only" ~iters:(min cap 2_000)
        (fun v -> Bigint.add p40 (Bigint.of_int v));
      poly_kernel ~iters:(min cap 400);
    ]
  in
  Report.table
    ~headers:[ "kernel"; "iters"; "adaptive"; "always-Big"; "speedup" ]
    (List.map
       (fun e ->
          [ e.kernel; string_of_int e.iters; Report.ms e.adaptive_s;
            Report.ms e.reference_s;
            Printf.sprintf "%.1fx" (e.reference_s /. e.adaptive_s) ])
       entries);
  let small = List.find (fun e -> e.kernel = "small-only") entries in
  let s = small.reference_s /. small.adaptive_s in
  Printf.printf
    "small-only kernel: %.1fx over the always-Big path (target: >= 2x) — %s\n"
    s
    (Report.ok (s >= 2.));
  (* Capped (smoke) runs validate agreement only: wall-clock ratios at toy
     iteration counts are noise. *)
  let pass = s >= 2. || cap <> max_int in
  arith_write_json entries ~pass;
  Printf.printf "Wrote BENCH_arith.json (%d entries).\n" (List.length entries);
  pass

let run () =
  Report.heading "MICRO" "Bechamel microbenchmarks (ns/run, OLS estimate)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.25) ~kde:None () in
  let raw = Benchmark.all cfg instances (Test.make_grouped ~name:"micro" (tests ())) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
       let est =
         match Analyze.OLS.estimates ols with
         | Some [ e ] -> Printf.sprintf "%.0f ns" e
         | _ -> "n/a"
       in
       rows := [ name; est ] :: !rows)
    results;
  Report.table ~headers:[ "kernel"; "time/run" ]
    (List.sort compare !rows);
  true
