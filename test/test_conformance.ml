(* Universal cross-backend conformance suite over the generator registry.

   For EVERY registered workload family:

   - a qcheck sweep draws random (seed, size) instances and checks that
     every backend — auto (one evaluation per class of interchangeable
     facts), conditioning, circuit, and the sampling estimator with every
     stratum under the exact cap — at jobs ∈ {1, 4} returns exactly the
     serial per-fact conditioning values (facts, order, rationals);
   - an exhaustive sweep enumerates EVERY partitioned database (each
     fact absent / endogenous / exogenous) over a small universe drawn
     from the family's own generator and cross-checks every backend
     against raw Eq. 2 subset enumeration ([Svc.svc_brute]);
   - a golden-digest test pins the byte-exact workload serialization of
     fixed (family, seed, size) triples, so seed drift in any generator
     can never silently invalidate BENCH history.

   A future backend or family joins the matrix by registration alone. *)

open Test_util

let values_equal v1 v2 =
  List.length v1 = List.length v2
  && List.for_all2
       (fun (f1, x1) (f2, x2) -> Fact.equal f1 f2 && Rational.equal x1 x2)
       v1 v2

(* Every stratum of every conformance instance must sit under the exact
   cap, so the hybrid estimator enumerates exactly and is rationally
   equal to the exact engines: max C(n-1, k) over n <= 16 endogenous
   facts is C(15, 7) = 6435 <= 10000. *)
let hybrid_exact = Sample.config ~exact_cap:10_000 ()

(* Size ranges keep every family's endogenous count <= 16 (the bipartite
   gadget at size s has s^2 + 2s endogenous facts, the star s + 1). *)
let size_ranges =
  [ ("star", (1, 8)); ("bipartite", (1, 3)); ("rpq-road", (1, 4));
    ("crpq", (1, 6)); ("cqneg", (1, 6)); ("endogenous", (1, 6));
    ("max-svc", (1, 6)); ("const-svc", (1, 6)) ]

let size_range name =
  match List.assoc_opt name size_ranges with
  | Some r -> r
  | None -> (1, 4)  (* families registered after this suite was written *)

(* The backend × jobs matrix checked against serial conditioning. *)
let matrix =
  [ ("auto jobs=1", `Auto, 1);
    ("auto jobs=4", `Auto, 4);
    ("conditioning jobs=4", `Conditioning, 4);
    ("circuit jobs=1", `Circuit, 1);
    ("circuit jobs=4", `Circuit, 4);
    ("sample-hybrid jobs=1", `Sample hybrid_exact, 1);
    ("sample-hybrid jobs=4", `Sample hybrid_exact, 4) ]

let run ~backend ~jobs q db =
  Engine.svc_all (Engine.create ~jobs ~backend q db)

let sweep_qcheck (fam : Workload.Family.t) =
  let lo, hi = size_range fam.name in
  qcheck ~count:55
    (Printf.sprintf "%s: every backend = serial conditioning" fam.name)
    (QCheck2.Gen.pair Gen.seed_gen (QCheck2.Gen.int_range lo hi))
    (fun (seed, size) ->
       let c = Workload.generate ~family:fam.name ~seed ~size in
       let q = c.Workload.query and db = c.Workload.db in
       let reference = run ~backend:`Conditioning ~jobs:1 q db in
       List.for_all
         (fun (label, backend, jobs) ->
            if values_equal reference (run ~backend ~jobs q db) then true
            else
              QCheck2.Test.fail_reportf
                "%s disagrees with serial conditioning on %s (seed %d, size %d)"
                label fam.name seed size)
         matrix)

(* Exhaustive: the family's own generator supplies the fact universe
   (first <= 4 facts of a small instance), then 3^|U| databases each get
   every backend checked fact-by-fact against Eq. 2 brute force. *)
let sweep_exhaustive (fam : Workload.Family.t) =
  Alcotest.test_case
    (Printf.sprintf "%s: all backends vs brute force on all databases" fam.name)
    `Slow
    (fun () ->
       let c = Workload.generate ~family:fam.name ~seed:1 ~size:2 in
       let q = c.Workload.query in
       let universe =
         List.filteri (fun i _ -> i < 4)
           (Fact.Set.elements (Database.all c.Workload.db))
       in
       let checked = ref 0 in
       Gen.iter_databases universe (fun db ->
           if Database.size_endo db > 0 then begin
             incr checked;
             let brute =
               List.map (fun f -> (f, Svc.svc_brute q db f)) (Database.endo_list db)
             in
             List.iter
               (fun (label, backend, jobs) ->
                  if not (values_equal brute (run ~backend ~jobs q db)) then
                    Alcotest.failf "%s: %s mismatch on %s" fam.name label
                      (Format.asprintf "%a" Database.pp db))
               (("conditioning jobs=1", `Conditioning, 1) :: matrix)
           end);
       if !checked = 0 then Alcotest.fail "empty sweep")

(* Golden digests: one MD5 per pinned (family, seed, size) triple over
   the workload text serialization.  A digest change means the generator
   drifted — bump it consciously and re-baseline the affected BENCH
   artifacts, never silently. *)
let pinned_triples = [ (0, 3); (7, 5) ]

let digest_block () =
  String.concat ""
    (List.concat_map
       (fun (fam : Workload.Family.t) ->
          List.map
            (fun (seed, size) ->
               let c = Workload.generate ~family:fam.name ~seed ~size in
               Printf.sprintf "%s seed=%d size=%d %s\n" fam.name seed size
                 (Digest.to_hex
                    (Digest.string (Workload.to_string (Workload.to_workload c)))))
            pinned_triples)
       (Workload.families ()))

let golden_digests =
  "star seed=0 size=3 603cf94cc944ff51bda5f04d2ef84077\n\
   star seed=7 size=5 fb89d069cbaff17c1fcfc7f27307481a\n\
   bipartite seed=0 size=3 8618a7d296290a7a061da6299796369c\n\
   bipartite seed=7 size=5 0fa5e30069e35234f1f345b16dff8a99\n\
   rpq-road seed=0 size=3 df256610247c12b30f209bd506242500\n\
   rpq-road seed=7 size=5 5ce28416ddf75a0086ce2f66b65790c7\n\
   crpq seed=0 size=3 3a82bb6d7456bcb547b7d196934076c4\n\
   crpq seed=7 size=5 eca4378f1d30ca19af86f9d0a8c1af17\n\
   cqneg seed=0 size=3 d045c434f25b476bd5af4968921b599d\n\
   cqneg seed=7 size=5 4aabf02d22ef89317e575b196f484ccc\n\
   endogenous seed=0 size=3 f927357a5f63bf5979c43e3dae9d98b5\n\
   endogenous seed=7 size=5 2c9dfa0a81796ed41d3fd2df8b7717d8\n\
   max-svc seed=0 size=3 2ea9e5b57ac5f4a09db30ef8c7248d32\n\
   max-svc seed=7 size=5 b9bce742d6c503dd852a9f9936d22df5\n\
   const-svc seed=0 size=3 65b30093a5fe73cb9be2b8884e634e6b\n\
   const-svc seed=7 size=5 39159af200e78cab666aac740bc4b5e7\n"

let test_golden_digests () =
  Alcotest.(check string) "pinned generator digests" golden_digests (digest_block ())

let suite =
  List.map sweep_qcheck (Workload.families ())
  @ List.map sweep_exhaustive (Workload.families ())
  @ [ Alcotest.test_case "golden digests pin every family" `Quick
        test_golden_digests ]
