(* Classes of interchangeable facts: the detector against the
   independent checker, the checker against mutated partitions, and the
   class path of the engine against closed forms. *)

open Test_util

let classes_of q db =
  let players = Array.of_list (Database.endo_list db) in
  let phi = Lineage.lineage q db in
  (players, phi, Symmetry.classes (Symmetry.detect ~players phi))

let show classes =
  String.concat " | "
    (List.map (fun c -> String.concat " " (List.map Fact.to_string c)) classes)

let test_demo_classes () =
  let db =
    Database.make
      ~endo:[ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "T" [ "2" ];
              fact "S" [ "1"; "3" ] ]
      ~exo:[ fact "T" [ "3" ] ]
  in
  let _, _, classes = classes_of (Query_parse.parse "R(?x), S(?x,?y), T(?y)") db in
  Alcotest.(check string) "S(1,2) and T(2) share a class"
    "R(1) | S(1,2) T(2) | S(1,3)" (show classes)

let test_shapes () =
  let star = Gen.star ~spokes:5 in
  let _, _, classes = classes_of (Query_parse.parse "R(?x), S(?x,?y)") star in
  Alcotest.(check (list int)) "star: hub, then five spokes" [ 1; 5 ]
    (List.map List.length classes);
  (* null players (no term holds them) form one class *)
  let _, _, classes = classes_of (Query_parse.parse "R(?x)") star in
  Alcotest.(check (list int)) "R(hub) alone; the spokes are null players"
    [ 1; 5 ] (List.map List.length classes);
  (* a lineage with a negated variable is not a positive DNF *)
  let db =
    Database.make ~endo:[ fact "R" [ "a" ]; fact "R" [ "b" ]; fact "S" [ "a"; "c" ];
                          fact "S" [ "b"; "c" ]; fact "W" [ "c" ] ] ~exo:[]
  in
  let players, phi, classes =
    classes_of (Query_parse.parse "cqneg: R(?x), S(?x,?y), !W(?y)") db
  in
  Alcotest.(check int) "non-DNF: singletons" (Array.length players)
    (List.length classes);
  match Symmetry.check ~players phi [ Array.to_list players ] with
  | Ok _ -> Alcotest.fail "checker accepted a merged non-DNF partition"
  | Error _ -> ()

(* Merge the first two classes. *)
let merged = function
  | a :: b :: rest -> Some ((a @ b) :: rest)
  | _ -> None

(* Move the last member of the first class into the next one. *)
let moved = function
  | a :: b :: rest ->
    let last = List.nth a (List.length a - 1) in
    let a' = List.filter (fun f -> not (Fact.equal f last)) a in
    Some (List.filter (( <> ) []) [ a'; b @ [ last ] ] @ rest)
  | _ -> None

(* Every registry family, a spread of seeds and sizes: the checker
   accepts the detector's partition and rejects both mutations. *)
let test_registry_families () =
  let nontrivial = ref 0 and mutated = ref 0 in
  List.iter
    (fun (fam : Workload.Family.t) ->
       List.iter
         (fun (seed, size) ->
            let c = Workload.generate ~family:fam.name ~seed ~size in
            let players, phi, classes = classes_of c.Workload.query c.Workload.db in
            let where = Printf.sprintf "%s seed %d size %d" fam.name seed size in
            (match Symmetry.check ~players phi classes with
             | Ok r ->
               Alcotest.(check int) (where ^ ": classes") (List.length classes)
                 r.Symmetry.r_classes
             | Error msg -> Alcotest.failf "%s: checker rejected the detector: %s" where msg);
            if List.length classes < Array.length players then incr nontrivial;
            List.iter
              (fun (name, mutate) ->
                 match mutate classes with
                 | None -> ()
                 | Some bad ->
                   incr mutated;
                   (match Symmetry.check ~players phi bad with
                    | Ok _ -> Alcotest.failf "%s: checker accepted %s classes" where name
                    | Error _ -> ()))
              [ ("merged", merged); ("moved", moved) ])
         [ (0, 3); (1, 4); (2, 5); (7, 6); (3, 8) ])
    (Workload.families ());
  Alcotest.(check bool) "some family has a nontrivial class" true (!nontrivial > 0);
  Alcotest.(check bool) "mutations were checked" true (!mutated > 0)

(* detection + check on random lineages of the query corpus *)
let prop_detector_verified =
  qcheck ~count:300 "detector partitions pass the checker"
    QCheck2.Gen.(pair Gen.seed_gen bool)
    (fun (seed, graph) ->
       let q, db = if graph then Gen.random_graph_case seed else Gen.random_case seed in
       let players, phi, classes = classes_of q db in
       match Symmetry.check ~players phi classes with
       | Ok _ -> true
       | Error msg -> QCheck2.Test.fail_reportf "rejected: %s" msg)

(* Prop. 3.1's star has a closed form: R(hub) = n/(n+1), each spoke
   1/(n(n+1)); under `Auto it costs three conditionings at any n *)
let test_star_closed_form () =
  let n = 1000 in
  let db = Gen.star ~spokes:n in
  let e = Engine.create (Query_parse.parse "R(?x), S(?x,?y)") db in
  let values = Engine.svc_all e in
  let hub = fact "R" [ "hub" ] in
  List.iter
    (fun (f, v) ->
       let expected =
         if Fact.equal f hub then Rational.of_ints n (n + 1)
         else Rational.of_ints 1 (n * (n + 1))
       in
       check_rational (Fact.to_string f) expected v)
    values;
  Alcotest.(check int) "every fact answered" (n + 1) (List.length values);
  Alcotest.(check int) "full polynomial + one conditioning per class" 3
    (Engine.stats e).Stats.conditionings;
  check_rational "svc through the class index" (Rational.of_ints 1 (n * (n + 1)))
    (Engine.svc e (fact "S" [ "hub"; "n7" ]))

let suite =
  [
    Alcotest.test_case "demo lineage classes" `Quick test_demo_classes;
    Alcotest.test_case "star, null players, non-DNF shapes" `Quick test_shapes;
    Alcotest.test_case "registry: checker accepts, mutations rejected" `Quick
      test_registry_families;
    prop_detector_verified;
    Alcotest.test_case "1000-spoke star closed form" `Quick test_star_closed_form;
  ]
