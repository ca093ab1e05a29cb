(* Regular path queries over a transport network.

   A small multi-modal network: Road, Rail and Ferry edges.  We ask which
   individual links matter most for the connection "hub reachable from
   home by road, then any rail, then one final road", i.e. the RPQ

       (Road Rail* Road)(home, hub)

   and watch the Corollary 4.3 dichotomy in action on several languages.

   Run with:  dune exec examples/road_network.exe *)

let () =
  let f = Fact.make in
  let edge rel a b ~critical = (f rel [ a; b ], critical) in
  let network =
    [
      (* primary corridor *)
      edge "Road" "home" "stationA" ~critical:true;
      edge "Rail" "stationA" "stationB" ~critical:false;
      edge "Rail" "stationB" "stationC" ~critical:false;
      edge "Road" "stationC" "hub" ~critical:true;
      (* an express rail bypass *)
      edge "Rail" "stationA" "stationC" ~critical:false;
      (* a slow secondary corridor *)
      edge "Road" "home" "stationD" ~critical:false;
      edge "Rail" "stationD" "stationC" ~critical:false;
      (* a ferry nobody should need *)
      edge "Ferry" "home" "hub" ~critical:false;
    ]
  in
  let db = Database.make ~endo:(List.map fst network) ~exo:[] in
  let q = Query_parse.parse "rpq: (Road Rail* Road)(home, hub)" in

  Printf.printf "network: %d edges, query %s\n\n" (Database.size_endo db)
    (Query.to_string q);
  Printf.printf "reachable? %b\n\n" (Query.holds q db);

  Printf.printf "Shapley value of each link (its share in keeping home → hub):\n";
  let values =
    List.sort (fun (_, a) (_, b) -> Rational.compare b a) (Svc.svc_all q db)
  in
  List.iter
    (fun (fact, v) ->
       Printf.printf "  %-28s %-8s (≈ %.4f)\n" (Fact.to_string fact)
         (Rational.to_string v) (Rational.to_float v))
    values;
  Printf.printf
    "\nNote how the two unavoidable Road links dominate, the redundant rail\n\
     segments share their corridor's value, and the Ferry edge gets 0.\n";

  (* dichotomy across languages *)
  Printf.printf "\nCorollary 4.3 on related languages:\n";
  List.iter
    (fun l ->
       let j = Classify.classify_rpq (Rpq.of_string l ~src:"home" ~dst:"hub") in
       Printf.printf "  %-22s %-8s %s\n" l
         (Classify.verdict_to_string j.Classify.verdict)
         j.Classify.rule)
    [ "Road"; "Road Rail"; "Road Rail Road"; "Road Rail* Road"; "Road+Rail" ];

  (* minimal supports: the inclusion-minimal sets of links that realize the
     connection *)
  Printf.printf "\nminimal supports (inclusion-minimal link sets):\n";
  (match q with
   | Query.Rpq rpq ->
     List.iter
       (fun s -> Format.printf "  %a\n" Fact.Set.pp s)
       (Rpq.minimal_supports_in rpq (Database.all db))
   | _ -> ());

  (* probability that the connection survives if each link independently
     fails with probability 1/4 (i.e. is present with probability 3/4) *)
  let pr = Pqe.sppqe q db (Rational.of_ints 3 4) in
  Printf.printf "\nPr(connection survives | each link up w.p. 3/4) = %s (≈ %.4f)\n"
    (Rational.to_string pr) (Rational.to_float pr);

  (* the §6.4 note: in the graph setting, Shapley values of constants are
     Shapley values of *nodes* — which stations matter, rather than which
     links? endpoints stay exogenous *)
  Printf.printf "\nShapley value of intermediate stations (SVC^const = node Shapley, §6.4):\n";
  let stations =
    Term.Sset.of_list [ "stationA"; "stationB"; "stationC"; "stationD" ]
  in
  let inst = Const_svc.make_instance ~facts:(Database.all db) ~endo_consts:stations in
  List.iter
    (fun (node, v) ->
       Printf.printf "  %-10s %-8s (≈ %.4f)\n" node (Rational.to_string v)
         (Rational.to_float v))
    (List.sort
       (fun (_, a) (_, b) -> Rational.compare b a)
       (Const_svc.svc_const_all q inst))
