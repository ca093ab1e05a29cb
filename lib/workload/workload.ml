(* ------------------------------------------------------------------ *)
(* Named workloads: (query, database) cases for batch analysis/runs    *)
(* ------------------------------------------------------------------ *)

type case = {
  cname : string;
  query_src : string;
  query : Query.t;
  db : Database.t;
}

type t = {
  wname : string;
  cases : case list;
}

let make ~name ~cases = { wname = name; cases }
let name w = w.wname
let cases w = w.cases

let case ~name ~query_src ~db =
  { cname = name; query_src; query = Query_parse.parse query_src; db }

(* Text format, one self-contained file:

     workload demo          # optional header line
     case first
     query R(?x), S(?x,?y)
     endo R(1)
     endo S(1,2)
     exo  T(2)

     case second
     query rpq: (AB)(s,t)
     endo A(s,m)
     endo B(m,t)

   '#' starts a comment; blank lines are ignored.  Each [case] block has
   exactly one [query] line and any number of endo/exo fact lines. *)

exception Parse_error of string * int  (* message, 1-based line *)

let parse_result text =
  let strip line =
    match String.index_opt line '#' with
    | Some i -> String.trim (String.sub line 0 i)
    | None -> String.trim line
  in
  let split_tag line =
    match String.index_opt line ' ' with
    | None ->
      (* also accept tab-separated tags, as in Db_text *)
      (match String.index_opt line '\t' with
       | None -> (line, "")
       | Some i ->
         (String.sub line 0 i,
          String.trim (String.sub line i (String.length line - i))))
    | Some i ->
      (String.sub line 0 i, String.trim (String.sub line i (String.length line - i)))
  in
  try
    let wname = ref "workload" in
    let finished = ref [] in
    (* pending case: name, lineno, query source option, reversed fact lines *)
    let pending = ref None in
    let flush () =
      match !pending with
      | None -> ()
      | Some (cname, lineno, qsrc, facts) ->
        let query_src =
          match qsrc with
          | Some s -> s
          | None -> raise (Parse_error (Printf.sprintf "case %S has no query line" cname, lineno))
        in
        let query =
          match Query_parse.parse_result query_src with
          | Ok q -> q
          | Error d ->
            raise (Parse_error
                     (Printf.sprintf "case %S: %s" cname (Query_parse.diagnostic_to_string d),
                      lineno))
        in
        let endo = List.filter_map (fun (t, f) -> if t = `Endo then Some f else None) facts in
        let exo = List.filter_map (fun (t, f) -> if t = `Exo then Some f else None) facts in
        let db =
          try Database.make ~endo ~exo
          with Invalid_argument m -> raise (Parse_error (Printf.sprintf "case %S: %s" cname m, lineno))
        in
        finished := { cname; query_src; query; db } :: !finished;
        pending := None
    in
    List.iteri
      (fun i raw ->
         let lineno = i + 1 in
         let line = strip raw in
         if line <> "" then begin
           let tag, rest = split_tag line in
           match tag with
           | "workload" -> wname := if rest = "" then !wname else rest
           | "case" ->
             flush ();
             if rest = "" then raise (Parse_error ("case line needs a name", lineno));
             pending := Some (rest, lineno, None, [])
           | "query" ->
             (match !pending with
              | None -> raise (Parse_error ("query line outside a case", lineno))
              | Some (_, _, Some _, _) ->
                raise (Parse_error ("a case has exactly one query line", lineno))
              | Some (n, l, None, facts) -> pending := Some (n, l, Some rest, facts))
           | "endo" | "exo" ->
             (match !pending with
              | None -> raise (Parse_error ("fact line outside a case", lineno))
              | Some (n, l, q, facts) ->
                let f =
                  try Db_text.parse_fact rest
                  with Invalid_argument m -> raise (Parse_error (m, lineno))
                in
                let part = if tag = "endo" then `Endo else `Exo in
                pending := Some (n, l, q, facts @ [ (part, f) ]))
           | _ ->
             raise (Parse_error
                      (Printf.sprintf
                         "expected 'workload', 'case', 'query', 'endo' or 'exo', got %S" tag,
                       lineno))
         end)
      (String.split_on_char '\n' text);
    flush ();
    Ok { wname = !wname; cases = List.rev !finished }
  with Parse_error (msg, line) -> Error (msg, line)

let parse text =
  match parse_result text with
  | Ok w -> w
  | Error (msg, line) ->
    invalid_arg (Printf.sprintf "Workload.parse: line %d: %s" line msg)

let load path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let content = really_input_string ic n in
  close_in ic;
  parse content

let to_string w =
  let buf = Buffer.create 256 in
  Buffer.add_string buf ("workload " ^ w.wname ^ "\n");
  List.iter
    (fun c ->
       Buffer.add_string buf (Printf.sprintf "\ncase %s\nquery %s\n" c.cname c.query_src);
       Fact.Set.iter
         (fun f -> Buffer.add_string buf ("endo " ^ Fact.to_string f ^ "\n"))
         (Database.endo c.db);
       Fact.Set.iter
         (fun f -> Buffer.add_string buf ("exo  " ^ Fact.to_string f ^ "\n"))
         (Database.exo c.db))
    w.cases;
  Buffer.contents buf

(* Small deterministic xorshift PRNG, independent of Stdlib.Random so that
   instances are stable across OCaml versions. *)
type rng = { mutable state : int64 }

let rng seed = { state = Int64.of_int (if seed = 0 then 0x9E3779B9 else seed) }

let next r =
  let open Int64 in
  let x = r.state in
  let x = logxor x (shift_left x 13) in
  let x = logxor x (shift_right_logical x 7) in
  let x = logxor x (shift_left x 17) in
  r.state <- x;
  x

let int r bound =
  if bound <= 0 then invalid_arg "Workload.int: non-positive bound";
  Int64.to_int (Int64.rem (Int64.logand (next r) Int64.max_int) (Int64.of_int bound))

let bool r = int r 2 = 0

let pick r l =
  match l with
  | [] -> invalid_arg "Workload.pick: empty list"
  | _ -> List.nth l (int r (List.length l))

let random_fact r ~rels ~consts =
  let name, arity = pick r rels in
  Fact.make name (List.init arity (fun _ -> pick r consts))

let distinct_facts r ~gen ~count ~avoid =
  let rec go acc tries =
    if Fact.Set.cardinal acc >= count then acc
    else if tries > 1000 * (count + 1) then acc (* pool exhausted *)
    else begin
      let f = gen r in
      if Fact.Set.mem f acc || Fact.Set.mem f avoid then go acc (tries + 1)
      else go (Fact.Set.add f acc) (tries + 1)
    end
  in
  go Fact.Set.empty 0

let random_database r ~rels ~consts ~n_endo ~n_exo =
  let gen r = random_fact r ~rels ~consts in
  let endo = distinct_facts r ~gen ~count:n_endo ~avoid:Fact.Set.empty in
  let exo = distinct_facts r ~gen ~count:n_exo ~avoid:endo in
  Database.of_sets ~endo ~exo

let random_graph r ~labels ~nodes ~n_endo ~n_exo =
  random_database r ~rels:(List.map (fun l -> (l, 2)) labels) ~consts:nodes ~n_endo ~n_exo

let rst_gadget ?(complete = false) ~rows ~extra_exo () =
  let left i = Printf.sprintf "l%d" i and right i = Printf.sprintf "r%d" i in
  let r_facts = List.init rows (fun i -> Fact.make "R" [ left i ]) in
  let t_facts = List.init rows (fun i -> Fact.make "T" [ right i ]) in
  let s_facts =
    List.concat
      (List.init rows (fun i ->
           List.init rows (fun j ->
               if complete || (i + j) mod 2 = 0 then
                 [ Fact.make "S" [ left i; right j ] ]
               else [])))
    |> List.concat
  in
  if extra_exo then
    let exo, endo_s =
      List.partition (fun f -> Hashtbl.hash f mod 3 = 0) s_facts
    in
    Database.make ~endo:(r_facts @ t_facts @ endo_s) ~exo
  else Database.make ~endo:(r_facts @ t_facts @ s_facts) ~exo:[]

let path_graph ~label_word ~n_paths =
  let l = List.length label_word in
  let edges =
    List.concat
      (List.init n_paths (fun p ->
           let node i =
             if i = 0 then "s" else if i = l then "t" else Printf.sprintf "p%d_%d" p i
           in
           List.mapi (fun i lbl -> Fact.make lbl [ node i; node (i + 1) ]) label_word))
  in
  Database.make ~endo:edges ~exo:[]

let bibliography ~n_authors ~n_papers ~seed =
  let r = rng seed in
  let author i = Printf.sprintf "author%d" i and paper i = Printf.sprintf "paper%d" i in
  let pubs =
    List.concat
      (List.init n_authors (fun a ->
           List.filter_map
             (fun p -> if int r 3 = 0 then Some (Fact.make "Publication" [ author a; paper p ]) else None)
             (List.init n_papers (fun p -> p))))
  in
  let keywords =
    List.filter_map
      (fun p ->
         Some (Fact.make "Keyword" [ paper p; (if int r 2 = 0 then "shapley" else "logic") ]))
      (List.init n_papers (fun p -> p))
  in
  Fact.Set.of_list (pubs @ keywords)

let star_join ~spokes =
  let hub = "hub" in
  let s_facts = List.init spokes (fun i -> Fact.make "S" [ hub; Printf.sprintf "n%d" i ]) in
  Database.make ~endo:(Fact.make "R" [ hub ] :: s_facts) ~exo:[]

(* ------------------------------------------------------------------ *)
(* Generator registry: seeded, size-parameterized instance families    *)
(* ------------------------------------------------------------------ *)

module Family = struct
  type tractability = [ `Fp | `Hard | `Mixed ]

  let tractability_to_string = function
    | `Fp -> "FP"
    | `Hard -> "#P-hard"
    | `Mixed -> "mixed"

  type t = {
    name : string;
    description : string;
    tractability : tractability;
    generate : seed:int -> size:int -> case;
  }
end

let registry : Family.t list ref = ref []

let register_family (f : Family.t) =
  if String.trim f.Family.name = "" then
    invalid_arg "Workload.register_family: empty family name";
  if List.exists (fun (g : Family.t) -> g.Family.name = f.Family.name) !registry
  then
    invalid_arg
      (Printf.sprintf "Workload.register_family: duplicate family %S"
         f.Family.name);
  registry := !registry @ [ f ]

let families () = !registry

let find_family name =
  List.find_opt (fun (f : Family.t) -> f.Family.name = name) !registry

let case_name ~family ~seed ~size = Printf.sprintf "%s-s%d-n%d" family seed size

let to_workload c = { wname = c.cname; cases = [ c ] }

(* Every generator below is a pure function of (seed, size): the only
   randomness is the xorshift [rng] above, consumed in a fixed order, so
   a (family, seed, size) triple always serializes byte-identically (the
   golden-digest regression test in test/test_conformance.ml pins this).
   At [seed = 0] the star and bipartite families reproduce the historical
   bench instances ([star_join], complete [rst_gadget]) exactly, keeping
   the BENCH_*.json history comparable. *)

let star_family ~seed ~size =
  let name = case_name ~family:"star" ~seed ~size in
  let db =
    if seed = 0 then star_join ~spokes:size
    else begin
      (* seeded variation: some spokes become exogenous *)
      let r = rng seed in
      let hub = "hub" in
      let endo = ref [ Fact.make "R" [ hub ] ] and exo = ref [] in
      for i = 0 to size - 1 do
        let f = Fact.make "S" [ hub; Printf.sprintf "n%d" i ] in
        if int r 4 = 0 then exo := f :: !exo else endo := f :: !endo
      done;
      Database.make ~endo:(List.rev !endo) ~exo:(List.rev !exo)
    end
  in
  case ~name ~query_src:"R(?x), S(?x,?y)" ~db

let bipartite_family ~seed ~size =
  let name = case_name ~family:"bipartite" ~seed ~size in
  let db =
    if seed = 0 then rst_gadget ~complete:true ~rows:size ~extra_exo:false ()
    else begin
      (* seeded variation: a random sub-grid of the S block *)
      let r = rng seed in
      let left i = Printf.sprintf "l%d" i and right i = Printf.sprintf "r%d" i in
      let rt =
        List.init size (fun i -> Fact.make "R" [ left i ])
        @ List.init size (fun i -> Fact.make "T" [ right i ])
      in
      let s =
        List.concat
          (List.init size (fun i ->
               List.filter_map
                 (fun j ->
                    if int r 3 < 2 then Some (Fact.make "S" [ left i; right j ])
                    else None)
                 (List.init size Fun.id)))
      in
      Database.make ~endo:(rt @ s) ~exo:[]
    end
  in
  case ~name ~query_src:"R(?x), S(?x,?y), T(?y)" ~db

let rpq_road_family ~seed ~size =
  (* the examples/road_network.ml topology, scaled: a primary corridor
     home →Road st0 →Rail … →Rail st(size-1) →Road hub, seeded rail
     bypasses and road on-ramps, and a Ferry shortcut kept exogenous *)
  let name = case_name ~family:"rpq-road" ~seed ~size in
  let station i = Printf.sprintf "st%d" i in
  let corridor =
    Fact.make "Road" [ "home"; station 0 ]
    :: Fact.make "Road" [ station (size - 1); "hub" ]
    :: List.init (size - 1) (fun i ->
           Fact.make "Rail" [ station i; station (i + 1) ])
  in
  let r = rng seed in
  let bypasses =
    if size < 2 then []
    else
      List.concat
        (List.init size (fun _ ->
             if bool r then begin
               let i = int r (size - 1) in
               let j = i + 1 + int r (size - 1 - i) in
               [ Fact.make "Rail" [ station i; station j ] ]
             end
             else []))
  in
  let onramp =
    if bool r then [ Fact.make "Road" [ "home"; station (int r size) ] ]
    else []
  in
  let db =
    Database.of_sets
      ~endo:(Fact.Set.of_list (corridor @ bypasses @ onramp))
      ~exo:(Fact.Set.singleton (Fact.make "Ferry" [ "home"; "hub" ]))
  in
  case ~name ~query_src:"rpq: (Road Rail* Road)(home, hub)" ~db

let crpq_family ~seed ~size =
  let name = case_name ~family:"crpq" ~seed ~size in
  let r = rng seed in
  let nodes =
    "s" :: "t" :: List.init (min size 4) (fun i -> Printf.sprintf "v%d" i)
  in
  let n_exo = int r 3 in
  let db = random_graph r ~labels:[ "A"; "B" ] ~nodes ~n_endo:size ~n_exo in
  case ~name ~query_src:"crpq: (AB+BA)(?x,t)" ~db

let cqneg_family ~seed ~size =
  let name = case_name ~family:"cqneg" ~seed ~size in
  let r = rng seed in
  let n_exo = int r 3 in
  let db =
    random_database r
      ~rels:[ ("R", 1); ("S", 2); ("T", 1) ]
      ~consts:[ "1"; "2"; "3"; "4" ] ~n_endo:size ~n_exo
  in
  case ~name ~query_src:"cqneg: R(?x), S(?x,?y), !T(?y)" ~db

let endogenous_family ~seed ~size =
  let name = case_name ~family:"endogenous" ~seed ~size in
  let r = rng seed in
  let db =
    random_database r
      ~rels:[ ("R", 1); ("S", 2); ("T", 1) ]
      ~consts:[ "1"; "2"; "3" ] ~n_endo:size ~n_exo:0
  in
  case ~name ~query_src:"R(?x), S(?x,?y), T(?y)" ~db

let max_svc_family ~seed ~size =
  (* a guaranteed singleton generalized support (Lemma 6.3): with R(h)
     and T(k) exogenous, the endogenous bridge S(h,k) alone satisfies
     q_RST — max-SVC must rank it (or a tie) on top — plus seeded noise *)
  let name = case_name ~family:"max-svc" ~seed ~size in
  let r = rng seed in
  let bridge = Fact.make "S" [ "h"; "k" ] in
  let exo = Fact.Set.of_list [ Fact.make "R" [ "h" ]; Fact.make "T" [ "k" ] ] in
  let gen r =
    random_fact r
      ~rels:[ ("R", 1); ("S", 2); ("T", 1) ]
      ~consts:[ "h"; "k"; "1"; "2" ]
  in
  let noise =
    distinct_facts r ~gen ~count:(size - 1)
      ~avoid:(Fact.Set.add bridge exo)
  in
  let db = Database.of_sets ~endo:(Fact.Set.add bridge noise) ~exo in
  case ~name ~query_src:"R(?x), S(?x,?y), T(?y)" ~db

let const_svc_family ~seed ~size =
  (* purely endogenous chain-join instances for the §6.4 constant-player
     variant: every constant of the graph can be promoted to a player *)
  let name = case_name ~family:"const-svc" ~seed ~size in
  let r = rng seed in
  let db =
    random_graph r ~labels:[ "R"; "T" ]
      ~nodes:[ "1"; "2"; "3"; "4" ] ~n_endo:size ~n_exo:0
  in
  case ~name ~query_src:"R(?x,?y), T(?y,?z)" ~db

let () =
  List.iter register_family
    [
      { Family.name = "star";
        description =
          "hierarchical star join for R(x) ∧ S(x,y): one hub, size spokes \
           (seeds > 0 demote some spokes to exogenous)";
        tractability = `Fp; generate = star_family };
      { Family.name = "bipartite";
        description =
          "complete-bipartite q_RST gadget, the classic hard-lineage \
           family (seeds > 0 keep a random sub-grid)";
        tractability = `Hard; generate = bipartite_family };
      { Family.name = "rpq-road";
        description =
          "road-network RPQ (Road Rail* Road)(home, hub): a rail corridor \
           of size stations with seeded bypasses and an exogenous ferry";
        tractability = `Hard; generate = rpq_road_family };
      { Family.name = "crpq";
        description =
          "CRPQ (AB+BA)(?x,t) over seeded random labelled graphs with \
           exogenous edges";
        tractability = `Hard; generate = crpq_family };
      { Family.name = "cqneg";
        description =
          "CQ with negation R(x) ∧ S(x,y) ∧ ¬T(y) over seeded random \
           partitioned databases";
        tractability = `Hard; generate = cqneg_family };
      { Family.name = "endogenous";
        description =
          "purely endogenous q_RST databases (the §6.1 SVCⁿ setting: no \
           exogenous facts anywhere)";
        tractability = `Hard; generate = endogenous_family };
      { Family.name = "max-svc";
        description =
          "q_RST instances with a guaranteed singleton support (Lemma \
           6.3): an exogenous R/T frame, one endogenous bridge, seeded \
           noise — exercises max-SVC";
        tractability = `Mixed; generate = max_svc_family };
      { Family.name = "const-svc";
        description =
          "purely endogenous chain joins R(x,y) ∧ T(y,z) whose constants \
           become the §6.4 players (SVC^const)";
        tractability = `Hard; generate = const_svc_family };
    ]

let generate ~family ~seed ~size =
  if seed < 0 then invalid_arg "Workload.generate: seed must be >= 0";
  if size < 1 then invalid_arg "Workload.generate: size must be >= 1";
  match find_family family with
  | None ->
    invalid_arg (Printf.sprintf "Workload.generate: unknown family %S" family)
  | Some f -> f.Family.generate ~seed ~size
