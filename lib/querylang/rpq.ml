type t = { lang : Regex.t; src : string; dst : string }

let make lang ~src ~dst = { lang; src; dst }
let of_string s ~src ~dst = { lang = Regex.parse s; src; dst }

let lang q = q.lang
let src q = q.src
let dst q = q.dst
let consts q = Term.Sset.of_list [ q.src; q.dst ]
let rels q = Term.Sset.of_list (Regex.symbols q.lang)

(* Binary facts as labelled edges. *)
let edges facts =
  Fact.Set.fold
    (fun f acc -> match Fact.args f with [ a; b ] -> (a, Fact.rel f, b) :: acc | _ -> acc)
    facts []

(* Product reachability: explore (node, nfa-state-set) pairs from [start]. *)
let reachable_from (nfa : Nfa.t) (es : (string * string * string) list) (origin : string) :
  (string * Nfa.state_set) list =
  let module M = Map.Make (String) in
  (* successor edges by source node *)
  let out =
    List.fold_left
      (fun m (a, r, b) ->
         M.update a (function None -> Some [ (r, b) ] | Some l -> Some ((r, b) :: l)) m)
      M.empty es
  in
  let visited : (string, Nfa.state_set list) Hashtbl.t = Hashtbl.create 16 in
  let seen node set =
    let sets = Option.value ~default:[] (Hashtbl.find_opt visited node) in
    List.exists (fun s -> Nfa.set_compare s set = 0) sets
  in
  let mark node set =
    let sets = Option.value ~default:[] (Hashtbl.find_opt visited node) in
    Hashtbl.replace visited node (set :: sets)
  in
  let queue = Queue.create () in
  let push node set =
    if (not (Nfa.is_empty_set set)) && not (seen node set) then begin
      mark node set;
      Queue.add (node, set) queue
    end
  in
  push origin (Nfa.start nfa);
  while not (Queue.is_empty queue) do
    let node, set = Queue.pop queue in
    let succs = Option.value ~default:[] (M.find_opt node out) in
    List.iter (fun (r, b) -> push b (Nfa.step nfa set r)) succs
  done;
  Hashtbl.fold (fun node sets acc -> List.map (fun s -> (node, s)) sets @ acc) visited []

let eval q facts =
  (Regex.nullable q.lang && q.src = q.dst)
  ||
  let nfa = Nfa.of_regex q.lang in
  let es = edges facts in
  List.exists
    (fun (node, set) -> node = q.dst && Nfa.is_accepting nfa set)
    (reachable_from nfa es q.src)

let reachable_pairs lang facts =
  let nfa = Nfa.of_regex lang in
  let es = edges facts in
  let nodes =
    List.sort_uniq String.compare
      (List.concat_map (fun (a, _, b) -> [ a; b ]) es)
  in
  let from_node c =
    List.filter_map
      (fun (node, set) -> if Nfa.is_accepting nfa set then Some (c, node) else None)
      (reachable_from nfa es c)
  in
  let pairs = List.concat_map from_node nodes in
  let eps_pairs = if Regex.nullable lang then List.map (fun c -> (c, c)) nodes else [] in
  List.sort_uniq compare (pairs @ eps_pairs)

let fresh_path_support ?(min_len = 1) q =
  match Words.some_word_of_length_geq q.lang min_len with
  | None -> None
  | Some word ->
    let l = List.length word in
    let node i =
      if i = 0 then q.src
      else if i = l then q.dst
      else Term.fresh_const ~prefix:"p" ()
    in
    let nodes = Array.init (l + 1) node in
    let facts =
      List.mapi (fun i r -> Fact.make r [ nodes.(i); nodes.(i + 1) ]) word
    in
    Some (Fact.Set.of_list facts, word)

(* Minimal supports by walk enumeration over the product of the graph
   and the language's automaton: no subset enumeration, so no size
   limit.  Supports come out in reverse order of first discovery. *)
module Iset = Set.Make (Int)

let minimal_supports_in q facts =
  let lang = q.lang and src = q.src and dst = q.dst in
  if Regex.nullable lang && src = dst then [ Fact.Set.empty ]
  else begin
    let nfa = Nfa.of_regex lang in
    (* indexed binary edges *)
    let edges =
      Fact.Set.fold
        (fun f acc -> match Fact.args f with [ a; b ] -> (f, a, b) :: acc | _ -> acc)
        facts []
      |> Array.of_list
    in
    let out : (string, int list) Hashtbl.t = Hashtbl.create 16 in
    Array.iteri
      (fun i (_, a, _) ->
         let prev = Option.value ~default:[] (Hashtbl.find_opt out a) in
         Hashtbl.replace out a (i :: prev))
      edges;
    let results : Fact.Set.t list ref = ref [] in
    let record used =
      let support =
        Iset.fold (fun i acc -> let f, _, _ = edges.(i) in Fact.Set.add f acc) used Fact.Set.empty
      in
      results := Fact.Set.add_distinct support !results
    in
    (* DFS over (node, nfa-state-set); a pair (edge, state-set) may appear at
       most once on the current branch: a repeat means an excisable loop, so
       every minimal support is still reached. *)
    let rec go node set used path =
      if node = dst && Nfa.is_accepting nfa set then record used;
      let succ = Option.value ~default:[] (Hashtbl.find_opt out node) in
      List.iter
        (fun i ->
           let f, _, b = edges.(i) in
           let set' = Nfa.step nfa set (Fact.rel f) in
           if not (Nfa.is_empty_set set') then begin
             let key = (i, Nfa.set_elements set') in
             if not (List.mem key path) then
               go b set' (Iset.add i used) (key :: path)
           end)
        succ
    in
    go src (Nfa.start nfa) Iset.empty [];
    Fact.Set.minimal !results
  end

let is_pseudo_connected q = Words.exists_length_geq q.lang 2
let dichotomy_hard q = Words.exists_length_geq q.lang 3

let to_string q = Printf.sprintf "%s(%s,%s)" (Regex.to_string q.lang) q.src q.dst
let pp fmt q = Format.pp_print_string fmt (to_string q)
