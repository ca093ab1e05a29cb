type t = Cq.t list

let of_cqs cqs =
  if cqs = [] then invalid_arg "Ucq.of_cqs: empty union";
  List.sort_uniq Cq.compare cqs

let of_cq cq = [ cq ]
let disjuncts q = q

let union_map f q =
  List.fold_left (fun acc cq -> Term.Sset.union acc (f cq)) Term.Sset.empty q

let vars q = union_map Cq.vars q
let consts q = union_map Cq.consts q
let rels q = union_map Cq.rels q

let eval q facts = List.exists (fun cq -> Cq.eval cq facts) q
let is_constant_free q = List.for_all Cq.is_constant_free q

let reduce q =
  (* Keep a set of pairwise-incomparable cores: a disjunct d is dropped when
     a kept disjunct k maps homomorphically into d (k's models ⊇ d's);
     conversely adding d evicts any kept k that d maps into.  Processing
     greedily keeps one representative per equivalence class. *)
  let cores = List.sort_uniq Cq.compare (List.map Cq.core q) in
  let step kept d =
    if List.exists (fun k -> Cq.homomorphic_to k d) kept then kept
    else d :: List.filter (fun k -> not (Cq.homomorphic_to d k)) kept
  in
  List.sort Cq.compare (List.fold_left step [] cores)

let is_connected q = List.for_all Cq.is_connected (reduce q)

let minimal_supports_in q facts =
  let all = List.concat_map (fun cq -> Cq.minimal_supports_in cq facts) q in
  Fact.Set.minimal
    (List.fold_left (fun acc s -> Fact.Set.add_distinct s acc) [] all)

let independent_groups q =
  List.map of_cqs
    (Incidence.components_by (fun cq -> Term.Sset.elements (Cq.rels cq)) q)

let inclusion_exclusion step init q =
  let k = List.length q in
  let rec go acc mask =
    if mask = 1 lsl k then Some acc
    else begin
      (* the chosen disjuncts, highest index first *)
      let chosen = List.rev (List.filteri (fun i _ -> mask land (1 lsl i) <> 0) q) in
      Option.bind
        (step ~odd:(List.length chosen mod 2 = 1) (Cq.conjoin chosen) acc)
        (fun acc -> go acc (mask + 1))
    end
  in
  if k > 6 then None else go init 1

let canonical_supports q =
  List.map (fun cq -> fst (Cq.canonical_support cq)) (reduce q)

let implies q q' =
  (* every disjunct of q must satisfy q' on its canonical database *)
  List.for_all
    (fun cq ->
       let canon, _ = Cq.canonical_support cq in
       eval q' canon)
    q

let equivalent q q' = implies q q' && implies q' q

let parse s =
  let parts = String.split_on_char '|' s in
  of_cqs (List.map Cq.parse parts)

let to_string q = String.concat " | " (List.map Cq.to_string q)
let pp fmt q = Format.pp_print_string fmt (to_string q)
