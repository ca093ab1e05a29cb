type subst = string Term.Smap.t

(* Facts of [into] indexed by relation name, for candidate generation. *)
let index_by_rel (into : Fact.Set.t) : Fact.t list Term.Smap.t =
  Fact.Set.fold
    (fun f acc ->
       Term.Smap.update (Fact.rel f)
         (function None -> Some [ f ] | Some l -> Some (f :: l))
         acc)
    into Term.Smap.empty

(* Try to extend [binding] so that [atom] maps onto [fact]. *)
let match_atom binding (atom : Atom.t) (fact : Fact.t) : subst option =
  if Atom.rel atom <> Fact.rel fact || Atom.arity atom <> Fact.arity fact then None
  else begin
    let rec go binding ts cs =
      match (ts, cs) with
      | [], [] -> Some binding
      | Term.Const c :: ts', c' :: cs' -> if c = c' then go binding ts' cs' else None
      | Term.Var v :: ts', c' :: cs' ->
        (match Term.Smap.find_opt v binding with
         | Some c when c = c' -> go binding ts' cs'
         | Some _ -> None
         | None -> go (Term.Smap.add v c' binding) ts' cs')
      | _, _ -> None
    in
    go binding (Atom.args atom) (Fact.args fact)
  end

let candidates index binding atom =
  let facts =
    match Term.Smap.find_opt (Atom.rel atom) index with
    | None -> []
    | Some l -> l
  in
  List.filter_map
    (fun f -> match match_atom binding atom f with Some b -> Some (f, b) | None -> None)
    facts

type ordering =
  | Fail_first
  | Syntactic

let iter_valuations ?(ordering = Fail_first) ~into ?(binding = Term.Smap.empty) atoms yield =
  let index = index_by_rel into in
  (* Fail-first: expand the atom with the fewest candidate facts under the
     current binding.  Candidate lists are recomputed per step; atom lists
     in this library are small (queries, minimal supports).  The [Syntactic]
     ordering processes atoms in their given order (ablation baseline). *)
  let rec go binding pending =
    match pending with
    | [] -> yield binding
    | first :: rest_syntactic ->
      let best, best_cands, rest =
        match ordering with
        | Syntactic -> (first, candidates index binding first, rest_syntactic)
        | Fail_first ->
          let scored = List.map (fun a -> (a, candidates index binding a)) pending in
          let best, best_cands =
            List.fold_left
              (fun (ba, bc) (a, c) ->
                 if List.length c < List.length bc then (a, c) else (ba, bc))
              (List.hd scored) (List.tl scored)
          in
          (best, best_cands, List.filter (fun a -> not (Atom.equal a best)) pending)
      in
      ignore best;
      List.iter (fun (_, binding') -> go binding' rest) best_cands
  in
  (* Duplicate atoms are redundant constraints and would be dropped together
     by the [filter] above; dedup once up front. *)
  go binding (List.sort_uniq Atom.compare atoms)

exception Found_subst of subst

let find_valuation ~into ?binding atoms =
  try
    iter_valuations ~into ?binding atoms (fun s -> raise (Found_subst s));
    None
  with Found_subst s -> Some s

let exists_valuation ~into ?binding atoms =
  Option.is_some (find_valuation ~into ?binding atoms)

let image subst atoms =
  List.fold_left
    (fun acc atom ->
       let ground =
         Atom.apply (Term.Smap.map Term.const subst) atom
       in
       match Fact.of_atom_opt ground with
       | Some f -> Fact.Set.add f acc
       | None -> invalid_arg "Homomorphism.image: valuation is not total")
    Fact.Set.empty atoms

let all_images ~into atoms =
  let seen = ref [] in
  iter_valuations ~into atoms (fun s ->
      seen := Fact.Set.add_distinct (image s atoms) !seen);
  List.rev !seen

let minimal_images ~into atoms = Fact.Set.minimal (all_images ~into atoms)

(* ------------------------------------------------------------------ *)
(* Fact-set homomorphisms: view non-fixed constants as variables.      *)
(* ------------------------------------------------------------------ *)

let fact_to_pattern ~fixed (f : Fact.t) : Atom.t =
  Atom.make (Fact.rel f)
    (List.map
       (fun c -> if Term.Sset.mem c fixed then Term.const c else Term.var c)
       (Fact.args f))

let iter_fact_homs ~fixed src ~into yield =
  let patterns = List.map (fact_to_pattern ~fixed) (Fact.Set.elements src) in
  let fixed_part =
    Term.Sset.fold
      (fun c acc -> if Term.Sset.mem c (Fact.Set.consts src) then Term.Smap.add c c acc else acc)
      fixed Term.Smap.empty
  in
  iter_valuations ~into patterns (fun s ->
      yield (Term.Smap.union (fun _ a _ -> Some a) s fixed_part))

exception Found_hom of string Term.Smap.t

let find_fact_hom ~fixed src ~into =
  try
    iter_fact_homs ~fixed src ~into (fun h -> raise (Found_hom h));
    None
  with Found_hom h -> Some h

let exists_fact_hom ~fixed src ~into =
  Option.is_some (find_fact_hom ~fixed src ~into)
