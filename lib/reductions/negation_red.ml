(* The tail shared by Proposition 6.1 and Lemma D.2, once the query-specific
   checks have passed: count q̃ (the first maximal variable-connected
   component [comp] with its guarded atoms) through the Lemma 4.1
   construction, with S ≅ the canonical support of [comp] and S′ ≅ that of
   the remaining components' positive atoms. *)
let count_component ~name ~svc ~c_set ~q_tilde ~comp ~rest db =
  let support, _ = Cq.canonical_support comp in
  let s_prime =
    match List.concat_map (fun (c, _) -> Cq.atoms c) rest with
    | [] -> Fact.Set.empty
    | atoms -> fst (Cq.canonical_support (Cq.of_atoms atoms))
  in
  match Term.Sset.min_elt_opt (Term.Sset.diff (Fact.Set.consts support) c_set) with
  | None ->
    invalid_arg (name ^ ": component support has no constant outside C")
  | Some pivot ->
    let poly =
      Fgmc_to_svc.reduce_engine ~svc ~count_query:q_tilde ~query_consts:c_set
        ~s_prime ~support ~pivot ~mode:Fgmc_to_svc.Count db
    in
    (q_tilde, poly)

let lemma_d2 ~svc ~q db =
  if not (Gcq.is_guard_self_join_free q) then
    invalid_arg "Negation_red.lemma_d2: guards are not self-join-free";
  if not (Gcq.guards_disjoint_from_conditions q) then
    invalid_arg "Negation_red.lemma_d2: guard and condition vocabularies overlap";
  if Gcq.has_variable_free_condition_atom q then
    invalid_arg "Negation_red.lemma_d2: variable-free condition atoms unsupported";
  match Gcq.guard_variable_components q with
  | [] -> invalid_arg "Negation_red.lemma_d2: no variable-connected guard component"
  | (comp, guarded) :: rest ->
    count_component ~name:"Negation_red.lemma_d2" ~svc ~c_set:(Gcq.consts q)
      ~q_tilde:(Query.Gcq (Gcq.make ~guards:(Cq.atoms comp) ~cond:guarded))
      ~comp ~rest db

let prop61 ~svc ~q db =
  if not (Cqneg.is_self_join_free q) then
    invalid_arg "Negation_red.prop61: query is not self-join-free";
  if List.exists (fun a -> Term.Sset.is_empty (Atom.vars a)) (Cqneg.neg q) then
    invalid_arg "Negation_red.prop61: variable-free negative atoms unsupported";
  match Cqneg.positive_variable_components q with
  | [] -> invalid_arg "Negation_red.prop61: no variable-connected component"
  | (comp, guarded) :: rest ->
    (* q̃ = q⁺ᵥ꜀ ∧ q⁻ᵥ꜀ : the counted query *)
    count_component ~name:"Negation_red.prop61" ~svc ~c_set:(Cqneg.consts q)
      ~q_tilde:(Query.Cqneg (Cqneg.make ~pos:(Cq.atoms comp) ~neg:guarded))
      ~comp ~rest db
