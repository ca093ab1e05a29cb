let reduce ~max_svc ~query ~support db =
  if Fact.Set.is_empty support then invalid_arg "Max_svc_red.reduce: empty support";
  let c_set = Query.consts query in
  if Query.eval query (Database.exo db) then
    Compile.one_plus_z_pow (Database.size_endo db)
  else begin
    let db, _ =
      Database.rename_away ~keep:c_set ~avoid:(Fact.Set.consts support) db
    in
    let n = Database.size_endo db in
    (* μ: any fact of S; S ∖ {μ} is exogenous.  Copies are full C-isomorphic
       renamings, each with its own endogenous μᵏ. *)
    let mu =
      match Fact.Set.min_elt_opt support with
      | Some f -> f
      | None -> assert false
    in
    let copy _k =
      let rho =
        Term.Sset.fold
          (fun c acc ->
             if Term.Sset.mem c c_set then acc
             else Term.Smap.add c (Term.fresh_const ~prefix:c ()) acc)
          (Fact.Set.consts support) Term.Smap.empty
      in
      let facts = Fact.Set.rename rho support in
      (facts, Fact.rename rho mu)
    in
    let copies = Array.init n (fun k -> copy (k + 1)) in
    let a0 =
      Database.of_sets
        ~endo:(Fact.Set.add mu (Database.endo db))
        ~exo:(Fact.Set.union (Database.exo db) (Fact.Set.remove mu support))
    in
    let max_sh a =
      match Oracle.call max_svc a with
      | Some (_, v) -> v
      | None -> invalid_arg "Max_svc_red.reduce: oracle returned no fact"
    in
    (* The m = 0 instance of the main engine: cases (1)/(2) of Lemma 5.1
       reduce to "some μᵏ ∈ B". *)
    let values = Fgmc_to_svc.measure max_sh ~add:Fgmc_to_svc.add_copy a0 copies in
    Fgmc_to_svc.invert ~m:0 Fgmc_to_svc.Count (Fgmc_to_svc.clean ~m:0 values)
  end

let reduce_auto ~max_svc ~query db =
  match Query.fresh_support query with
  | None -> None
  | Some support ->
    if Term.Sset.subset (Fact.Set.consts support) (Query.consts query) then None
    else Some (reduce ~max_svc ~query ~support db)
