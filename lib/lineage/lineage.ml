(* ------------------------------------------------------------------ *)
(* Lineage                                                             *)
(* ------------------------------------------------------------------ *)

(* Disjunction of minimal supports, with exogenous facts erased. *)
let of_supports (db : Database.t) (supports : Fact.Set.t list) : Bform.t =
  Bform.disj
    (List.map
       (fun s ->
          Bform.conj
            (List.filter_map
               (fun f -> if Database.mem_exo f db then None else Some (Bform.fv f))
               (Fact.Set.elements s)))
       supports)

let crpq_lineage (crpq : Crpq.t) (db : Database.t) : Bform.t =
  let facts = Database.all db in
  (* For each CSP solution over the full database, conjoin the per-atom RPQ
     lineages; satisfaction under any sub-database implies a solution over
     the full database, so the disjunction over full-database solutions is
     complete. *)
  let atoms = Crpq.path_atoms crpq in
  let universe =
    Term.Sset.union (Fact.Set.consts facts) (Crpq.consts crpq)
  in
  let atom_pairs (a : Crpq.path_atom) =
    let base = Rpq.reachable_pairs a.lang facts in
    if Regex.nullable a.lang then
      List.sort_uniq compare
        (base @ List.map (fun c -> (c, c)) (Term.Sset.elements universe))
    else base
  in
  let constraints = List.map (fun a -> (a, atom_pairs a)) atoms in
  let solutions = ref [] in
  let lookup binding (t : Term.t) =
    match t with
    | Term.Const c -> Some c
    | Term.Var v -> Term.Smap.find_opt v binding
  in
  let rec solve binding = function
    | [] -> solutions := binding :: !solutions
    | ((a : Crpq.path_atom), pairs) :: rest ->
      List.iter
        (fun (c, d) ->
           let ok_src = match lookup binding a.psrc with None -> true | Some x -> x = c in
           let ok_dst = match lookup binding a.pdst with None -> true | Some x -> x = d in
           if ok_src && ok_dst then begin
             let binding =
               match a.psrc with
               | Term.Var v -> Term.Smap.add v c binding
               | Term.Const _ -> binding
             in
             let binding =
               match a.pdst with
               | Term.Var v -> Term.Smap.add v d binding
               | Term.Const _ -> binding
             in
             solve binding rest
           end)
        pairs
  in
  solve Term.Smap.empty constraints;
  (* distinct pair choices can induce the same binding; dedup *)
  let distinct =
    let seen = Hashtbl.create 16 in
    List.filter
      (fun b ->
         let key = Term.Smap.bindings b in
         if Hashtbl.mem seen key then false
         else begin
           Hashtbl.add seen key ();
           true
         end)
      !solutions
  in
  let instantiate binding (a : Crpq.path_atom) =
    let res t =
      match lookup binding t with
      | Some c -> c
      | None -> invalid_arg "Lineage.crpq: unbound term"
    in
    Rpq.make a.lang ~src:(res a.psrc) ~dst:(res a.pdst)
  in
  Bform.disj
    (List.map
       (fun binding ->
          Bform.conj
            (List.map
               (fun a ->
                  of_supports db (Rpq.minimal_supports_in (instantiate binding a) facts))
               atoms))
       distinct)

let cqneg_lineage (qn : Cqneg.t) (db : Database.t) : Bform.t =
  let facts = Database.all db in
  let branches = ref [] in
  Homomorphism.iter_valuations ~into:facts (Cqneg.pos qn) (fun s ->
      let ground a = Fact.of_atom (Atom.apply (Term.Smap.map Term.const s) a) in
      let pos_lits =
        List.filter_map
          (fun a ->
             let f = ground a in
             if Database.mem_exo f db then None else Some (Bform.fv f))
          (Cqneg.pos qn)
      in
      let neg_lits =
        List.map
          (fun a ->
             let f = ground a in
             if Database.mem_exo f db then Bform.fls (* always present: ¬f is false *)
             else if Database.mem_endo f db then Bform.neg (Bform.fv f)
             else Bform.tru (* absent from D: never present *))
          (Cqneg.neg qn)
      in
      branches := Bform.conj (pos_lits @ neg_lits) :: !branches);
  Bform.disj !branches

let gcq_lineage (g : Gcq.t) (db : Database.t) : Bform.t =
  let facts = Database.all db in
  let rec cond_form subst (c : Gcq.cond) : Bform.t =
    match c with
    | Gcq.Catom a ->
      let f = Fact.of_atom (Atom.apply (Term.Smap.map Term.const subst) a) in
      if Database.mem_exo f db then Bform.tru
      else if Database.mem_endo f db then Bform.fv f
      else Bform.fls (* absent facts are never present *)
    | Gcq.Cand cs -> Bform.conj (List.map (cond_form subst) cs)
    | Gcq.Cor cs -> Bform.disj (List.map (cond_form subst) cs)
    | Gcq.Cnot c -> Bform.neg (cond_form subst c)
  in
  let branches = ref [] in
  Homomorphism.iter_valuations ~into:facts (Gcq.guards g) (fun s ->
      let guard_lits =
        List.filter_map
          (fun a ->
             let f = Fact.of_atom (Atom.apply (Term.Smap.map Term.const s) a) in
             if Database.mem_exo f db then None else Some (Bform.fv f))
          (Gcq.guards g)
      in
      let cond_lits = List.map (cond_form s) (Gcq.conditions g) in
      branches := Bform.conj (guard_lits @ cond_lits) :: !branches);
  Bform.disj !branches

let rec lineage (q : Query.t) (db : Database.t) : Bform.t =
  let facts = Database.all db in
  match q with
  | Query.True -> Bform.tru
  | Query.Cq cq -> of_supports db (Cq.minimal_supports_in cq facts)
  | Query.Ucq ucq -> of_supports db (Ucq.minimal_supports_in ucq facts)
  | Query.Rpq rpq -> of_supports db (Rpq.minimal_supports_in rpq facts)
  | Query.Crpq crpq -> crpq_lineage crpq db
  | Query.Ucrpq ucrpq ->
    Bform.disj (List.map (fun c -> lineage (Query.Crpq c) db) (Ucrpq.disjuncts ucrpq))
  | Query.Cqneg qn -> cqneg_lineage qn db
  | Query.Gcq g -> gcq_lineage g db
  | Query.And (a, b) -> Bform.conj [ lineage a db; lineage b db ]
  | Query.Or (a, b) -> Bform.disj [ lineage a db; lineage b db ]
