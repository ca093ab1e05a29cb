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
  let instantiate binding (a : Crpq.path_atom) =
    let res (t : Term.t) =
      match t with
      | Term.Const c -> c
      | Term.Var v ->
        (match Term.Smap.find_opt v binding with
         | Some c -> c
         | None -> invalid_arg "Lineage.crpq: unbound term")
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
               (Crpq.path_atoms crpq)))
       (Crpq.bindings crpq facts))

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
