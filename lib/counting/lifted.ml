(* Lifted FGMC: the rules [Safety] certifies, run on generating
   polynomials.  The rule conditions are the ones [Safety] uses
   ([Cq.separator], [Cq.vocabularies_disjoint], [Ucq.independent_groups],
   [Ucq.inclusion_exclusion]); the separator buckets and the union groups
   share one complement product, [independent_union]; and (1+z)^k is the
   memoized [Compile.one_plus_z_pow]. *)

let ( let* ) = Option.bind

let matches atom fact =
  Option.is_some (Homomorphism.find_valuation ~into:(Fact.Set.singleton fact) [ atom ])

(* Independent union over parts holding disjoint sets of the [n]
   endogenous facts: the formula is false iff every part is, so its
   polynomial is (1+z)^m − Π_i ((1+z)^(n_i) − C_i) over the m facts the
   parts hold, padded by (1+z)^(n−m) for the facts none of them holds.
   [parts] lists (sub-query, endo_i, exo_i); [count] gives C_i. *)
let independent_union ~n count parts =
  let pow = Compile.one_plus_z_pow in
  let rec go not_sat m = function
    | [] -> Some (Poly.Z.mul (Poly.Z.sub (pow m) not_sat) (pow (n - m)))
    | (part, endo_i, exo_i) :: rest ->
      let n_i = Fact.Set.cardinal endo_i in
      let* p = count part endo_i exo_i in
      go (Poly.Z.mul not_sat (Poly.Z.sub (pow n_i) p)) (m + n_i) rest
  in
  go Poly.Z.one 0 parts

(* the value(s) a fact gives to variable [x] through [its] atom occurrences;
   with self-joins a fact may match several atoms, so collect all candidate
   values (a fact goes to every bucket it could serve) — but for soundness
   of the independence argument we require a UNIQUE value, else give up. *)
let separator_value x atoms f =
  let values =
    List.concat_map
      (fun atom ->
         if Atom.rel atom <> Fact.rel f || Atom.arity atom <> Fact.arity f then []
         else begin
           let args = Array.of_list (Fact.args f) in
           let positions =
             List.mapi (fun i t -> (i, t)) (Atom.args atom)
             |> List.filter_map (fun (i, t) ->
                 if Term.equal t (Term.var x) then Some i else None)
           in
           match positions with
           | [] -> []
           | ps ->
             let vs = List.map (fun i -> args.(i)) ps in
             (match vs with
              | v :: rest when List.for_all (( = ) v) rest -> [ v ]
              | _ -> [])
         end)
      atoms
  in
  match List.sort_uniq compare values with
  | [ v ] -> Some (Some v)  (* unique bucket *)
  | [] -> Some None         (* participates in no atom: free *)
  | _ -> None                (* ambiguous: give up *)

let rec cq_poly (atoms : Atom.t list) (endo : Fact.Set.t) (exo : Fact.Set.t) :
  Poly.Z.t option =
  let atoms = Cq.atoms (Cq.core (Cq.of_atoms atoms)) in
  let n = Fact.Set.cardinal endo in
  match Incidence.variable_components atoms with
  | [] -> Some (Compile.one_plus_z_pow n)
  | [ [ atom ] ] ->
    let matching, free = Fact.Set.partition (matches atom) endo in
    let m = Fact.Set.cardinal matching and k = Fact.Set.cardinal free in
    if Fact.Set.exists (matches atom) exo then Some (Compile.one_plus_z_pow n)
    else
      Some
        (Poly.Z.mul
           (Poly.Z.sub (Compile.one_plus_z_pow m) Poly.Z.one)
           (Compile.one_plus_z_pow k))
  | [ component ] ->
    (* independent project on a separator: the facts of one value of it
       form one part of an independent union *)
    let* x = Cq.separator (Cq.of_atoms component) in
    let bucket f = separator_value x component f in
    (* every fact must have an unambiguous bucket *)
    let buckets_ok =
      Fact.Set.for_all (fun f -> bucket f <> None) endo
      && Fact.Set.for_all (fun f -> bucket f <> None) exo
    in
    if not buckets_ok then None
    else begin
      let values =
        List.sort_uniq compare
          (List.filter_map
             (fun f -> Option.join (bucket f))
             (Fact.Set.elements endo @ Fact.Set.elements exo))
      in
      let substitute c =
        List.map (Atom.apply (Term.Smap.singleton x (Term.const c))) component
      in
      independent_union ~n cq_poly
        (List.map
           (fun c ->
              let in_c f = bucket f = Some (Some c) in
              (substitute c, Fact.Set.filter in_c endo, Fact.Set.filter in_c exo))
           values)
    end
  | components ->
    (* independent join: requires pairwise vocabulary-disjoint components *)
    if not (Cq.vocabularies_disjoint (List.map Cq.of_atoms components)) then None
    else begin
      let used = ref Fact.Set.empty in
      let rec build acc = function
        | [] -> Some acc
        | comp :: rest ->
          let rels = Cq.rels (Cq.of_atoms comp) in
          let endo_c = Fact.Set.filter (fun f -> Term.Sset.mem (Fact.rel f) rels) endo in
          let exo_c = Fact.Set.filter (fun f -> Term.Sset.mem (Fact.rel f) rels) exo in
          used := Fact.Set.union !used endo_c;
          let* p = cq_poly comp endo_c exo_c in
          build (Poly.Z.mul acc p) rest
      in
      let* product = build Poly.Z.one components in
      Some (Poly.Z.mul product (Compile.one_plus_z_pow (n - Fact.Set.cardinal !used)))
    end

let rec ucq_poly (q : Ucq.t) (endo : Fact.Set.t) (exo : Fact.Set.t) :
  Poly.Z.t option =
  let q = Ucq.reduce q in
  match Ucq.disjuncts q with
  | [ c ] -> cq_poly (Cq.atoms c) endo exo
  | _ ->
    (match Ucq.independent_groups q with
     | _ :: _ :: _ as groups ->
       independent_union ~n:(Fact.Set.cardinal endo) ucq_poly
         (List.map
            (fun g ->
               let rels = Ucq.rels g in
               let in_g f = Term.Sset.mem (Fact.rel f) rels in
               (g, Fact.Set.filter in_g endo, Fact.Set.filter in_g exo))
            groups)
     | _ ->
       Ucq.inclusion_exclusion
         (fun ~odd c acc ->
            let* p = cq_poly (Cq.atoms c) endo exo in
            Some (Poly.Z.add acc (if odd then p else Poly.Z.neg p)))
         Poly.Z.zero q)

let cq q db = cq_poly (Cq.atoms q) (Database.endo db) (Database.exo db)
let ucq q db = ucq_poly q (Database.endo db) (Database.exo db)

let fgmc_polynomial q db =
  match ucq q db with
  | Some p -> p
  | None -> invalid_arg "Lifted.fgmc_polynomial: lifted rules stuck (query not certified safe)"
