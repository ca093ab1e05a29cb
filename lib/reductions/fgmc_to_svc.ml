type mode =
  | Count
  | Complement

(* Every factorial the Lemma 5.1 arithmetic of an n-fact instance with
   |S⁻| = m reads: up to (n + i + m + 1)! with i ≤ n. *)
let factorials ~n ~m = Bigint.factorial_table ((2 * n) + m + 1)

let measure oracle ~add base copies =
  let a = ref base in
  Array.init
    (Array.length copies + 1)
    (fun i ->
       if i > 0 then a := add copies.(i - 1) !a;
       oracle !a)

(* Closed-form contribution Zᵢ of cases (1) and (2) of Lemma 5.1: the sets
   B containing some μᵏ or missing part of S⁻.  With Nᵢ = n + i + 1 + m
   players, of which B ranges over Nᵢ - 1, there are C(Nᵢ-1, b) sets of
   size b and C(n, b-m) of them avoid both cases — so Zᵢ is Claim A.1 on
   the polynomials (1+z)^(Nᵢ-1) and z^m·(1+z)^n. *)
let clean ~m values =
  let n = Array.length values - 1 in
  let factorials = factorials ~n ~m in
  let good = Poly.Z.shift m (Compile.one_plus_z_pow n) in
  Array.mapi
    (fun i sh ->
       let players = n + i + 1 + m in
       let z =
         Engine.shapley_of_polynomials ~factorials
           ~with_mu_exo:(Compile.one_plus_z_pow (players - 1))
           ~without_mu:good ~n:players
       in
       Rational.sub (Rational.sub Rational.one sh) z)
    values

(* Invert the system  shᵢ = Σ_j (j+m)!(n+i-j)! / (n+i+m+1)! · x_j. *)
let invert ~m mode values =
  let n = Array.length values - 1 in
  let f = factorials ~n ~m in
  let matrix =
    Array.init (n + 1) (fun i ->
        Array.init (n + 1) (fun j ->
            Rational.make
              (Bigint.mul f.(j + m) f.(n + i - j))
              f.(n + i + m + 1)))
  in
  match Linalg.solve matrix values with
  | None ->
    (* impossible: the matrix reduces to Bacher's (i+j)! matrix *)
    invalid_arg "Fgmc_to_svc: singular system"
  | Some x ->
    let counts = Poly.Z.of_coeffs (Array.to_list (Array.map Rational.to_bigint x)) in
    (match mode with
     | Count -> counts
     | Complement -> Poly.Z.sub (Compile.one_plus_z_pow n) counts)

(* Aⁱ⁺¹ from Aⁱ: the copy's μᵏ endogenous, the rest of Sᵏ exogenous. *)
let add_copy (facts, mu_k) a =
  Database.of_sets
    ~endo:(Fact.Set.add mu_k (Database.endo a))
    ~exo:(Fact.Set.union (Fact.Set.remove mu_k facts) (Database.exo a))

let reduce_engine ~svc ~count_query ~query_consts ~s_prime ~support ~pivot ~mode db =
  if Fact.Set.is_empty support then
    invalid_arg "Fgmc_to_svc: empty support";
  if Term.Sset.mem pivot query_consts then
    invalid_arg "Fgmc_to_svc: pivot belongs to the query constants C";
  if not (Term.Sset.mem pivot (Fact.Set.consts support)) then
    invalid_arg "Fgmc_to_svc: pivot does not occur in the support";
  let c_set = query_consts in
  (* Trivial case of Claim 5.1 (1): for a monotone counted query, when the
     exogenous part already satisfies it, every subset of Dₙ is a
     generalized support.  (For non-monotone counted queries — Section 6.2 —
     the shortcut is unsound and the construction below handles the case by
     itself, cf. Lemma D.3 case (4).) *)
  if
    Query.is_hom_closed_syntactically count_query
    && Query.eval count_query (Database.exo db)
  then Compile.one_plus_z_pow (Database.size_endo db)
  else begin
    (* Claim 5.1 (2): C-isomorphically rename D away from the constants of
       the construction (the counted polynomial is invariant). *)
    let avoid =
      Term.Sset.union (Fact.Set.consts s_prime) (Fact.Set.consts support)
    in
    let db, _rho = Database.rename_away ~keep:c_set ~avoid db in
    (* Claim 5.1 (3): facts shared with S′ (necessarily over C after the
       renaming) are irrelevant to the counted query by hypothesis (2c);
       drop them and pad the polynomial afterwards. *)
    let shared = Fact.Set.inter (Database.all db) s_prime in
    let dropped_endo =
      Fact.Set.cardinal (Fact.Set.inter shared (Database.endo db))
    in
    let db = Fact.Set.fold Database.remove shared db in
    let n = Database.size_endo db in
    (* Claim 5.3: split S into the pivot part S⁰ and the rest S⁻. *)
    let s0 =
      Fact.Set.filter (fun f -> Term.Sset.mem pivot (Fact.consts f)) support
    in
    let s_minus = Fact.Set.diff support s0 in
    let m = Fact.Set.cardinal s_minus in
    let mu =
      match Fact.Set.min_elt_opt s0 with
      | Some f -> f
      | None -> invalid_arg "Fgmc_to_svc: pivot part S⁰ is empty"
    in
    (* Copies S¹..Sⁿ: rename the pivot only; the glue constants shared with
       S⁻ are preserved so that Sᵏ ⊎ S⁻ remains a support. *)
    let copy k =
      let fresh = Term.fresh_const ~prefix:(Printf.sprintf "%s.copy%d" pivot k) () in
      let rho = Term.Smap.singleton pivot fresh in
      (Fact.Set.rename rho s0, Fact.rename rho mu)
    in
    let copies = Array.init n (fun k -> copy (k + 1)) in
    let a0 =
      Database.of_sets
        ~endo:(Fact.Set.union (Database.endo db) (Fact.Set.add mu s_minus))
        ~exo:
          (Fact.Set.union (Database.exo db)
             (Fact.Set.union s_prime (Fact.Set.remove mu s0)))
    in
    let values =
      measure (fun a -> Oracle.call svc (a, mu)) ~add:add_copy a0 copies
    in
    Poly.Z.mul
      (invert ~m mode (clean ~m values))
      (Compile.one_plus_z_pow dropped_endo)
  end

(* ------------------------------------------------------------------ *)
(* Lemma 4.1                                                           *)
(* ------------------------------------------------------------------ *)

let lemma41 ~svc ~query ~island ~pivot db =
  reduce_engine ~svc ~count_query:query ~query_consts:(Query.consts query)
    ~s_prime:Fact.Set.empty ~support:island ~pivot ~mode:Count db

let lemma41_auto ~svc ~query db =
  match Query.fresh_support query with
  | None -> None
  | Some island ->
    let c = Query.consts query in
    let outside = Term.Sset.diff (Fact.Set.consts island) c in
    (match Term.Sset.min_elt_opt outside with
     | None -> None
     | Some pivot -> Some (lemma41 ~svc ~query ~island ~pivot db))

(* ------------------------------------------------------------------ *)
(* Lemma 4.3                                                           *)
(* ------------------------------------------------------------------ *)

let lemma43 ~svc ~q ~q' db =
  let s_prime =
    match q' with
    | Query.True -> Fact.Set.empty
    | _ ->
      (match Query.fresh_support q' with
       | Some s -> s
       | None -> invalid_arg "Fgmc_to_svc.lemma43: q′ has no fresh minimal support")
  in
  if Query.eval q s_prime then
    invalid_arg "Fgmc_to_svc.lemma43: hypothesis (2a) violated: S′ ⊨ q";
  let support =
    match Query.fresh_support q with
    | Some s -> s
    | None -> invalid_arg "Fgmc_to_svc.lemma43: q has no fresh minimal support"
  in
  let c_all = Term.Sset.union (Query.consts q) (Query.consts q') in
  let outside = Term.Sset.diff (Fact.Set.consts support) c_all in
  match Term.Sset.min_elt_opt outside with
  | None ->
    invalid_arg "Fgmc_to_svc.lemma43: support of q has no constant outside C ∪ C′"
  | Some pivot ->
    reduce_engine ~svc ~count_query:q ~query_consts:(Query.consts q) ~s_prime
      ~support ~pivot ~mode:Count db

(* ------------------------------------------------------------------ *)
(* Lemma 4.4                                                           *)
(* ------------------------------------------------------------------ *)

let default_split q1 q2 =
  let r1 = Query.rels q1 and r2 = Query.rels q2 in
  if not (Term.Sset.is_empty (Term.Sset.inter r1 r2)) then
    invalid_arg
      "Fgmc_to_svc.lemma44: conjunct vocabularies overlap; provide ~split";
  fun f ->
    if Term.Sset.mem (Fact.rel f) r1 then `Left
    else if Term.Sset.mem (Fact.rel f) r2 then `Right
    else `Neither

let lemma44_with ~pick_pivot ~svc ~q1 ~q2 ?split db =
  let split = match split with Some s -> s | None -> default_split q1 q2 in
  let part side =
    let keep f = split f = side in
    Database.of_sets
      ~endo:(Fact.Set.filter keep (Database.endo db))
      ~exo:(Fact.Set.filter keep (Database.exo db))
  in
  let d1 = part `Left and d2 = part `Right in
  let free =
    Database.size_endo db - Database.size_endo d1 - Database.size_endo d2
  in
  let c_all = Term.Sset.union (Query.consts q1) (Query.consts q2) in
  let run ~count_query ~other db_side =
    (* Replace the other conjunct's data by a fresh minimal support of the
       other conjunct, used as the duplicated S. *)
    let support =
      match Query.fresh_support other with
      | Some s -> s
      | None -> invalid_arg "Fgmc_to_svc.lemma44: conjunct has no fresh support"
    in
    match pick_pivot ~c:c_all support with
    | None ->
      invalid_arg "Fgmc_to_svc.lemma44: no admissible pivot in the support"
    | Some pivot ->
      reduce_engine ~svc ~count_query ~query_consts:c_all
        ~s_prime:Fact.Set.empty ~support ~pivot ~mode:Complement db_side
  in
  let p1 = run ~count_query:q1 ~other:q2 d1 in
  let p2 = run ~count_query:q2 ~other:q1 d2 in
  Poly.Z.mul (Poly.Z.mul p1 p2) (Compile.one_plus_z_pow free)

let any_outside_pivot ~c support =
  Term.Sset.min_elt_opt (Term.Sset.diff (Fact.Set.consts support) c)

(* Lemma D.1's "unshared constant": outside C and appearing in exactly one
   fact of the support, so that S⁰ is a singleton and the construction adds
   no exogenous facts. *)
let unshared_pivot ~c support =
  Term.Sset.min_elt_opt
    (Term.Sset.filter
       (fun a ->
          Fact.Set.cardinal
            (Fact.Set.filter (fun f -> Term.Sset.mem a (Fact.consts f)) support)
          = 1)
       (Term.Sset.diff (Fact.Set.consts support) c))

let lemma44 ~svc ~q1 ~q2 ?split db =
  lemma44_with ~pick_pivot:any_outside_pivot ~svc ~q1 ~q2 ?split db

let lemma_d1 ~svc ~q1 ~q2 ?split db =
  if not (Fact.Set.is_empty (Database.exo db)) then
    invalid_arg "Fgmc_to_svc.lemma_d1: database has exogenous facts";
  lemma44_with ~pick_pivot:unshared_pivot ~svc ~q1 ~q2 ?split db
