type fgmc_const = (Const_svc.instance * int, Bigint.t) Oracle.t

let fgmc_const_oracle q = Oracle.make (fun (inst, k) -> Const_svc.fgmc_const q inst k)

let svc_const_via_fgmc_const ~fgmc_const inst c =
  let cn = Const_svc.endo_consts inst in
  if not (Term.Sset.mem c cn) then
    invalid_arg "Const_red.svc_const_via_fgmc_const: constant is not endogenous";
  let facts = Const_svc.facts inst in
  let n = Term.Sset.cardinal cn in
  let others = Term.Sset.remove c cn in
  let with_c_exo = Const_svc.make_instance ~facts ~endo_consts:others in
  let without_c =
    Const_svc.make_instance
      ~facts:(Fact.Set.filter (fun f -> not (Term.Sset.mem c (Fact.consts f))) facts)
      ~endo_consts:others
  in
  let counts inst =
    Poly.Z.of_coeffs (List.init n (fun j -> Oracle.call fgmc_const (inst, j)))
  in
  let with_mu_exo = counts with_c_exo in
  Svc.svc_from_polynomials ~with_mu_exo ~without_mu:(counts without_c) ~n

let fgmc_const_via_svc_const ~svc_const ~query inst =
  let c_set = Query.consts query in
  let cn = Const_svc.endo_consts inst in
  if not (Term.Sset.is_empty (Term.Sset.inter c_set cn)) then
    invalid_arg "Const_red.fgmc_const_via_svc_const: query constants must be exogenous";
  let n = Term.Sset.cardinal cn in
  if Query.eval query (Const_svc.induced inst Term.Sset.empty) then
    Compile.one_plus_z_pow n
  else begin
    (* Collapse a fresh support onto a single new constant a_μ. *)
    let support =
      match Query.fresh_support query with
      | Some s -> s
      | None -> invalid_arg "Const_red.fgmc_const_via_svc_const: no fresh support"
    in
    let collapse target =
      let rho =
        Term.Sset.fold
          (fun c acc ->
             if Term.Sset.mem c c_set then acc else Term.Smap.add c target acc)
          (Fact.Set.consts support) Term.Smap.empty
      in
      Fact.Set.rename rho support
    in
    let probe = collapse (Term.fresh_const ~prefix:"amu" ()) in
    if Fact.Set.exists (fun f -> Term.Sset.subset (Fact.consts f) c_set) probe then
      invalid_arg
        "Const_red.fgmc_const_via_svc_const: collapsed support has a fact over C";
    (* copies with fresh pivots a_μ⁰ .. a_μⁿ; the i-th instance holds
       copies 0..i *)
    let pivots = Array.init (n + 1) (fun k -> Term.fresh_const ~prefix:(Printf.sprintf "amu%d" k) ()) in
    let add pivot a =
      Const_svc.make_instance
        ~facts:(Fact.Set.union (collapse pivot) (Const_svc.facts a))
        ~endo_consts:(Term.Sset.add pivot (Const_svc.endo_consts a))
    in
    let values =
      Fgmc_to_svc.measure
        (fun a -> Oracle.call svc_const (a, pivots.(0)))
        ~add (add pivots.(0) inst)
        (Array.sub pivots 1 n)
    in
    (* shᵢ = Σ_j j!(n+i-j)!/(n+i+1)! · (C(n,j) - FGMC_j): the m = 0 system
       on the raw values, with no degenerate cases to clean *)
    Fgmc_to_svc.invert ~m:0 Fgmc_to_svc.Complement values
  end
