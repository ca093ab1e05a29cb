let svc_with ~fgmc_j db mu =
  if not (Database.mem_endo mu db) then
    invalid_arg "Svc_to_fgmc.svc: fact is not endogenous";
  let n = Database.size_endo db in
  let counts db = Poly.Z.of_coeffs (List.init n (fgmc_j db)) in
  let with_mu_exo = counts (Database.make_exogenous mu db) in
  Svc.svc_from_polynomials ~with_mu_exo ~without_mu:(counts (Database.remove mu db)) ~n

let svc ~fgmc db mu = svc_with ~fgmc_j:(fun db j -> Oracle.call fgmc (db, j)) db mu

let svc_endo ~fgmc db mu =
  if not (Fact.Set.is_empty (Database.exo db)) then
    invalid_arg "Svc_to_fgmc.svc_endo: database has exogenous facts";
  svc_with ~fgmc_j:(fun db j -> Endogenous.fgmc_via_fmc ~fmc:fgmc db j) db mu
