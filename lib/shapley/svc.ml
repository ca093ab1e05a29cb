(* The per-term [Bigint.factorial] calls this loop used to make are now a
   single shared running-product table. *)
let svc_from_polynomials ~with_mu_exo ~without_mu ~n =
  Engine.shapley_of_polynomials ~factorials:(Bigint.factorial_table n)
    ~with_mu_exo ~without_mu ~n

(* With SVC_DEBUG set (to anything but "" or "0"), entry points first vet
   the (query, database) pair through the static analyzer and refuse to
   run when it reports errors. *)
let debug_enabled () =
  match Sys.getenv_opt "SVC_DEBUG" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let debug_check name q db =
  if debug_enabled () then begin
    let ds = Analyze.query q @ Analyze.database db @ Analyze.pair q db in
    let errors =
      List.filter (fun d -> d.Diagnostic.severity = Diagnostic.Error) ds
    in
    if errors <> [] then
      invalid_arg
        (Printf.sprintf "%s: SVC_DEBUG analysis found errors:\n%s" name
           (String.concat "\n" (List.map Diagnostic.to_string errors)))
  end

let svc_unchecked q db mu =
  if not (Database.mem_endo mu db) then invalid_arg "Svc.svc: fact is not endogenous";
  let n = Database.size_endo db in
  let db_mu_exo = Database.make_exogenous mu db in
  let db_without = Database.remove mu db in
  let with_mu_exo = Model_counting.fgmc_polynomial q db_mu_exo in
  let without_mu = Model_counting.fgmc_polynomial q db_without in
  svc_from_polynomials ~with_mu_exo ~without_mu ~n

let svc q db mu =
  debug_check "Svc.svc" q db;
  svc_unchecked q db mu

let svc_brute q db mu =
  if not (Database.mem_endo mu db) then invalid_arg "Svc.svc_brute: fact is not endogenous";
  debug_check "Svc.svc_brute" q db;
  let game, players = Game.of_query q db in
  let idx = ref (-1) in
  Array.iteri (fun i f -> if Fact.equal f mu then idx := i) players;
  Game.shapley game !idx

let svc_all_naive q db =
  debug_check "Svc.svc_all_naive" q db;
  List.map (fun f -> (f, svc_unchecked q db f)) (Database.endo_list db)

let engine q db =
  debug_check "Svc.engine" q db;
  Engine.create q db

let svc_all ?tel ?jobs ?backend q db =
  debug_check "Svc.svc_all" q db;
  Engine.svc_all (Engine.create ?tel ?jobs ?backend q db)

let svc_hierarchical q db mu =
  if not (Database.mem_endo mu db) then
    invalid_arg "Svc.svc_hierarchical: fact is not endogenous";
  let lifted db =
    match Lifted.cq q db with
    | Some p -> p
    | None -> invalid_arg "Svc.svc_hierarchical: lifted rules stuck"
  in
  svc_from_polynomials
    ~with_mu_exo:(lifted (Database.make_exogenous mu db))
    ~without_mu:(lifted (Database.remove mu db))
    ~n:(Database.size_endo db)

let banzhaf q db mu =
  if not (Database.mem_endo mu db) then invalid_arg "Svc.banzhaf: fact is not endogenous";
  debug_check "Svc.banzhaf" q db;
  let n = Database.size_endo db in
  let with_mu_exo = Model_counting.gmc q (Database.make_exogenous mu db) in
  let without_mu = Model_counting.gmc q (Database.remove mu db) in
  Rational.make (Bigint.sub with_mu_exo without_mu) (Bigint.pow Bigint.two (n - 1))

let banzhaf_brute q db mu =
  if not (Database.mem_endo mu db) then
    invalid_arg "Svc.banzhaf_brute: fact is not endogenous";
  let game, players = Game.of_query q db in
  let idx = ref (-1) in
  Array.iteri (fun i f -> if Fact.equal f mu then idx := i) players;
  Game.banzhaf game !idx
