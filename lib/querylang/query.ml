type t =
  | True
  | Cq of Cq.t
  | Ucq of Ucq.t
  | Rpq of Rpq.t
  | Crpq of Crpq.t
  | Ucrpq of Ucrpq.t
  | Cqneg of Cqneg.t
  | Gcq of Gcq.t
  | And of t * t
  | Or of t * t

let rec eval q facts =
  match q with
  | True -> true
  | Cq q -> Cq.eval q facts
  | Ucq q -> Ucq.eval q facts
  | Rpq q -> Rpq.eval q facts
  | Crpq q -> Crpq.eval q facts
  | Ucrpq q -> Ucrpq.eval q facts
  | Cqneg q -> Cqneg.eval q facts
  | Gcq q -> Gcq.eval q facts
  | And (a, b) -> eval a facts && eval b facts
  | Or (a, b) -> eval a facts || eval b facts

let holds q db = eval q (Database.all db)

let rec consts = function
  | True -> Term.Sset.empty
  | Cq q -> Cq.consts q
  | Ucq q -> Ucq.consts q
  | Rpq q -> Rpq.consts q
  | Crpq q -> Crpq.consts q
  | Ucrpq q -> Ucrpq.consts q
  | Cqneg q -> Cqneg.consts q
  | Gcq q -> Gcq.consts q
  | And (a, b) | Or (a, b) -> Term.Sset.union (consts a) (consts b)

let rec rels = function
  | True -> Term.Sset.empty
  | Cq q -> Cq.rels q
  | Ucq q -> Ucq.rels q
  | Rpq q -> Rpq.rels q
  | Crpq q -> Crpq.rels q
  | Ucrpq q -> Ucrpq.rels q
  | Cqneg q -> Cqneg.rels q
  | Gcq q -> Gcq.rels q
  | And (a, b) | Or (a, b) -> Term.Sset.union (rels a) (rels b)

let rec is_hom_closed_syntactically = function
  | True | Cq _ | Ucq _ | Rpq _ | Crpq _ | Ucrpq _ -> true
  | Cqneg _ | Gcq _ -> false
  | And (a, b) | Or (a, b) -> is_hom_closed_syntactically a && is_hom_closed_syntactically b

let rec name = function
  | True -> "⊤"
  | Cq q -> "CQ[" ^ Cq.to_string q ^ "]"
  | Ucq q -> "UCQ[" ^ Ucq.to_string q ^ "]"
  | Rpq q -> "RPQ[" ^ Rpq.to_string q ^ "]"
  | Crpq q -> "CRPQ[" ^ Crpq.to_string q ^ "]"
  | Ucrpq q -> "UCRPQ[" ^ Ucrpq.to_string q ^ "]"
  | Cqneg q -> "CQ¬[" ^ Cqneg.to_string q ^ "]"
  | Gcq q -> "GCQ[" ^ Gcq.to_string q ^ "]"
  | And (a, b) -> "(" ^ name a ^ " ∧ " ^ name b ^ ")"
  | Or (a, b) -> "(" ^ name a ^ " ∨ " ^ name b ^ ")"

let to_string = name
let pp fmt q = Format.pp_print_string fmt (name q)

let is_support q facts = eval q facts

(* Generic minimal-support enumeration by subset search in increasing size;
   a satisfying subset none of whose strict subsets satisfies the query has
   already been recorded, so any satisfying set not containing a recorded
   one is itself minimal. *)
let generic_minimal_supports q facts =
  let arr = Array.of_list (Fact.Set.elements facts) in
  let n = Array.length arr in
  if n > 20 then
    invalid_arg "Query.minimal_supports_in: generic enumeration limited to 20 facts";
  let masks = List.init (1 lsl n) (fun m -> m) in
  let popcount m =
    let rec go m acc = if m = 0 then acc else go (m lsr 1) (acc + (m land 1)) in
    go m 0
  in
  let sorted = List.sort (fun a b -> compare (popcount a) (popcount b)) masks in
  let minimal_masks = ref [] in
  let to_set m =
    let s = ref Fact.Set.empty in
    for i = 0 to n - 1 do
      if m land (1 lsl i) <> 0 then s := Fact.Set.add arr.(i) !s
    done;
    !s
  in
  List.iter
    (fun m ->
       let dominated = List.exists (fun m' -> m land m' = m') !minimal_masks in
       if (not dominated) && eval q (to_set m) then minimal_masks := m :: !minimal_masks)
    sorted;
  List.rev_map to_set !minimal_masks

let minimal_supports_in q facts =
  match q with
  | True -> [ Fact.Set.empty ]
  | Cq cq -> if Cq.eval cq facts then Cq.minimal_supports_in cq facts else []
  | Ucq ucq -> if Ucq.eval ucq facts then Ucq.minimal_supports_in ucq facts else []
  | Rpq rpq -> Rpq.minimal_supports_in rpq facts
  | _ -> if eval q facts then generic_minimal_supports q facts else []

let is_minimal_support q facts =
  eval q facts
  && Fact.Set.for_all
    (fun f -> not (eval q (Fact.Set.remove f facts)))
    facts
  &&
  (* removing single facts is enough only for monotone queries; re-check via
     enumeration for the general case *)
  (is_hom_closed_syntactically q
   || List.exists (Fact.Set.equal facts) (minimal_supports_in q facts))

let relevant_in q facts f =
  List.exists (fun s -> Fact.Set.mem f s) (minimal_supports_in q facts)

(* ------------------------------------------------------------------ *)
(* Fresh supports                                                      *)
(* ------------------------------------------------------------------ *)

(* Shrink a support candidate to a minimal one (monotone queries: greedy
   single-fact removal reaches a minimal support). *)
let shrink_to_minimal q facts =
  let rec go current =
    match
      Fact.Set.fold
        (fun f acc ->
           match acc with
           | Some _ -> acc
           | None ->
             let without = Fact.Set.remove f current in
             if eval q without then Some without else None)
        current None
    with
    | Some smaller -> go smaller
    | None -> current
  in
  go facts

let rec fresh_support q =
  match q with
  | True -> None
  | Cq cq ->
    let s, _ = Cq.canonical_support (Cq.core cq) in
    Some s
  | Ucq ucq ->
    let cands = Ucq.canonical_supports ucq in
    let ok s = not (Fact.Set.is_empty s) in
    (* canonical support of a reduced disjunct may still contain a support
       of another disjunct; shrink to be safe *)
    (match List.filter ok cands with
     | [] -> None
     | s :: _ -> Some (shrink_to_minimal (Ucq ucq) s))
  | Rpq rpq ->
    (match Rpq.fresh_path_support ~min_len:1 rpq with
     | Some (s, _) -> Some (shrink_to_minimal q s)
     | None -> None)
  | Crpq crpq ->
    let valuation =
      Term.Sset.fold
        (fun v acc -> Term.Smap.add v (Term.fresh_const ~prefix:("n" ^ v) ()) acc)
        (Crpq.vars crpq) Term.Smap.empty
    in
    let resolve t =
      match t with
      | Term.Const c -> Some c
      | Term.Var v -> Term.Smap.find_opt v valuation
    in
    let support = ref Fact.Set.empty in
    let feasible = ref true in
    List.iter
      (fun (a : Crpq.path_atom) ->
         match (resolve a.psrc, resolve a.pdst) with
         | Some src, Some dst ->
           let sub = Rpq.make a.lang ~src ~dst in
           (match Rpq.fresh_path_support ~min_len:1 sub with
            | Some (s, _) -> support := Fact.Set.union s !support
            | None ->
              (* no word of length ≥ 1; ε works only if endpoints coincide *)
              if not (Regex.nullable a.lang && src = dst) then feasible := false)
         | _ -> feasible := false)
      (Crpq.path_atoms crpq);
    if !feasible && not (Fact.Set.is_empty !support) then
      Some (shrink_to_minimal q !support)
    else None
  | Ucrpq ucrpq ->
    let rec first = function
      | [] -> None
      | c :: rest ->
        (match fresh_support (Crpq c) with
         | Some s ->
           let shrunk = shrink_to_minimal q s in
           if Fact.Set.is_empty shrunk then first rest else Some shrunk
         | None -> first rest)
    in
    first (Ucrpq.disjuncts ucrpq)
  | Cqneg cqn ->
    let pos_cq = Cq.of_atoms (Cqneg.pos cqn) in
    let s, _ = Cq.canonical_support pos_cq in
    if Cqneg.eval cqn s then Some s else None
  | Gcq g ->
    let guard_cq = Cq.of_atoms (Gcq.guards g) in
    let s, _ = Cq.canonical_support guard_cq in
    if Gcq.eval g s then Some s else None
  | And (a, b) ->
    (match (fresh_support a, fresh_support b) with
     | Some sa, Some sb ->
       let s = Fact.Set.union sa sb in
       if eval q s then Some (shrink_to_minimal q s) else None
     | None, Some sb -> if eval q sb then Some sb else None
     | Some sa, None -> if eval q sa then Some sa else None
     | None, None -> None)
  | Or (a, b) ->
    (match fresh_support a with
     | Some sa ->
       let shrunk = shrink_to_minimal q sa in
       if Fact.Set.is_empty shrunk then None else Some shrunk
     | None -> fresh_support b)

(* ------------------------------------------------------------------ *)
(* q-leaks                                                             *)
(* ------------------------------------------------------------------ *)

let leak_witness q ~canonical f =
  let c_set = consts q in
  let is_leak_from alpha' =
    let outside = Term.Sset.diff (Fact.consts alpha') c_set in
    if Term.Sset.is_empty outside then false
    else begin
      let found = ref false in
      Homomorphism.iter_fact_homs ~fixed:c_set
        (Fact.Set.singleton alpha')
        ~into:(Fact.Set.singleton f)
        (fun h ->
           if
             Term.Sset.exists
               (fun c ->
                  match Term.Smap.find_opt c h with
                  | Some c' -> Term.Sset.mem c' c_set
                  | None -> false)
               outside
           then found := true);
      !found
    end
  in
  List.exists (fun support -> Fact.Set.exists is_leak_from support) canonical
