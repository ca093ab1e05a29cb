(* Safety verdicts by the lifted-inference rules.  Each rule's condition
   lives once in the query modules and is shared with [Lifted], which
   runs the same rules on polynomials: [Cq.vocabularies_disjoint]
   (independent join), [Cq.separator] (independent project),
   [Ucq.independent_groups] (independent union) and
   [Ucq.inclusion_exclusion] over [Cq.conjoin]ed disjuncts. *)

type verdict =
  | Safe
  | Unsafe
  | Unknown

let verdict_to_string = function
  | Safe -> "safe"
  | Unsafe -> "unsafe"
  | Unknown -> "unknown"

let pp_verdict fmt v = Format.pp_print_string fmt (verdict_to_string v)

let meet_all combine verdicts =
  List.fold_left combine Safe verdicts

(* verdict combinators for independent composition: all Safe → Safe, any
   Unsafe → Unsafe (hardness restricts to the offending part), else
   Unknown *)
let independent a b =
  match (a, b) with
  | Unsafe, _ | _, Unsafe -> Unsafe
  | Safe, Safe -> Safe
  | _ -> Unknown

(* for inclusion–exclusion, unsafety of a term does not transfer
   (cancellation may remove it) *)
let ie_combine a b =
  match (a, b) with
  | Safe, Safe -> Safe
  | _ -> Unknown

let rec cq_verdict (q : Cq.t) : verdict =
  let q = Cq.core q in
  let atoms = Cq.atoms q in
  match atoms with
  | [ _ ] -> Safe
  | _ ->
    let comps = Cq.variable_components q in
    if List.length comps > 1 then begin
      (* independent join requires pairwise-disjoint vocabularies *)
      if Cq.vocabularies_disjoint comps then
        meet_all independent (List.map cq_verdict comps)
      else Unknown
    end
    else begin
      (* single variable-connected component: look for a separator *)
      match Cq.separator q with
      | Some x ->
        let grounded =
          Cq.of_atoms
            (List.map
               (Atom.apply (Term.Smap.singleton x (Term.const (Term.fresh_const ~prefix:"sep" ()))))
               atoms)
        in
        let sub = cq_verdict grounded in
        (match sub with
         | Safe -> Safe
         | Unsafe -> if Cq.is_self_join_free q then Unsafe else Unknown
         | Unknown -> Unknown)
      | None ->
        (* connected, several atoms, no separator: non-hierarchical core;
           for self-join-free queries this is exactly the unsafe case *)
        if Cq.is_self_join_free q then Unsafe else Unknown
    end

let cq q = cq_verdict q

let rec ucq_verdict (q : Ucq.t) : verdict =
  let q = Ucq.reduce q in
  match Ucq.disjuncts q with
  | [ c ] -> cq_verdict c
  | _ ->
    (match Ucq.independent_groups q with
     | _ :: _ :: _ as groups -> meet_all independent (List.map ucq_verdict groups)
     | _ ->
       Option.value ~default:Unknown
         (Ucq.inclusion_exclusion
            (fun ~odd:_ c v -> Some (ie_combine v (cq_verdict c)))
            Safe q))

let ucq q = ucq_verdict q
