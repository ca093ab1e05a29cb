type verdict =
  | FP
  | SharpP_hard
  | Unknown

type judgement = {
  verdict : verdict;
  rule : string;
}

let verdict_to_string = function
  | FP -> "FP"
  | SharpP_hard -> "#P-hard"
  | Unknown -> "unknown"

let pp_judgement fmt j =
  Format.fprintf fmt "%s (%s)" (verdict_to_string j.verdict) j.rule

(* ------------------------------------------------------------------ *)
(* UCQ conversion                                                      *)
(* ------------------------------------------------------------------ *)

let crpq_bound (crpq : Crpq.t) : int option =
  List.fold_left
    (fun acc (a : Crpq.path_atom) ->
       match (acc, Words.length_profile a.lang) with
       | None, _ | _, Words.Unbounded -> None
       | Some m, Words.Bounded m' -> Some (max m m')
       | Some m, Words.Empty_language -> Some m)
    (Some 0) (Crpq.path_atoms crpq)

let rec to_ucq_opt (q : Query.t) : Ucq.t option =
  match q with
  | Query.True -> None
  | Query.Cq c -> Some (Ucq.of_cq c)
  | Query.Ucq u -> Some u
  | Query.Rpq r ->
    let crpq =
      Crpq.of_path_atoms
        [ { Crpq.lang = Rpq.lang r; psrc = Term.const (Rpq.src r); pdst = Term.const (Rpq.dst r) } ]
    in
    to_ucq_opt (Query.Crpq crpq)
  | Query.Crpq crpq ->
    (match crpq_bound crpq with
     | None -> None
     | Some m -> Crpq.to_ucq ~max_len:m crpq)
  | Query.Ucrpq ucrpq ->
    let parts = List.map (fun c -> to_ucq_opt (Query.Crpq c)) (Ucrpq.disjuncts ucrpq) in
    if List.exists Option.is_none parts then None
    else
      Some
        (Ucq.of_cqs
           (List.concat_map (fun u -> Ucq.disjuncts (Option.get u)) parts))
  | Query.Cqneg _ | Query.Gcq _ -> None
  | Query.And (a, b) ->
    (match (to_ucq_opt a, to_ucq_opt b) with
     | Some ua, Some ub ->
       (* distribute: conjunction of unions, variables renamed apart *)
       let cqs =
         List.concat_map
           (fun ca ->
              List.map (fun cb -> Cq.conjoin [ ca; cb ]) (Ucq.disjuncts ub))
           (Ucq.disjuncts ua)
       in
       Some (Ucq.of_cqs cqs)
     | _ -> None)
  | Query.Or (a, b) ->
    (match (to_ucq_opt a, to_ucq_opt b) with
     | Some ua, Some ub -> Some (Ucq.of_cqs (Ucq.disjuncts ua @ Ucq.disjuncts ub))
     | _ -> None)

(* ------------------------------------------------------------------ *)
(* Class-specific classifiers                                          *)
(* ------------------------------------------------------------------ *)

let classify_rpq r =
  if Rpq.dichotomy_hard r then
    { verdict = SharpP_hard; rule = "Corollary 4.3: word of length ≥ 3" }
  else { verdict = FP; rule = "Corollary 4.3: all words of length ≤ 2" }

let classify_sjf_cq c =
  if not (Cq.is_self_join_free c) then
    invalid_arg "Classify.classify_sjf_cq: query has self-joins";
  if Hierarchical.cq c then
    { verdict = FP; rule = "hierarchical sjf-CQ is safe ([11]; Prop. 3.3 + [5])" }
  else
    { verdict = SharpP_hard; rule = "non-hierarchical sjf-CQ (Corollary 4.5 + [9])" }

let classify_cqneg c =
  if Cqneg.is_self_join_free c then begin
    if Hierarchical.cqneg c then
      { verdict = FP; rule = "hierarchical sjf-CQ¬ ([12, Thm 3.1])" }
    else if Cqneg.has_component_guarded_negation c then
      { verdict = SharpP_hard;
        rule = "non-hierarchical sjf-CQ¬, component-guarded (Prop. 6.1 + [7])" }
    else
      { verdict = SharpP_hard; rule = "non-hierarchical sjf-CQ¬ ([12, Thm 3.1])" }
  end
  else { verdict = Unknown; rule = "CQ¬ with self-joins: outside known dichotomies" }

(* A hardness route exists when the query is pseudo-connected or
   decomposable (the paper's reductions apply). *)
let has_reduction_route q =
  match Pseudo_connected.witness q with
  | Some w -> Some w.Pseudo_connected.rule
  | None ->
    (match Decomposable.witness q with
     | Some d -> Some d.Decomposable.rule
     | None -> None)

(* Corollary 4.5 hardness applies independently of the safety analysis:
   non-hierarchical sjf-CQs and non-hierarchical constant-free CQs. *)
let cor45_hardness (u : Ucq.t) : judgement option =
  match Ucq.disjuncts (Ucq.reduce u) with
  | [ c ] when Cq.is_self_join_free c && not (Cq.is_hierarchical c) ->
    Some
      { verdict = SharpP_hard; rule = "non-hierarchical sjf-CQ (Corollary 4.5 + [9])" }
  | [ c ] when Cq.is_constant_free c && not (Cq.is_hierarchical c) ->
    Some
      { verdict = SharpP_hard;
        rule = "non-hierarchical constant-free CQ (Corollary 4.5 + [9])" }
  | _ -> None

let classify_via_ucq (q : Query.t) (u : Ucq.t) : judgement =
  match Safety.ucq u with
  | Safety.Safe ->
    { verdict = FP; rule = "safe UCQ: SVC ≤ FGMC ≤ PQE ∈ FP (Prop. 3.3 + [5])" }
  | Safety.Unsafe ->
    (match has_reduction_route q with
     | Some rule ->
       { verdict = SharpP_hard;
         rule = Printf.sprintf "unsafe UCQ + FGMC ≤ SVC via %s (+ [9])" rule }
     | None ->
       (match cor45_hardness u with
        | Some j -> j
        | None ->
          { verdict = Unknown; rule = "unsafe UCQ without a known FGMC ≤ SVC route" }))
  | Safety.Unknown ->
    (match cor45_hardness u with
     | Some j -> j
     | None ->
       { verdict = Unknown;
         rule = "safety test inconclusive (beyond lifted-inference rules)" })

let rec classify (q : Query.t) : judgement =
  match q with
  | Query.True -> { verdict = FP; rule = "trivial query" }
  | Query.Rpq r -> classify_rpq r
  | Query.Cqneg c -> classify_cqneg c
  | Query.Gcq _ ->
    { verdict = Unknown;
      rule = "generalized CQ beyond sjf-CQ¬: only the Lemma D.2 hard route is known" }
  | Query.Cq c when Cq.is_self_join_free c -> classify_sjf_cq c
  | Query.Crpq crpq when crpq_bound crpq = None ->
    (* unbounded graph query *)
    if Crpq.is_constant_free crpq && Crpq.is_connected crpq then
      { verdict = SharpP_hard;
        rule = "unbounded connected hom-closed graph query (Cor. 4.2(2) + [1])" }
    else if Crpq.is_constant_free crpq && Crpq.is_cc_disjoint crpq then
      { verdict = SharpP_hard;
        rule = "unbounded cc-disjoint CRPQ (Cor. 4.6 + [1])" }
    else { verdict = Unknown; rule = "unbounded CRPQ outside Cor. 4.2/4.6" }
  | Query.Ucrpq ucrpq
    when List.exists (fun c -> crpq_bound c = None) (Ucrpq.disjuncts ucrpq) ->
    if
      Ucrpq.is_constant_free ucrpq
      && List.for_all
        (fun c -> Crpq.is_connected c)
        (Ucrpq.disjuncts ucrpq)
    then
      { verdict = SharpP_hard;
        rule = "unbounded connected hom-closed graph query (Cor. 4.2(2) + [1])" }
    else { verdict = Unknown; rule = "unbounded UCRPQ outside Cor. 4.2" }
  | _ ->
    (match to_ucq_opt q with
     | Some u -> classify_via_ucq q u
     | None ->
       (match q with
        | Query.And (a, b) ->
          (* decomposable conjunction: hard if either side is hard *)
          (match Decomposable.witness q with
           | Some d ->
             let ja = classify d.Decomposable.q1 and jb = classify d.Decomposable.q2 in
             (match (ja.verdict, jb.verdict) with
              | SharpP_hard, _ ->
                { verdict = SharpP_hard;
                  rule = Printf.sprintf "%s; hard conjunct: %s" d.Decomposable.rule ja.rule }
              | _, SharpP_hard ->
                { verdict = SharpP_hard;
                  rule = Printf.sprintf "%s; hard conjunct: %s" d.Decomposable.rule jb.rule }
              | FP, FP ->
                { verdict = FP; rule = "both conjuncts in FP over disjoint vocabularies" }
              | _ -> { verdict = Unknown; rule = "conjunct classification inconclusive" })
           | None -> ignore (a, b); { verdict = Unknown; rule = "non-decomposable conjunction" })
        | _ -> { verdict = Unknown; rule = "query class not covered" }))
