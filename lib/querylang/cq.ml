type t = Atom.t list (* sorted, duplicate-free *)

let of_atoms atoms =
  if atoms = [] then invalid_arg "Cq.of_atoms: empty conjunction (use Query.True)";
  List.sort_uniq Atom.compare atoms

let atoms q = q

let vars q =
  List.fold_left (fun acc a -> Term.Sset.union acc (Atom.vars a)) Term.Sset.empty q

let consts q =
  List.fold_left (fun acc a -> Term.Sset.union acc (Atom.consts a)) Term.Sset.empty q

let rels q = List.fold_left (fun acc a -> Term.Sset.add (Atom.rel a) acc) Term.Sset.empty q

let eval q facts = Homomorphism.exists_valuation ~into:facts q

let is_self_join_free q = Term.Sset.cardinal (rels q) = List.length q
let is_constant_free q = Term.Sset.is_empty (consts q)
let is_connected q = Incidence.connected q
let is_variable_connected q = Incidence.variable_connected q
let variable_components q = List.map of_atoms (Incidence.variable_components q)

let is_hierarchical q =
  (* Footnote 5: q is NOT hierarchical iff some triple (α₁, α₂, α₃) has
     vars(α₁)∩vars(α₂) ⊄ vars(α₃) and vars(α₃)∩vars(α₂) ⊄ vars(α₁). *)
  let arr = Array.of_list q in
  let n = Array.length arr in
  let non_hier = ref false in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      for k = 0 to n - 1 do
        if not !non_hier then begin
          let v1 = Atom.vars arr.(i)
          and v2 = Atom.vars arr.(j)
          and v3 = Atom.vars arr.(k) in
          if
            (not (Term.Sset.subset (Term.Sset.inter v1 v2) v3))
            && not (Term.Sset.subset (Term.Sset.inter v3 v2) v1)
          then non_hier := true
        end
      done
    done
  done;
  not !non_hier

(* ------------------------------------------------------------------ *)
(* Canonical support and core                                          *)
(* ------------------------------------------------------------------ *)

let canonical_support ?(prefix = "v") q =
  let valuation =
    Term.Sset.fold
      (fun v acc -> Term.Smap.add v (Term.fresh_const ~prefix:(prefix ^ v) ()) acc)
      (vars q) Term.Smap.empty
  in
  (Homomorphism.image valuation q, valuation)

(* Map a set of facts back to atoms, turning constants in the codomain of
   [valuation] back into their variables. *)
let uncanonize (valuation : string Term.Smap.t) (facts : Fact.Set.t) : Atom.t list =
  let back =
    Term.Smap.fold (fun v c acc -> Term.Smap.add c (Term.var v) acc) valuation Term.Smap.empty
  in
  List.map
    (fun f ->
       Atom.make (Fact.rel f)
         (List.map
            (fun c ->
               match Term.Smap.find_opt c back with
               | Some v -> v
               | None -> Term.const c)
            (Fact.args f)))
    (Fact.Set.elements facts)

let core q =
  (* Repeatedly retract the canonical database onto a proper sub-image. *)
  let canon, valuation = canonical_support q in
  let rec shrink (current : Fact.Set.t) =
    let candidate = ref None in
    (try
       Homomorphism.iter_valuations ~into:current q (fun s ->
           let img = Homomorphism.image s q in
           if Fact.Set.cardinal img < Fact.Set.cardinal current then begin
             candidate := Some img;
             raise Exit
           end)
     with Exit -> ());
    match !candidate with
    | Some smaller -> shrink smaller
    | None -> current
  in
  (* Valuations of q into subsets of its canonical database are exactly the
     endomorphisms of the canonical database fixing const(q). *)
  let retract = shrink canon in
  of_atoms (uncanonize valuation retract)

let equal_atomsets (a : t) (b : t) = a = b

let is_minimal q = equal_atomsets (core q) q

(* On a self-join-free CQ every image has exactly |q| facts and
   determines its valuation, so no image repeats or contains another: the
   images in enumeration order are already the minimal supports. *)
let minimal_supports_in q facts =
  if is_self_join_free q then begin
    let images = ref [] in
    Homomorphism.iter_valuations ~into:facts q (fun s ->
        images := Homomorphism.image s q :: !images);
    List.rev !images
  end
  else Homomorphism.minimal_images ~into:facts q

let homomorphic_to q q' =
  let canon', _ = canonical_support q' in
  eval q canon'

let equivalent q q' = homomorphic_to q q' && homomorphic_to q' q

let rename_apart ~avoid q =
  let rho =
    Term.Sset.fold
      (fun v acc ->
         if Term.Sset.mem v avoid then
           Term.Smap.add v (Term.var (Term.fresh_const ~prefix:("u" ^ v) ())) acc
         else acc)
      (vars q) Term.Smap.empty
  in
  List.map (Atom.apply rho) q

let conjoin qs =
  let _, atoms =
    List.fold_left
      (fun (avoid, acc) c ->
         let c' = rename_apart ~avoid c in
         (Term.Sset.union avoid (vars c'), acc @ c'))
      (Term.Sset.empty, []) qs
  in
  of_atoms atoms

let separator q =
  Term.Sset.choose_opt
    (Term.Sset.filter
       (fun x -> List.for_all (fun a -> Term.Sset.mem x (Atom.vars a)) q)
       (vars q))

let vocabularies_disjoint qs =
  let rec go = function
    | [] -> true
    | v :: rest -> List.for_all (Term.Sset.disjoint v) rest && go rest
  in
  go (List.map rels qs)

let instantiate tuple q =
  let qvars = vars q in
  List.iter
    (fun (v, _) ->
       if not (Term.Sset.mem v qvars) then
         invalid_arg (Printf.sprintf "Cq.instantiate: no variable %s in the query" v))
    tuple;
  let subst =
    List.fold_left
      (fun acc (v, c) -> Term.Smap.add v (Term.const c) acc)
      Term.Smap.empty tuple
  in
  of_atoms (List.map (Atom.apply subst) q)

(* ------------------------------------------------------------------ *)
(* Parsing and printing                                                *)
(* ------------------------------------------------------------------ *)

let is_ident_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '#' || c = '\''

let parse_term (s : string) : Term.t =
  let s = String.trim s in
  if s = "" then invalid_arg "Cq.parse: empty term";
  if s.[0] = '?' then Term.var (String.sub s 1 (String.length s - 1))
  else begin
    String.iter
      (fun c -> if not (is_ident_char c) then invalid_arg "Cq.parse: bad term character")
      s;
    Term.const s
  end

let parse_atom (s : string) : Atom.t =
  let s = String.trim s in
  match String.index_opt s '(' with
  | None -> invalid_arg "Cq.parse: atom missing '('"
  | Some i ->
    if String.length s = 0 || s.[String.length s - 1] <> ')' then
      invalid_arg "Cq.parse: atom missing ')'";
    let rel = String.trim (String.sub s 0 i) in
    let inner = String.sub s (i + 1) (String.length s - i - 2) in
    let args = String.split_on_char ',' inner in
    Atom.make rel (List.map parse_term args)

let parse (s : string) : t =
  (* split on commas at paren depth 0 *)
  let parts = ref [] in
  let buf = Buffer.create 16 in
  let depth = ref 0 in
  String.iter
    (fun c ->
       match c with
       | '(' -> incr depth; Buffer.add_char buf c
       | ')' -> decr depth; Buffer.add_char buf c
       | ',' when !depth = 0 ->
         parts := Buffer.contents buf :: !parts;
         Buffer.clear buf
       | c -> Buffer.add_char buf c)
    s;
  parts := Buffer.contents buf :: !parts;
  of_atoms (List.map parse_atom (List.rev !parts))

let to_string q = String.concat ", " (List.map Atom.to_string q)
let pp fmt q = Format.pp_print_string fmt (to_string q)
let compare = Stdlib.compare
let equal a b = compare a b = 0
