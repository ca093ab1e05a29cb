type path_atom = { lang : Regex.t; psrc : Term.t; pdst : Term.t }

type t = path_atom list

let of_path_atoms patoms =
  if patoms = [] then invalid_arg "Crpq.of_path_atoms: empty conjunction";
  patoms

let path_atoms q = q

let term_vars t = match t with Term.Var v -> Term.Sset.singleton v | Term.Const _ -> Term.Sset.empty
let term_consts t = match t with Term.Const c -> Term.Sset.singleton c | Term.Var _ -> Term.Sset.empty

let vars q =
  List.fold_left
    (fun acc a -> Term.Sset.union acc (Term.Sset.union (term_vars a.psrc) (term_vars a.pdst)))
    Term.Sset.empty q

let consts q =
  List.fold_left
    (fun acc a -> Term.Sset.union acc (Term.Sset.union (term_consts a.psrc) (term_consts a.pdst)))
    Term.Sset.empty q

let rels q =
  List.fold_left
    (fun acc a -> Term.Sset.union acc (Term.Sset.of_list (Regex.symbols a.lang)))
    Term.Sset.empty q

let is_constant_free q = Term.Sset.is_empty (consts q)

let is_self_join_free q =
  let rec pairwise = function
    | [] -> true
    | a :: rest ->
      let va = Term.Sset.of_list (Regex.symbols a.lang) in
      List.for_all
        (fun b -> Term.Sset.is_empty (Term.Sset.inter va (Term.Sset.of_list (Regex.symbols b.lang))))
        rest
      && pairwise rest
  in
  pairwise q

(* ------------------------------------------------------------------ *)
(* Evaluation: binary CSP over [pairs] relations                       *)
(* ------------------------------------------------------------------ *)

(* The one binding-extension search behind [eval] and [bindings].  Each
   path atom relates the constant pairs its language reaches in [facts];
   ε also relates any constant of the universe to itself, including
   constants absent from the database.  [fail_first] searches the atoms
   by ascending pair count, otherwise in query order; [found] sees every
   solution in search order and stops the search by returning [true]. *)
let search ~fail_first q facts found =
  let universe = Term.Sset.union (Fact.Set.consts facts) (consts q) in
  let atom_pairs a =
    let base = Rpq.reachable_pairs a.lang facts in
    if Regex.nullable a.lang then
      List.sort_uniq compare
        (base @ List.map (fun c -> (c, c)) (Term.Sset.elements universe))
    else base
  in
  let constraints = List.map (fun a -> (a, atom_pairs a)) q in
  let constraints =
    if fail_first then
      List.sort (fun (_, p1) (_, p2) -> compare (List.length p1) (List.length p2))
        constraints
    else constraints
  in
  let lookup binding t =
    match t with
    | Term.Const c -> Some c
    | Term.Var v -> Term.Smap.find_opt v binding
  in
  let rec solve binding = function
    | [] -> found binding
    | (a, pairs) :: rest ->
      List.exists
        (fun (c, d) ->
           let ok_src = match lookup binding a.psrc with None -> true | Some x -> x = c in
           let ok_dst = match lookup binding a.pdst with None -> true | Some x -> x = d in
           if not (ok_src && ok_dst) then false
           else begin
             let binding =
               match a.psrc with Term.Var v -> Term.Smap.add v c binding | Term.Const _ -> binding
             in
             let binding =
               match a.pdst with Term.Var v -> Term.Smap.add v d binding | Term.Const _ -> binding
             in
             solve binding rest
           end)
        pairs
  in
  solve Term.Smap.empty constraints

let eval q facts = search ~fail_first:true q facts (fun _ -> true)

let bindings q facts =
  let found = ref [] in
  ignore
    (search ~fail_first:false q facts (fun b ->
         found := b :: !found;
         false));
  (* distinct pair choices can induce the same binding; dedup *)
  let seen = Hashtbl.create 16 in
  List.filter
    (fun b ->
       let key = Term.Smap.bindings b in
       if Hashtbl.mem seen key then false
       else begin
         Hashtbl.add seen key ();
         true
       end)
    !found

(* ------------------------------------------------------------------ *)
(* Structure                                                           *)
(* ------------------------------------------------------------------ *)

let components q =
  let key = function Term.Const c -> "c:" ^ c | Term.Var v -> "v:" ^ v in
  Incidence.components_by (fun a -> [ key a.psrc; key a.pdst ]) q

let is_connected q = List.length (components q) <= 1

let is_cc_disjoint q =
  let comps = components q in
  let vocabs = List.map (fun c -> rels c) comps in
  let rec pairwise = function
    | [] -> true
    | v :: rest ->
      List.for_all (fun v' -> Term.Sset.is_empty (Term.Sset.inter v v')) rest && pairwise rest
  in
  pairwise vocabs

(* ------------------------------------------------------------------ *)
(* Bounded expansion to UCQ                                            *)
(* ------------------------------------------------------------------ *)

let expand_atom max_len (a : path_atom) : (Atom.t list * (Term.t * Term.t) list) list option =
  if Words.exists_length_geq a.lang (max_len + 1) then None
  else begin
    let options = ref [] in
    for l = 0 to max_len do
      List.iter
        (fun word ->
           if word = [] then
             (* ε: equate the endpoints *)
             options := ([], [ (a.psrc, a.pdst) ]) :: !options
           else begin
             let k = List.length word in
             let node i =
               if i = 0 then a.psrc
               else if i = k then a.pdst
               else Term.var (Term.fresh_const ~prefix:"w" ())
             in
             let nodes = Array.init (k + 1) node in
             let atoms = List.mapi (fun i r -> Atom.make r [ nodes.(i); nodes.(i + 1) ]) word in
             options := (atoms, []) :: !options
           end)
        (Words.words_of_length a.lang l)
    done;
    Some (List.rev !options)
  end

let apply_unifications (atoms : Atom.t list) (eqs : (Term.t * Term.t) list) : Atom.t list option =
  (* Resolve the equations into a substitution on variables; fail when two
     distinct constants must be equal. *)
  let rec norm subst t =
    match t with
    | Term.Const _ -> t
    | Term.Var v ->
      (match Term.Smap.find_opt v subst with
       | None -> t
       | Some t' -> norm subst t')
  in
  let rec unify subst = function
    | [] -> Some subst
    | (t1, t2) :: rest ->
      let t1 = norm subst t1 and t2 = norm subst t2 in
      (match (t1, t2) with
       | Term.Const c1, Term.Const c2 -> if c1 = c2 then unify subst rest else None
       | Term.Var v, t | t, Term.Var v -> unify (Term.Smap.add v t subst) rest)
  in
  match unify Term.Smap.empty eqs with
  | None -> None
  | Some subst ->
    let resolve t = norm subst t in
    Some (List.map (fun a -> Atom.make (Atom.rel a) (List.map resolve (Atom.args a))) atoms)

let to_ucq ~max_len q =
  let rec product = function
    | [] -> Some [ ([], []) ]
    | a :: rest ->
      (match (expand_atom max_len a, product rest) with
       | Some opts, Some combos ->
         Some
           (List.concat_map
              (fun (atoms, eqs) ->
                 List.map (fun (atoms', eqs') -> (atoms @ atoms', eqs @ eqs')) combos)
              opts)
       | _ -> None)
  in
  match product q with
  | None -> None
  | Some combos ->
    let cqs =
      List.filter_map
        (fun (atoms, eqs) ->
           match apply_unifications atoms eqs with
           | None -> None
           | Some [] -> None (* all-ε combination: trivially true, not a CQ *)
           | Some atoms -> Some (Cq.of_atoms atoms))
        combos
    in
    (match cqs with [] -> None | _ -> Some (Ucq.of_cqs cqs))

(* ------------------------------------------------------------------ *)
(* Parsing and printing                                                *)
(* ------------------------------------------------------------------ *)

let parse_term s =
  let s = String.trim s in
  if s = "" then invalid_arg "Crpq.parse: empty term";
  if s.[0] = '?' then Term.var (String.sub s 1 (String.length s - 1)) else Term.const s

let parse s =
  (* path atoms separated by top-level commas; each is regex(term,term) *)
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
  let parse_patom s =
    let s = String.trim s in
    (* the argument pair is the last parenthesized group *)
    let n = String.length s in
    if n = 0 || s.[n - 1] <> ')' then invalid_arg "Crpq.parse: path atom missing (src,dst)";
    (* find the matching '(' of the final ')' *)
    let rec find i depth =
      if i < 0 then invalid_arg "Crpq.parse: unbalanced parentheses"
      else
        match s.[i] with
        | ')' -> find (i - 1) (depth + 1)
        | '(' -> if depth = 1 then i else find (i - 1) (depth - 1)
        | _ -> find (i - 1) depth
    in
    let open_i = find (n - 1) 0 in
    let regex_part = String.sub s 0 open_i in
    let args_part = String.sub s (open_i + 1) (n - open_i - 2) in
    match String.split_on_char ',' args_part with
    | [ a; b ] ->
      { lang = Regex.parse regex_part; psrc = parse_term a; pdst = parse_term b }
    | _ -> invalid_arg "Crpq.parse: path atoms take exactly two arguments"
  in
  of_path_atoms (List.map parse_patom (List.rev !parts))

let patom_to_string a =
  Printf.sprintf "(%s)(%s,%s)" (Regex.to_string a.lang) (Term.to_string a.psrc)
    (Term.to_string a.pdst)

let to_string q = String.concat ", " (List.map patom_to_string q)
let pp fmt q = Format.pp_print_string fmt (to_string q)
