type t = { rel : string; args : string list }

let make rel args =
  if rel = "" then invalid_arg "Fact.make: empty relation name";
  { rel; args }

let rel f = f.rel
let args f = f.args
let arity f = List.length f.args

let consts f = Term.Sset.of_list f.args

let to_atom f = Atom.make f.rel (List.map Term.const f.args)

let of_atom_opt (a : Atom.t) =
  let rec ground acc = function
    | [] -> Some (List.rev acc)
    | Term.Const c :: rest -> ground (c :: acc) rest
    | Term.Var _ :: _ -> None
  in
  match ground [] (Atom.args a) with
  | Some args -> Some (make (Atom.rel a) args)
  | None -> None

let of_atom a =
  match of_atom_opt a with
  | Some f -> f
  | None -> invalid_arg "Fact.of_atom: atom is not ground"

let rename rho f =
  let map_const c = match Term.Smap.find_opt c rho with Some c' -> c' | None -> c in
  { f with args = List.map map_const f.args }

let compare = Stdlib.compare
let equal a b = compare a b = 0

let to_string f = Printf.sprintf "%s(%s)" f.rel (String.concat "," f.args)
let pp fmt f = Format.pp_print_string fmt (to_string f)

module Base_set = Stdlib.Set.Make (struct
    type nonrec t = t

    let compare = compare
  end)

module Set = struct
  include Base_set

  let consts s =
    fold (fun f acc -> Term.Sset.union (consts f) acc) s Term.Sset.empty

  let rels s = fold (fun f acc -> Term.Sset.add f.rel acc) s Term.Sset.empty
  let rename rho s = map (rename rho) s

  let add_distinct s l = if List.exists (equal s) l then l else s :: l

  let minimal l =
    List.filter
      (fun s -> not (List.exists (fun s' -> subset s' s && not (equal s' s)) l))
      l

  let pp fmt s =
    Format.fprintf fmt "{@[%a@]}"
      (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ",@ ") pp)
      (elements s)
end

module Map = Stdlib.Map.Make (struct
    type nonrec t = t

    let compare = compare
  end)
