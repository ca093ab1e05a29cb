(* Union-find over array indices; small, local, path-compressing. *)
module Uf = struct
  let create n = Array.init n (fun i -> i)

  let rec find uf i = if uf.(i) = i then i else begin
    let r = find uf uf.(i) in
    uf.(i) <- r;
    r
  end

  let union uf i j =
    let ri = find uf i and rj = find uf j in
    if ri <> rj then uf.(ri) <- rj
end

(* Group list elements by the representative of the terms they share.
   [terms_of x] lists the "connecting" node keys of element [x]. *)
let components_by (type a) (terms_of : a -> string list) (items : a list) : a list list =
  let items = Array.of_list items in
  let n = Array.length items in
  if n = 0 then []
  else begin
    let uf = Uf.create n in
    let owner : (string, int) Hashtbl.t = Hashtbl.create 16 in
    Array.iteri
      (fun i x ->
         List.iter
           (fun key ->
              match Hashtbl.find_opt owner key with
              | None -> Hashtbl.add owner key i
              | Some j -> Uf.union uf i j)
           (terms_of x))
      items;
    let groups : (int, a list) Hashtbl.t = Hashtbl.create 8 in
    Array.iteri
      (fun i x ->
         let r = Uf.find uf i in
         let prev = Option.value ~default:[] (Hashtbl.find_opt groups r) in
         Hashtbl.replace groups r (x :: prev))
      items;
    Hashtbl.fold (fun _ g acc -> List.rev g :: acc) groups []
  end

(* Term keys: tag constants and variables apart so that a constant "x" and a
   variable "x" never connect. *)
let all_term_keys atom =
  List.map
    (function Term.Const c -> "c:" ^ c | Term.Var v -> "v:" ^ v)
    (Atom.args atom)

let var_term_keys atom =
  List.filter_map
    (function Term.Var v -> Some ("v:" ^ v) | Term.Const _ -> None)
    (Atom.args atom)

let components atoms = components_by all_term_keys (List.sort_uniq Atom.compare atoms)

let variable_components atoms =
  components_by var_term_keys (List.sort_uniq Atom.compare atoms)

let connected atoms = List.length (components atoms) <= 1
let variable_connected atoms = List.length (variable_components atoms) <= 1

let fact_components_outside ~fixed facts =
  let keys f =
    List.filter (fun c -> not (Term.Sset.mem c fixed)) (Fact.args f)
  in
  List.map Fact.Set.of_list (components_by keys (Fact.Set.elements facts))

let facts_connected_outside ~fixed facts =
  List.length (fact_components_outside ~fixed facts) <= 1
