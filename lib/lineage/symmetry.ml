(* Classes of interchangeable facts, and their independent check.

   The detector works on player indices: terms become sorted int arrays
   in a hash set, so swapping two players and looking the image up costs
   a few array operations per term.  The checker below shares none of
   this code: it re-derives the terms as fact sets and replays every
   claimed transposition on them. *)

type t = {
  players : Fact.t array;
  index : (Fact.t, int) Hashtbl.t;  (* player → its index *)
  class_of : int array;  (* player index → class *)
  reps : int array;  (* class → index of its representative *)
}

let index_of players =
  let index = Hashtbl.create (2 * Array.length players + 1) in
  Array.iteri (fun i f -> Hashtbl.replace index f i) players;
  index

let discrete players =
  let n = Array.length players in
  { players; index = index_of players; class_of = Array.init n Fun.id;
    reps = Array.init n Fun.id }

let count t = Array.length t.reps
let position t f = Hashtbl.find_opt t.index f
let class_of t i = t.class_of.(i)
let representative t c = t.reps.(c)

let classes t =
  let members = Array.make (count t) [] in
  for i = Array.length t.players - 1 downto 0 do
    let c = t.class_of.(i) in
    members.(c) <- t.players.(i) :: members.(c)
  done;
  Array.to_list members

(* ------------------------------------------------------------------ *)
(* Detection                                                           *)
(* ------------------------------------------------------------------ *)

let mix h k = (h * 0x01000193) lxor (k land max_int)

(* A 63-bit integer finalizer: sums of scrambled values make
   order-insensitive multiset hashes. *)
let scramble k =
  let k = (k lxor (k lsr 31)) * 0x1bd1e9955bd1e995 in
  let k = (k lxor (k lsr 29)) * 0x27d4eb2f165667c5 in
  k lxor (k lsr 32)

module Terms = Hashtbl.Make (struct
    type t = int array

    let equal (a : t) b = a = b
    let hash a = Array.fold_left mix 0x811c9dc5 a land max_int
  end)

(* The terms of a positive DNF as fact lists, or [None] for any other
   shape. *)
let dnf_terms phi =
  let term = function
    | Bform.Fv f -> Some [ f ]
    | Bform.And parts ->
      List.fold_right
        (fun p acc ->
           match (p, acc) with
           | Bform.Fv f, Some fs -> Some (f :: fs)
           | _ -> None)
        parts (Some [])
    | _ -> None
  in
  match phi with
  | Bform.True -> Some [ [] ]
  | Bform.False -> Some []
  | Bform.Or disjuncts ->
    List.fold_right
      (fun d acc ->
         match (term d, acc) with
         | Some t, Some ts -> Some (t :: ts)
         | _ -> None)
      disjuncts (Some [])
  | phi -> Option.map (fun t -> [ t ]) (term phi)

let detect ~players phi =
  match dnf_terms phi with
  | None -> discrete players
  | Some raw ->
    let n = Array.length players in
    let index = index_of players in
    (* formula facts outside [players] get indices from n up: they take
       part in terms but are never swapped *)
    let others = Hashtbl.create 8 in
    let id f =
      match Hashtbl.find_opt index f with
      | Some i -> i
      | None ->
        (match Hashtbl.find_opt others f with
         | Some i -> i
         | None ->
           let i = n + Hashtbl.length others in
           Hashtbl.add others f i;
           i)
    in
    let term_set = Terms.create 64 and unique = ref [] in
    List.iter
      (fun t ->
         let a = Array.of_list (List.sort_uniq Int.compare (List.map id t)) in
         if not (Terms.mem term_set a) then begin
           Terms.add term_set a ();
           unique := a :: !unique
         end)
      raw;
    let terms = Array.of_list (List.rev !unique) in
    let occ = Array.make (n + Hashtbl.length others) [] in
    Array.iteri (fun k t -> Array.iter (fun v -> occ.(v) <- k :: occ.(v)) t) terms;
    let degree = Array.map List.length occ in
    (* The signature: the player's degree and, per term holding it, the
       term's size and its members' degrees.  An automorphism preserves
       all of these, so interchangeable players share a signature. *)
    let term_sig =
      Array.map
        (fun t ->
           Array.fold_left
             (fun acc v -> acc + scramble (degree.(v) + 1))
             (scramble (Array.length t)) t)
        terms
    in
    let signature =
      Array.init n (fun x ->
          List.fold_left
            (fun acc k -> acc + scramble term_sig.(k))
            (scramble (-degree.(x) - 1)) occ.(x))
    in
    (* The context: the set of the player's terms with the player
       removed.  Equal contexts make two players interchangeable (they
       never share a term); interchangeable players that share a term
       are each other's neighbours instead. *)
    let context =
      Array.init n (fun x ->
          List.fold_left
            (fun acc k ->
               acc
               + scramble
                   (Array.fold_left
                      (fun h v -> if v = x then h else mix h v)
                      0x811c9dc5 terms.(k)))
            0 occ.(x))
    in
    (* does the transposition (x r) map every term onto a term? *)
    let swaps_to_terms x r =
      let image k =
        let u = Array.map (fun v -> if v = x then r else if v = r then x else v) terms.(k) in
        Array.sort Int.compare u;
        Terms.mem term_set u
      in
      List.for_all image occ.(x) && List.for_all image occ.(r)
    in
    let class_of = Array.make n (-1) and reps = Array.make n 0 in
    let n_classes = ref 0 in
    let by_context : (int, int list) Hashtbl.t = Hashtbl.create 64 in
    let register c x =
      let cs = Option.value ~default:[] (Hashtbl.find_opt by_context context.(x)) in
      if not (List.mem c cs) then Hashtbl.replace by_context context.(x) (c :: cs)
    in
    for x = 0 to n - 1 do
      let tried = ref [] in
      let fits c =
        signature.(reps.(c)) = signature.(x)
        && (not (List.mem c !tried))
        && begin
          tried := c :: !tried;
          swaps_to_terms x reps.(c)
        end
      in
      let same_context () =
        List.find_opt fits
          (Option.value ~default:[] (Hashtbl.find_opt by_context context.(x)))
      in
      let sharing_a_term () =
        let exception Found of int in
        try
          List.iter
            (fun k ->
               Array.iter
                 (fun y ->
                    if y < x && signature.(y) = signature.(x) && fits class_of.(y)
                    then raise (Found class_of.(y)))
                 terms.(k))
            occ.(x);
          None
        with Found c -> Some c
      in
      let c =
        match same_context () with
        | Some c -> c
        | None ->
          (match sharing_a_term () with
           | Some c -> c
           | None ->
             let c = !n_classes in
             incr n_classes;
             reps.(c) <- x;
             c)
      in
      class_of.(x) <- c;
      register c x
    done;
    { players; index; class_of; reps = Array.sub reps 0 !n_classes }

(* ------------------------------------------------------------------ *)
(* Independent check                                                   *)
(* ------------------------------------------------------------------ *)

type report = {
  r_classes : int;
  r_facts : int;
  r_swaps : int;
}

exception Reject of string

let reject fmt = Printf.ksprintf (fun s -> raise (Reject s)) fmt

module Term_set = Set.Make (Fact.Set)

(* The terms of a positive DNF as a set of fact sets, re-derived from the
   formula; [None] for any other shape. *)
let positive_dnf phi =
  let conjunction = function
    | Bform.Fv f -> Some (Fact.Set.singleton f)
    | Bform.And parts ->
      List.fold_left
        (fun acc p ->
           match (acc, p) with
           | Some s, Bform.Fv f -> Some (Fact.Set.add f s)
           | _ -> None)
        (Some Fact.Set.empty) parts
    | _ -> None
  in
  let rec gather acc = function
    | [] -> Some acc
    | d :: ds ->
      (match conjunction d with
       | Some s -> gather (Term_set.add s acc) ds
       | None -> None)
  in
  match phi with
  | Bform.True -> Some (Term_set.singleton Fact.Set.empty)
  | Bform.False -> Some Term_set.empty
  | Bform.Or ds -> gather Term_set.empty ds
  | phi -> gather Term_set.empty [ phi ]

let show_term s = Format.asprintf "%a" Fact.Set.pp s

let check ~players phi claimed =
  try
    let expected = Fact.Set.of_list (Array.to_list players) in
    let covered =
      List.fold_left
        (fun seen cls ->
           if cls = [] then reject "an empty class";
           List.fold_left
             (fun seen f ->
                if not (Fact.Set.mem f expected) then
                  reject "%s is not a player" (Fact.to_string f);
                if Fact.Set.mem f seen then
                  reject "%s is in two classes" (Fact.to_string f);
                Fact.Set.add f seen)
             seen cls)
        Fact.Set.empty claimed
    in
    (match Fact.Set.choose_opt (Fact.Set.diff expected covered) with
     | Some f -> reject "%s is in no class" (Fact.to_string f)
     | None -> ());
    let swaps = ref 0 in
    (match positive_dnf phi with
     | None ->
       List.iter
         (function
           | f :: _ :: _ ->
             reject "the lineage is not a positive DNF, yet the class of %s \
                     is not a singleton"
               (Fact.to_string f)
           | _ -> ())
         claimed
     | Some terms ->
       let holding =
         Term_set.fold
           (fun s m ->
              Fact.Set.fold
                (fun f m ->
                   Fact.Map.update f
                     (fun l -> Some (s :: Option.value ~default:[] l))
                     m)
                s m)
           terms Fact.Map.empty
       in
       let holding f = Option.value ~default:[] (Fact.Map.find_opt f holding) in
       List.iter
         (function
           | [] -> ()
           | r :: members ->
             List.iter
               (fun m ->
                  incr swaps;
                  let swap f =
                    if Fact.equal f r then m else if Fact.equal f m then r else f
                  in
                  List.iter
                    (fun s ->
                       if not (Term_set.mem (Fact.Set.map swap s) terms) then
                         reject "swapping %s and %s maps the term %s outside \
                                 the lineage"
                           (Fact.to_string r) (Fact.to_string m) (show_term s))
                    (holding r @ holding m))
               members)
         claimed);
    Ok { r_classes = List.length claimed; r_facts = Array.length players;
         r_swaps = !swaps }
  with Reject msg -> Error msg

let report_to_string r =
  Printf.sprintf "verified (%d class(es) over %d fact(s), %d swap(s) replayed)"
    r.r_classes r.r_facts r.r_swaps
