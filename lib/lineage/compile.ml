type stats = { cache_hits : int; cache_misses : int }

module Cache = Hashtbl.Make (struct
    type t = Bform.t

    let equal = Bform.equal
    let hash = Bform.hash
  end)

(* A shareable, bounded memo cache.  Keys are the (hash-consed-by-lookup)
   conditioned sub-formulas themselves, hashed structurally; a cached
   polynomial counts over exactly [vars phi], so one cache is sound across
   any number of [size_polynomial_with] calls — in particular across the
   per-fact conditionings of a batched SVC run, where the sub-formula
   overlap is the whole speedup.  When the capacity is reached, further
   results are computed but not retained (counted as [drops]). *)
module Memo = struct
  type t = {
    cache : Poly.Z.t Cache.t;
    capacity : int;
    mutable hits : int;
    mutable misses : int;
    mutable drops : int;
    mutable poly_ops : int;
  }

  let create ?(capacity = max_int) () =
    if capacity < 0 then invalid_arg "Compile.Memo.create: negative capacity";
    { cache = Cache.create 256; capacity; hits = 0; misses = 0; drops = 0;
      poly_ops = 0 }

  (* Same entries and capacity, fresh counters.  The copy is a new
     Hashtbl, so it restores the single-owner invariant: warm-starting a
     per-domain cache from a shared read-only one is exactly a copy. *)
  let copy m =
    { cache = Cache.copy m.cache; capacity = m.capacity; hits = 0;
      misses = 0; drops = 0; poly_ops = 0 }

  let length m = Cache.length m.cache
  let capacity m = m.capacity
  let hits m = m.hits
  let misses m = m.misses
  let drops m = m.drops
  let poly_ops m = m.poly_ops

  let clear m =
    Cache.reset m.cache;
    m.hits <- 0;
    m.misses <- 0;
    m.drops <- 0;
    m.poly_ops <- 0
end

(* (1 + z)^k, memoized: padding recomputes the same small set of powers at
   every Shannon node, and a row of binomials is O(k) to build but O(k^2)
   via repeated [Bigint.binomial].  The table is domain-local (one per
   domain, via [Domain.DLS]) rather than global: counting runs inside the
   parallel engine's worker domains, and an unsynchronized shared Hashtbl
   would be a data race.  Memoization stays invisible either way — every
   table entry is the pure function of its key. *)
let one_plus_z_table : (int, Poly.Z.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let one_plus_z_pow k =
  let table = Domain.DLS.get one_plus_z_table in
  match Hashtbl.find_opt table k with
  | Some p -> p
  | None ->
    let p = Poly.Z.of_coeffs (Array.to_list (Bigint.binomial_row k)) in
    Hashtbl.add table k p;
    p

(* Split a list of juncts into variable-disjoint groups (the decomposition
   rule, applied to conjunctions directly and to disjunctions through
   complementation), by union-find over the parts.  Each part, in input
   order, absorbs every earlier group it shares a variable with and heads
   the merged group.  Groups come out newest head first; a group lists its
   head, then the groups it absorbed, newest first, each in the same
   order.  The rebuilt groups are memo and circuit-cache keys, so this
   order is part of every cache counter. *)
let components ~rebuild (parts : Bform.t list) : (Bform.t * Fact.Set.t) list =
  let parts = Array.of_list parts in
  let n = Array.length parts in
  let vars = Array.map Bform.vars parts in
  (* [head.(i) = i] iff part [i] heads a group; an absorbed part points
     towards the part that absorbed its group *)
  let head = Array.init n Fun.id in
  let rec find i =
    let h = head.(i) in
    if h = i then i
    else begin
      let r = find h in
      head.(i) <- r;
      r
    end
  in
  let absorbed = Array.make n [] in
  let owner : (Fact.t, int) Hashtbl.t = Hashtbl.create n in
  for i = 0 to n - 1 do
    Fact.Set.iter
      (fun v ->
         match Hashtbl.find_opt owner v with
         | None -> Hashtbl.add owner v i
         | Some j ->
           let r = find j in
           if r <> i then begin
             head.(r) <- i;
             absorbed.(i) <- r :: absorbed.(i)
           end)
      vars.(i);
    absorbed.(i) <- List.sort (fun a b -> compare b a) absorbed.(i)
  done;
  let rec members i acc = i :: List.fold_right members absorbed.(i) acc in
  let groups = ref [] in
  for i = 0 to n - 1 do
    if head.(i) = i then begin
      let ms = members i [] in
      let vs =
        List.fold_left (fun acc j -> Fact.Set.union acc vars.(j)) Fact.Set.empty ms
      in
      groups := (rebuild (List.map (fun j -> parts.(j)) ms), vs) :: !groups
    end
  done;
  !groups

let and_components = components ~rebuild:Bform.conj
let or_components = components ~rebuild:Bform.disj
let conjunct_components = and_components

(* Pick the most frequently occurring variable (fail-first branching). *)
let pick_variable phi =
  let counts : (Fact.t, int) Hashtbl.t = Hashtbl.create 16 in
  let rec scan = function
    | Bform.True | Bform.False -> ()
    | Bform.Fv f ->
      Hashtbl.replace counts f (1 + Option.value ~default:0 (Hashtbl.find_opt counts f))
    | Bform.And ps | Bform.Or ps -> List.iter scan ps
    | Bform.Not p -> scan p
  in
  scan phi;
  Hashtbl.fold
    (fun f c best ->
       match best with
       | Some (_, c') when c' >= c -> best
       | _ -> Some (f, c))
    counts None
  |> Option.map fst

(* Core counter over exactly vars(phi); callers pad with (1+z)^free.
   [memo = None] disables both caching and decomposition (the naive
   Shannon-only ablation); [memo = Some m] looks results up in — and
   charges instrumentation to — the given shared cache. *)
let size_polynomial_core ~memo phi0 =
  let op =
    match memo with
    | Some (m : Memo.t) -> fun p -> m.Memo.poly_ops <- m.Memo.poly_ops + 1; p
    | None -> fun p -> p
  in
  let pad target_vars poly sub_vars =
    (* poly counts over sub_vars; pad to count over target_vars minus the
       conditioned variable *)
    let missing = target_vars - 1 - sub_vars in
    if missing = 0 then poly else op (Poly.Z.mul poly (one_plus_z_pow missing))
  in
  let rec count phi =
    match phi with
    | Bform.True -> Poly.Z.one
    | Bform.False -> Poly.Z.zero
    | _ ->
      let cached =
        match memo with
        | Some m -> Cache.find_opt m.Memo.cache phi
        | None -> None
      in
      (match cached with
       | Some p ->
         (match memo with Some m -> m.Memo.hits <- m.Memo.hits + 1 | None -> ());
         p
       | None ->
         (match memo with Some m -> m.Memo.misses <- m.Memo.misses + 1 | None -> ());
         let result =
           let nvars = Fact.Set.cardinal (Bform.vars phi) in
           match phi with
           | Bform.And parts when memo <> None ->
             (match and_components parts with
              | [ _ ] | [] -> shannon phi nvars
              | comps ->
                (* independent join: sizes add, polynomials multiply *)
                List.fold_left
                  (fun acc (sub, _) -> op (Poly.Z.mul acc (count sub)))
                  Poly.Z.one comps)
           | Bform.Or parts when memo <> None ->
             (match or_components parts with
              | [ _ ] | [] -> shannon phi nvars
              | comps ->
                (* independent union: complements multiply,
                   P = (1+z)^n - Π ((1+z)^{nᵢ} - Pᵢ) *)
                let not_sat =
                  List.fold_left
                    (fun acc (sub, vs) ->
                       let n_i = Fact.Set.cardinal vs in
                       op (Poly.Z.mul acc (op (Poly.Z.sub (one_plus_z_pow n_i) (count sub)))))
                    Poly.Z.one comps
                in
                op (Poly.Z.sub (one_plus_z_pow nvars) not_sat))
           | _ -> shannon phi nvars
         in
         (match memo with
          | Some m ->
            if Cache.length m.Memo.cache < m.Memo.capacity then
              Cache.replace m.Memo.cache phi result
            else m.Memo.drops <- m.Memo.drops + 1
          | None -> ());
         result)
  and shannon phi nvars =
    match pick_variable phi with
    | None -> assert false (* non-constant formula has a variable *)
    | Some v ->
      let phi1 = Bform.condition v true phi in
      let phi0 = Bform.condition v false phi in
      let p1 = count phi1 in
      let p0 = count phi0 in
      let n1 = Fact.Set.cardinal (Bform.vars phi1) in
      let n0 = Fact.Set.cardinal (Bform.vars phi0) in
      op (Poly.Z.add
            (op (Poly.Z.shift 1 (pad nvars p1 n1)))
            (pad nvars p0 n0))
  in
  count phi0

(* The number of universe facts [phi] leaves free, after checking that
   the universe lists each fact once and holds every fact of [phi]. *)
let check_universe ~universe phi =
  let uset = Fact.Set.of_list universe in
  let n = Fact.Set.cardinal uset in
  if n <> List.length universe then
    invalid_arg "Compile: the universe repeats a fact";
  let vs = Bform.vars phi in
  if not (Fact.Set.subset vs uset) then
    invalid_arg "Compile: formula mentions a fact outside the universe";
  n - Fact.Set.cardinal vs

let size_polynomial_with ~memo ~universe phi =
  let free = check_universe ~universe phi in
  let core = size_polynomial_core ~memo:(Some memo) phi in
  if free = 0 then core else Poly.Z.mul core (one_plus_z_pow free)

let size_polynomial_stats ~universe phi =
  let memo = Memo.create () in
  let p = size_polynomial_with ~memo ~universe phi in
  (p, { cache_hits = Memo.hits memo; cache_misses = Memo.misses memo })

let size_polynomial ~universe phi = fst (size_polynomial_stats ~universe phi)

let size_polynomial_naive ~universe phi =
  let free = check_universe ~universe phi in
  let core = size_polynomial_core ~memo:None phi in
  Poly.Z.mul core (one_plus_z_pow free)

let count_models ~universe phi = Poly.Z.total (size_polynomial ~universe phi)

(* Weighted (probability) variant. *)
let probability_with ~memo ~prob phi0 =
  let cache : Rational.t Cache.t = Cache.create 256 in
  let rec go phi =
    match phi with
    | Bform.True -> Rational.one
    | Bform.False -> Rational.zero
    | _ ->
      (match (if memo then Cache.find_opt cache phi else None) with
       | Some p -> p
       | None ->
         let result =
           match phi with
           | Bform.And parts when memo ->
             (match and_components parts with
              | [ _ ] | [] -> shannon phi
              | comps ->
                List.fold_left
                  (fun acc (sub, _) -> Rational.mul acc (go sub))
                  Rational.one comps)
           | Bform.Or parts when memo ->
             (match or_components parts with
              | [ _ ] | [] -> shannon phi
              | comps ->
                (* independent union: Pr = 1 - Π (1 - Prᵢ) *)
                let not_sat =
                  List.fold_left
                    (fun acc (sub, _) ->
                       Rational.mul acc (Rational.sub Rational.one (go sub)))
                    Rational.one comps
                in
                Rational.sub Rational.one not_sat)
           | _ -> shannon phi
         in
         if memo then Cache.replace cache phi result;
         result)
  and shannon phi =
    match pick_variable phi with
    | None -> assert false
    | Some v ->
      let pv = prob v in
      let p1 = go (Bform.condition v true phi) in
      let p0 = go (Bform.condition v false phi) in
      Rational.add (Rational.mul pv p1)
        (Rational.mul (Rational.sub Rational.one pv) p0)
  in
  go phi0

let probability ~prob phi = probability_with ~memo:true ~prob phi
let probability_naive ~prob phi = probability_with ~memo:false ~prob phi

let branch_variable = pick_variable
