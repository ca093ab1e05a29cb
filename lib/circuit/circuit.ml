(* d-DNNF circuits for lineage formulas.

   Shannon expansion with structural-hash node sharing, reusing the
   counter's branching heuristic and variable-disjoint ∧-decomposition
   ([Compile.branch_variable] / [Compile.conjunct_components]) and the
   [Compile.Memo] cache discipline (bounded, drops never change the
   result).  Every ∨ is either a decision node [(μ ∧ hi) ∨ (¬μ ∧ lo)] or
   a smoothing gadget [μ ∨ ¬μ], so determinism is structural; smoothing
   gadgets are inserted at construction time so both children of every
   decision mention exactly the decided formula's variables.  The root
   gets no split of its own: [build] splits it like every other
   conjunction, and [Compile.conjunct_components] yields exactly the
   plan's AND-components, so a plan steers only the branching order.

   Nodes live in one arena; a child id is always smaller than its
   parent's (construction is bottom-up), so ascending id order is a
   topological order.  A session's arena also holds nodes that earlier
   compiles built and this circuit cannot reach, so each circuit keeps
   its live ids (reachable from the root) in ascending order, and the
   evaluator is two sweeps over them. *)

type node =
  | NTrue
  | NFalse
  | NLit of Fact.t * bool
  | NAnd of int array
  | NOr of int array

(* Structural hashing over child *ids*: children are hash-consed before
   their parent, so id equality is structural equality of sub-circuits
   and node hashing is O(fanout), not O(circuit). *)
module Unique = Hashtbl.Make (struct
    type t = node

    let equal a b =
      match (a, b) with
      | NTrue, NTrue | NFalse, NFalse -> true
      | NLit (f, s), NLit (f', s') -> s = s' && Fact.equal f f'
      | NAnd xs, NAnd ys | NOr xs, NOr ys -> xs = ys
      | _ -> false

    let hash n =
      let mix h k = (h * 0x01000193) lxor k in
      (match n with
       | NTrue -> 0x11
       | NFalse -> 0x13
       | NLit (f, s) -> mix (mix 0x17 (Hashtbl.hash f)) (Bool.to_int s)
       | NAnd ch -> Array.fold_left mix 0x1d ch
       | NOr ch -> Array.fold_left mix 0x1f ch)
      land max_int
  end)

module Fcache = Hashtbl.Make (struct
    type t = Bform.t

    let equal = Bform.equal
    let hash = Bform.hash
  end)

type t = {
  mutable nodes : node array;
  mutable varsets : Fact.Set.t array;
  mutable len : int;
  unique : int Unique.t;
  mutable root : int;
  capacity : int;
  limit : int; (* arena length at which [alloc] raises [Node_cap] *)
  mutable smoothing : int;
  hits : Telemetry.Counter.t;
  misses : Telemetry.Counter.t;
  drops : Telemetry.Counter.t;
  mutable live : int array; (* ids reachable from root, ascending; frozen at compile *)
  mutable n_edges : int;
  mutable reused : int; (* reachable nodes inherited from the session *)
}

(* A session persists the arena + hash-cons table + formula cache across
   compiles.  Soundness rests on the arena being append-only: a compiled
   circuit only ever reads ids [< len]-at-its-compile, growth copies the
   prefix into the fresh arrays, and later compiles only append — so an
   old [t] stays valid forever, and a new compile silently reuses every
   hash-consed sub-circuit the cached formulas or structural hashing
   reach.  The formula→node cache is sound across compiles because the
   node built for a formula always covers exactly its variables,
   independently of which plan steered the build. *)
module Session = struct
  type circuit = t

  type t = { mutable prev : circuit option; cache : int Fcache.t }

  let create () = { prev = None; cache = Fcache.create 256 }
  let nodes s = match s.prev with Some c -> c.len | None -> 0
end

exception Node_cap

let true_id = 0
let false_id = 1

(* The cap is checked before anything is written, so a raise leaves the
   arena, the hash-cons table and the formula cache consistent. *)
let alloc c node vs =
  match Unique.find_opt c.unique node with
  | Some id -> id
  | None ->
    if c.len >= c.limit then raise Node_cap;
    let cap = Array.length c.nodes in
    if c.len = cap then begin
      let nodes = Array.make (2 * cap) NTrue in
      Array.blit c.nodes 0 nodes 0 cap;
      c.nodes <- nodes;
      let varsets = Array.make (2 * cap) Fact.Set.empty in
      Array.blit c.varsets 0 varsets 0 cap;
      c.varsets <- varsets
    end;
    let id = c.len in
    c.nodes.(id) <- node;
    c.varsets.(id) <- vs;
    Unique.add c.unique node id;
    c.len <- id + 1;
    id

let mk_lit c f sign = alloc c (NLit (f, sign)) (Fact.Set.singleton f)

(* ⊥ absorbs, ⊤ drops, nested ∧ flattens (children stay pairwise
   variable-disjoint by transitivity); children sorted for sharing.
   [?vs] is the union of the children's variable sets when the caller
   already knows it — Fact.Set unions over structural fact compares are
   the hottest part of compilation otherwise. *)
let mk_and ?vs c ids =
  let rec gather acc = function
    | [] -> Some acc
    | id :: rest ->
      if id = false_id then None
      else if id = true_id then gather acc rest
      else (
        match c.nodes.(id) with
        | NAnd ch -> gather (List.rev_append (Array.to_list ch) acc) rest
        | _ -> gather (id :: acc) rest)
  in
  match gather [] ids with
  | None -> false_id
  | Some [] -> true_id
  | Some [ id ] -> id
  | Some ids ->
    let arr = Array.of_list (List.sort_uniq Int.compare ids) in
    if Array.length arr = 1 then arr.(0)
    else
      let vs =
        match vs with
        | Some vs -> vs
        | None ->
          Array.fold_left
            (fun acc i -> Fact.Set.union acc c.varsets.(i))
            Fact.Set.empty arr
      in
      alloc c (NAnd arr) vs

(* ⊥ children drop (they would break smoothness and contribute nothing);
   the callers only ever produce mutually exclusive children. *)
let mk_or c ids =
  match List.filter (fun id -> id <> false_id) ids with
  | [] -> false_id
  | [ id ] -> id
  | ids ->
    let arr = Array.of_list (List.sort Int.compare ids) in
    alloc c (NOr arr) c.varsets.(arr.(0))

(* Pad [id] up to the variable set [target] with μ ∨ ¬μ gadgets, one per
   missing variable; fresh allocations are charged to the smoothing
   counter (gadgets and wrappers are pure evaluator enablement). *)
let smooth_to c target id =
  if id = false_id then id
  else
    let missing = Fact.Set.diff target c.varsets.(id) in
    if Fact.Set.is_empty missing then id
    else begin
      let before = c.len in
      let gadgets =
        Fact.Set.fold
          (fun v acc -> mk_or c [ mk_lit c v true; mk_lit c v false ] :: acc)
          missing []
      in
      (* vars(id) ⊆ target at every call site, so the result covers
         exactly [target] *)
      let r = mk_and ~vs:target c (id :: gadgets) in
      c.smoothing <- c.smoothing + (c.len - before);
      r
    end

(* Plan-ranked branching: among the formula's live variables, decide the
   one the plan would eliminate *last* (rank = position in the plan's
   branch order).  Variables the plan never mentions rank below every
   planned one; ties fall back to Fact order, so the pick is total and
   deterministic even against a stale plan. *)
let planned_variable rank all =
  let best =
    Fact.Set.fold
      (fun f acc ->
         let r = Option.value ~default:max_int (Hashtbl.find_opt rank f) in
         match acc with
         | Some (_, br) when br <= r -> acc
         | _ -> Some (f, r))
      all None
  in
  Option.map fst best

let rec build c rank cache phi =
  match phi with
  | Bform.True -> true_id
  | Bform.False -> false_id
  | Bform.Fv f -> mk_lit c f true
  | Bform.Not (Bform.Fv f) -> mk_lit c f false
  | _ ->
    (match Fcache.find_opt cache phi with
     | Some id ->
       Telemetry.Counter.incr c.hits;
       id
     | None ->
       Telemetry.Counter.incr c.misses;
       let id =
         match phi with
         | Bform.And parts ->
           (match Compile.conjunct_components parts with
            | [] | [ _ ] -> shannon c rank cache phi
            | comps ->
              (* independent join: a decomposable ∧ over the components *)
              mk_and c
                (List.map (fun (sub, _) -> build c rank cache sub) comps))
         | _ -> shannon c rank cache phi
       in
       if Fcache.length cache < c.capacity then Fcache.add cache phi id
       else Telemetry.Counter.incr c.drops;
       id)

and shannon c rank cache phi =
  let all = Bform.vars phi in
  let v =
    match rank with
    | Some rank -> planned_variable rank all
    | None -> Compile.branch_variable phi
  in
  match v with
  | None -> assert false (* non-constant formula has a variable *)
  | Some v ->
    let target = Fact.Set.remove v all in
    let hi =
      smooth_to c target (build c rank cache (Bform.condition v true phi))
    in
    let lo =
      smooth_to c target (build c rank cache (Bform.condition v false phi))
    in
    (* deterministic by the decided variable; smooth because both
       branches were padded to exactly [target] *)
    mk_or c
      [ mk_and ~vs:all c [ mk_lit c v true; hi ];
        mk_and ~vs:all c [ mk_lit c v false; lo ] ]

(* Sub-circuits built for components that a later ⊥ collapsed, and
   everything earlier compiles of a session left in the arena, can be
   unreachable from the root; size metrics and the evaluator see only
   the live circuit.  Returns the live ids in ascending order.
   [base_len] is the arena length before this compile: reachable ids
   below it were inherited from the session, not built. *)
let mark_live c ~base_len =
  let reach = Array.make c.len false in
  let rec mark id =
    if not reach.(id) then begin
      reach.(id) <- true;
      match c.nodes.(id) with
      | NAnd ch | NOr ch -> Array.iter mark ch
      | _ -> ()
    end
  in
  mark c.root;
  let live = ref [] and edges = ref 0 and reused = ref 0 in
  for id = c.len - 1 downto 0 do
    if reach.(id) then begin
      live := id :: !live;
      if id < base_len then incr reused;
      match c.nodes.(id) with
      | NAnd ch | NOr ch -> edges := !edges + Array.length ch
      | _ -> ()
    end
  done;
  (Array.of_list !live, !edges, !reused)

(* Undo a build stopped at the cap: the ids it appended ([base_len] up)
   leave the hash-cons table and the formula cache, their arena slots
   are cleared (the base circuit's arrays share them unless the build
   grew the arena), and the session gets its base circuit back.  The
   base's own nodes and cache entries stay untouched. *)
let rollback c session ~base ~base_len =
  for id = base_len to c.len - 1 do
    Unique.remove c.unique c.nodes.(id);
    c.nodes.(id) <- NTrue;
    c.varsets.(id) <- Fact.Set.empty
  done;
  Fcache.filter_map_inplace
    (fun _ id -> if id >= base_len then None else Some id)
    session.Session.cache;
  session.Session.prev <- base

let compile ?(tel = Telemetry.disabled ()) ?plan ?(cache_capacity = max_int)
    ?(max_nodes = max_int) ?(session = Session.create ()) phi =
  if cache_capacity < 0 then invalid_arg "Circuit.compile: negative capacity";
  if max_nodes < 0 then invalid_arg "Circuit.compile: negative max_nodes";
  (* rank = position in the plan's branch order (first = decided first);
     duplicate mentions keep their earliest rank *)
  let rank =
    Option.map
      (fun pl ->
         let tbl : (Fact.t, int) Hashtbl.t = Hashtbl.create 64 in
         List.iteri
           (fun i f -> if not (Hashtbl.mem tbl f) then Hashtbl.add tbl f i)
           (Plan.branch_order pl);
         tbl)
      plan
  in
  (* explicit registration order: record fields evaluate in unspecified
     order, and registry order shows in exporter output *)
  let hits = Telemetry.counter tel "circuit.cache_hits" in
  let misses = Telemetry.counter tel "circuit.cache_misses" in
  let drops = Telemetry.counter tel "circuit.cache_drops" in
  let base = session.Session.prev in
  let base_len = match base with Some p -> p.len | None -> 0 in
  let limit = base_len + min max_nodes (max_int - base_len) in
  let c =
    match base with
    | Some p ->
      (* share the arena and hash-cons table; per-compile state resets *)
      {
        p with
        root = 0;
        capacity = cache_capacity;
        limit;
        smoothing = 0;
        hits;
        misses;
        drops;
        live = [||];
        n_edges = 0;
        reused = 0;
      }
    | None ->
      {
        nodes = Array.make 64 NTrue;
        varsets = Array.make 64 Fact.Set.empty;
        len = 0;
        unique = Unique.create 256;
        root = 0;
        capacity = cache_capacity;
        limit;
        smoothing = 0;
        hits;
        misses;
        drops;
        live = [||];
        n_edges = 0;
        reused = 0;
      }
  in
  (* The session's hash-cons table and formula cache name every node
     this build allocates, so the session takes this arena before the
     build starts, and a build stopped at the cap hands it back as it
     found it. *)
  session.Session.prev <- Some c;
  (try
     Telemetry.span tel "circuit.compile" (fun () ->
         ignore (alloc c NTrue Fact.Set.empty : int); (* id 0 *)
         ignore (alloc c NFalse Fact.Set.empty : int); (* id 1 *)
         c.root <- build c rank session.Session.cache phi)
   with Node_cap ->
     rollback c session ~base ~base_len;
     raise Node_cap);
  let live, edges, reused = mark_live c ~base_len in
  let nodes = Array.length live in
  c.live <- live;
  c.n_edges <- edges;
  c.reused <- reused;
  Telemetry.Gauge.set (Telemetry.gauge tel "circuit.nodes") nodes;
  Telemetry.Gauge.set (Telemetry.gauge tel "circuit.edges") edges;
  Telemetry.Gauge.set (Telemetry.gauge tel "circuit.smoothing") c.smoothing;
  Telemetry.Gauge.set (Telemetry.gauge tel "circuit.reused_nodes") reused;
  c

let vars c = c.varsets.(c.root)
let node_count c = Array.length c.live
let edge_count c = c.n_edges
let smoothing_nodes c = c.smoothing
let reused_nodes c = c.reused
let cache_hits c = Telemetry.Counter.value c.hits
let cache_misses c = Telemetry.Counter.value c.misses
let cache_drops c = Telemetry.Counter.value c.drops

type evaluation = {
  full : Poly.Z.t;
  by_fact : (Fact.t * Poly.Z.t) array;
  poly_ops : int;
}

(* The polynomial ring the sweeps compute in.  [equal] and [is_zero]
   drive the short-circuits, so both instances must keep their values
   canonical (no trailing zero coefficient): then they take the same
   branches and count the same [poly_ops]. *)
module type RING = sig
  type t

  val zero : t
  val one : t
  val x : t
  val is_zero : t -> bool
  val equal : t -> t -> bool
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val shift : int -> t -> t

  val one_plus_z_pow : int -> t
  (** [(1 + z)^k], memoized *)
end

(* Size polynomials on unboxed native ints: dense, lowest degree first,
   no trailing zero.  No overflow check — exact only under the bound
   argued where [evaluate] picks the ring. *)
module Native = struct
  type t = int array

  let zero = [||]
  let one = [| 1 |]
  let x = [| 0; 1 |]
  let is_zero p = Array.length p = 0

  let equal (p : t) (q : t) =
    let n = Array.length p in
    let rec go i = i = n || (p.(i) = q.(i) && go (i + 1)) in
    n = Array.length q && go 0

  let norm p =
    let n = ref (Array.length p) in
    while !n > 0 && p.(!n - 1) = 0 do decr n done;
    if !n = Array.length p then p else Array.sub p 0 !n

  let add p q =
    let lp = Array.length p and lq = Array.length q in
    if lp = 0 then q
    else if lq = 0 then p
    else begin
      let long, short = if lp >= lq then (p, q) else (q, p) in
      let r = Array.copy long in
      for i = 0 to Array.length short - 1 do r.(i) <- r.(i) + short.(i) done;
      if lp = lq then norm r else r
    end

  let sub p q =
    let lp = Array.length p and lq = Array.length q in
    if lq = 0 then p
    else begin
      let r = Array.make (max lp lq) 0 in
      Array.blit p 0 r 0 lp;
      for i = 0 to lq - 1 do r.(i) <- r.(i) - q.(i) done;
      norm r
    end

  let mul p q =
    let lp = Array.length p and lq = Array.length q in
    if lp = 0 || lq = 0 then zero
    else begin
      let r = Array.make (lp + lq - 1) 0 in
      for i = 0 to lp - 1 do
        let pi = p.(i) in
        if pi <> 0 then
          for j = 0 to lq - 1 do
            r.(i + j) <- r.(i + j) + (pi * q.(j))
          done
      done;
      norm r
    end

  let shift k p = if is_zero p then zero else Array.append (Array.make k 0) p

  (* domain-local, like [Compile.one_plus_z_pow]: evaluation can run in
     any domain, and every entry is a pure function of its key *)
  let one_plus_z_table : (int, t) Hashtbl.t Domain.DLS.key =
    Domain.DLS.new_key (fun () -> Hashtbl.create 64)

  let one_plus_z_pow k =
    let table = Domain.DLS.get one_plus_z_table in
    match Hashtbl.find_opt table k with
    | Some p -> p
    | None ->
      let p = Array.map Bigint.to_int (Bigint.binomial_row k) in
      Hashtbl.add table k p;
      p

  let to_z p = Poly.Z.of_coeffs (Array.to_list (Array.map Bigint.of_int p))
end

(* Smoothing gadgets [μ ∨ ¬μ] are structural (so {!Check} can verify
   smoothness) but algebraically they are just the factor (1 + z): a
   ∧-node with k gadget children multiplies by the {e memoized}
   [(1+z)^k] in one op instead of k full convolutions.  A gadget is any
   ∨ of the two opposite literals of one variable — whether [smooth_to]
   made it or a trivial decision collapsed into the same shape. *)
let is_gadget c id =
  match c.nodes.(id) with
  | NOr [| a; b |] ->
    (match (c.nodes.(a), c.nodes.(b)) with
     | NLit (v, sa), NLit (w, sb) -> Fact.equal v w && sa <> sb
     | _ -> false)
  | _ -> false

(* The ring-independent shape of the top-down sweep, indexed by node id
   (rank -1 off gadgets) and by gadget rank. *)
type layout = {
  gadget : bool array;
  gadget_rank : int array;
  rank_pos_lit : int array;
}

(* Gadget fan-out batching.  A smoothed ∧ adds the same base gradient to
   each of its k gadget children; doing that as k polynomial adds makes
   the sweep cubic in |vars| on decision chains (every level smooths a
   near-complete suffix of the variable order).  The sets of gadgets
   smoothed over at successive decisions are nested — each is the
   previous minus the newly decided variable — so ranking gadgets by how
   deep their variable is decided (deeper decision ⇒ higher rank) turns
   each ∧'s gadget set into one (or few) contiguous rank intervals.
   Each interval costs O(1) polynomial ops: the base enters a running
   sum at the interval's high rank and leaves below its low rank, and a
   final descending rank sweep deposits the accumulated gradient of
   every gadget directly into its positive literal. *)
let layout c =
  let gadget = Array.make c.len false in
  Array.iter (fun id -> if is_gadget c id then gadget.(id) <- true) c.live;
  let gadget_ids =
    Array.of_list (List.filter (fun id -> gadget.(id)) (Array.to_list c.live))
  in
  let nranks = Array.length gadget_ids in
  let gadget_rank = Array.make c.len (-1) in
  let rank_pos_lit = Array.make nranks (-1) in
  if nranks > 0 then begin
    (* decision depth of a variable ≈ the largest ∧ in which one of its
       literals appears undisguised (not as part of a gadget); ids grow
       upward, so a larger id means a shallower decision *)
    let decision_id : (Fact.t, int) Hashtbl.t = Hashtbl.create 64 in
    Array.iter
      (fun id ->
         match c.nodes.(id) with
         | NAnd ch ->
           Array.iter
             (fun i ->
                if not gadget.(i) then
                  match c.nodes.(i) with
                  | NLit (v, _) -> Hashtbl.replace decision_id v id
                  | _ -> ())
             ch
         | _ -> ())
      c.live;
    let var_of gid =
      match c.nodes.(gid) with
      | NOr [| a; _ |] ->
        (match c.nodes.(a) with NLit (v, _) -> v | _ -> assert false)
      | _ -> assert false
    in
    let depth gid =
      match Hashtbl.find_opt decision_id (var_of gid) with
      | Some d -> d
      | None -> -1
    in
    Array.sort
      (fun g1 g2 ->
         let c1 = compare (depth g2) (depth g1) in
         if c1 <> 0 then c1 else compare g1 g2)
      gadget_ids;
    Array.iteri
      (fun rank gid ->
         gadget_rank.(gid) <- rank;
         rank_pos_lit.(rank) <-
           (match c.nodes.(gid) with
            | NOr [| a; b |] ->
              (match c.nodes.(a) with NLit (_, true) -> a | _ -> b)
            | _ -> assert false))
      gadget_ids
  end;
  { gadget; gadget_rank; rank_pos_lit }

(* Only positive literals are ever read out of g (by_fact), so gradient
   flowing into ¬μ leaves or constants is pure waste — and in a decision
   chain the ¬μ gradient is a full convolution with the sibling branch at
   every level.  Dead leaves are pruned from the flow entirely. *)
let wants_g c i =
  match c.nodes.(i) with
  | NLit (_, false) | NTrue | NFalse -> false
  | NLit (_, true) | NAnd _ | NOr _ -> true

(* One bottom-up pass (per-node size polynomials p) and one top-down pass
   (per-node gradients g = ∂p_root/∂p_node, chain rule over the DAG in
   reverse id order), both over the live ids only.  By smoothness +
   decomposability + determinism the root polynomial is multilinear in
   the leaf weights w(μ)=z, w(¬μ)=1, so g at the positive literal of μ is
   Σ_{S ∌ μ, S∪{μ} ⊨ φ} z^|S| — exactly C(φ[μ:=1]) over the circuit
   variables minus μ.  [n] is the number of universe facts. *)
module Sweep (R : RING) = struct
  let run tel c ~universe ~n =
    let lay = layout c in
    let gadget = lay.gadget and live = c.live in
    let cvars = vars c in
    let ops = ref 0 in
    (* The ring ops, with the identities that dominate the circuit
       (neutral elements from ¬μ leaves, z from μ leaves) short-circuited:
       a smoothed decision wrapper is [μ ∧ hi], and paying a full
       convolution to multiply by 1 or z would drown the traversal in
       coefficient work. *)
    let mul a b =
      if R.equal a R.one then b
      else if R.equal b R.one then a
      else if R.equal a R.x then (incr ops; R.shift 1 b)
      else if R.equal b R.x then (incr ops; R.shift 1 a)
      else (incr ops; R.mul a b)
    in
    let add a b =
      if R.is_zero a then b
      else if R.is_zero b then a
      else (incr ops; R.add a b)
    in
    let nv = Fact.Set.cardinal cvars in
    let p = Array.make c.len R.zero in
    Telemetry.span tel "circuit.bottom_up" (fun () ->
        Array.iter
          (fun id ->
             p.(id) <-
               (match c.nodes.(id) with
                | NTrue -> R.one
                | NFalse -> R.zero
                | NLit (_, true) -> R.x
                | NLit (_, false) -> R.one
                | NAnd ch ->
                  let k = ref 0 in
                  let prod = ref R.one in
                  Array.iter
                    (fun i ->
                       if gadget.(i) then incr k else prod := mul !prod p.(i))
                    ch;
                  if !k = 0 then !prod else mul !prod (R.one_plus_z_pow !k)
                | NOr ch ->
                  if gadget.(id) then R.one_plus_z_pow 1
                  else Array.fold_left (fun acc i -> add acc p.(i)) R.zero ch))
          live);
    let g = Array.make c.len R.zero in
    g.(c.root) <- R.one;
    let nranks = Array.length lay.rank_pos_lit in
    let on_enter = Array.make (max nranks 1) [] in
    let on_exit = Array.make (max nranks 1) [] in
    let fan_out_to_gadgets ch base =
      (* the gadget children's ranks, split into maximal consecutive runs *)
      let ranks =
        Array.of_list
          (List.filter_map
             (fun i -> if gadget.(i) then Some lay.gadget_rank.(i) else None)
             (Array.to_list ch))
      in
      Array.sort compare ranks;
      let nr = Array.length ranks in
      let lo = ref 0 in
      for i = 0 to nr - 1 do
        if i = nr - 1 || ranks.(i + 1) <> ranks.(i) + 1 then begin
          on_enter.(ranks.(i)) <- base :: on_enter.(ranks.(i));
          on_exit.(ranks.(!lo)) <- base :: on_exit.(ranks.(!lo));
          lo := i + 1
        end
      done
    in
    Telemetry.span tel "circuit.top_down" (fun () ->
        for j = Array.length live - 1 downto 0 do
          let id = live.(j) in
          if not (R.is_zero g.(id)) then begin
            match c.nodes.(id) with
            | NOr ch ->
              Array.iter
                (fun i -> if wants_g c i then g.(i) <- add g.(i) g.(id))
                ch
            | NAnd ch ->
              (* g flows to child i scaled by the product of the siblings'
                 polynomials; prefix/suffix products over the non-gadget
                 children (k gadget siblings contribute the shared factor
                 (1+z)^k, or (1+z)^(k-1) when i is itself a gadget) keep
                 this linear in the fanout *)
              let real =
                Array.of_list
                  (List.filter (fun i -> not gadget.(i)) (Array.to_list ch))
              in
              let k = Array.length ch - Array.length real in
              let m = Array.length real in
              let pre = Array.make (m + 1) R.one in
              for i = 0 to m - 1 do
                pre.(i + 1) <- mul pre.(i) p.(real.(i))
              done;
              let pad = if k = 0 then R.one else R.one_plus_z_pow k in
              let g_pad = mul g.(id) pad in
              let suf = ref R.one in
              for i = m - 1 downto 0 do
                if wants_g c real.(i) then
                  g.(real.(i)) <-
                    add g.(real.(i)) (mul g_pad (mul pre.(i) !suf));
                suf := mul !suf p.(real.(i))
              done;
              if k > 0 then
                (* every gadget child of this ∧ receives the same gradient:
                   g · (product of real children) · (1+z)^(k-1) *)
                fan_out_to_gadgets ch
                  (mul g.(id)
                     (mul pre.(m)
                        (if k = 1 then R.one else R.one_plus_z_pow (k - 1))))
            | _ -> ()
          end
        done;
        (* resolve the batched fan-outs: sweep ranks from deepest decision
           to shallowest, maintaining the running interval sum, and
           deposit each gadget's accumulated gradient straight into its
           positive literal (the gadget node itself forwards nothing else
           downward) *)
        let running = ref R.zero in
        for r = nranks - 1 downto 0 do
          List.iter (fun b -> running := add !running b) on_enter.(r);
          if not (R.is_zero !running) then begin
            let lit = lay.rank_pos_lit.(r) in
            g.(lit) <- add g.(lit) !running
          end;
          List.iter
            (fun b ->
               incr ops;
               running := R.sub !running b)
            on_exit.(r)
        done);
    let pad k poly = if k = 0 then poly else mul poly (R.one_plus_z_pow k) in
    let full = pad (n - nv) p.(c.root) in
    let by_fact =
      Array.of_list
        (List.map
           (fun f ->
              if Fact.Set.mem f cvars then
                (* g counts over cvars∖{f}; pad the (n-1) - (nv-1) facts of
                   the universe the circuit never mentions *)
                let base =
                  (* the shared hash-cons table of a session can hold
                     literals allocated by *later* compiles; only ids
                     below this circuit's frozen length belong to it *)
                  match Unique.find_opt c.unique (NLit (f, true)) with
                  | Some id when id < c.len -> g.(id)
                  | Some _ | None -> R.zero
                in
                (f, pad (n - nv) base)
              else
                (* null player: φ[f:=1] = φ, over a universe of n-1 facts *)
                (f, pad (n - 1 - nv) p.(c.root)))
           universe)
    in
    (full, by_fact, !ops)
end

module Z_sweep = Sweep (struct
    include Poly.Z

    let one_plus_z_pow = Compile.one_plus_z_pow
  end)

module Native_sweep = Sweep (Native)

(* The number of distinct universe facts, after the checks [evaluate]
   documents. *)
let universe_size c universe =
  let u = Fact.Set.of_list universe in
  if not (Fact.Set.subset (vars c) u) then
    invalid_arg "Circuit.evaluate: circuit mentions a fact outside the universe";
  let n = Fact.Set.cardinal u in
  if n <> List.length universe then
    invalid_arg "Circuit.evaluate: the universe repeats a fact";
  n

let evaluate_poly_z tel c ~universe ~n =
  let full, by_fact, poly_ops = Z_sweep.run tel c ~universe ~n in
  { full; by_fact; poly_ops }

let evaluate ?(tel = Telemetry.disabled ()) c ~universe =
  let n = universe_size c universe in
  (* The ring choice.  With n ≤ Sys.int_size − 2 distinct facts (61 on
     64-bit) every coefficient the sweeps form fits a native int, so they
     run on [Native] with no overflow check:
     - the circuit is decomposable, deterministic and smooth, and every
       node but ⊥ is satisfiable, so every node polynomial, prefix/suffix
       or partial ∧ product, partial ∨ sum and padding power counts
       assignments over a subset of the universe;
     - p_root is linear in each node's value with a non-negative
       remainder (decomposability: a node with variables lies under at
       most one child of any ∧), so g·p ≤ p_root coefficient-wise; as
       p ≠ 0 has a coefficient ≥ 1, every coefficient of g, of a scaled
       gradient g·(1+z)^k·(siblings) and of a gadget base is bounded by
       one of p_root;
     - the gadget running sum is always a sub-sum of one gadget's
       gradient, and the final padding is a count over the universe;
     - a count over at most n facts is at most 2^n ≤ 2^(Sys.int_size − 2)
       < max_int, and so is every term and partial sum of the
       convolution that forms it.
     Larger universes keep [Poly.Z]. *)
  if n <= Sys.int_size - 2 then
    let full, by_fact, poly_ops = Native_sweep.run tel c ~universe ~n in
    {
      full = Native.to_z full;
      by_fact = Array.map (fun (f, p) -> (f, Native.to_z p)) by_fact;
      poly_ops;
    }
  else evaluate_poly_z tel c ~universe ~n

module For_tests = struct
  let evaluate_poly_z ?(tel = Telemetry.disabled ()) c ~universe =
    evaluate_poly_z tel c ~universe ~n:(universe_size c universe)
end

module Check = struct
  type report = {
    nodes_checked : int;
    and_nodes : int;
    or_nodes : int;
    assignments : int;
  }

  exception Fail of string

  let failf fmt = Printf.ksprintf (fun s -> raise (Fail s)) fmt

  (* Deliberately independent of the compiler: variable sets are
     recomputed from the raw node structure (never read from the cached
     [varsets]), decomposability/smoothness checked on those, and
     determinism (plus equivalence to [formula], when given) verified by
     evaluating every reachable node under every assignment. *)
  let check ?(max_vars = 16) ?formula c =
    try
      let vs = Array.make c.len Fact.Set.empty in
      for id = 0 to c.len - 1 do
        vs.(id) <-
          (match c.nodes.(id) with
           | NTrue | NFalse -> Fact.Set.empty
           | NLit (f, _) -> Fact.Set.singleton f
           | NAnd ch | NOr ch ->
             Array.iter
               (fun i ->
                  if i >= id then
                    failf "node %d has child %d >= itself (not topological)"
                      id i)
               ch;
             Array.fold_left
               (fun acc i -> Fact.Set.union acc vs.(i))
               Fact.Set.empty ch)
      done;
      let reach = Array.make c.len false in
      let rec mark id =
        if not reach.(id) then begin
          reach.(id) <- true;
          match c.nodes.(id) with
          | NAnd ch | NOr ch -> Array.iter mark ch
          | _ -> ()
        end
      in
      mark c.root;
      let checked = ref 0 and and_nodes = ref 0 and or_nodes = ref 0 in
      for id = 0 to c.len - 1 do
        if reach.(id) then begin
          incr checked;
          match c.nodes.(id) with
          | NAnd ch ->
            incr and_nodes;
            let seen = ref Fact.Set.empty in
            Array.iter
              (fun i ->
                 if not (Fact.Set.is_empty (Fact.Set.inter !seen vs.(i))) then
                   failf "∧-node %d is not decomposable" id;
                 seen := Fact.Set.union !seen vs.(i))
              ch
          | NOr ch ->
            incr or_nodes;
            Array.iter
              (fun i ->
                 if not (Fact.Set.equal vs.(i) vs.(id)) then
                   failf "∨-node %d is not smooth" id)
              ch
          | _ -> ()
        end
      done;
      let enum_vars =
        Fact.Set.elements
          (match formula with
           | Some phi -> Fact.Set.union vs.(c.root) (Bform.vars phi)
           | None -> vs.(c.root))
      in
      let k = List.length enum_vars in
      if k > max_vars then
        failf "too many variables (%d > %d) to verify determinism" k max_vars;
      let arr = Array.of_list enum_vars in
      let assignments = ref 0 in
      let value = Array.make c.len false in
      for mask = 0 to (1 lsl k) - 1 do
        incr assignments;
        let sigma = ref Fact.Set.empty in
        Array.iteri
          (fun i f ->
             if mask land (1 lsl i) <> 0 then sigma := Fact.Set.add f !sigma)
          arr;
        for id = 0 to c.len - 1 do
          if reach.(id) then
            value.(id) <-
              (match c.nodes.(id) with
               | NTrue -> true
               | NFalse -> false
               | NLit (f, s) -> Bool.equal (Fact.Set.mem f !sigma) s
               | NAnd ch -> Array.for_all (fun i -> value.(i)) ch
               | NOr ch ->
                 let trues =
                   Array.fold_left
                     (fun acc i -> if value.(i) then acc + 1 else acc)
                     0 ch
                 in
                 if trues > 1 then
                   failf "∨-node %d is not deterministic (%d children true)"
                     id trues;
                 trues = 1)
        done;
        match formula with
        | Some phi when not (Bool.equal (Bform.eval phi !sigma) value.(c.root))
          ->
          failf "circuit disagrees with the formula on an assignment"
        | _ -> ()
      done;
      Ok
        {
          nodes_checked = !checked;
          and_nodes = !and_nodes;
          or_nodes = !or_nodes;
          assignments = !assignments;
        }
    with Fail msg -> Error msg
  [@@warning "-27"]
end
