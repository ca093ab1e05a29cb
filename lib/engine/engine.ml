(* Batched, memoizing SVC evaluation engine.

   [Svc.svc] (Claim A.1) recompiles the FGMC generating polynomial from
   scratch twice per fact: once for (Dₙ∖μ, Dₓ∪μ) and once for (Dₙ∖μ, Dₓ).
   But both databases have the same lineage as D up to the single variable
   μ: over S ⊆ Dₙ∖{μ},

     lineage(q, (Dₙ∖μ, Dₓ∪μ)) ≡ φ[μ := 1]
     lineage(q, (Dₙ∖μ, Dₓ))   ≡ φ[μ := 0]      where φ = lineage(q, D),

   and the size-generating polynomial depends only on the Boolean function,
   so conditioning the one shared compiled form is exact.  The engine
   therefore compiles φ once per (query, database) and answers every
   per-fact query by conditioning, with all conditioned sub-formulas
   memoized in one shared bounded cache (they overlap massively across
   facts), the φ[μ:=0] polynomial recovered from the full count by the
   splitting identity rather than a second conditioning, and the Shapley
   coefficients read off precomputed factorial tables.

   At [jobs > 1] the per-fact conditioning step — embarrassingly parallel,
   every fact's work reading only the shared immutable φ and the full
   polynomial — fans out across domains, one per static slice
   ([Pool.run]).  The array of k class representatives (below) is cut
   into [min jobs k] slices; slot i evaluates slice i with its own private
   [Compile.Memo] (a Memo is an unsynchronized Hashtbl, so it must never
   be mutated from two domains), and each value lands at its class
   members' original indices, so values and order are bit-identical for
   every jobs count.  [jobs] plays no part in resolving `Auto.

   Under `Auto the engine first splits the players into classes of
   interchangeable facts ([Symmetry]): by Shapley's symmetry axiom every
   member of a class has its representative's value, so every path
   (serial, the parallel fan-out, single-fact [svc]/[banzhaf]) evaluates
   representatives only and copies each value to its class.  Explicit
   backends keep one class per fact.

   Claim A.1 per fact is written once: [with_mu_exo] conditions φ against
   the memo it is given (the shared one serially, a worker slot's copy in
   parallel), [value] applies the splitting identity and the Shapley or
   Banzhaf arithmetic, and [value_of_fact] and [values] are the
   single-fact and batched entry points behind [svc]/[banzhaf] and
   [svc_all]/[banzhaf_all].  The circuit's [by_fact] comes back in
   players order, so it is indexed directly. *)

type backend = [ `Auto | `Conditioning | `Circuit | `Sample of Sample.config ]

type t = {
  query : Query.t;
  db : Database.t;
  players : Fact.t array;
  n : int;
  jobs : int;
  requested : backend; (* as asked — re-resolved by [rebuild] *)
  backend : [ `Conditioning | `Circuit | `Sample of Sample.config ];
  (* resolved *)
  auto_reason : string option; (* the `Auto rule that fired, with its numbers *)
  classes : Symmetry.t; (* interchangeable players; singletons unless `Auto *)
  plan : Plan.t option; (* the compilation plan that steered resolution *)
  session : Circuit.Session.t;
  (* the circuit arena every compile of this engine and of its rebuilds
     appends to *)
  phi : Bform.t;
  memo : Compile.Memo.t;
  factorials : Bigint.t array Lazy.t;
  (* 0! .. n!, built on the first Shapley value: [`Sample] engines and
     Banzhaf-only runs never read it *)
  tel : Telemetry.t;
  compilations : Telemetry.Counter.t;
  conditionings : Telemetry.Counter.t;
  mutable full : Poly.Z.t option; (* count of phi over all n players *)
  mutable par : Stats.domain_stat array; (* last batched parallel run *)
  mutable circuit : Circuit.t option; (* compiled on first circuit answer *)
  mutable circuit_eval : Circuit.evaluation option; (* by_fact in players order *)
  mutable sample_shapley : Sample.report option; (* first sampled svc_all *)
  mutable sample_banzhaf : Sample.report option;
}

(* The bound on the memo and on the circuit's formula cache: entries
   past it are recomputed, never wrong. *)
let cache_capacity = 1 lsl 20

(* The trial behind the rule's over-budget branch: the lineage compiled
   without the plan, under a cap of [Plan.circuit_node_budget] new
   nodes.  The plan's width-based prediction is only an estimate: on
   road RPQs it predicts ~10^8 nodes for circuits of about a thousand. *)
let trial_circuit ~tel ~session phi =
  match
    Circuit.compile ~tel ~cache_capacity ~max_nodes:Plan.circuit_node_budget
      ~session phi
  with
  | c -> Some c
  | exception Circuit.Node_cap -> None

(* The one `Auto rule.  Below [Plan.min_circuit_facts] classes,
   conditioning once per class wins without a plan; above it the plan's
   predicted circuit size decides, and a prediction past the budget
   runs the trial.  Each is forced only on the branch that reads it. *)
let auto_rule ~n_facts ~classes ~trial plan =
  let among =
    Printf.sprintf "%d class%s of interchangeable facts among %d endogenous \
                    fact%s"
      classes (if classes = 1 then "" else "es") n_facts
      (if n_facts = 1 then "" else "s")
  in
  if classes < Plan.min_circuit_facts then
    ( `Conditioning,
      Printf.sprintf "%s < %d: conditioning once per class" among
        Plan.min_circuit_facts )
  else
    let pl = Lazy.force plan in
    let predicted verdict =
      Printf.sprintf "~%d predicted nodes (width %d) %s the %d-node budget"
        pl.Plan.predicted_nodes pl.Plan.max_width verdict
        Plan.circuit_node_budget
    in
    match Plan.recommend pl ~n_facts:classes with
    | `Circuit -> (`Circuit, Printf.sprintf "%s for %s" (predicted "within") among)
    | `Conditioning ->
      (match Lazy.force trial with
       | Some c ->
         ( `Circuit,
           Printf.sprintf
             "%s, but the unplanned circuit fits it with %d nodes, for %s"
             (predicted "exceed") (Circuit.node_count c) among )
       | None ->
         ( `Conditioning,
           Printf.sprintf
             "%s, and the unplanned circuit overflowed it: conditioning \
              once per class for %s"
             (predicted "exceed") among ))

let make ~tel ~jobs ~requested ~memo ~session query db =
  (* registered here, in this order: record-field evaluation order is
     unspecified, and the registry's registration order is user-visible
     in exporter output *)
  let compilations = Telemetry.counter tel "engine.compilations" in
  let conditionings = Telemetry.counter tel "engine.conditionings" in
  Telemetry.Counter.incr compilations;
  let phi = Telemetry.span tel "engine.lineage" (fun () -> Lineage.lineage query db) in
  let players = Array.of_list (Database.endo_list db) in
  let n = Array.length players in
  let classes =
    match requested with
    | `Auto ->
      Telemetry.span tel "engine.classes" (fun () ->
          Symmetry.detect ~players phi)
    | `Conditioning | `Circuit | `Sample _ -> Symmetry.discrete players
  in
  (* The plan is computed exactly when something will read it: to steer
     an explicit circuit compilation, or when the `Auto rule reaches it
     (enough classes for the plan to decide). *)
  let plan = lazy (Plan.analyze ~tel phi) in
  let resolved, auto_reason, circuit =
    match requested with
    | `Conditioning -> (`Conditioning, None, None)
    | `Circuit -> ignore (Lazy.force plan); (`Circuit, None, None)
    (* never auto-selected: an approximate answer must be asked for *)
    | `Sample cfg -> Sample.validate cfg; (`Sample cfg, None, None)
    | `Auto ->
      let trial = lazy (trial_circuit ~tel ~session phi) in
      let backend, reason =
        auto_rule ~n_facts:n ~classes:(Symmetry.count classes) ~trial plan
      in
      ((backend :> [ `Conditioning | `Circuit | `Sample of Sample.config ]),
       Some reason,
       (* a trial that fit the cap is the engine's circuit *)
       if Lazy.is_val trial then Lazy.force trial else None)
  in
  (* the trial circuit was built without the plan, so the engine keeps
     none *)
  let plan =
    match circuit with
    | None when Lazy.is_val plan -> Some (Lazy.force plan)
    | Some _ | None -> None
  in
  {
    query;
    db;
    players;
    n;
    jobs;
    requested;
    backend = resolved;
    auto_reason;
    classes;
    plan;
    session;
    phi;
    memo;
    factorials = lazy (Bigint.factorial_table n);
    tel;
    compilations;
    conditionings;
    full = None;
    par = [||];
    circuit;
    circuit_eval = None;
    sample_shapley = None;
    sample_banzhaf = None;
  }

let create ?(tel = Telemetry.disabled ()) ?(jobs = 1) ?(backend = `Auto) query
    db =
  let jobs =
    if jobs < 0 then invalid_arg "Engine.create: jobs must be >= 0"
    else if jobs = 0 then Pool.recommended_domains ()
    else jobs
  in
  make ~tel ~jobs ~requested:backend
    ~memo:(Compile.Memo.create ~capacity:cache_capacity ())
    ~session:(Circuit.Session.create ()) query db

type change = [ `Insert of [ `Endo | `Exo ] * Fact.t | `Delete of Fact.t ]

(* A rebuild recompiles the lineage and plans over the new database as
   [create] does, and carries over the two artifacts that pay, both
   opened by [create]: the shared memo (sound across formulas — a cached
   polynomial counts over exactly its formula's variables) and the
   circuit session (hash-consed sub-circuits the new database did not
   touch come back as the same nodes).  The per-answer caches (full
   polynomial, circuit evaluation, sample reports) are invalidated
   wholesale by building a fresh [t]. *)
let rebuild t db =
  Telemetry.span t.tel "engine.update" @@ fun () ->
  Telemetry.Counter.incr (Telemetry.counter t.tel "engine.updates");
  make ~tel:t.tel ~jobs:t.jobs ~requested:t.requested ~memo:t.memo
    ~session:t.session t.query db

let apply_change db = function
  | `Insert (part, f) ->
    if Database.mem f db then
      invalid_arg
        (Printf.sprintf "fact %s is already present" (Fact.to_string f));
    (match part with
     | `Endo -> Database.add_endo f db
     | `Exo -> Database.add_exo f db)
  | `Delete f ->
    if not (Database.mem f db) then
      invalid_arg (Printf.sprintf "fact %s is not present" (Fact.to_string f));
    Database.remove f db

let update t change = rebuild t (apply_change t.db change)

let query t = t.query
let database t = t.db
let lineage t = t.phi
let jobs t = t.jobs
let backend t = t.backend
let requested_backend t = t.requested

let backend_name = function
  | `Auto -> "auto"
  | `Conditioning -> "conditioning"
  | `Circuit -> "circuit"
  | `Sample _ -> "sample"

let auto_reason t = t.auto_reason
let classes t = t.classes
let plan t = t.plan

let circuit_reused_nodes t =
  match t.circuit with Some c -> Circuit.reused_nodes c | None -> 0

(* The Claim A.1 arithmetic with the factorials shared across terms:
   Sh(μ) = Σ_j j!(n-j-1)!/n! · (FGMC_j(Dₙ∖μ, Dₓ∪μ) - FGMC_j(Dₙ∖μ, Dₓ)). *)
let shapley_of_polynomials ~factorials ~with_mu_exo ~without_mu ~n =
  if Array.length factorials <= n then
    invalid_arg "Engine.shapley_of_polynomials: factorial table too small";
  (* Every term of Claim A.1 shares the denominator n!, so accumulate one
     integer numerator and normalize a single rational at the end. *)
  let num = ref Bigint.zero in
  for j = 0 to n - 1 do
    let delta =
      Bigint.sub (Poly.Z.coeff with_mu_exo j) (Poly.Z.coeff without_mu j)
    in
    if not (Bigint.is_zero delta) then
      num :=
        Bigint.add !num
          (Bigint.mul (Bigint.mul factorials.(j) factorials.(n - j - 1)) delta)
  done;
  Rational.make !num factorials.(n)

(* C(φ[μ:=1], U∖{μ}), counted against [memo]: the serial path passes the
   engine's shared memo, a parallel worker slot its private copy.  It
   reads only immutable engine fields, so it runs in any domain; the
   caller counts the conditioning in its own domain. *)
let with_mu_exo t ~memo mu =
  let universe =
    List.filter (fun f -> not (Fact.equal f mu)) (Array.to_list t.players)
  in
  Compile.size_polynomial_with ~memo ~universe (Bform.condition mu true t.phi)

(* The circuit backend: compile the lineage into a d-DNNF once, then one
   bottom-up + one top-down traversal reads every fact's [with_mu_exo]
   polynomial (and the full count) off the circuit — zero per-fact
   conditionings.  Both steps are lazy and cached, so every entry point
   ([svc], [svc_all], [banzhaf], [fgmc_polynomial]) shares them. *)
let circuit_of t =
  match t.circuit with
  | Some c -> c
  | None ->
    let c =
      Circuit.compile ~tel:t.tel ?plan:t.plan ~cache_capacity
        ~session:t.session t.phi
    in
    t.circuit <- Some c;
    c

let circuit_evaluation t =
  match t.circuit_eval with
  | Some e -> e
  | None ->
    let c = circuit_of t in
    let ev = Circuit.evaluate ~tel:t.tel c ~universe:(Array.to_list t.players) in
    t.full <- Some ev.Circuit.full;
    t.circuit_eval <- Some ev;
    ev

(* C(φ, U), the size polynomial of the unconditioned lineage over all n
   players, computed once and reused by every per-fact query. *)
let full_polynomial t =
  match t.full with
  | Some p -> p
  | None ->
    (match t.backend with
     | `Circuit -> (circuit_evaluation t).Circuit.full
     (* the sample backend only approximates Shapley/Banzhaf values; an
        explicit ask for the FGMC polynomial stays exact via the
        conditioning path *)
     | `Conditioning | `Sample _ ->
       Telemetry.Counter.incr t.conditionings;
       let p =
         Telemetry.span t.tel "engine.full" (fun () ->
             Compile.size_polynomial_with ~memo:t.memo
               ~universe:(Array.to_list t.players) t.phi)
       in
       t.full <- Some p;
       p)

(* One fact's value from the full count and its C(φ[μ:=1]).  Splitting
   C(φ, U) by membership of μ gives the exact identity
     C(φ, U) = z·C(φ[μ:=1], U∖{μ}) + C(φ[μ:=0], U∖{μ}),
   so the [without_mu] polynomial comes from a subtraction, not a second
   conditioning.  Pure, so worker slots call it too. *)
let value t which ~full with_mu_exo =
  let without_mu = Poly.Z.sub full (Poly.Z.shift 1 with_mu_exo) in
  match which with
  | `Shapley ->
    shapley_of_polynomials ~factorials:(Lazy.force t.factorials) ~with_mu_exo
      ~without_mu ~n:t.n
  | `Banzhaf ->
    let delta =
      Bigint.sub (Poly.Z.total with_mu_exo) (Poly.Z.total without_mu)
    in
    Rational.make delta (Bigint.pow Bigint.two (t.n - 1))

(* The sample backend: one anytime estimation pass answers every fact at
   once (Shapley and Banzhaf reports cached independently).  The run is a
   deterministic function of (lineage, universe, config) — in particular
   [jobs] plays no part, so values are bit-identical at every jobs count
   by construction rather than by a parallel-merge argument.  Estimates
   are stored in players order. *)
let sample_run t cfg ~which =
  let cached =
    match which with
    | `Shapley -> t.sample_shapley
    | `Banzhaf -> t.sample_banzhaf
  in
  match cached with
  | Some r -> r
  | None ->
    let universe = Array.to_list t.players in
    let r =
      match which with
      | `Shapley -> Sample.shapley ~tel:t.tel cfg ~universe t.phi
      | `Banzhaf -> Sample.banzhaf ~tel:t.tel cfg ~universe t.phi
    in
    (match which with
     | `Shapley -> t.sample_shapley <- Some r
     | `Banzhaf -> t.sample_banzhaf <- Some r);
    r

(* Per-fact span; the attribute list is only built when someone will read
   it, so the disabled-tracer path stays allocation-free. *)
let fact_span t mu f =
  if Telemetry.enabled t.tel then
    Telemetry.span t.tel ~attrs:[ ("fact", Fact.to_string mu) ] "engine.fact" f
  else f ()

(* The exact value of players.(i) on the serial path, for a class
   representative.  The full polynomial is forced before the fact's own
   conditioning. *)
let exact_value t which i =
  let mu = t.players.(i) in
  fact_span t mu (fun () ->
      match t.backend with
      | `Circuit ->
        let ev = circuit_evaluation t in
        value t which ~full:ev.Circuit.full (snd ev.Circuit.by_fact.(i))
      | `Conditioning | `Sample _ ->
        let full = full_polynomial t in
        Telemetry.Counter.incr t.conditionings;
        value t which ~full (with_mu_exo t ~memo:t.memo mu))

(* One value per class, in class order, copied to every player. *)
let spread t class_values =
  Array.to_list
    (Array.mapi
       (fun i f -> (f, class_values.(Symmetry.class_of t.classes i)))
       t.players)

(* The single-fact entry point behind [svc] and [banzhaf]. *)
let value_of_fact t which ~name mu =
  match Symmetry.position t.classes mu with
  | None -> invalid_arg (name ^ ": fact is not endogenous")
  | Some i ->
    (match t.backend with
     | `Sample cfg -> (sample_run t cfg ~which).Sample.estimates.(i).Sample.value
     | `Conditioning | `Circuit ->
       exact_value t which
         (Symmetry.representative t.classes (Symmetry.class_of t.classes i)))

(* The parallel batched path: fan the per-class conditioning out across
   [slots = min t.jobs k] domains, one per slot, so no slot is left with
   an empty slice.  Slot i owns the static slice
   [i·k/slots, (i+1)·k/slots) of the k class representatives and a
   private memo cache, so the per-slot counters are as deterministic as
   the values.  Slots touch no engine state: they read the immutable φ,
   players and full polynomial, and everything mutable is merged in the
   calling domain after the join.  Returns one value per class. *)
let batched_parallel t which =
  let full = full_polynomial t in
  (* [Lazy.force] is not safe from two domains: the workers' [value] only
     reads the table once it is forced here *)
  if which = `Shapley then ignore (Lazy.force t.factorials);
  let k = Symmetry.count t.classes in
  let slots = min t.jobs k in
  (* One trace track per slot: slice spans land on the lane of the slot
     that owns them, giving the Chrome view one row per domain.  Forked
     here (the owning domain), handed to exactly one slot each, joined
     back after [Pool.run] has joined the domains. *)
  let slot_tels =
    Array.init slots (fun slot ->
        Telemetry.fork t.tel ~track:(slot + 1)
          ~name:(Printf.sprintf "domain %d" slot))
  in
  let evaluate_slot slot =
    let lo = slot * k / slots and hi = (slot + 1) * k / slots in
    let stel = slot_tels.(slot) in
    Telemetry.span stel
      ~attrs:
        (if Telemetry.enabled stel then
           [ ("slot", string_of_int slot);
             ("facts", string_of_int (hi - lo)) ]
         else [])
      "engine.slice"
    @@ fun () ->
    (* Warm-start the private cache from the engine's shared one, which
       already holds every sub-result of the full polynomial and is
       read-only for the duration of the fan-out (copying is sound from
       any domain while nobody mutates the source).  Cold caches would
       redo the shared prefix of the work once per domain — measured at
       ~2x total compute on the bipartite family, i.e. half the speedup
       gone. *)
    let memo = Compile.Memo.copy t.memo in
    let values =
      Array.init (hi - lo) (fun c ->
          let mu = t.players.(Symmetry.representative t.classes (lo + c)) in
          value t which ~full (with_mu_exo t ~memo mu))
    in
    (values, hi - lo, Compile.Memo.hits memo, Compile.Memo.misses memo)
  in
  let results = Pool.run slots evaluate_slot in
  Array.iter (fun stel -> Telemetry.join t.tel stel) slot_tels;
  Telemetry.Counter.add t.conditionings k;
  Telemetry.span t.tel "engine.merge" (fun () ->
      t.par <-
        Array.map
          (fun (_, facts, hits, misses) ->
             { Stats.d_facts = facts; d_hits = hits; d_misses = misses })
          results;
      Array.concat (List.map (fun (vs, _, _, _) -> vs) (Array.to_list results)))

(* The batched entry point behind [svc_all] and [banzhaf_all]. *)
let values t which =
  Telemetry.span t.tel "engine.eval" @@ fun () ->
  match t.backend with
  | `Sample cfg ->
    let r = sample_run t cfg ~which in
    Array.to_list
      (Array.map (fun e -> (e.Sample.fact, e.Sample.value)) r.Sample.estimates)
  | `Conditioning when t.jobs > 1 -> spread t (batched_parallel t which)
  | `Conditioning | `Circuit ->
    spread t
      (Array.init (Symmetry.count t.classes) (fun c ->
           exact_value t which (Symmetry.representative t.classes c)))

let svc t mu = value_of_fact t `Shapley ~name:"Engine.svc" mu
let banzhaf t mu = value_of_fact t `Banzhaf ~name:"Engine.banzhaf" mu
let svc_all t = values t `Shapley
let banzhaf_all t = values t `Banzhaf

let fgmc_polynomial t = full_polynomial t

let telemetry t = t.tel

let sample_report t =
  match t.sample_shapley with Some r -> Some r | None -> t.sample_banzhaf

let stats t =
  let backend =
    match t.backend with
    | `Conditioning ->
      Stats.Conditioning
        { cache_hits = Compile.Memo.hits t.memo;
          cache_misses = Compile.Memo.misses t.memo;
          cache_size = Compile.Memo.length t.memo;
          cache_capacity = Compile.Memo.capacity t.memo;
          cache_drops = Compile.Memo.drops t.memo;
          poly_ops = Compile.Memo.poly_ops t.memo;
          domains = t.par }
    | `Circuit ->
      let count f = match t.circuit with Some c -> f c | None -> 0 in
      Stats.Circuit
        { nodes = count Circuit.node_count;
          edges = count Circuit.edge_count;
          smoothing = count Circuit.smoothing_nodes;
          cache_hits = count Circuit.cache_hits;
          cache_misses = count Circuit.cache_misses;
          cache_drops = count Circuit.cache_drops }
    | `Sample cfg ->
      let draws, max_hw, familywise_hw, converged =
        match sample_report t with
        | None -> (0, Rational.zero, Rational.zero, false)
        | Some r ->
          ( r.Sample.total_draws,
            r.Sample.max_half_width,
            r.Sample.familywise_half_width,
            r.Sample.all_converged )
      in
      Stats.Sample
        { seed = cfg.Sample.seed;
          draws;
          max_hw = Rational.to_string max_hw;
          familywise_hw = Rational.to_string familywise_hw;
          epsilon = Rational.to_string cfg.Sample.epsilon;
          confidence = Rational.to_string cfg.Sample.confidence;
          converged }
  in
  {
    Stats.players = t.n;
    jobs = t.jobs;
    compilations = Telemetry.Counter.value t.compilations;
    conditionings = Telemetry.Counter.value t.conditionings;
    backend;
    spans = Telemetry.aggregate t.tel;
  }
