(* The SVC benchmark: one seeded workload per process.

     svcbench --workload (batch|serve-session) --seed N --seconds S
              --trace 0|1 [--out DIR]

   perfbench/run.py builds this executable from the checkout and forwards
   its arguments; BENCHMARK.json records the design.

   A run generates its inputs from (workload, seed, seconds) alone, sets
   up [setup_reps] times and reports the median set-up time, then sends
   closed-loop requests through the public API, one at a time on one
   domain.  It answers whole rounds, each holding the same mix of request
   kinds and instance sizes, as many as cover --seconds at the workload's
   reference rate (at least 100 requests on the batch workload).  Every
   answer is checked outside the timed intervals.  The last
   line of standard output is one JSON object: with --trace 0 the
   end-to-end metrics, with --trace 1 the per-layer metrics of a traced
   run, which replays each request's layers one public call at a time
   inside telemetry spans and checks that the replay gives the same
   rationals as the engine. *)

(* CLOCK_MONOTONIC in nanoseconds: frame latencies are tens of
   microseconds, below what gettimeofday resolves well *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let setup_reps = 7

(* a batch run measures at least this many requests, so its p90 has ten
   requests beyond it *)
let min_requests = 100
let cache_capacity = 1 lsl 20 (* Engine.create's and Server.create's default *)
let q_rst = "R(?x), S(?x,?y), T(?y)"

(* ------------------------------------------------------------------ *)
(* Statistics and output                                               *)
(* ------------------------------------------------------------------ *)

(* linear interpolation between closest ranks *)
let quantile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else begin
    let h = p *. float_of_int (n - 1) in
    let i = int_of_float h in
    if i + 1 >= n then a.(n - 1)
    else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end

let median = quantile 0.5
let sum = List.fold_left ( +. ) 0.
let ratio a b = if b = 0. then 0. else a /. b

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

type metric = { name : string; value : float; unit : string }

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
             Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
               (json_string m.name) (json_number m.value)
               (json_string m.unit))
          metrics))

(* failures are counted against attempts and reported on stderr *)
type tally = { mutable attempted : int; mutable failed : int }

let tally = { attempted = 0; failed = 0 }

let attempt what check =
  tally.attempted <- tally.attempted + 1;
  match check () with
  | Ok () -> true
  | Error msg ->
    tally.failed <- tally.failed + 1;
    Printf.eprintf "svcbench: FAILED %s: %s\n%!" what msg;
    false
  | exception e ->
    tally.failed <- tally.failed + 1;
    Printf.eprintf "svcbench: FAILED %s: %s\n%!" what (Printexc.to_string e);
    false

(* ------------------------------------------------------------------ *)
(* Seeded inputs                                                       *)
(* ------------------------------------------------------------------ *)

let stream ~workload ~seed = Workload.rng (Hashtbl.hash (workload, seed))

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = Workload.int r (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* a fresh positive family seed per call, so no instance repeats within a
   run *)
let seed_source r =
  let seen = Hashtbl.create 256 in
  let rec next () =
    let s = 1 + Workload.int r 0x3fffffff in
    if Hashtbl.mem seen s then next () else (Hashtbl.add seen s (); s)
  in
  next

(* An instance in the text forms the CLI reads: what `svc eval DB QUERY`
   gets from its file and its command line. *)
type inst = {
  name : string;
  query_src : string;
  db_text : string;
  endo : int;
  backend : Engine.backend;
}

let render ?(backend = `Auto) (c : Workload.case) =
  {
    name = c.Workload.cname;
    query_src = c.Workload.query_src;
    db_text = Db_text.to_string c.Workload.db;
    endo = Database.size_endo c.Workload.db;
    backend;
  }

let instance ?backend ~family ~seed ~size () =
  render ?backend (Workload.generate ~family ~seed ~size)

(* the setting of BENCH_sample.json: Monte-Carlo, epsilon 1/20 at 19/20 *)
let sample_backend seed =
  `Sample
    (Sample.config ~strategy:Sample.Monte_carlo ~seed
       ~epsilon:(Rational.of_ints 1 20) ~confidence:(Rational.of_ints 19 20)
       ())

(* ------------------------------------------------------------------ *)
(* Batch requests and their checks                                     *)
(* ------------------------------------------------------------------ *)

type answer = {
  q : Query.t;
  db : Database.t;
  engine : Engine.t;
  values : (Fact.t * Rational.t) list;
}

(* what `svc eval DB QUERY` does, in process *)
let request ?(backend : Engine.backend option) i =
  let db = Db_text.parse i.db_text in
  let q = Query_parse.parse i.query_src in
  let backend = Option.value backend ~default:i.backend in
  let engine = Engine.create ~backend q db in
  { q; db; engine; values = Engine.svc_all engine }

(* efficiency: the values sum to [q(D)] - [q(Dx)] *)
let target q db =
  let ind b = if b then 1 else 0 in
  Rational.of_int (ind (Query.holds q db) - ind (Query.eval q (Database.exo db)))

let sums_to_target q db values =
  Rational.equal (Rational.sum (List.map snd values)) (target q db)

let check_answer i a =
  if not (sums_to_target a.q a.db a.values) then
    Error "values do not sum to [q(D)] - [q(Dx)]"
  else
    match i.backend, Engine.sample_report a.engine with
    | `Sample cfg, Some r ->
      if not r.Sample.all_converged then Error "estimate did not converge"
      else if Rational.lt cfg.Sample.epsilon r.Sample.max_half_width then
        Error "half-width above epsilon"
      else Ok ()
    | `Sample _, None -> Error "no sample report"
    | _ -> Ok ()

let same_values a b =
  List.length a = List.length b
  && List.for_all2
       (fun (f, v) (g, w) -> Fact.equal f g && Rational.equal v w)
       a b

(* the other exact backend must give the same rationals *)
let cross_check i =
  let circuit = request ~backend:`Circuit i in
  let conditioning = request ~backend:`Conditioning i in
  if not (same_values circuit.values conditioning.values) then
    Error "circuit and conditioning disagree"
  else check_answer i circuit

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

(* The batch workload: timed requests in order, [round] requests per round,
   and warm-up instances that share no instance with the timed ones.
   Every round holds the same mix of kinds and sizes. *)
type batch = { pool : inst array; round : int; warmups : inst list }

(* [n] sizes evenly spaced over [lo, hi] *)
let evenly ~lo ~hi n = Array.init n (fun j -> lo + (j * (hi - lo) / max 1 (n - 1)))

(* [a] holds [strata * rounds] items in order, cut into [strata]
   consecutive strata; the seed deals each stratum's items to the rounds,
   so round k gets one item of every stratum.  Every seed gets the same
   items, in its own order. *)
let deal r ~strata ~rounds a =
  let cols =
    Array.init strata (fun s ->
        let c = Array.sub a (s * rounds) rounds in
        shuffle r c;
        c)
  in
  Array.init rounds (fun k -> Array.init strata (fun s -> cols.(s).(k)))

(* [n] instances with [lo, hi] endogenous facts, in fact-count order.
   Set-up generates a fixed number of candidates, keeps those inside the
   window, sorts them by fact count and takes [n] evenly spaced ones.  The
   cost of a #P-hard request grows steeply with its fact count, so dealt
   into strata every round gets the same mix of counts.  Six candidates
   per slot leave a margin of at least five standard deviations for every
   window used here. *)
let by_fact_count next ~lo ~hi n gen =
  let kept =
    Array.of_list
      (List.stable_sort
         (fun (a : Workload.case) (b : Workload.case) ->
            compare (Database.size_endo a.Workload.db) (Database.size_endo b.Workload.db))
         (List.filter
            (fun (c : Workload.case) ->
               let e = Database.size_endo c.Workload.db in
               lo <= e && e <= hi)
            (List.init (6 * n) (fun _ -> gen (next ())))))
  in
  let m = Array.length kept in
  if m < n then failwith (Printf.sprintf "%d of %d candidates in [%d, %d]" m n lo hi);
  Array.init n (fun j -> render kept.(j * (m - 1) / max 1 (n - 1)))

(* The exact instances come from one fixed stream of family seeds, the
   same for every workload seed, which only deals them to the rounds: the
   cost of a #P-hard instance ranges over 4-8x at one fact count, so
   instances drawn afresh per seed would move a run's work with the seed.
   Within a run every family seed is fresh. *)
let pool_source () = seed_source (Workload.rng 0x5eed)

(* A batch run answers whole rounds covering --seconds at [batch_rate]
   requests per second (about what the batch mix sustains on a 2-vCPU
   shared virtual machine), and at least [min_requests].  Its work is a
   pure function of (seed, seconds), so a faster program answers the same
   requests sooner and both sides of a comparison do the same work. *)
let batch_rate = 5.

(* batch: every kind of request `svc eval` serves, ten to a round:
   - four seed-0 stars of 100-291 endogenous facts, one per quarter of
     that range: the paper's FP side, hierarchical R(x),S(x,y), where
     `Auto resolves to the planned circuit; the only requests where the
     planner and the Claim A.1 assembly on big-tier Bigints do much of
     the work.  Every seed asks the same sizes, distinct while a run has
     at most 48 rounds.
   - two q_RST sub-grids of 42-45 facts (`Auto -> circuit) and two road
     RPQs of 27-30 facts (`Auto -> conditioning), one per half of each
     window: #P-hard; circuit compile/evaluate and per-fact conditioning
     do almost all the work, lineage and planning little.
   - two Monte-Carlo estimates on q_RST sub-grids of sizes 32-47, about
     0.7-1.5 thousand facts, one per half of that range, each with a
     fresh family seed from the workload seed and the sample seed equal
     to it: lineage construction is most of the work; neither plan nor
     circuit runs.
   The first four requests of a round are one of each kind. *)
let batch ~seed ~seconds =
  let r = stream ~workload:"batch" ~seed in
  let round = 10 in
  let rounds =
    min 48 ((max min_requests (int_of_float (Float.ceil (seconds *. batch_rate))) + round - 1) / round)
  in
  let star size = instance ~family:"star" ~seed:0 ~size () in
  let stars = deal r ~strata:4 ~rounds (Array.map star (evenly ~lo:99 ~hi:290 (4 * rounds))) in
  let fixed = pool_source () in
  let exact ~lo ~hi gen = deal r ~strata:2 ~rounds (by_fact_count fixed ~lo ~hi (2 * rounds) gen) in
  let grids = exact ~lo:42 ~hi:45 (fun s -> Workload.generate ~family:"bipartite" ~seed:s ~size:7) in
  let roads = exact ~lo:27 ~hi:30 (fun s -> Workload.generate ~family:"rpq-road" ~seed:s ~size:20) in
  let next = seed_source r in
  let samples =
    deal r ~strata:2 ~rounds
      (Array.map
         (fun size ->
            let s = next () in
            instance ~backend:(sample_backend s) ~family:"bipartite" ~seed:s ~size ())
         (evenly ~lo:32 ~hi:47 (2 * rounds)))
  in
  let round_of k =
    let s = stars.(k) and g = grids.(k) and d = roads.(k) and m = samples.(k) in
    [ s.(0); g.(0); d.(0); m.(0); s.(1); g.(1); d.(1); m.(1); s.(2); s.(3) ]
  in
  let warm size = instance ~backend:(sample_backend 0) ~family:"bipartite" ~seed:0 ~size () in
  {
    pool = Array.of_list (List.concat (List.init rounds round_of));
    round;
    warmups =
      [ star 64; star 96; instance ~family:"bipartite" ~seed:0 ~size:5 ();
        instance ~family:"rpq-road" ~seed:0 ~size:12 (); warm 16; warm 24 ];
  }

(* serve-session: one closed-loop client speaking frames to an in-process
   server, on size-6 q_RST sub-grids (about 36 facts).  Each phase loads a
   fresh database (the next eval misses), then runs [cells_per_phase]
   cycles of cached reads, an insert of an absent grid cell (which adds a
   support) and a delete of it, each write followed by a read that takes
   the delta path.  The only workload with writes. *)
let serve_db = "g"
let cells_per_phase = 3
let projected_facts = 3

type sop =
  | Load of string
  | Read of string list option * string (* projection, expected cache *)
  | Write of Engine.change

type sreq = { frame : string; op : sop }

let frame fields =
  Frame.encode
    ("{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields)
     ^ "}")

let phase_script r ~phase (i : inst) =
  let db = Db_text.parse i.db_text in
  let n = ref 0 in
  let req op fields =
    incr n;
    { frame = frame (("id", string_of_int ((phase * 100) + !n)) :: fields); op }
  in
  let read facts expect =
    req (Read (facts, expect))
      ([ ("op", json_string "eval"); ("db", json_string serve_db);
         ("query", json_string q_rst) ]
       @ match facts with
       | None -> []
       | Some fs -> [ ("facts", "[" ^ String.concat "," (List.map json_string fs) ^ "]") ])
  in
  let write change =
    let op, f =
      match change with
      | `Insert (_, f) -> ("insert", f)
      | `Delete f -> ("delete", f)
    in
    req (Write change)
      [ ("op", json_string op); ("db", json_string serve_db);
        ("fact", json_string (Fact.to_string f)) ]
  in
  let size = 6 in
  let absent =
    Array.of_list
      (List.concat
         (List.init size (fun a ->
              List.filter_map
                (fun b ->
                   let f =
                     Fact.make "S" [ Printf.sprintf "l%d" a; Printf.sprintf "r%d" b ]
                   in
                   if Database.mem f db then None else Some f)
                (List.init size Fun.id))))
  in
  shuffle r absent;
  let endo = Array.of_list (Database.endo_list db) in
  shuffle r endo;
  let proj =
    Some
      (List.map Fact.to_string
         (Array.to_list (Array.sub endo 0 (min projected_facts (Array.length endo)))))
  in
  let cells = Array.to_list (Array.sub absent 0 (min cells_per_phase (Array.length absent))) in
  let load =
    req (Load i.db_text)
      [ ("op", json_string "load_db"); ("name", json_string serve_db);
        ("text", json_string i.db_text) ]
  in
  load :: read None "miss"
  :: List.concat_map
       (fun f ->
          [ read None "hit"; read None "hit"; read None "hit"; read proj "hit";
            write (`Insert (`Endo, f)); read None "delta";
            read None "hit"; read None "hit"; read None "hit"; read proj "hit";
            write (`Delete f); read None "delta" ])
       cells

(* phases come in rounds of seven databases of 33-39 facts, one from each
   stratum of the fact counts; a run ends on a round boundary *)
type serve = { prime : inst; phases : sreq list array; round : int }

let phases_per_round = 7

(* reference rate of the serve session, in phases per second on a 2-vCPU
   shared virtual machine *)
let serve_rate = 1.6

let serve_rounds ~seconds =
  int_of_float (Float.ceil (seconds *. serve_rate /. float_of_int phases_per_round))

(* The databases come from the fixed pool, like the batch workload's
   exact instances; the seed deals them to the rounds and picks each
   phase's cells and projection. *)
let serve_session ~seed ~seconds =
  let r = stream ~workload:"serve-session" ~seed in
  let rounds = serve_rounds ~seconds in
  let dbs =
    deal r ~strata:phases_per_round ~rounds
      (by_fact_count (pool_source ()) ~lo:33 ~hi:39 (phases_per_round * rounds) (fun s ->
           Workload.generate ~family:"bipartite" ~seed:s ~size:6))
  in
  {
    (* the complete 5x5 grid: distinct from every timed database *)
    prime = instance ~family:"bipartite" ~seed:0 ~size:5 ();
    phases =
      Array.of_list
        (List.mapi (fun phase i -> phase_script r ~phase i)
           (List.concat_map Array.to_list (Array.to_list dbs)));
    round = phases_per_round;
  }

let start_server (s : serve) =
  let server = Server.create () in
  Server.load_db server ~name:serve_db ~text:s.prime.db_text;
  (* priming evals fill the LRU: a miss, then a hit *)
  List.iter
    (fun facts ->
       ignore
         (Server.serve_string server
            (frame
               ([ ("op", json_string "eval"); ("db", json_string serve_db);
                  ("query", json_string q_rst) ]
                @ facts))))
    [ []; [ ("facts", "[]") ] ];
  server

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

type response = {
  ok : bool;
  cache : string;
  rvalues : (string * string) list; (* fact, value *)
  reused : int;
}

let decode resp =
  let field kvs k = List.assoc_opt k kvs in
  match Frame.read (Frame.source_of_string resp) with
  | Ok (Some payload) ->
    (match Tracejson.parse payload with
     | Ok (Tracejson.Obj kvs) ->
       let str k =
         match field kvs k with Some (Tracejson.Str s) -> s | _ -> ""
       in
       let rvalues =
         match field kvs "values" with
         | Some (Tracejson.Arr vs) ->
           List.filter_map
             (function
               | Tracejson.Obj o ->
                 (match field o "fact", field o "value" with
                  | Some (Tracejson.Str f), Some (Tracejson.Str v) -> Some (f, v)
                  | _ -> None)
               | _ -> None)
             vs
         | _ -> []
       in
       {
         ok = field kvs "ok" = Some (Tracejson.Bool true);
         cache = str "cache";
         rvalues;
         reused =
           (match field kvs "reused_nodes" with
            | Some (Tracejson.Num f) -> int_of_float f
            | _ -> 0);
       }
     | _ -> { ok = false; cache = ""; rvalues = []; reused = 0 })
  | _ -> { ok = false; cache = ""; rvalues = []; reused = 0 }

let strings values =
  List.map (fun (f, v) -> (Fact.to_string f, Rational.to_string v)) values

(* The client's view of the served database, and the checks on every
   response: no error frame, the expected cache outcome, whole answers
   summing to [q(D)] - [q(Dx)], hits equal to the last answer, deltas
   equal to a cold recompute (after the delete, the phase's miss answer
   is that recompute), projections holding exactly the requested facts,
   in order, with the whole answer's values. *)
type client = {
  q : Query.t;
  mutable db : Database.t;
  mutable phase_db : Database.t;
  mutable phase_answer : (string * string) list;
  mutable last : (string * string) list;
}

let check_response c req resp =
  let r = decode resp in
  if not r.ok then Error "error frame"
  else
    match req.op with
    | Load text ->
      c.db <- Db_text.parse text;
      c.phase_db <- c.db;
      Ok ()
    | Write change ->
      c.db <-
        (match change with
         | `Insert (_, f) -> Database.add_endo f c.db
         | `Delete f -> Database.remove f c.db);
      Ok ()
    | Read (_, expect) when r.cache <> expect ->
      Error (Printf.sprintf "cache %S, expected %S" r.cache expect)
    | Read (Some fs, _) ->
      if
        List.map fst r.rvalues = fs
        && List.for_all (fun (f, v) -> List.assoc_opt f c.last = Some v) r.rvalues
      then Ok ()
      else Error "projection differs from the requested facts of the whole answer"
    | Read (None, expect) ->
      let sum = Rational.sum (List.map (fun (_, v) -> Rational.of_string v) r.rvalues) in
      if not (Rational.equal sum (target c.q c.db)) then
        Error "values do not sum to [q(D)] - [q(Dx)]"
      else begin
        let expected =
          match expect with
          | "miss" -> r.rvalues
          | "hit" -> c.last
          | _ when Database.equal c.db c.phase_db -> c.phase_answer
          | _ ->
            let e = Engine.create c.q c.db in
            strings (Engine.svc_all e)
        in
        if expect = "miss" then c.phase_answer <- r.rvalues;
        c.last <- r.rvalues;
        if expected = r.rvalues then Ok ()
        else Error (expect ^ " answer differs from a cold recompute")
      end

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

(* Set up [setup_reps] times; the median is setup_s, the last set-up is
   the one the run uses.  A full major collection before each set-up,
   outside its timing, gives each the empty heap of the first instead of
   the garbage of the one before. *)
let timed_setup f =
  let rec go k times =
    Gc.full_major ();
    let t0 = now () in
    let v = f () in
    let times = (now () -. t0) :: times in
    if k > 1 then go (k - 1) times else (v, median times)
  in
  go setup_reps []

let setup_batch ~seed ~seconds =
  timed_setup (fun () ->
      let b = batch ~seed ~seconds in
      List.iter (fun i -> ignore (request i)) b.warmups;
      b)

(* ------------------------------------------------------------------ *)
(* Untraced runs: the end-to-end metrics                               *)
(* ------------------------------------------------------------------ *)

let latency_metrics lat =
  let n = List.length lat in
  Printf.printf "latency_p90_s over %d requests (%d beyond it)\n" n
    (n - int_of_float (Float.ceil (0.9 *. float_of_int n)));
  [ { name = "latency_p50_s"; value = median lat; unit = "s" };
    { name = "latency_p90_s"; value = quantile 0.9 lat; unit = "s" } ]

(* Rates are medians over rounds: every round holds the same mix, so a
   transient stall of the host moves one round, not the run. *)
type round_tally = {
  mutable r_time : float;
  mutable r_facts : int;
  mutable r_requests : int;
  mutable r_bytes : float; (* allocated while answering *)
}

let new_tally () = { r_time = 0.; r_facts = 0; r_requests = 0; r_bytes = 0. }

(* One timed request: [f]'s wall time and allocation go to the round. *)
let timed t f =
  let b0 = Gc.allocated_bytes () and t0 = now () in
  let v = try Ok (f ()) with e -> Error e in
  let dt = now () -. t0 in
  t.r_bytes <- t.r_bytes +. (Gc.allocated_bytes () -. b0);
  t.r_time <- t.r_time +. dt;
  t.r_requests <- t.r_requests + 1;
  (v, dt)

(* The heap's high-water mark is printed, not gated: it is set by the
   run's single largest instance, so it moves with the seed far more than
   the gated metrics.  Bytes allocated per request carry the memory bound
   instead. *)
let rate_metrics rounds =
  Printf.printf "peak_heap_mb %.3f (Gc top heap, not gated)\n" (peak_heap_mb ());
  let per f g = median (List.map (fun r -> ratio (f r) (g r)) rounds) in
  let requests r = float_of_int r.r_requests and time r = r.r_time in
  [ { name = "facts_per_s"; value = per (fun r -> float_of_int r.r_facts) time; unit = "1/s" };
    { name = "requests_per_s"; value = per requests time; unit = "1/s" };
    { name = "alloc_mb_per_request"; value = per (fun r -> r.r_bytes /. 1e6) requests;
      unit = "MB" } ]

let run_batch ~seed ~seconds =
  let b, setup_s = setup_batch ~seed ~seconds in
  List.iter
    (fun i -> ignore (attempt ("warm-up cross-check " ^ i.name) (fun () -> cross_check i)))
    (List.filter (fun i -> match i.backend with `Sample _ -> false | _ -> true) b.warmups);
  let lat = ref [] and tallies = ref [] and k = ref 0 in
  while !k < Array.length b.pool do
    let t = new_tally () in
    for _ = 1 to b.round do
      let i = b.pool.(!k) in
      incr k;
      let a, dt = timed t (fun () -> request i) in
      lat := dt :: !lat;
      if attempt i.name (fun () -> match a with Ok a -> check_answer i a | Error e -> raise e)
      then t.r_facts <- t.r_facts + i.endo
    done;
    tallies := t :: !tallies
  done;
  Printf.printf "batch seed %d: %d requests in %d rounds, %.3f s timed\n" seed !k
    (List.length !tallies) (sum (List.map (fun t -> t.r_time) !tallies));
  [ { name = "setup_s"; value = setup_s; unit = "s" } ]
  @ rate_metrics !tallies @ latency_metrics !lat

let setup_serve ~seed ~seconds =
  timed_setup (fun () ->
      let s = serve_session ~seed ~seconds in
      (s, start_server s))

let new_client () =
  let q = Query_parse.parse q_rst in
  { q; db = Database.empty; phase_db = Database.empty; phase_answer = []; last = [] }

let run_serve ~seed ~seconds =
  let (s, server), setup_s = setup_serve ~seed ~seconds in
  ignore
    (attempt "priming cross-check" (fun () -> cross_check s.prime));
  let c = new_client () in
  let lat = ref [] and tallies = ref [] and n = ref 0 in
  let by_cache = Hashtbl.create 3 in
  let phase = ref 0 in
  while !phase < Array.length s.phases do
    let t = new_tally () in
    for _ = 1 to s.round do
      (* a phase's frames go out back to back; the checks, whose cold
         recomputes would otherwise land between timed frames, follow *)
      let sent =
        List.map
          (fun req ->
             let resp, dt = timed t (fun () -> Server.serve_string server req.frame) in
             (req, resp, dt))
          s.phases.(!phase)
      in
      List.iter
        (fun (req, resp, dt) ->
           incr n;
           lat := dt :: !lat;
           if
             attempt (Printf.sprintf "frame %d" !n) (fun () ->
                 match resp with Ok resp -> check_response c req resp | Error e -> raise e)
           then
             match req.op with
             | Read (_, expect) ->
               t.r_facts <- t.r_facts + List.length (decode (Result.get_ok resp)).rvalues;
               Hashtbl.replace by_cache expect
                 (dt :: Option.value ~default:[] (Hashtbl.find_opt by_cache expect))
             | Load _ | Write _ -> ())
        sent;
      incr phase
    done;
    tallies := t :: !tallies
  done;
  let timed = sum (List.map (fun t -> t.r_time) !tallies) in
  Printf.printf "serve-session seed %d: %d requests in %d phases, %.3f s timed\n" seed !n
    !phase timed;
  (* per-outcome medians exist on this workload only, so the traced run
     reports them as per-layer metrics; printed here for the reader *)
  List.iter
    (fun k ->
       let xs = Option.value ~default:[] (Hashtbl.find_opt by_cache k) in
       Printf.printf "%s_p50_s %.6f over %d evals\n" k (median xs) (List.length xs))
    [ "hit"; "delta"; "miss" ];
  [ { name = "setup_s"; value = setup_s; unit = "s" } ]
  @ rate_metrics !tallies @ latency_metrics !lat

(* ------------------------------------------------------------------ *)
(* Traced runs: the per-layer split                                    *)
(* ------------------------------------------------------------------ *)

(* The traced run owns one enabled tracer and wraps each public call into
   a layer in a span named after the layer, tagged with the request id.
   Nothing inside the library is instrumented for it.  Counts come from
   the layers' own accessors; [alloc_words] is what the call allocated. *)
type ctx = {
  tel : Telemetry.t;
  counts : (string, int) Hashtbl.t;
  mutable rid : string;
}

let new_ctx () =
  { tel = Telemetry.create ~clock:now ~enabled:true (); counts = Hashtbl.create 64; rid = "" }

let count ctx name n =
  Hashtbl.replace ctx.counts name
    (n + Option.value ~default:0 (Hashtbl.find_opt ctx.counts name))

let count_max ctx name n =
  Hashtbl.replace ctx.counts name
    (max n (Option.value ~default:0 (Hashtbl.find_opt ctx.counts name)))

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let span ctx name f = Telemetry.span ctx.tel ~attrs:[ ("id", ctx.rid) ] name f

let alloc_total ctx =
  Hashtbl.fold
    (fun k v acc -> if Filename.check_suffix k ".alloc_words" then acc + v else acc)
    ctx.counts 0

let layer ctx name f =
  span ctx name (fun () ->
      let a0 = allocated_words () in
      let v = f () in
      count ctx (name ^ ".alloc_words") (int_of_float (allocated_words () -. a0));
      v)

(* Claim A.1 for every fact, from its [with_mu_exo] polynomial *)
let assemble ctx ~full withs =
  layer ctx "engine.assemble" (fun () ->
      let n = List.length withs in
      let factorials = Bigint.factorial_table n in
      List.map
        (fun (f, p) ->
           ( f,
             Engine.shapley_of_polynomials ~factorials ~with_mu_exo:p
               ~without_mu:(Poly.Z.sub full (Poly.Z.shift 1 p))
               ~n ))
        withs)

(* the layers of Engine.svc_all under the resolved backend *)
let replay_backend ctx ~phi ~plan ~backend ~players ~session =
  match backend with
  | `Circuit ->
    let c =
      layer ctx "circuit.compile" (fun () ->
          Circuit.compile ?plan ~cache_capacity ?session phi)
    in
    let ev = layer ctx "circuit.evaluate" (fun () -> Circuit.evaluate c ~universe:players) in
    count ctx "circuit.nodes" (Circuit.node_count c);
    count ctx "circuit.edges" (Circuit.edge_count c);
    count ctx "circuit.smoothing_nodes" (Circuit.smoothing_nodes c);
    count ctx "circuit.cache_hits" (Circuit.cache_hits c);
    count ctx "circuit.cache_misses" (Circuit.cache_misses c);
    count ctx "circuit.poly_ops" ev.Circuit.poly_ops;
    (Some c, assemble ctx ~full:ev.Circuit.full (Array.to_list ev.Circuit.by_fact))
  | `Conditioning ->
    let memo = Compile.Memo.create ~capacity:cache_capacity () in
    let full =
      layer ctx "compile.full" (fun () ->
          Compile.size_polynomial_with ~memo ~universe:players phi)
    in
    let withs =
      layer ctx "compile.condition" (fun () ->
          List.map
            (fun mu ->
               let universe = List.filter (fun f -> not (Fact.equal f mu)) players in
               (mu, Compile.size_polynomial_with ~memo ~universe (Bform.condition mu true phi)))
            players)
    in
    count ctx "compile.conditionings" (1 + List.length players);
    count ctx "compile.poly_ops" (Compile.Memo.poly_ops memo);
    count ctx "compile.memo_hits" (Compile.Memo.hits memo);
    count ctx "compile.memo_misses" (Compile.Memo.misses memo);
    (None, assemble ctx ~full withs)
  | `Sample cfg ->
    let r = layer ctx "sample.estimate" (fun () -> Sample.shapley cfg ~universe:players phi) in
    count ctx "sample.draws" r.Sample.total_draws;
    count ctx "sample.evals" r.Sample.total_evals;
    (None, Array.to_list (Array.map (fun e -> (e.Sample.fact, e.Sample.value)) r.Sample.estimates))

let replay_lineage ctx q db =
  let phi = layer ctx "lineage.build" (fun () -> Lineage.lineage q db) in
  count ctx "lineage.bform_size" (Bform.size phi);
  count ctx "lineage.supports"
    (match phi with Bform.Or ps -> List.length ps | Bform.False -> 0 | _ -> 1);
  phi

let replay_plan ctx phi =
  let p = layer ctx "plan.analyze" (fun () -> Plan.analyze phi) in
  count_max ctx "plan.max_width" p.Plan.max_width;
  count ctx "plan.predicted_nodes" p.Plan.predicted_nodes;
  p

(* A traced batch request: the real request, timed as in the untraced
   run, then its layers replayed in the order the resolved backend runs
   them; the replay must give the engine's rationals exactly. *)
let traced_request ctx ~rid i =
  ctx.rid <- rid;
  let a = span ctx "request" (fun () -> request i) in
  let values =
    span ctx "replay" (fun () ->
        let db, q =
          layer ctx "relational.parse" (fun () ->
              (Db_text.parse i.db_text, Query_parse.parse i.query_src))
        in
        let phi = replay_lineage ctx q db in
        let plan = Option.map (fun _ -> replay_plan ctx phi) (Engine.plan a.engine) in
        snd
          (replay_backend ctx ~phi ~plan ~backend:(Engine.backend a.engine)
             ~players:(Database.endo_list db) ~session:None))
  in
  ignore
    (attempt ("traced " ^ i.name) (fun () ->
         if not (same_values values a.values) then Error "replay differs from Engine.svc_all"
         else check_answer i a))

(* The serve replay keeps a mirror of the served database and of the
   cached engine: a miss is replayed cold, a delta through Engine.update
   on the mirror engine, then the backend layers on a mirror circuit
   session; server.self is the frame's time minus the replayed layers. *)
type mirror = {
  mutable m_db : Database.t;
  mutable m_engine : Engine.t option;
  mutable m_session : Circuit.Session.t;
  mutable pending : Engine.change list;
}

let traced_frame ctx (m : mirror) ~rid ~server req =
  ctx.rid <- rid;
  let a0 = allocated_words () in
  let resp =
    span ctx "request" (fun () -> Server.serve_string server req.frame)
  in
  let frame_words = allocated_words () -. a0 in
  count ctx "frame.response_bytes" (String.length resp);
  let r = decode resp in
  let replayed =
    match req.op, r.cache with
    | Load text, _ ->
      span ctx "replay" (fun () ->
          m.m_db <- layer ctx "relational.parse" (fun () -> Db_text.parse text));
      m.m_engine <- None;
      m.pending <- [];
      None
    | Write ch, _ ->
      m.pending <- m.pending @ [ ch ];
      m.m_db <-
        (match ch with
         | `Insert (_, f) -> Database.add_endo f m.m_db
         | `Delete f -> Database.remove f m.m_db);
      None
    | Read _, "miss" ->
      let values =
        span ctx "replay" (fun () ->
            let q = layer ctx "relational.parse" (fun () -> Query_parse.parse q_rst) in
            let phi = replay_lineage ctx q m.m_db in
            let plan = replay_plan ctx phi in
            let backend =
              Plan.recommend plan ~n_facts:(Database.size_endo m.m_db)
            in
            m.m_session <- Circuit.Session.create ();
            snd
              (replay_backend ctx ~phi ~plan:(Some plan)
                 ~backend:(backend :> [ `Circuit | `Conditioning | `Sample of Sample.config ])
                 ~players:(Database.endo_list m.m_db) ~session:(Some m.m_session)))
      in
      m.m_engine <- Some (Engine.create (Query_parse.parse q_rst) m.m_db);
      m.pending <- [];
      Some values
    | Read _, "delta" ->
      (match m.m_engine with
       | None -> None
       | Some e0 ->
         let e, c, values =
           span ctx "replay" (fun () ->
               let e =
                 List.fold_left
                   (fun e ch -> layer ctx "engine.update" (fun () -> Engine.update e ch))
                   e0 m.pending
               in
               let c, values =
                 replay_backend ctx ~phi:(Engine.lineage e) ~plan:(Engine.plan e)
                   ~backend:(Engine.backend e) ~players:(Database.endo_list m.m_db)
                   ~session:(Some m.m_session)
               in
               (e, c, values))
         in
         (match Engine.plan e0 with
          | Some previous ->
            count ctx "plan.reused_components"
              (snd (Plan.replan ~previous (Engine.lineage e)))
          | None -> ());
         (match c with
          | Some c ->
            count ctx "circuit.delta_reused_nodes" r.reused;
            count ctx "circuit.delta_nodes" (Circuit.node_count c)
          | None -> ());
         m.m_engine <- Some e;
         m.pending <- [];
         Some values)
    | Read _, _ -> None
  in
  (resp, r, replayed, frame_words)

(* ------------------------------------------------------------------ *)
(* Per-layer metrics from the recorded spans                           *)
(* ------------------------------------------------------------------ *)

let layers =
  [ "relational.parse"; "lineage.build"; "plan.analyze"; "circuit.compile";
    "circuit.evaluate"; "compile.full"; "compile.condition"; "engine.assemble";
    "sample.estimate"; "engine.update"; "server.self" ]

(* Self time of a span is its duration minus its children's.  Events come
   in completion order, children before their parent, so one running sum
   per depth gives each event's children total. *)
let self_times tel =
  let child = Array.make 64 0. in
  let by = Hashtbl.create 1024 in
  List.iter
    (fun (ev : Telemetry.event) ->
       let d = ev.Telemetry.ev_depth in
       let self = ev.Telemetry.ev_dur_s -. child.(d + 1) in
       child.(d + 1) <- 0.;
       child.(d) <- child.(d) +. ev.Telemetry.ev_dur_s;
       let rid = Option.value ~default:"" (List.assoc_opt "id" ev.Telemetry.ev_attrs) in
       let key = (rid, ev.Telemetry.ev_name) in
       Hashtbl.replace by key (self +. Option.value ~default:0. (Hashtbl.find_opt by key)))
    (Telemetry.events tel);
  by

(* Per request: the untraced time is the real request (batch) or the
   frame (serve); the traced time is the replayed layers plus, when
   served, the server's own share, [server.self = frame - named layers].
   [layers.unexplained] is traced time not covered by a named layer. *)
let layer_metrics ~serve ~rids tel =
  let st = self_times tel in
  let get rid name = Hashtbl.find_opt st (rid, name) in
  let v rid name = Option.value ~default:0. (get rid name) in
  let per_layer = Hashtbl.create 16 in
  let push name x =
    Hashtbl.replace per_layer name (x :: Option.value ~default:[] (Hashtbl.find_opt per_layer name))
  in
  let untraced = ref 0. and traced = ref 0. and unexplained = ref [] in
  List.iter
    (fun rid ->
       let request = v rid "request" and glue = v rid "replay" in
       let named =
         List.fold_left
           (fun acc l -> match get rid l with Some x -> push l x; acc +. x | None -> acc)
           0. layers
       in
       let replay = named +. glue in
       let self = if serve then request -. named else 0. in
       if serve then push "server.self" self;
       untraced := !untraced +. request;
       traced := !traced +. self +. replay;
       unexplained := glue :: !unexplained)
    rids;
  let xs l = Option.value ~default:[] (Hashtbl.find_opt per_layer l) in
  List.concat_map
    (fun l ->
       [ { name = l ^ "_s"; value = median (xs l); unit = "s" };
         { name = l ^ ".share"; value = ratio (sum (xs l)) !traced; unit = "ratio" } ])
    layers
  @ [ { name = "layers.unexplained_s"; value = median !unexplained; unit = "s" };
      { name = "layers.unexplained.share"; value = ratio (sum !unexplained) !traced;
        unit = "ratio" };
      { name = "trace.overhead_ratio"; value = ratio !traced !untraced -. 1.; unit = "ratio" } ]

(* Count metrics: totals over the probe (the first [probe_requests] batch
   requests, or the first serve phase), which a traced run repeats
   exactly for a given seed. *)
let probe_requests = 4

let count_metrics counts =
  let c name = float_of_int (Option.value ~default:0 (List.assoc_opt name counts)) in
  let direct unit names = List.map (fun n -> { name = n; value = c n; unit }) names in
  direct "words" (List.map (fun l -> l ^ ".alloc_words") layers)
  @ direct "count"
      [ "gc.major_collections"; "lineage.bform_size"; "lineage.supports";
        "plan.max_width"; "plan.predicted_nodes"; "circuit.nodes"; "circuit.edges";
        "circuit.smoothing_nodes"; "circuit.poly_ops"; "compile.conditionings";
        "compile.poly_ops"; "sample.draws"; "plan.reused_components";
        "server.cache_evictions"; "server.delta_updates" ]
  @ direct "bytes" [ "frame.response_bytes" ]
  @ [ { name = "circuit.cache_hit_ratio";
        value = ratio (c "circuit.cache_hits") (c "circuit.cache_hits" +. c "circuit.cache_misses");
        unit = "ratio" };
      { name = "compile.memo_hit_ratio";
        value = ratio (c "compile.memo_hits") (c "compile.memo_hits" +. c "compile.memo_misses");
        unit = "ratio" };
      { name = "sample.evals_per_draw"; value = ratio (c "sample.evals") (c "sample.draws");
        unit = "ratio" };
      { name = "circuit.reuse_ratio";
        value = ratio (c "circuit.delta_reused_nodes") (c "circuit.delta_nodes");
        unit = "ratio" };
      { name = "server.hit_ratio"; value = ratio (c "server.cache_hits") (c "server.evals");
        unit = "ratio" } ]

let serialize counts =
  String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s\t%d\n" k v) counts)

let deserialize s =
  List.filter_map
    (fun line ->
       match String.split_on_char '\t' line with
       | [ k; v ] -> Option.map (fun v -> (k, v)) (int_of_string_opt v)
       | _ -> None)
    (String.split_on_char '\n' s)

(* Run [f] in a forked child and return what it printed to the pipe. *)
let in_child f =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let out = try f () with e -> "error\t" ^ Printexc.to_string e ^ "\n" in
    let oc = Unix.out_channel_of_descr wr in
    output_string oc out;
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let s = In_channel.input_all ic in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    s

(* Words allocated and major collections come from the runtime, not from
   a layer: they move by whole runtime chunks (about 1.1e5 words) with
   the GC's pacing, which differs between two processes of one seed.
   They are reported from one run and left out of the exact comparison. *)
let gc_measure name =
  name = "gc.major_collections" || Filename.check_suffix name ".alloc_words"

(* The probe runs twice, in two processes forked from the same set-up
   state: two traced runs of one seed.  Their counts must be identical;
   on a mismatch the first differing count is named. *)
let probe_counts probe =
  let run () =
    Gc.full_major ();
    let ctx = new_ctx () in
    let g0 = (Gc.quick_stat ()).Gc.major_collections in
    probe ctx;
    count ctx "gc.major_collections" ((Gc.quick_stat ()).Gc.major_collections - g0);
    serialize (List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) ctx.counts []))
  in
  let a = deserialize (in_child run) in
  let b = deserialize (in_child run) in
  let exact = List.filter (fun (k, _) -> not (gc_measure k)) in
  ignore
    (attempt "count determinism" (fun () ->
         let rec first = function
           | [], [] -> Ok ()
           | (k, x) :: xs, (k', y) :: ys when k = k' ->
             if x = y then first (xs, ys)
             else Error (Printf.sprintf "first differing count: %s, %d vs %d" k x y)
           | (k, _) :: _, _ | [], (k, _) :: _ ->
             Error (Printf.sprintf "first differing count: %s, present in one run only" k)
         in
         first (exact a, exact b)));
  a

let write_trace ~out ~workload ~seed tel =
  let path = Filename.concat out (Printf.sprintf "%s-s%d.trace.json" workload seed) in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  Telemetry.Export.write_chrome tel path;
  ignore
    (attempt "chrome trace" (fun () ->
         match Tracejson.summarize ~name:path (In_channel.with_open_bin path In_channel.input_all) with
         | Ok summary -> prerr_string summary; Ok ()
         | Error e -> Error e));
  Printf.printf "trace written to %s\n" path

(* A traced run does fixed work: the first [trace_rounds] rounds of the
   untraced run's requests or phases, whatever the host's speed. *)
let trace_rounds = 3

let trace_batch ~seed ~seconds ~out =
  let b, _ = setup_batch ~seed ~seconds in
  let probe ctx =
    Array.iteri
      (fun k i -> if k < probe_requests then traced_request ctx ~rid:(string_of_int k) i)
      b.pool
  in
  let counts = probe_counts probe in
  let ctx = new_ctx () in
  let n = min (Array.length b.pool) (trace_rounds * b.round) in
  for k = 0 to n - 1 do
    traced_request ctx ~rid:(string_of_int k) b.pool.(k)
  done;
  write_trace ~out ~workload:"batch" ~seed ctx.tel;
  layer_metrics ~serve:false ~rids:(List.init n string_of_int) ctx.tel
  @ [ { name = "serve.hit_p50_s"; value = 0.; unit = "s" };
      { name = "serve.delta_p50_s"; value = 0.; unit = "s" };
      { name = "serve.miss_p50_s"; value = 0.; unit = "s" } ]
  @ count_metrics counts

let trace_serve ~seed ~seconds ~out =
  let (s, server), _ = setup_serve ~seed ~seconds in
  let new_mirror () =
    { m_db = Database.empty; m_engine = None; m_session = Circuit.Session.create ();
      pending = [] }
  in
  (* one phase of frames; returns (request id, cache outcome of a read) *)
  let run_phase ctx m ~n reqs =
    List.map
      (fun req ->
         incr n;
         let rid = string_of_int !n in
         let before = alloc_total ctx in
         let resp, r, replayed, frame_words = traced_frame ctx m ~rid ~server req in
         (* the server's own words: the frame's minus the replayed layers' *)
         count ctx "server.self.alloc_words"
           (max 0 (int_of_float frame_words - (alloc_total ctx - before)));
         ignore
           (attempt ("traced frame " ^ rid) (fun () ->
                if not r.ok then Error ("error frame: " ^ resp)
                else
                  match replayed with
                  | Some values when strings values <> r.rvalues ->
                    Error "replay differs from the served answer"
                  | _ -> Ok ()));
         match req.op with
         | Read _ -> count ctx "server.evals" 1; (rid, Some r.cache)
         | Load _ | Write _ -> (rid, None))
      reqs
  in
  let probe ctx =
    let before = [ Server.cache_hits server; Server.cache_evictions server;
                   Server.delta_updates server ] in
    ignore (run_phase ctx (new_mirror ()) ~n:(ref 0) s.phases.(0));
    List.iter2
      (fun name (v0, v1) -> count ctx name (v1 - v0))
      [ "server.cache_hits"; "server.cache_evictions"; "server.delta_updates" ]
      (List.combine before
         [ Server.cache_hits server; Server.cache_evictions server;
           Server.delta_updates server ])
  in
  let counts = probe_counts probe in
  let ctx = new_ctx () and m = new_mirror () and n = ref 0 in
  let frames = ref [] in
  for phase = 0 to min (Array.length s.phases) (trace_rounds * s.round) - 1 do
    frames := List.rev_append (run_phase ctx m ~n s.phases.(phase)) !frames
  done;
  write_trace ~out ~workload:"serve-session" ~seed ctx.tel;
  let st = self_times ctx.tel in
  let outcome k =
    median
      (List.filter_map
         (fun (rid, c) -> if c = Some k then Hashtbl.find_opt st (rid, "request") else None)
         !frames)
  in
  layer_metrics ~serve:true ~rids:(List.rev_map fst !frames) ctx.tel
  @ [ { name = "serve.hit_p50_s"; value = outcome "hit"; unit = "s" };
      { name = "serve.delta_p50_s"; value = outcome "delta"; unit = "s" };
      { name = "serve.miss_p50_s"; value = outcome "miss"; unit = "s" } ]
  @ count_metrics counts

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline
    "usage: svcbench --workload (batch|serve-session) \
     --seed N --seconds S --trace 0|1 [--out DIR]";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1)
  and out = ref ".bench_out" in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest ->
      (match int_of_string_opt n with Some n when n >= 0 -> seed := n | _ -> usage ());
      parse rest
    | "--seconds" :: x :: rest ->
      (match float_of_string_opt x with Some x when x > 0. -> seconds := x | _ -> usage ());
      parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := int_of_string t; parse rest
    | "--out" :: d :: rest -> out := d; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !seed < 0 || !seconds <= 0. || !trace < 0 then usage ();
  let seed = !seed and seconds = !seconds and out = !out in
  let metrics =
    match !workload, !trace with
    | "batch", 0 -> run_batch ~seed ~seconds
    | "batch", _ -> trace_batch ~seed ~seconds ~out
    | "serve-session", 0 -> run_serve ~seed ~seconds
    | "serve-session", _ -> trace_serve ~seed ~seconds ~out
    | _ -> usage ()
  in
  List.iter (fun (m : metric) -> Printf.printf "  %-32s %.6g %s\n" m.name m.value m.unit) metrics;
  print_endline
    (result_line ~correct:(tally.failed = 0) ~attempted:tally.attempted
       ~failed:tally.failed metrics)
