(* Lockdown of the serving layer (PR 9): the delta-update differential
   identity, the frame codec, and the protocol's error discipline.

   The load-bearing property is the differential identity behind
   [Engine.update] — an engine chained through a random sequence of
   insert/delete deltas answers exactly like a cold [Engine.create] on
   the final database, for every exact backend and job count, and for
   the seeded sampler, whose run depends only on (lineage, universe,
   config).
   Random sequences over the registry families are backed by an
   exhaustive sweep of every single-fact change against every
   partitioned database of a small universe, in the 3^|U| style of
   test_exhaustive.ml.

   The protocol side never trusts its input: every malformed frame,
   truncated prefix, oversized payload or bad request must produce a
   structured error frame, never an exception, and must leave the
   server able to answer the next valid request correctly — pinned by
   unit cases for each error class and a byte-mangling fuzzer. *)

let values_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (f, v) (g, w) -> Fact.equal f g && Rational.equal v w)
       a b

(* ------------------------------------------------------------------ *)
(* Delta-update differential suite                                     *)
(* ------------------------------------------------------------------ *)

let diff_families = [ "star"; "bipartite"; "cqneg"; "const-svc" ]

(* One random single-fact change against [db]: an insert, into a random
   part, of a [pool] fact [db] lacks, or a delete of a present fact;
   [None] when neither exists. *)
let random_change r ~pool db =
  let present = Fact.Set.elements (Database.all db) in
  let absent = List.filter (fun f -> not (Database.mem f db)) pool in
  let pick_insert () =
    let f = Workload.pick r absent in
    let part = if Workload.int r 2 = 0 then `Endo else `Exo in
    `Insert (part, f)
  in
  let pick_delete () = `Delete (Workload.pick r present) in
  if present = [] && absent = [] then None
  else if present = [] then Some (pick_insert ())
  else if absent = [] then Some (pick_delete ())
  else if Workload.int r 2 = 0 then Some (pick_insert ())
  else Some (pick_delete ())

(* One random episode: draw a family instance, then [steps] random
   single-fact changes (inserts from a larger sibling instance of the
   same family, deletes of present facts), chaining one engine through
   [Engine.update] while checking it against a cold engine on the
   current database after every step; finally the first engine, rebuilt
   in one step over the last database (the server's catch-up), must
   answer like a cold engine too. *)
let differential_episode ~backend ~jobs ~steps seed =
  let r = Workload.rng seed in
  let family = Workload.pick r diff_families in
  let size = 2 + Workload.int r 2 in
  let case = Workload.generate ~family ~seed:(Workload.int r 100) ~size in
  let donor =
    Workload.generate ~family ~seed:(1 + Workload.int r 100) ~size:(size + 2)
  in
  let pool = Fact.Set.elements (Database.all donor.Workload.db) in
  let first = Engine.create ~backend ~jobs case.Workload.query case.Workload.db in
  let engine = ref first in
  let db = ref case.Workload.db in
  let ok = ref true in
  for _ = 1 to steps do
    match random_change r ~pool !db with
    | None -> ()
    | Some change ->
      db := Engine.apply_change !db change;
      engine := Engine.update !engine change;
      let cold = Engine.create ~backend ~jobs case.Workload.query !db in
      if not (values_equal (Engine.svc_all !engine) (Engine.svc_all cold))
      then ok := false
  done;
  let cold = Engine.create ~backend ~jobs case.Workload.query !db in
  !ok
  && values_equal (Engine.svc_all (Engine.rebuild first !db)) (Engine.svc_all cold)

let diff_test name ~backend ~jobs =
  Test_util.qcheck ~count:300
    (Printf.sprintf "delta chain = cold recompute (%s)" name)
    Gen.seed_gen
    (differential_episode ~backend ~jobs ~steps:3)

(* Exhaustive small-universe sweep: every partitioned database over a
   3-fact universe x every applicable single-fact change x every
   backend.  3^3 databases, ~5 changes each — small enough to cover
   completely, sharp enough to catch any reuse unsoundness the random
   episodes might miss. *)
let test_exhaustive_single_deltas () =
  let q = Query_parse.parse "R(?x), S(?x,?y), T(?y)" in
  let universe =
    [ Fact.make "R" [ "1" ]; Fact.make "S" [ "1"; "2" ]; Fact.make "T" [ "2" ] ]
  in
  let backends =
    [ ("conditioning", `Conditioning); ("circuit", `Circuit);
      ("sample", `Sample Sample.default) ]
  in
  let cases = ref 0 in
  Gen.iter_databases universe (fun db ->
      let changes =
        List.concat_map
          (fun f ->
             if Database.mem f db then [ `Delete f ]
             else [ `Insert (`Endo, f); `Insert (`Exo, f) ])
          universe
      in
      List.iter
        (fun change ->
           let db' = Engine.apply_change db change in
           List.iter
             (fun (name, backend) ->
                incr cases;
                let updated =
                  Engine.update (Engine.create ~backend q db) change
                in
                let cold = Engine.create ~backend q db' in
                if
                  not
                    (values_equal (Engine.svc_all updated)
                       (Engine.svc_all cold))
                then
                  Alcotest.failf "update <> cold recompute (%s backend)" name)
             backends)
        changes);
  Alcotest.(check bool) "swept some cases" true (!cases > 100)

(* The memo misses [svc_all] makes on a conditioning engine. *)
let svc_all_misses e =
  let misses () =
    match (Engine.stats e).Stats.backend with
    | Stats.Conditioning c -> c.cache_misses
    | Stats.Circuit _ | Stats.Sample _ -> Alcotest.fail "not conditioning"
  in
  let before = misses () in
  ignore (Engine.svc_all e);
  misses () - before

(* What a rebuild carries, over every registry family at seeds 1-3 and
   sizes 2-5, each instance through a random chain of one to four writes
   (inserts from the same seed's size + 2 instance).  Every rebuilt
   [`Auto] and [`Circuit] engine that has a plan has the one
   [Plan.analyze] derives afresh.  A rebuilt [`Conditioning] engine's
   [svc_all], against the memo the chain carried, misses no more often
   than a cold engine's on the same database, and on some instance
   strictly less often: that part fails if a rebuild drops the memo. *)
let rebuild_carries seed =
  let r = Workload.rng seed in
  let fewer = ref false in
  let fresh_plan e =
    match Engine.plan e with
    | None -> true
    | Some p -> Plan.to_json p = Plan.to_json (Plan.analyze (Engine.lineage e))
  in
  let instance family seed size =
    let case = Workload.generate ~family ~seed ~size in
    let q = case.Workload.query in
    let donor = Workload.generate ~family ~seed ~size:(size + 2) in
    let pool = Fact.Set.elements (Database.all donor.Workload.db) in
    let rec chain k db planned counted =
      k = 0
      ||
      match random_change r ~pool db with
      | None -> true
      | Some change ->
        let db = Engine.apply_change db change in
        let planned = List.map (fun e -> Engine.update e change) planned in
        let counted = Engine.update counted change in
        let rebuilt = svc_all_misses counted in
        let cold = svc_all_misses (Engine.create ~backend:`Conditioning q db) in
        if rebuilt < cold then fewer := true;
        List.for_all fresh_plan planned
        && rebuilt <= cold
        && chain (k - 1) db planned counted
    in
    let db = case.Workload.db in
    let counted = Engine.create ~backend:`Conditioning q db in
    ignore (Engine.svc_all counted);
    chain (1 + Workload.int r 4) db
      (List.map (fun backend -> Engine.create ~backend q db) [ `Auto; `Circuit ])
      counted
  in
  List.for_all
    (fun f ->
       List.for_all
         (fun seed ->
            List.for_all (instance f.Workload.Family.name seed) [ 2; 3; 4; 5 ])
         [ 1; 2; 3 ])
    (Workload.families ())
  && !fewer

(* The circuit formula-cache misses [svc_all] has made on [e]'s tracer
   so far, counting [e]'s creation. *)
let circuit_misses e =
  ignore (Engine.svc_all e);
  match (Engine.stats e).Stats.backend with
  | Stats.Circuit c -> c.cache_misses
  | Stats.Conditioning _ | Stats.Sample _ -> Alcotest.fail "not a circuit"

(* A catch-up read right after a miss compiles into the session the miss
   engine opened, so it finds the miss's sub-circuits in the formula
   cache: on serve-sized grids (bipartite size 6, seeds 1-3, one delete
   of each of the first 12 facts from a fresh miss engine) the rebuild
   misses less often than a cold engine on the same database on at
   least 9 reads in 10, and answers the same values.  The rebuilt engine
   records into its predecessor's tracer, so its own misses are its
   counter minus the miss engine's. *)
let test_first_rebuild_reuses_cache () =
  let reads = ref 0 and fewer = ref 0 in
  List.iter
    (fun seed ->
       let case = Workload.generate ~family:"bipartite" ~seed ~size:6 in
       let q = case.Workload.query and db = case.Workload.db in
       List.iteri
         (fun i f ->
            if i < 12 then begin
              let miss = Engine.create q db in
              let before = circuit_misses miss in
              let rebuilt = Engine.update miss (`Delete f) in
              let rebuild_misses = circuit_misses rebuilt - before in
              let cold = Engine.create q (Database.remove f db) in
              incr reads;
              if rebuild_misses < circuit_misses cold then incr fewer;
              Alcotest.(check bool)
                (Printf.sprintf "seed %d without %s: rebuild = cold" seed
                   (Fact.to_string f))
                true
                (values_equal (Engine.svc_all rebuilt) (Engine.svc_all cold))
            end)
         (Database.endo_list db))
    [ 1; 2; 3 ];
  if 10 * !fewer < 9 * !reads then
    Alcotest.failf "the rebuild missed less than cold on %d of %d reads"
      !fewer !reads

(* Chained updates keep the original engine usable: answers on the old
   engine still describe the old database. *)
let test_update_persistence () =
  let case = Workload.generate ~family:"star" ~seed:0 ~size:4 in
  let e0 = Engine.create case.Workload.query case.Workload.db in
  let before = Engine.svc_all e0 in
  let victim = List.hd (Database.endo_list case.Workload.db) in
  let _e1 = Engine.update e0 (`Delete victim) in
  Alcotest.(check bool) "old engine unchanged" true
    (values_equal before (Engine.svc_all e0))

let test_update_validation () =
  let case = Workload.generate ~family:"star" ~seed:0 ~size:3 in
  let e = Engine.create case.Workload.query case.Workload.db in
  let present = List.hd (Database.endo_list case.Workload.db) in
  let absent = Fact.make "R" [ "no-such-const" ] in
  Alcotest.check_raises "insert present"
    (Invalid_argument
       (Printf.sprintf "fact %s is already present" (Fact.to_string present)))
    (fun () -> ignore (Engine.update e (`Insert (`Endo, present))));
  Alcotest.check_raises "delete absent"
    (Invalid_argument "fact R(no-such-const) is not present")
    (fun () -> ignore (Engine.update e (`Delete absent)))

(* ------------------------------------------------------------------ *)
(* Frame codec                                                         *)
(* ------------------------------------------------------------------ *)

let read_all s =
  let src = Frame.source_of_string s in
  let rec go acc =
    match Frame.read src with
    | Ok None -> List.rev acc
    | Ok (Some p) -> go (p :: acc)
    | Error e -> Alcotest.failf "frame error: %s" (Frame.error_message e)
  in
  go []

let payload_gen =
  (* arbitrary bytes, newlines and quotes included: framing must not
     care what the payload looks like *)
  QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (0 -- 64))

let frame_roundtrip =
  Test_util.qcheck ~count:300 "frame encode/read roundtrip"
    QCheck2.Gen.(list_size (0 -- 5) payload_gen)
    (fun payloads ->
       let wire = String.concat "" (List.map Frame.encode payloads) in
       List.for_all2 String.equal payloads (read_all wire))

let frame_err = function
  | Ok _ -> Alcotest.fail "expected a frame error"
  | Error e -> e

let test_frame_negative () =
  let read s = Frame.read (Frame.source_of_string s) in
  Alcotest.(check bool) "clean eof" true (read "" = Ok None);
  (match frame_err (read "abc\n") with
   | Frame.Malformed _ -> ()
   | e -> Alcotest.failf "want Malformed, got %s" (Frame.error_message e));
  (match frame_err (read "5\nab") with
   | Frame.Truncated _ -> ()
   | e -> Alcotest.failf "want Truncated, got %s" (Frame.error_message e));
  (match frame_err (read "2\nabX") with
   | Frame.Malformed _ -> ()
   | e -> Alcotest.failf "want Malformed, got %s" (Frame.error_message e));
  (match frame_err (read "123456789\nx") with
   | Frame.Malformed _ -> ()
   | e -> Alcotest.failf "want Malformed, got %s" (Frame.error_message e));
  (match frame_err (read "42") with
   | Frame.Truncated _ -> ()
   | e -> Alcotest.failf "want Truncated, got %s" (Frame.error_message e));
  (* oversized: recoverable, and the next frame still reads *)
  let src =
    Frame.source_of_string (Frame.encode "0123456789" ^ Frame.encode "ok")
  in
  (match Frame.read ~max_len:4 src with
   | Error (Frame.Oversized 10) -> ()
   | Error e -> Alcotest.failf "want Oversized 10, got %s" (Frame.error_message e)
   | Ok _ -> Alcotest.fail "expected Oversized");
  Alcotest.(check bool) "framing survives oversized" true
    (Frame.read ~max_len:4 src = Ok (Some "ok"))

let frame_read_total =
  (* [read] is total on arbitrary bytes: an error or a payload, never an
     exception, and the loop always terminates *)
  Test_util.qcheck ~count:300 "frame read is total on garbage"
    QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (0 -- 80))
    (fun s ->
       let src = Frame.source_of_string s in
       let rec go () =
         match Frame.read ~max_len:32 src with
         | Ok None -> true
         | Ok (Some _) -> go ()
         | Error e -> if Frame.recoverable e then go () else true
       in
       go ())

(* ------------------------------------------------------------------ *)
(* Protocol: structured errors, cache discipline                       *)
(* ------------------------------------------------------------------ *)

let db_text = "endo R(1)\nendo S(1,2)\nendo T(2)\nexo T(3)\n"
let q_src = "R(?x), S(?x,?y), T(?y)"

let mk_server ?capacity ?max_frame () =
  let s = Server.create ?capacity ?max_frame () in
  Server.load_db s ~name:"d" ~text:db_text;
  s

let session reqs = String.concat "" (List.map Frame.encode reqs)

let jfield payload k =
  match Tracejson.parse payload with
  | Ok (Tracejson.Obj kvs) -> List.assoc_opt k kvs
  | _ -> Alcotest.failf "response is not a JSON object: %s" payload

let jok payload =
  match jfield payload "ok" with Some (Tracejson.Bool b) -> b | _ -> false

let jstr payload k =
  match jfield payload k with
  | Some (Tracejson.Str s) -> s
  | _ -> Alcotest.failf "missing string field %S in %s" k payload

let jvalues payload =
  match jfield payload "values" with
  | Some (Tracejson.Arr vs) ->
    List.map
      (fun v ->
         match v with
         | Tracejson.Obj kvs ->
           let str k =
             match List.assoc_opt k kvs with
             | Some (Tracejson.Str s) -> s
             | _ -> Alcotest.failf "values entry misses %S" k
           in
           (Db_text.parse_fact (str "fact"), Rational.of_string (str "value"))
         | _ -> Alcotest.fail "values entry is not an object")
      vs
  | _ -> Alcotest.failf "missing values array in %s" payload

let eval_req ?(db = "d") ?(query = q_src) ?backend () =
  let b = match backend with None -> "" | Some b -> Printf.sprintf ",\"backend\":%S" b in
  Printf.sprintf "{\"op\":\"eval\",\"db\":%S,\"query\":%S%s}" db query b

let expected_values db =
  Engine.svc_all (Engine.create (Query_parse.parse q_src) db)

let test_protocol_errors () =
  let s = mk_server () in
  let reqs =
    [
      "{\"op\":";  (* bad json *)
      "{\"op\":\"frobnicate\"}";
      "{\"db\":\"d\"}";  (* missing op *)
      eval_req ~db:"nope" ();
      eval_req ~backend:"quantum" ();
      "{\"op\":\"insert\",\"db\":\"d\",\"fact\":\"R(1)\"}";  (* present *)
      "{\"op\":\"delete\",\"db\":\"d\",\"fact\":\"R(9)\"}";  (* absent *)
      "{\"op\":\"eval\",\"db\":\"d\",\"query\":\"" ^ q_src
      ^ "\",\"facts\":[\"T(3)\"]}";  (* exogenous: not an answer row *)
      "{\"op\":\"eval\",\"db\":\"d\"}";  (* missing query *)
      eval_req ();  (* and a valid one still works *)
    ]
  in
  let out = read_all (Server.serve_string s (session reqs)) in
  Alcotest.(check int) "one response per request" (List.length reqs)
    (List.length out);
  let codes =
    List.map (fun p -> if jok p then "ok" else jstr p "error") out
  in
  Alcotest.(check (list string)) "error codes"
    [
      "bad_json"; "unknown_op"; "bad_request"; "unknown_db"; "bad_request";
      "bad_request"; "bad_request"; "bad_request"; "bad_request"; "ok";
    ]
    codes;
  let final = List.nth out (List.length out - 1) in
  Alcotest.(check bool) "valid eval correct after errors" true
    (values_equal (jvalues final) (expected_values (Db_text.parse db_text)))

let test_frame_error_fatal () =
  let s = mk_server () in
  let wire =
    Frame.encode "{\"op\":\"ping\"}" ^ "not a frame\n"
    ^ Frame.encode "{\"op\":\"ping\"}"
  in
  let out = read_all (Server.serve_string s wire) in
  Alcotest.(check int) "pong + frame error, then stop" 2 (List.length out);
  Alcotest.(check bool) "pong ok" true (jok (List.nth out 0));
  Alcotest.(check string) "frame error code" "frame"
    (jstr (List.nth out 1) "error")

let test_oversized_recoverable () =
  let s = mk_server ~max_frame:32 () in
  let wire =
    Frame.encode (String.make 64 'x') ^ Frame.encode "{\"op\":\"ping\"}"
  in
  let out = read_all (Server.serve_string s wire) in
  Alcotest.(check int) "error + pong" 2 (List.length out);
  Alcotest.(check string) "oversized reported" "frame"
    (jstr (List.nth out 0) "error");
  Alcotest.(check bool) "session continues" true (jok (List.nth out 1))

(* A bad server setting is refused at creation, not blamed on the first
   request that reaches the engine. *)
let test_create_guards () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Server.create: capacity must be >= 1") (fun () ->
        ignore (Server.create ~capacity:0 ()));
  Alcotest.check_raises "negative jobs"
    (Invalid_argument "Server.create: jobs must be >= 0") (fun () ->
        ignore (Server.create ~jobs:(-1) ()));
  let s = Server.create ~jobs:0 () in
  Server.load_db s ~name:"d" ~text:db_text;
  let out = read_all (Server.serve_string s (session [ eval_req () ])) in
  Alcotest.(check bool) "jobs 0 serves" true (jok (List.hd out))

(* Two sample seeds are two answers: each keys its own cache entry, and
   asking the first seed again hits its entry. *)
let test_sample_seed_key () =
  let s = mk_server () in
  let req seed =
    Printf.sprintf
      "{\"op\":\"eval\",\"db\":\"d\",\"query\":%S,\"backend\":\"sample\",\"seed\":%d}"
      q_src seed
  in
  let out = read_all (Server.serve_string s (session [ req 3; req 4; req 3 ])) in
  Alcotest.(check (list string)) "miss, miss, hit" [ "miss"; "miss"; "hit" ]
    (List.map (fun p -> jstr p "cache") out);
  let direct seed =
    Engine.svc_all
      (Engine.create
         ~backend:(`Sample (Sample.config ~seed ()))
         (Query_parse.parse q_src) (Db_text.parse db_text))
  in
  Alcotest.(check bool) "the seeds' answers differ" false
    (values_equal (direct 3) (direct 4));
  List.iter2
    (fun seed p ->
       Alcotest.(check bool)
         (Printf.sprintf "seed %d answers its own estimates" seed)
         true
         (values_equal (jvalues p) (direct seed)))
    [ 3; 4; 3 ] out

let test_truncated_eof () =
  let s = mk_server () in
  let out = read_all (Server.serve_string s "10\n{\"op\"") in
  Alcotest.(check int) "one error frame" 1 (List.length out);
  Alcotest.(check string) "frame error code" "frame"
    (jstr (List.hd out) "error")

let test_cache_lru () =
  let s = mk_server ~capacity:2 () in
  let q2 = "R(?x), S(?x,?y)" and q3 = "R(?x)" in
  let reqs =
    [
      eval_req (); eval_req ();  (* miss, hit *)
      eval_req ~query:q2 ();  (* miss: {q1,q2} *)
      eval_req ~query:q3 ();  (* miss, evicts q1: {q2,q3} *)
      eval_req ();  (* miss again, evicts q2 *)
    ]
  in
  let out = read_all (Server.serve_string s (session reqs)) in
  let statuses = List.map (fun p -> jstr p "cache") out in
  Alcotest.(check (list string)) "hit/miss sequence"
    [ "miss"; "hit"; "miss"; "miss"; "miss" ] statuses;
  Alcotest.(check int) "hits" 1 (Server.cache_hits s);
  Alcotest.(check int) "misses" 4 (Server.cache_misses s);
  Alcotest.(check int) "evictions" 2 (Server.cache_evictions s);
  Alcotest.(check int) "bounded" 2 (Server.cached_engines s)

let test_delta_path () =
  let s = mk_server () in
  let reqs =
    [
      eval_req ();
      "{\"op\":\"insert\",\"db\":\"d\",\"fact\":\"T(4)\"}";
      "{\"op\":\"insert\",\"db\":\"d\",\"fact\":\"S(1,4)\",\"kind\":\"exo\"}";
      eval_req ();
      "{\"op\":\"delete\",\"db\":\"d\",\"fact\":\"T(4)\"}";
      "{\"op\":\"delete\",\"db\":\"d\",\"fact\":\"S(1,4)\"}";
      eval_req ();
    ]
  in
  let out = read_all (Server.serve_string s (session reqs)) in
  let e0 = List.nth out 0 and e1 = List.nth out 3 and e2 = List.nth out 6 in
  Alcotest.(check string) "first is a miss" "miss" (jstr e0 "cache");
  Alcotest.(check string) "after inserts: delta" "delta" (jstr e1 "cache");
  Alcotest.(check string) "after deletes: delta" "delta" (jstr e2 "cache");
  Alcotest.(check int) "one delta update per catch-up" 2 (Server.delta_updates s);
  Alcotest.(check int) "no recompile" 1 (Server.cache_misses s);
  (* the insert/delete pair cancels: answers return to the original *)
  Alcotest.(check bool) "roundtrip values" true
    (values_equal (jvalues e0) (jvalues e2));
  let base = Db_text.parse db_text in
  let mid =
    Database.add_exo (Db_text.parse_fact "S(1,4)")
      (Database.add_endo (Db_text.parse_fact "T(4)") base)
  in
  Alcotest.(check bool) "delta values = cold values" true
    (values_equal (jvalues e1) (expected_values mid))

(* However many writes an entry missed, its next eval is one rebuild
   over the current database: 70 writes (endogenous and exogenous
   inserts and deletes) between two evals make one delta update. *)
let test_many_writes_one_rebuild () =
  let s = mk_server () in
  let kind c = if c mod 2 = 0 then "endo" else "exo" in
  let insert f c =
    ( Printf.sprintf "{\"op\":\"insert\",\"db\":\"d\",\"fact\":%S,\"kind\":%S}"
        f (kind c),
      fun db ->
        let f = Db_text.parse_fact f in
        if c mod 2 = 0 then Database.add_endo f db else Database.add_exo f db )
  and delete f =
    ( Printf.sprintf "{\"op\":\"delete\",\"db\":\"d\",\"fact\":%S}" f,
      Database.remove (Db_text.parse_fact f) )
  in
  let t c = Printf.sprintf "T(%d)" c and edge c = Printf.sprintf "S(1,%d)" c in
  let writes =
    List.init 35 (fun i -> insert (t (i + 4)) (i + 4))
    @ List.init 30 (fun i -> delete (t (i + 4)))
    @ List.init 5 (fun i -> insert (edge (i + 34)) (i + 34))
  in
  Alcotest.(check int) "70 writes" 70 (List.length writes);
  let reqs = (eval_req () :: List.map fst writes) @ [ eval_req () ] in
  let out = read_all (Server.serve_string s (session reqs)) in
  Alcotest.(check bool) "every request answered ok" true (List.for_all jok out);
  let last = List.nth out 71 in
  Alcotest.(check string) "70 writes behind: delta" "delta" (jstr last "cache");
  let final =
    List.fold_left (fun db (_, apply) -> apply db) (Db_text.parse db_text) writes
  in
  Alcotest.(check bool) "delta values = cold values" true
    (values_equal (jvalues last) (expected_values final));
  Alcotest.(check int) "one delta update" 1 (Server.delta_updates s);
  Alcotest.(check int) "one miss" 1 (Server.cache_misses s)

let test_load_db_invalidates () =
  let s = mk_server () in
  let reqs =
    [
      eval_req ();
      Printf.sprintf "{\"op\":\"load_db\",\"name\":\"d\",\"text\":%S}"
        "endo R(1)\nendo S(1,2)\nendo T(2)\n";
      eval_req ();
    ]
  in
  let out = read_all (Server.serve_string s (session reqs)) in
  Alcotest.(check string) "reload forces a cold recompile" "miss"
    (jstr (List.nth out 2) "cache");
  Alcotest.(check bool) "values describe the new database" true
    (values_equal
       (jvalues (List.nth out 2))
       (expected_values (Db_text.parse "endo R(1)\nendo S(1,2)\nendo T(2)\n")))

let test_shutdown_stops () =
  let s = mk_server () in
  let wire = session [ "{\"op\":\"shutdown\"}"; "{\"op\":\"ping\"}" ] in
  let out = read_all (Server.serve_string s wire) in
  Alcotest.(check int) "nothing served past shutdown" 1 (List.length out);
  Alcotest.(check string) "ack" "shutdown" (jstr (List.hd out) "op")

(* ------------------------------------------------------------------ *)
(* Byte-mangling fuzz                                                  *)
(* ------------------------------------------------------------------ *)

let mangle m ~of_:base =
  match m with
  | `Truncate pos -> String.sub base 0 (min pos (String.length base))
  | `Flip (pos, byte) ->
    String.mapi (fun i c -> if i = pos mod String.length base then byte else c)
      base

let mangle_gen base =
  QCheck2.Gen.(
    let pos = 0 -- (String.length base - 1) in
    oneof
      [
        map (fun p -> `Truncate p) pos;
        map2 (fun p b -> `Flip (p, b)) pos (map Char.chr (int_range 0 255));
      ])

let readonly_session =
  session
    [
      "{\"op\":\"ping\",\"id\":1}";
      eval_req ();
      eval_req ~backend:"circuit" ();
      "{\"op\":\"stats\"}";
    ]

(* Mangling a read-only session cannot touch db state: the server must
   emit only well-formed frames, never raise, and a pristine follow-up
   eval answers exactly what a cold engine does. *)
let fuzz_mangled_readonly =
  Test_util.qcheck ~count:300 "mangled read-only sessions stay exact"
    (mangle_gen readonly_session)
    (fun m ->
       let s = mk_server () in
       let out = Server.serve_string s (mangle m ~of_:readonly_session) in
       let _ = read_all out in
       match read_all (Server.serve_string s (session [ eval_req () ])) with
       | [ resp ] ->
         jok resp
         && values_equal (jvalues resp)
              (expected_values (Db_text.parse db_text))
       | _ -> false)

let mutating_session =
  session
    [
      eval_req ();
      "{\"op\":\"insert\",\"db\":\"d\",\"fact\":\"T(4)\"}";
      eval_req ~backend:"circuit" ();
      "{\"op\":\"delete\",\"db\":\"d\",\"fact\":\"T(4)\"}";
      "{\"op\":\"stats\"}";
    ]

(* A mangled mutating session may leave db "d" in any prefix state; a
   reload pins it back down, after which cached engines must miss and
   answer exactly — garbage never wedges the cache. *)
let fuzz_mangled_mutating =
  Test_util.qcheck ~count:300 "mangled mutating sessions never wedge the cache"
    (mangle_gen mutating_session)
    (fun m ->
       let s = mk_server () in
       let out = Server.serve_string s (mangle m ~of_:mutating_session) in
       let _ = read_all out in
       let follow =
         session
           [
             Printf.sprintf "{\"op\":\"load_db\",\"name\":\"d\",\"text\":%S}"
               db_text;
             eval_req ();
           ]
       in
       match read_all (Server.serve_string s follow) with
       | [ loaded; resp ] ->
         jok loaded && jok resp
         && values_equal (jvalues resp)
              (expected_values (Db_text.parse db_text))
       | _ -> false)

let suite =
  [
    diff_test "conditioning, jobs 1" ~backend:`Conditioning ~jobs:1;
    diff_test "conditioning, jobs 4" ~backend:`Conditioning ~jobs:4;
    diff_test "circuit" ~backend:`Circuit ~jobs:1;
    diff_test "sample" ~backend:(`Sample Sample.default) ~jobs:1;
    Alcotest.test_case "exhaustive single-delta sweep" `Slow
      test_exhaustive_single_deltas;
    Alcotest.test_case "update keeps the old engine intact" `Quick
      test_update_persistence;
    Alcotest.test_case "update validates presence" `Quick
      test_update_validation;
    frame_roundtrip;
    Alcotest.test_case "frame negative cases" `Quick test_frame_negative;
    frame_read_total;
    Alcotest.test_case "protocol errors are structured" `Quick
      test_protocol_errors;
    Alcotest.test_case "malformed frame is fatal" `Quick
      test_frame_error_fatal;
    Alcotest.test_case "oversized frame is recoverable" `Quick
      test_oversized_recoverable;
    Alcotest.test_case "truncated frame reports eof" `Quick
      test_truncated_eof;
    Alcotest.test_case "lru cache counters" `Quick test_cache_lru;
    Alcotest.test_case "delta update path" `Quick test_delta_path;
    Alcotest.test_case "70 writes, then one rebuild" `Quick
      test_many_writes_one_rebuild;
    Alcotest.test_case "load_db invalidates entries" `Quick
      test_load_db_invalidates;
    Alcotest.test_case "shutdown stops the loop" `Quick test_shutdown_stops;
    fuzz_mangled_readonly;
    fuzz_mangled_mutating;
    Alcotest.test_case "create refuses bad settings" `Quick
      test_create_guards;
    Alcotest.test_case "sample seeds key their own entries" `Quick
      test_sample_seed_key;
    Test_util.qcheck ~count:3 "a rebuild plans afresh and keeps the memo"
      Gen.seed_gen rebuild_carries;
    Alcotest.test_case "the first rebuild reuses its miss's formula cache"
      `Quick test_first_rebuild_reuses_cache;
  ]
