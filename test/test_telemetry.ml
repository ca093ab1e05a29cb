(* Telemetry subsystem suite: fake-clock unit tests, a qcheck law for
   span well-formedness, byte-exact golden exporter output, and
   differential regressions proving telemetry is observationally free —
   telemetry-on runs produce bit-identical Shapley values and the same
   pinned stats JSON shape as telemetry-off runs, for every backend ×
   jobs combination. *)

open Test_util

let qrst = Query_parse.parse "R(?x), S(?x,?y), T(?y)"

let demo_db =
  Database.make
    ~endo:
      [ fact "R" [ "1" ]; fact "S" [ "1"; "2" ]; fact "T" [ "2" ];
        fact "R" [ "3" ]; fact "S" [ "3"; "2" ] ]
    ~exo:[ fact "T" [ "9" ] ]

let values_equal v1 v2 =
  List.length v1 = List.length v2
  && List.for_all2
       (fun (f1, x1) (f2, x2) -> Fact.equal f1 f2 && Rational.equal x1 x2)
       v1 v2

(* ------------------------------------------------------------------ *)
(* Clock                                                               *)
(* ------------------------------------------------------------------ *)

let test_fake_clock () =
  let clock, advance = Telemetry.Clock.fake ~start:10. () in
  Alcotest.(check (float 0.)) "start" 10. (clock ());
  advance 2.5;
  Alcotest.(check (float 0.)) "advanced" 12.5 (clock ());
  advance 0.;
  Alcotest.(check (float 0.)) "zero advance ok" 12.5 (clock ());
  Alcotest.check_raises "negative advance"
    (Invalid_argument "Telemetry.Clock.fake: cannot advance backwards")
    (fun () -> advance (-1.))

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let scripted_tracer () =
  let clock, advance = Telemetry.Clock.fake () in
  let t = Telemetry.create ~clock () in
  Telemetry.span t "engine.eval" (fun () ->
      advance 0.001;
      Telemetry.span t ~attrs:[ ("fact", "a") ] "engine.fact" (fun () ->
          advance 0.002);
      Telemetry.span t "engine.fact" (fun () -> advance 0.001));
  let c = Telemetry.counter t "engine.compilations" in
  Telemetry.Counter.add c 5;
  t

let test_span_nesting () =
  let t = scripted_tracer () in
  let evs = Telemetry.events t in
  Alcotest.(check int) "three events" 3 (List.length evs);
  let by_name n = List.filter (fun e -> e.Telemetry.ev_name = n) evs in
  (match by_name "engine.eval" with
   | [ e ] ->
     Alcotest.(check int) "root depth" 0 e.Telemetry.ev_depth;
     Alcotest.(check (list string)) "root path" [ "engine.eval" ]
       e.Telemetry.ev_path;
     Alcotest.(check (float 1e-9)) "root duration" 0.004 e.Telemetry.ev_dur_s
   | _ -> Alcotest.fail "expected exactly one engine.eval span");
  match by_name "engine.fact" with
  | [ e1; e2 ] ->
    List.iter
      (fun e ->
         Alcotest.(check int) "child depth" 1 e.Telemetry.ev_depth;
         Alcotest.(check (list string)) "child path"
           [ "engine.eval"; "engine.fact" ] e.Telemetry.ev_path)
      [ e1; e2 ];
    Alcotest.(check (list (pair string string))) "attrs kept"
      [ ("fact", "a") ] e1.Telemetry.ev_attrs
  | _ -> Alcotest.fail "expected exactly two engine.fact spans"

let test_exit_mismatch () =
  let t = Telemetry.create ~clock:(fst (Telemetry.Clock.fake ())) () in
  let outer = Telemetry.enter t "outer" in
  let _inner = Telemetry.enter t "inner" in
  (try
     Telemetry.exit t outer;
     Alcotest.fail "exiting a non-innermost span must raise"
   with Invalid_argument _ -> ());
  Alcotest.(check int) "both spans still open" 2 (Telemetry.open_spans t)

let test_exception_closes_span () =
  let clock, advance = Telemetry.Clock.fake () in
  let t = Telemetry.create ~clock () in
  (try
     Telemetry.span t "boom" (fun () ->
         advance 0.003;
         failwith "inner failure")
   with Failure _ -> ());
  Alcotest.(check int) "no span left open" 0 (Telemetry.open_spans t);
  match Telemetry.events t with
  | [ e ] ->
    Alcotest.(check string) "span recorded" "boom" e.Telemetry.ev_name;
    Alcotest.(check (float 1e-9)) "duration up to the raise" 0.003
      e.Telemetry.ev_dur_s
  | evs -> Alcotest.failf "expected one event, got %d" (List.length evs)

let test_disabled_tracer () =
  let t = Telemetry.disabled () in
  Alcotest.(check bool) "disabled" false (Telemetry.enabled t);
  let r = Telemetry.span t "anything" (fun () -> 41 + 1) in
  Alcotest.(check int) "thunk still runs" 42 r;
  Alcotest.(check int) "nothing recorded" 0
    (List.length (Telemetry.events t));
  (* the metrics registry stays fully functional *)
  let c = Telemetry.counter t "c" in
  Telemetry.Counter.incr c;
  Alcotest.(check int) "counter live" 1 (Telemetry.Counter.value c)

let test_fork_join () =
  let clock, advance = Telemetry.Clock.fake () in
  let t = Telemetry.create ~clock () in
  let child = Telemetry.fork t ~track:3 ~name:"worker 2" in
  Telemetry.span child "chunk" (fun () -> advance 0.001);
  Alcotest.(check int) "child events invisible before join" 0
    (List.length (Telemetry.events t));
  Telemetry.join t child;
  (match Telemetry.events t with
   | [ e ] ->
     Alcotest.(check string) "joined span" "chunk" e.Telemetry.ev_name;
     Alcotest.(check int) "on its track" 3 e.Telemetry.ev_track
   | evs -> Alcotest.failf "expected one event, got %d" (List.length evs));
  Alcotest.(check (list (pair int string))) "tracks registered"
    [ (0, "main"); (3, "worker 2") ] (Telemetry.tracks t);
  (* the registry is shared: a child counter is the parent's counter *)
  Telemetry.Counter.incr (Telemetry.counter child "shared");
  Alcotest.(check int) "shared registry" 1
    (Telemetry.Counter.value (Telemetry.counter t "shared"))

let test_registry_kind_mismatch () =
  let t = Telemetry.disabled () in
  ignore (Telemetry.counter t "m");
  try
    ignore (Telemetry.gauge t "m");
    Alcotest.fail "kind mismatch must raise"
  with Invalid_argument _ -> ()

let test_aggregate () =
  let t = scripted_tracer () in
  let agg = Array.to_list (Telemetry.aggregate t) in
  Alcotest.(check (list (triple string int (float 1e-9)))) "rollup"
    [ ("engine.eval", 1, 0.004); ("engine.fact", 2, 0.003) ] agg

(* ------------------------------------------------------------------ *)
(* qcheck: span well-formedness                                        *)
(* ------------------------------------------------------------------ *)

(* A random span program: a forest of nested spans, executed on a fake
   clock.  Whatever the shape, the record must be well-formed: one event
   per span, every event's path ends in its own name and has length
   depth + 1, and a parent's recorded interval contains its children. *)
type span_tree = Node of int * span_tree list

let tree_gen =
  QCheck2.Gen.(
    sized_size (int_bound 5) @@ fix (fun self n ->
        if n = 0 then return []
        else
          list_size (int_bound 3)
            (map (fun (t, cs) -> Node (t, cs))
               (pair (int_bound 3) (self (n / 2))))))

let prop_span_well_formed =
  qcheck ~count:200 "span forest is well-formed" tree_gen (fun forest ->
      let clock, advance = Telemetry.Clock.fake () in
      let t = Telemetry.create ~clock () in
      let total = ref 0 in
      let rec run forest =
        List.iteri
          (fun i (Node (ticks, children)) ->
             incr total;
             Telemetry.span t (Printf.sprintf "s%d" i) (fun () ->
                 advance (0.001 *. float_of_int ticks);
                 run children))
          forest
      in
      run forest;
      let evs = Telemetry.events t in
      List.length evs = !total
      && Telemetry.open_spans t = 0
      && List.for_all
           (fun e ->
              List.length e.Telemetry.ev_path = e.Telemetry.ev_depth + 1
              && List.nth e.Telemetry.ev_path e.Telemetry.ev_depth
                 = e.Telemetry.ev_name
              && e.Telemetry.ev_dur_s >= 0.)
           evs)

(* ------------------------------------------------------------------ *)
(* Golden exporter output (byte-exact, fake clock)                     *)
(* ------------------------------------------------------------------ *)

let golden_chrome =
  "{\"traceEvents\":[\n\
   {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"main\"}},\n\
   {\"name\":\"engine.fact\",\"cat\":\"svc\",\"ph\":\"X\",\"ts\":1000.000,\"dur\":2000.000,\"pid\":1,\"tid\":0,\"args\":{\"fact\":\"a\"}},\n\
   {\"name\":\"engine.fact\",\"cat\":\"svc\",\"ph\":\"X\",\"ts\":3000.000,\"dur\":1000.000,\"pid\":1,\"tid\":0},\n\
   {\"name\":\"engine.eval\",\"cat\":\"svc\",\"ph\":\"X\",\"ts\":0.000,\"dur\":4000.000,\"pid\":1,\"tid\":0},\n\
   {\"name\":\"engine.compilations\",\"ph\":\"C\",\"ts\":4000.000,\"pid\":1,\"tid\":0,\"args\":{\"value\":5}}\n\
   ],\"displayTimeUnit\":\"ms\"}\n"

let test_golden_chrome () =
  Alcotest.(check string) "chrome trace is byte-exact" golden_chrome
    (Telemetry.Export.chrome (scripted_tracer ()))

let test_chrome_round_trip () =
  (* whatever we export must pass our own schema validation *)
  match Tracejson.parse golden_chrome with
  | Error msg -> Alcotest.failf "exporter output failed to parse: %s" msg
  | Ok j ->
    (match Tracejson.validate j with
     | Error msg -> Alcotest.failf "exporter output failed schema: %s" msg
     | Ok evs -> Alcotest.(check int) "all events validated" 5 (List.length evs))

let test_tracejson_malformed () =
  let is_err = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "truncated JSON" true (is_err (Tracejson.parse "{\"a\":"));
  Alcotest.(check bool) "trailing garbage" true (is_err (Tracejson.parse "{} x"));
  Alcotest.(check bool) "bad escape" true (is_err (Tracejson.parse "\"\\q\""));
  let validated text =
    match Tracejson.parse text with
    | Error _ -> Error "parse"
    | Ok j -> Tracejson.validate j
  in
  Alcotest.(check bool) "missing traceEvents" true (is_err (validated "{}"));
  Alcotest.(check bool) "traceEvents not an array" true
    (is_err (validated "{\"traceEvents\":3}"));
  Alcotest.(check bool) "event missing ph" true
    (is_err (validated "{\"traceEvents\":[{\"name\":\"x\"}]}"));
  Alcotest.(check bool) "unknown phase" true
    (is_err
       (validated
          "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"Z\",\"pid\":1,\"tid\":0,\"ts\":0}]}"));
  Alcotest.(check bool) "X event without dur" true
    (is_err
       (validated
          "{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0}]}"))

(* ------------------------------------------------------------------ *)
(* Differential: telemetry is observationally free                     *)
(* ------------------------------------------------------------------ *)

let strip_wallclock text =
  (* compare JSON field-for-field with the span rollup (absent with
     telemetry off) neutralized *)
  List.map
    (fun (k, v) -> if k = "spans" then (k, Tracejson.Null) else (k, v))
    (json_fields text)

let backends_jobs =
  [ (`Conditioning, 1); (`Conditioning, 4); (`Circuit, 1); (`Circuit, 4);
    (`Auto, 1); (`Auto, 4); (`Sample Sample.default, 1);
    (`Sample Sample.default, 4) ]

let test_differential_off_vs_on () =
  List.iter
    (fun (backend, jobs) ->
       let off = Engine.create ~jobs ~backend qrst demo_db in
       let tel = Telemetry.create ~enabled:true () in
       let on = Engine.create ~tel ~jobs ~backend qrst demo_db in
       let label =
         Printf.sprintf "backend=%s jobs=%d"
           (match Engine.backend off with
            | `Conditioning -> "conditioning"
            | `Circuit -> "circuit"
            | `Sample _ -> "sample")
           jobs
       in
       let v_off = Engine.svc_all off and v_on = Engine.svc_all on in
       Alcotest.(check bool)
         (label ^ ": values bit-identical") true (values_equal v_off v_on);
       (* pinned JSON shape, field for field *)
       let j_off = Stats.to_json (Engine.stats off)
       and j_on = Stats.to_json (Engine.stats on) in
       Alcotest.(check (list string))
         (label ^ ": pinned key order")
         (stats_json_keys (Stats.backend_name (Engine.stats off)))
         (json_keys j_off);
       Alcotest.(check (list string))
         (label ^ ": same keys with telemetry on") (json_keys j_off)
         (json_keys j_on);
       Alcotest.(check bool)
         (label ^ ": same values with telemetry on") true
         (strip_wallclock j_off = strip_wallclock j_on))
    backends_jobs

(* One clock: every duration the stats record carries comes from the
   tracer's clock, so a fake clock that never advances pins them all to
   exactly zero — while the spans themselves are still recorded. *)
let test_fake_clock_stats () =
  List.iter
    (fun (backend, jobs) ->
       let clock, _advance = Telemetry.Clock.fake () in
       let tel = Telemetry.create ~clock ~enabled:true () in
       let e = Engine.create ~tel ~jobs ~backend qrst demo_db in
       ignore (Engine.svc_all e);
       let s = Engine.stats e in
       let label = Printf.sprintf "%s jobs=%d" (Stats.backend_name s) jobs in
       (* every number under a duration key, anywhere in the record *)
       let rec durations (k, v) =
         match v with
         | Tracejson.Obj kvs -> List.concat_map durations kvs
         | Tracejson.Num d
           when k = "ms" || String.ends_with ~suffix:"_ms" k
                || String.ends_with ~suffix:"_s" k -> [ d ]
         | _ -> []
       in
       let ds = List.concat_map durations (json_fields (Stats.to_json s)) in
       Alcotest.(check bool) (label ^ ": spans recorded") true (ds <> []);
       Alcotest.(check (list (float 0.)))
         (label ^ ": every duration is zero")
         (List.map (fun _ -> 0.) ds) ds)
    backends_jobs

let test_normalize_deterministic () =
  List.iter
    (fun (backend, jobs) ->
       let run () =
         let tel = Telemetry.create ~enabled:true () in
         let e = Engine.create ~tel ~jobs ~backend qrst demo_db in
         ignore (Engine.svc_all e);
         Stats.normalize (Engine.stats e)
       in
       let s1 = run () and s2 = run () in
       Alcotest.(check bool)
         (Printf.sprintf "normalize deterministic (jobs=%d)" jobs)
         true (s1 = s2);
       (* the span rollup survives normalization with durations zeroed *)
       Alcotest.(check bool) "span durations zeroed" true
         (Array.for_all (fun (_, _, d) -> d = 0.) s1.Stats.spans);
       Alcotest.(check bool) "span names kept" true
         (jobs = 1 || Array.exists (fun (n, _, _) -> n = "engine.slice") s1.Stats.spans))
    [ (`Conditioning, 1); (`Conditioning, 4); (`Circuit, 1) ]

(* --jobs N: the per-domain trace lanes must reconstruct the same chunk
   counts as the par_* stats — one engine.slice span per slot on track
   slot + 1, its "facts" attribute equal to that slot's d_facts. *)
let test_parallel_lanes_match_stats () =
  let jobs = 4 in
  let tel = Telemetry.create ~enabled:true () in
  let e = Engine.create ~tel ~jobs ~backend:`Conditioning qrst demo_db in
  ignore (Engine.svc_all e);
  let stats = Engine.stats e in
  let domains =
    match stats.Stats.backend with
    | Stats.Conditioning c -> c.domains
    | Stats.Circuit _ | Stats.Sample _ ->
      Alcotest.fail "expected conditioning stats"
  in
  let chrome = Telemetry.Export.chrome tel in
  let evs =
    match Tracejson.parse chrome with
    | Ok j ->
      (match Tracejson.validate j with
       | Ok evs -> evs
       | Error msg -> Alcotest.failf "invalid chrome trace: %s" msg)
    | Error msg -> Alcotest.failf "chrome trace failed to parse: %s" msg
  in
  let slices =
    List.filter
      (fun e -> e.Tracejson.t_ph = "X" && e.Tracejson.t_name = "engine.slice")
      evs
  in
  Alcotest.(check int) "one slice span per slot" jobs (List.length slices);
  List.iter
    (fun ev ->
       let slot = ev.Tracejson.t_tid - 1 in
       let facts =
         match List.assoc_opt "facts" ev.Tracejson.t_args with
         | Some (Tracejson.Str s) -> int_of_string s
         | _ -> Alcotest.fail "slice span lost its facts attribute"
       in
       Alcotest.(check int)
         (Printf.sprintf "slot %d lane = d_facts" slot)
         domains.(slot).Stats.d_facts facts)
    slices;
  Alcotest.(check int) "lanes sum to par_facts"
    (Stats.par_facts stats)
    (List.fold_left
       (fun acc ev ->
          match List.assoc_opt "facts" ev.Tracejson.t_args with
          | Some (Tracejson.Str s) -> acc + int_of_string s
          | _ -> acc)
       0 slices)

let suite =
  [
    Alcotest.test_case "fake clock" `Quick test_fake_clock;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "exit mismatch raises" `Quick test_exit_mismatch;
    Alcotest.test_case "exception closes span" `Quick test_exception_closes_span;
    Alcotest.test_case "disabled tracer" `Quick test_disabled_tracer;
    Alcotest.test_case "fork/join" `Quick test_fork_join;
    Alcotest.test_case "registry kind mismatch" `Quick test_registry_kind_mismatch;
    Alcotest.test_case "aggregate rollup" `Quick test_aggregate;
    prop_span_well_formed;
    Alcotest.test_case "golden chrome trace" `Quick test_golden_chrome;
    Alcotest.test_case "chrome round-trips through the validator" `Quick
      test_chrome_round_trip;
    Alcotest.test_case "tracejson rejects malformed input" `Quick
      test_tracejson_malformed;
    Alcotest.test_case "telemetry-off = telemetry-on (values and stats)"
      `Quick test_differential_off_vs_on;
    Alcotest.test_case "normalize is deterministic across real runs" `Quick
      test_normalize_deterministic;
    Alcotest.test_case "fake clock: every stats duration is zero" `Quick
      test_fake_clock_stats;
    Alcotest.test_case "parallel trace lanes match par_* stats" `Quick
      test_parallel_lanes_match_stats;
  ]
