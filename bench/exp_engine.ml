(* ENGINE: the batched memoizing engine vs per-fact svc_all, on the same
   instance families as the SCALE experiment.  Emits BENCH_engine.json
   (machine-readable, uploaded by the CI bench-smoke job) and validates
   that the engine (a) agrees with the naive path exactly, (b) performs a
   single lineage compilation per (query, database), and (c) is at least
   3x faster at the largest benchmarked size.

   BENCH_ENGINE_CAP bounds |Dn| (for CI smoke runs). *)

let cap () =
  match Sys.getenv_opt "BENCH_ENGINE_CAP" with
  | None | Some "" -> max_int
  | Some s -> (try int_of_string s with Failure _ -> max_int)

type entry = {
  family : string;
  n_endo : int;
  naive_s : float;
  engine_s : float;
  stats : Stats.t;
}

let json_of_entry e =
  Printf.sprintf
    "{\"family\":%S,\"n_endo\":%d,\"naive_ms\":%.3f,\"engine_ms\":%.3f,\
     \"speedup\":%.2f,\"stats\":%s}"
    e.family e.n_endo (e.naive_s *. 1000.) (e.engine_s *. 1000.)
    (e.naive_s /. e.engine_s) (Stats.to_json e.stats)

let write_json ~path entries ~pass =
  let oc = open_out path in
  output_string oc
    (Printf.sprintf
       "{\"experiment\":\"engine\",\"cap\":%s,\"speedup_target\":3.0,\
        \"pass\":%b,\"entries\":[%s]}\n"
       (let c = cap () in if c = max_int then "null" else string_of_int c)
       pass
       (String.concat "," (List.map json_of_entry entries)));
  close_out oc

let run_instance ~jobs ~family q db =
  let n = Database.size_endo db in
  let naive, naive_s = Report.time_it (fun () -> Svc.svc_all_naive q db) in
  (* pinned to the conditioning backend: this experiment measures the
     batched memoizing engine itself, not the `Auto backend choice *)
  let (e, batched), engine_s =
    Report.time_it (fun () ->
        let e = Engine.create ~jobs ~backend:`Conditioning q db in
        (e, Engine.svc_all e))
  in
  let agree =
    List.length naive = List.length batched
    && List.for_all2
         (fun (f1, v1) (f2, v2) -> Fact.equal f1 f2 && Rational.equal v1 v2)
         naive batched
  in
  let stats = Engine.stats e in
  if not agree then Printf.printf "!! %s n=%d: engine/naive MISMATCH\n" family n;
  if stats.Stats.compilations <> 1 then
    Printf.printf "!! %s n=%d: %d compilations (expected 1)\n" family n
      stats.Stats.compilations;
  ( { family; n_endo = n; naive_s; engine_s; stats },
    agree && stats.Stats.compilations = 1 )

let engine ?(jobs = 1) () =
  Report.heading "ENGINE"
    (Printf.sprintf
       "Batched memoizing SVC engine (jobs=%d) vs per-fact svc_all_naive \
        (emits BENCH_engine.json)" jobs);
  let cap = cap () in
  let instances =
    Report.family_instances ~cap ~family:"star"
      ~label:"safe R(x),S(x,y) [star]" [ 4; 8; 16; 32; 64 ]
    @ Report.family_instances ~cap ~family:"bipartite"
        ~label:"unsafe q_RST [bipartite]" [ 2; 3; 4; 5 ]
  in
  let results =
    List.map (fun (f, q, db) -> run_instance ~jobs ~family:f q db) instances
  in
  let entries = List.map fst results in
  let all_ok = List.for_all snd results in
  Report.table
    ~headers:[ "query [instance family]"; "|Dn|"; "naive svc_all"; "engine";
               "speedup"; "compilations"; "cache hits/misses" ]
    (List.map
       (fun e ->
          [ e.family; string_of_int e.n_endo; Report.ms e.naive_s;
            Report.ms e.engine_s;
            Printf.sprintf "%.1fx" (e.naive_s /. e.engine_s);
            string_of_int e.stats.Stats.compilations;
            (match e.stats.Stats.backend with
             | Stats.Conditioning c ->
               Printf.sprintf "%d/%d" c.cache_hits c.cache_misses
             | Stats.Circuit _ | Stats.Sample _ -> "-") ])
       entries);
  let largest =
    List.fold_left
      (fun best e ->
         match best with
         | Some b when b.n_endo >= e.n_endo -> best
         | _ -> Some e)
      None entries
  in
  let speedup_ok =
    match largest with
    | None -> false
    | Some e ->
      let s = e.naive_s /. e.engine_s in
      Printf.printf
        "Largest size |Dn|=%d (%s): %.1fx speedup (target: >= 3x) — %s\n"
        e.n_endo e.family s (Report.ok (s >= 3.));
      s >= 3.
  in
  (* Capped (smoke) runs validate agreement and the single-compilation
     contract only: wall-clock ratios at toy sizes are noise. *)
  let pass = all_ok && (speedup_ok || cap <> max_int) in
  write_json ~path:"BENCH_engine.json" entries ~pass;
  Printf.printf "Wrote BENCH_engine.json (%d entries).\n" (List.length entries);
  pass

