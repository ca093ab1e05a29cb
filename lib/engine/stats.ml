type domain_stat = {
  d_facts : int;
  d_hits : int;
  d_misses : int;
}

type backend =
  | Conditioning of {
      cache_hits : int;
      cache_misses : int;
      cache_size : int;
      cache_capacity : int;
      cache_drops : int;
      poly_ops : int;
      domains : domain_stat array;
    }
  | Circuit of {
      nodes : int;
      edges : int;
      smoothing : int;
      cache_hits : int;
      cache_misses : int;
      cache_drops : int;
    }
  | Sample of {
      seed : int;
      draws : int;
      max_hw : string;
      familywise_hw : string;
      epsilon : string;
      confidence : string;
      converged : bool;
    }

type t = {
  players : int;
  jobs : int;
  compilations : int;
  conditionings : int;
  backend : backend;
  spans : (string * int * float) array;
}

let backend_name s =
  match s.backend with
  | Conditioning _ -> "conditioning"
  | Circuit _ -> "circuit"
  | Sample _ -> "sample"

let sum_domains proj s =
  match s.backend with
  | Conditioning c -> Array.fold_left (fun acc d -> acc + proj d) 0 c.domains
  | Circuit _ | Sample _ -> 0

let par_facts s = sum_domains (fun d -> d.d_facts) s
let par_hits s = sum_domains (fun d -> d.d_hits) s
let par_misses s = sum_domains (fun d -> d.d_misses) s

let normalize s =
  {
    s with
    (* span counts are deterministic; only the accumulated durations
       depend on the clock *)
    spans = Array.map (fun (name, count, _) -> (name, count, 0.)) s.spans;
  }

let ms s = s *. 1000.

let capacity_string c = if c = max_int then "unbounded" else string_of_int c

let to_string s =
  let line label value = Printf.sprintf "  %-13s : %s\n" label value in
  let own =
    match s.backend with
    | Conditioning c ->
      [
        line "cache"
          (Printf.sprintf "%d hits / %d misses / %d drops (%d entries, capacity %s)"
             c.cache_hits c.cache_misses c.cache_drops c.cache_size
             (capacity_string c.cache_capacity));
        line "poly ops" (string_of_int c.poly_ops);
      ]
      @ (if s.jobs = 1 then []
         else
           [
             (* summed across domains: the per-slice numbers are stable
                but verbose *)
             line "parallel"
               (Printf.sprintf "%d jobs, %d facts, cache %d hits / %d misses"
                  s.jobs (par_facts s) (par_hits s) (par_misses s));
           ])
    | Circuit c ->
      [
        line "circuit"
          (Printf.sprintf "%d nodes / %d edges (%d smoothing)" c.nodes c.edges
             c.smoothing);
        line "circuit cache"
          (Printf.sprintf "%d hits / %d misses / %d drops" c.cache_hits
             c.cache_misses c.cache_drops);
      ]
    | Sample x ->
      [
        line "sampling"
          (Printf.sprintf "seed %d, %d draws" x.seed x.draws);
        line "ci"
          (Printf.sprintf
             "half-width <= %s per fact, <= %s familywise (target %s at \
              confidence %s) — %s"
             x.max_hw x.familywise_hw x.epsilon x.confidence
             (if x.converged then "converged" else "budget exhausted"));
      ]
  in
  String.concat ""
    ([
       "engine stats:\n";
       line "backend" (backend_name s);
       line "players" (string_of_int s.players);
       line "compilations" (string_of_int s.compilations);
       line "conditionings" (string_of_int s.conditionings);
     ]
     @ own
     @ (if Array.length s.spans = 0 then []
        else
          "  spans:\n"
          :: (Array.to_list s.spans
              |> List.map (fun (name, count, dur) ->
                     Printf.sprintf "    %-28s %4dx  time  : %.2fms\n" name
                       count (ms dur)))))

(* Key names are consumed by the BENCH_*.json files, the cram tests and
   CI; every backend shares the leading five and the trailing [spans]. *)
let to_json s =
  let open Tracejson in
  let int n = Num (float_of_int n) in
  let own =
    match s.backend with
    | Conditioning c ->
      [
        ("cache_hits", int c.cache_hits);
        ("cache_misses", int c.cache_misses);
        ("cache_size", int c.cache_size);
        ("cache_capacity",
         if c.cache_capacity = max_int then Null else int c.cache_capacity);
        ("cache_drops", int c.cache_drops);
        ("poly_ops", int c.poly_ops);
        ("par_facts", int (par_facts s));
        ("par_cache_hits", int (par_hits s));
        ("par_cache_misses", int (par_misses s));
      ]
    | Circuit c ->
      [
        ("circuit_nodes", int c.nodes);
        ("circuit_edges", int c.edges);
        ("circuit_smoothing", int c.smoothing);
        ("circuit_cache_hits", int c.cache_hits);
        ("circuit_cache_misses", int c.cache_misses);
        ("circuit_cache_drops", int c.cache_drops);
      ]
    | Sample x ->
      [
        ("sample_seed", int x.seed);
        ("sample_draws", int x.draws);
        ("sample_max_hw", Str x.max_hw);
        ("sample_familywise_hw", Str x.familywise_hw);
        ("sample_epsilon", Str x.epsilon);
        ("sample_confidence", Str x.confidence);
        ("sample_converged", Bool x.converged);
      ]
  in
  let spans =
    Array.to_list s.spans
    |> List.map (fun (name, count, dur) ->
           (name, Obj [ ("count", int count); ("ms", Num (ms dur)) ]))
  in
  Tracejson.to_string
    (Obj
       ([
          ("backend", Str (backend_name s));
          ("players", int s.players);
          ("jobs", int s.jobs);
          ("compilations", int s.compilations);
          ("conditionings", int s.conditionings);
        ]
        @ own
        @ [ ("spans", Obj spans) ]))
