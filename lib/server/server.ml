(* The SVC serving loop: named databases, a bounded LRU of hot engines,
   and delta updates.

   The unit of reuse is the compiled artifact, not the query text: an
   LRU entry key is (database name, query source, backend tag, and the
   seed of a sample backend), and its engine carries the compiled
   lineage, the memo cache, the circuit session and the plan across
   requests.  Mutations ([insert]/[delete]) touch only the named
   database's state — they are validated and applied once, and bump its
   version; a stale engine catches up lazily on its next [eval] with one
   [Engine.rebuild] over the current database, however many writes it
   missed (a "delta update": sub-circuit and plan reuse instead of a
   cold recompile).  Reloading a database drops its cached engines, so
   they recompile cold.

   Batching: one [eval] computes (and caches) the whole [svc_all]
   answer; a request for specific facts is served by projection, so any
   number of per-fact questions against one (db, query) funnel through
   a single engine evaluation.

   Everything is deterministic given the request sequence: answers are
   exact rationals in players order, and no response carries a wall
   time (clocks only feed the telemetry trace, which tests pin through
   the fake clock + the summary mask). *)

type entry = {
  e_db : string;
  mutable engine : Engine.t;
  mutable version : int;
  mutable values : (Fact.t * Rational.t) list option;
  mutable last_used : int;
}

type dbstate = { mutable db : Database.t; mutable version : int }

type t = {
  tel : Telemetry.t;
  dbs : (string, dbstate) Hashtbl.t;
  entries : (string, entry) Hashtbl.t;
  capacity : int;
  max_frame : int;
  jobs : int;
  engine_cache_capacity : int;
  mutable tick : int;
  mutable stopped : bool;
  requests : Telemetry.Counter.t;
  errors : Telemetry.Counter.t;
  hits : Telemetry.Counter.t;
  misses : Telemetry.Counter.t;
  evictions : Telemetry.Counter.t;
  deltas : Telemetry.Counter.t;
}

let default_capacity = 8

let create ?(tel = Telemetry.disabled ()) ?(capacity = default_capacity)
    ?(max_frame = Frame.default_max_len) ?(jobs = 1)
    ?(engine_cache_capacity = 1 lsl 20) () =
  if capacity < 1 then invalid_arg "Server.create: capacity must be >= 1";
  if jobs < 0 then invalid_arg "Server.create: jobs must be >= 0";
  {
    tel;
    dbs = Hashtbl.create 16;
    entries = Hashtbl.create 16;
    capacity;
    max_frame;
    jobs;
    engine_cache_capacity;
    tick = 0;
    stopped = false;
    (* registration order is user-visible in exporter output *)
    requests = Telemetry.counter tel "server.requests";
    errors = Telemetry.counter tel "server.errors";
    hits = Telemetry.counter tel "server.cache_hits";
    misses = Telemetry.counter tel "server.cache_misses";
    evictions = Telemetry.counter tel "server.cache_evictions";
    deltas = Telemetry.counter tel "server.delta_updates";
  }

let telemetry t = t.tel
let cache_hits t = Telemetry.Counter.value t.hits
let cache_misses t = Telemetry.Counter.value t.misses
let cache_evictions t = Telemetry.Counter.value t.evictions
let delta_updates t = Telemetry.Counter.value t.deltas
let cached_engines t = Hashtbl.length t.entries

let load_db t ~name ~text =
  let db = Db_text.parse text in
  match Hashtbl.find_opt t.dbs name with
  | None -> Hashtbl.replace t.dbs name { db; version = 0 }
  | Some ds ->
    (* a wholesale reload is not a write: drop the name's cached engines
       so its next eval recompiles cold *)
    ds.db <- db;
    ds.version <- ds.version + 1;
    Hashtbl.filter_map_inplace
      (fun _ e -> if e.e_db = name then None else Some e)
      t.entries

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let jstr = Tracejson.quote
let jobj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields)
  ^ "}"
let jarr xs = "[" ^ String.concat "," xs ^ "]"

let field req k =
  match req with
  | Tracejson.Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let str_field req k =
  match field req k with Some (Tracejson.Str s) -> Some s | _ -> None

let int_field req k =
  match field req k with
  | Some (Tracejson.Num f) when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

(* [id] is the client's correlation field, echoed verbatim when present. *)
let with_id id fields =
  match id with
  | Some j -> ("id", Tracejson.to_string j) :: fields
  | None -> fields

let ok_frame id fields = jobj (("ok", "true") :: with_id id fields)

exception Reject of string * string (* code, message *)

let rejectf code fmt = Printf.ksprintf (fun m -> raise (Reject (code, m))) fmt

let error_frame id ~code ~message =
  jobj
    (("ok", "false")
     :: with_id id [ ("error", jstr code); ("message", jstr message) ])

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let backend_of_tag req : Engine.backend =
  match str_field req "backend" with
  | None | Some "auto" -> `Auto
  | Some "conditioning" -> `Conditioning
  | Some "circuit" -> `Circuit
  | Some "sample" ->
    let seed = Option.value ~default:0 (int_field req "seed") in
    `Sample (Sample.config ~seed ())
  | Some other -> rejectf "bad_request" "unknown backend %S" other

let required req k =
  match str_field req k with
  | Some s -> s
  | None -> rejectf "bad_request" "missing string field %S" k

let db_state t name =
  match Hashtbl.find_opt t.dbs name with
  | Some ds -> ds
  | None -> rejectf "unknown_db" "no database named %S is loaded" name

let evict_if_full t =
  if Hashtbl.length t.entries >= t.capacity then begin
    let victim = ref None in
    Hashtbl.iter
      (fun key e ->
         match !victim with
         | Some (_, lru) when e.last_used >= lru -> ()
         | _ -> victim := Some (key, e.last_used))
      t.entries;
    match !victim with
    | Some (key, _) ->
      Hashtbl.remove t.entries key;
      Telemetry.Counter.incr t.evictions
    | None -> ()
  end

(* The requested backend's part of an entry key.  A sample engine's
   answer is a function of its seed, so each seed keys its own entry. *)
let backend_key : Engine.backend -> string = function
  | `Sample cfg -> Printf.sprintf "sample:%d" cfg.Sample.seed
  | backend -> Engine.backend_name backend

(* hit / delta / miss resolution of the (db, query, backend) entry *)
let entry_for t ~db_name ~query_src ~backend =
  let ds = db_state t db_name in
  let key = String.concat "\x00" [ db_name; query_src; backend_key backend ] in
  t.tick <- t.tick + 1;
  let e, status =
    match Hashtbl.find_opt t.entries key with
    | Some e when e.version = ds.version ->
      Telemetry.Counter.incr t.hits;
      (e, "hit")
    | Some e ->
      (* stale after any number of writes: one rebuild catches up *)
      Telemetry.Counter.incr t.deltas;
      Telemetry.span t.tel "server.update" (fun () ->
          e.engine <- Engine.rebuild e.engine ds.db);
      e.version <- ds.version;
      e.values <- None;
      (e, "delta")
    | None ->
      Telemetry.Counter.incr t.misses;
      evict_if_full t;
      let engine =
        Engine.create ~tel:t.tel ~cache_capacity:t.engine_cache_capacity
          ~jobs:t.jobs ~backend (Query_parse.parse query_src) ds.db
      in
      let e =
        { e_db = db_name; engine; version = ds.version; values = None;
          last_used = t.tick }
      in
      Hashtbl.replace t.entries key e;
      (e, "miss")
  in
  e.last_used <- t.tick;
  (e, status)

let values_of e =
  match e.values with
  | Some vs -> vs
  | None ->
    let vs = Engine.svc_all e.engine in
    e.values <- Some vs;
    vs

let handle_eval t id req =
  let db_name = required req "db" in
  let query_src = required req "query" in
  let backend = backend_of_tag req in
  let e, status = entry_for t ~db_name ~query_src ~backend in
  let values =
    Telemetry.span t.tel "server.eval" (fun () -> values_of e)
  in
  let values =
    match field req "facts" with
    | None -> values
    | Some (Tracejson.Arr fs) ->
      List.map
        (fun f ->
           match f with
           | Tracejson.Str s ->
             let fact = Db_text.parse_fact s in
             (match
                List.find_opt (fun (g, _) -> Fact.equal g fact) values
              with
              | Some pair -> pair
              | None ->
                rejectf "bad_request" "fact %S is not an endogenous fact" s)
           | _ -> rejectf "bad_request" "facts must be an array of strings")
        fs
    | Some _ -> rejectf "bad_request" "facts must be an array of strings"
  in
  ok_frame id
    [
      ("op", jstr "eval");
      ("db", jstr db_name);
      ("backend", jstr (Engine.backend_name (Engine.backend e.engine)));
      ("cache", jstr status);
      ("version", string_of_int e.version);
      ("reused_nodes", string_of_int (Engine.circuit_reused_nodes e.engine));
      ( "values",
        jarr
          (List.map
             (fun (f, v) ->
                jobj
                  [
                    ("fact", jstr (Fact.to_string f));
                    ("value", jstr (Rational.to_string v));
                  ])
             values) );
    ]

let apply_change t id req change =
  let db_name = required req "db" in
  let ds = db_state t db_name in
  let db =
    match change with
    | `Insert (part, f) ->
      if Database.mem f ds.db then
        rejectf "bad_request" "fact %s is already present"
          (Fact.to_string f);
      (match part with
       | `Endo -> Database.add_endo f ds.db
       | `Exo -> Database.add_exo f ds.db)
    | `Delete f ->
      if not (Database.mem f ds.db) then
        rejectf "bad_request" "fact %s is not present" (Fact.to_string f);
      Database.remove f ds.db
  in
  ds.db <- db;
  ds.version <- ds.version + 1;
  ok_frame id
    [
      ( "op",
        jstr (match change with `Insert _ -> "insert" | `Delete _ -> "delete")
      );
      ("db", jstr db_name);
      ("version", string_of_int ds.version);
      ("endo", string_of_int (Database.size_endo ds.db));
      ("size", string_of_int (Database.size ds.db));
    ]

let handle_insert t id req =
  let fact = Db_text.parse_fact (required req "fact") in
  let part =
    match str_field req "kind" with
    | None | Some "endo" -> `Endo
    | Some "exo" -> `Exo
    | Some other -> rejectf "bad_request" "unknown kind %S" other
  in
  apply_change t id req (`Insert (part, fact))

let handle_delete t id req =
  let fact = Db_text.parse_fact (required req "fact") in
  apply_change t id req (`Delete fact)

let handle_load_db t id req =
  let name = required req "name" in
  let text = required req "text" in
  load_db t ~name ~text;
  let ds = Hashtbl.find t.dbs name in
  ok_frame id
    [
      ("op", jstr "load_db");
      ("db", jstr name);
      ("version", string_of_int ds.version);
      ("endo", string_of_int (Database.size_endo ds.db));
      ("size", string_of_int (Database.size ds.db));
    ]

let handle_stats t id =
  ok_frame id
    [
      ("op", jstr "stats");
      ("dbs", string_of_int (Hashtbl.length t.dbs));
      ("engines", string_of_int (Hashtbl.length t.entries));
      ("capacity", string_of_int t.capacity);
      ("hits", string_of_int (cache_hits t));
      ("misses", string_of_int (cache_misses t));
      ("evictions", string_of_int (cache_evictions t));
      ("delta_updates", string_of_int (delta_updates t));
      ("requests", string_of_int (Telemetry.Counter.value t.requests));
      ("errors", string_of_int (Telemetry.Counter.value t.errors));
    ]

let handle_trace t id req =
  let path = required req "path" in
  (try Telemetry.Export.write_chrome t.tel path
   with Sys_error m -> rejectf "internal" "cannot write trace: %s" m);
  ok_frame id [ ("op", jstr "trace"); ("path", jstr path) ]

let dispatch t id req =
  match str_field req "op" with
  | None -> rejectf "bad_request" "missing string field \"op\""
  | Some "ping" -> ok_frame id [ ("op", jstr "ping") ]
  | Some "eval" -> handle_eval t id req
  | Some "insert" -> handle_insert t id req
  | Some "delete" -> handle_delete t id req
  | Some "load_db" -> handle_load_db t id req
  | Some "stats" -> handle_stats t id
  | Some "trace" -> handle_trace t id req
  | Some "shutdown" ->
    t.stopped <- true;
    ok_frame id [ ("op", jstr "shutdown") ]
  | Some other -> rejectf "unknown_op" "unknown op %S" other

(* One request, one response frame, no exception escapes: whatever goes
   wrong becomes a structured error frame and the server state stays
   whatever the completed prefix of the request made it. *)
let handle t payload =
  Telemetry.Counter.incr t.requests;
  match Tracejson.parse payload with
  | Error msg ->
    Telemetry.Counter.incr t.errors;
    error_frame None ~code:"bad_json" ~message:msg
  | Ok req ->
    let id = field req "id" in
    let op = Option.value ~default:"?" (str_field req "op") in
    (match
       Telemetry.span t.tel ~attrs:[ ("op", op) ] "server.request"
         (fun () -> dispatch t id req)
     with
     | resp -> resp
     | exception Reject (code, message) ->
       Telemetry.Counter.incr t.errors;
       error_frame id ~code ~message
     | exception Invalid_argument message ->
       Telemetry.Counter.incr t.errors;
       error_frame id ~code:"bad_request" ~message
     | exception exn ->
       Telemetry.Counter.incr t.errors;
       error_frame id ~code:"internal" ~message:(Printexc.to_string exn))

(* ------------------------------------------------------------------ *)
(* The serving loop                                                    *)
(* ------------------------------------------------------------------ *)

let serve ?(on_frame = fun () -> ()) t src ~out =
  let rec loop () =
    if not t.stopped then begin
      on_frame ();
      match Frame.read ~max_len:t.max_frame src with
      | Ok None -> () (* clean EOF at a frame boundary *)
      | Ok (Some payload) ->
        out (Frame.encode (handle t payload));
        loop ()
      | Error e ->
        Telemetry.Counter.incr t.requests;
        Telemetry.Counter.incr t.errors;
        out
          (Frame.encode
             (error_frame None ~code:"frame" ~message:(Frame.error_message e)));
        (* an oversized frame was drained, so framing survives; any
           other framing error loses the stream position — stop *)
        if Frame.recoverable e then loop ()
    end
  in
  loop ()

let serve_string ?on_frame t input =
  let buf = Buffer.create 256 in
  serve ?on_frame t (Frame.source_of_string input) ~out:(Buffer.add_string buf);
  Buffer.contents buf

let serve_channels ?on_frame t ic oc =
  serve ?on_frame t
    (Frame.source_of_channel ic)
    ~out:(fun s ->
      output_string oc s;
      flush oc)
