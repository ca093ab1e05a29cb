(* Unified tracing + metrics.

   One tracer value carries both a hierarchical span recorder (timestamps
   from an injectable clock, so tests run on a fake deterministic one) and
   a metrics registry (counters, gauges).  The design constraints, in
   order:

   - zero overhead when disabled: [span t name f] on a disabled tracer is
     one branch and then [f ()]; counters are a mutable int wherever they
     end up, so subsystems can keep their instrumentation *in* telemetry
     metrics rather than duplicating them in private fields;
   - deterministic merges: a parallel run gives every worker slot its own
     {!fork} of the tracer (fresh buffer, shared clock/epoch/registry),
     and {!join} folds the buffers back in the calling domain.  Events
     carry (track, per-track sequence number), so the exported order is
     canonical whatever the scheduling;
   - exporters are pure functions of the recorded events, so golden tests
     can pin their output byte-exactly on a fake clock. *)

module Clock = struct
  type t = unit -> float

  let monotonic : t = Unix.gettimeofday

  (* Reads never mutate (so concurrent domains may read a fake clock
     freely); [advance] CASes, so even concurrent advancing could not lose
     ticks. *)
  let fake ?(start = 0.) () =
    let cell = Atomic.make start in
    let clock () = Atomic.get cell in
    let advance d =
      if d < 0. then invalid_arg "Telemetry.Clock.fake: cannot advance backwards";
      let rec go () =
        let v = Atomic.get cell in
        if not (Atomic.compare_and_set cell v (v +. d)) then go ()
      in
      go ()
    in
    (clock, advance)
end

module Counter = struct
  type t = { mutable v : int }

  let create () = { v = 0 }
  let incr c = c.v <- c.v + 1
  let add c n = c.v <- c.v + n
  let value c = c.v
  let reset c = c.v <- 0
end

module Gauge = struct
  type t = { mutable g : int }

  let create () = { g = 0 }
  let set g v = g.g <- v
  let value g = g.g
end

type metric = Counter of Counter.t | Gauge of Gauge.t

(* Registration order preserved (the exporters keep it); find-or-create by
   name so the same logical counter is shared by everyone naming it. *)
type registry = { mutable metrics : (string * metric) list (* reversed *) }

type event = {
  ev_name : string;
  ev_track : int;
  ev_seq : int;  (** completion order within the track *)
  ev_depth : int;  (** open spans above this one when it was entered *)
  ev_path : string list;  (** root-first, ending in [ev_name] *)
  ev_start_s : float;  (** seconds since the tracer's epoch *)
  ev_dur_s : float;
  ev_attrs : (string * string) list;
}

type open_span = {
  os_name : string;
  os_attrs : (string * string) list;
  os_t0 : float;
  os_depth : int;
  os_rpath : string list; (* leaf-first *)
}

type span = open_span option

type t = {
  clock : Clock.t;
  epoch : float;
  on : bool;
  track : int;
  registry : registry;
  track_names : (int * string) list ref; (* shared across forks; ascending *)
  mutable stack : open_span list;
  mutable events : event list; (* reversed *)
  mutable seq : int;
}

let create ?(clock = Clock.monotonic) ?(enabled = true) () =
  {
    clock;
    epoch = clock ();
    on = enabled;
    track = 0;
    registry = { metrics = [] };
    track_names = ref [ (0, "main") ];
    stack = [];
    events = [];
    seq = 0;
  }

let disabled () = create ~clock:(fun () -> 0.) ~enabled:false ()
let enabled t = t.on

let fork ?name t ~track =
  if track < 0 then invalid_arg "Telemetry.fork: negative track";
  let name =
    match name with Some n -> n | None -> Printf.sprintf "domain %d" track
  in
  if not (List.mem_assoc track !(t.track_names)) then
    t.track_names :=
      List.sort (fun (a, _) (b, _) -> compare a b)
        ((track, name) :: !(t.track_names));
  { t with track; stack = []; events = []; seq = 0 }

let join t child =
  (* events already carry (track, seq); the canonical sort happens at
     export, so appending in any order is fine *)
  t.events <- child.events @ t.events

(* ---------------- spans ---------------- *)

let enter t ?(attrs = []) name : span =
  if not t.on then None
  else
    let rpath =
      name :: (match t.stack with [] -> [] | s :: _ -> s.os_rpath)
    in
    let os =
      { os_name = name; os_attrs = attrs; os_t0 = t.clock ();
        os_depth = List.length t.stack; os_rpath = rpath }
    in
    t.stack <- os :: t.stack;
    Some os

let exit t (s : span) =
  match s with
  | None -> ()
  | Some os ->
    (match t.stack with
     | top :: rest when top == os ->
       t.stack <- rest;
       let now = t.clock () in
       t.events <-
         {
           ev_name = os.os_name;
           ev_track = t.track;
           ev_seq = t.seq;
           ev_depth = os.os_depth;
           ev_path = List.rev os.os_rpath;
           ev_start_s = os.os_t0 -. t.epoch;
           ev_dur_s = now -. os.os_t0;
           ev_attrs = os.os_attrs;
         }
         :: t.events;
       t.seq <- t.seq + 1
     | [] -> invalid_arg "Telemetry.exit: no span is open"
     | _ -> invalid_arg "Telemetry.exit: span is not the innermost open one")

let span t ?attrs name f =
  if not t.on then f ()
  else
    let s = enter t ?attrs name in
    Fun.protect ~finally:(fun () -> exit t s) f

let open_spans t = List.length t.stack

let events t =
  List.sort
    (fun a b ->
       let c = compare a.ev_track b.ev_track in
       if c <> 0 then c else compare a.ev_seq b.ev_seq)
    (List.rev t.events)

let tracks t = !(t.track_names)

let aggregate t =
  let tbl : (string, int * float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun e ->
       let n, d = Option.value ~default:(0, 0.) (Hashtbl.find_opt tbl e.ev_name) in
       Hashtbl.replace tbl e.ev_name (n + 1, d +. e.ev_dur_s))
    t.events;
  let all = Hashtbl.fold (fun name (n, d) acc -> (name, n, d) :: acc) tbl [] in
  Array.of_list (List.sort compare all)

(* ---------------- metrics registry ---------------- *)

let find_or_register t name make =
  match List.assoc_opt name t.registry.metrics with
  | Some m -> m
  | None ->
    let m = make () in
    t.registry.metrics <- t.registry.metrics @ [ (name, m) ];
    m

let counter t name =
  match find_or_register t name (fun () -> Counter (Counter.create ())) with
  | Counter c -> c
  | _ -> invalid_arg (Printf.sprintf "Telemetry.counter: %S is not a counter" name)

let gauge t name =
  match find_or_register t name (fun () -> Gauge (Gauge.create ())) with
  | Gauge g -> g
  | _ -> invalid_arg (Printf.sprintf "Telemetry.gauge: %S is not a gauge" name)

let metrics t = t.registry.metrics

(* ---------------- exporters ---------------- *)

module Export = struct
  let attrs_json attrs =
    String.concat ","
      (List.map
         (fun (k, v) ->
            Printf.sprintf "\"%s\":\"%s\"" (Tracejson.escape k) (Tracejson.escape v))
         attrs)

  (* Chrome trace_event JSON (the about:tracing / Perfetto format): one
     thread_name metadata record per track, one complete ("X") event per
     span with microsecond timestamps, and one final counter ("C") sample
     per counter/gauge at the end of the trace. *)
  let chrome t =
    let evs = events t in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf "{\"traceEvents\":[";
    let first = ref true in
    let emit s =
      if !first then first := false else Buffer.add_string buf ",";
      Buffer.add_string buf "\n";
      Buffer.add_string buf s
    in
    List.iter
      (fun (track, name) ->
         emit
           (Printf.sprintf
              "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\
               \"args\":{\"name\":\"%s\"}}"
              track (Tracejson.escape name)))
      (tracks t);
    List.iter
      (fun e ->
         let args =
           match e.ev_attrs with
           | [] -> ""
           | attrs -> Printf.sprintf ",\"args\":{%s}" (attrs_json attrs)
         in
         emit
           (Printf.sprintf
              "{\"name\":\"%s\",\"cat\":\"svc\",\"ph\":\"X\",\"ts\":%.3f,\
               \"dur\":%.3f,\"pid\":1,\"tid\":%d%s}"
              (Tracejson.escape e.ev_name)
              (e.ev_start_s *. 1e6)
              (e.ev_dur_s *. 1e6)
              e.ev_track args))
      evs;
    let end_ts =
      List.fold_left
        (fun acc e -> Float.max acc ((e.ev_start_s +. e.ev_dur_s) *. 1e6))
        0. evs
    in
    List.iter
      (fun (name, m) ->
         let v = match m with Counter c -> Counter.value c | Gauge g -> Gauge.value g in
         emit
           (Printf.sprintf
              "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":1,\
               \"tid\":0,\"args\":{\"value\":%d}}"
              (Tracejson.escape name) end_ts v))
      (metrics t);
    Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
    Buffer.contents buf

  let write_chrome t path =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> output_string oc (chrome t))
end
