(** SVC-as-a-service: the serving loop behind [svc serve].

    A server holds named databases and a bounded LRU cache of hot
    {!Engine}s keyed by (database name, query source, requested
    backend and, for [sample], its seed).  The compiled artifact — lineage, memo cache, circuit
    session, plan — is the unit of reuse:

    - an [eval] against an up-to-date cached engine is a {e hit}: the
      whole batched answer is cached too, so repeated (even per-fact)
      questions cost a list projection;
    - after [insert]/[delete] requests, a stale engine catches up with
      one {!Engine.rebuild} over the current database — a {e delta}
      update that reuses the memo, every untouched sub-circuit and plan
      component, with results rationally equal to a cold recompute (the
      identity the differential suite pins).  A read after [k] writes
      counts one delta update, not [k]; the server keeps no change
      journal, so an entry any number of writes behind (70, say) still
      catches up as a delta;
    - a cold key, including every key of a database reloaded by
      [load_db], compiles from scratch: a {e miss}, evicting the
      least-recently-used entry when the cache is full.

    The protocol is length-prefixed JSON frames ({!Frame}) over any
    byte transport — channels for the CLI's stdin/stdout pipe pair,
    plain strings for tests.  One request frame yields exactly one
    response frame; a request that fails leaves a structured error
    frame ([{"ok":false,"error":code,"message":…}]) and a consistent
    cache — the server never crashes on malformed input.

    Requests are JSON objects with an ["op"] field and an optional
    ["id"] echoed verbatim into the response.  Ops: ["ping"],
    ["load_db"] (name, text), ["eval"] (db, query, optional backend
    [auto|conditioning|circuit|sample], optional seed of a [sample]
    backend, default 0, which keys its own cache entry, optional facts
    array to project), ["insert"] (db, fact, optional kind
    [endo|exo]), ["delete"] (db, fact), ["stats"], ["trace"] (path),
    ["shutdown"].  See README.md, "Serving", for the field-by-field
    reference.

    Counters in the telemetry registry: [server.requests],
    [server.errors], [server.cache_hits], [server.cache_misses],
    [server.cache_evictions], [server.delta_updates]; spans
    [server.request] (per frame, with the op as attribute),
    [server.eval] and [server.update] around engine work. *)

type t

val create :
  ?tel:Telemetry.t ->
  ?capacity:int ->
  ?max_frame:int ->
  ?jobs:int ->
  ?engine_cache_capacity:int ->
  unit ->
  t
(** A fresh server.  [capacity] bounds the engine LRU (default
    {!default_capacity}); [max_frame] the accepted payload size in
    bytes (default {!Frame.default_max_len}); [jobs] and
    [engine_cache_capacity] are handed to every {!Engine.create}.
    @raise Invalid_argument if [capacity < 1] or [jobs < 0]. *)

val default_capacity : int
(** Default engine-LRU capacity (8). *)

val load_db : t -> name:string -> text:string -> unit
(** Load (or atomically replace) a named database from {!Db_text}
    syntax — the programmatic form of the ["load_db"] op.  Replacing
    drops the cached engines for the name (they miss on next eval).
    @raise Invalid_argument on malformed text. *)

val serve :
  ?on_frame:(unit -> unit) ->
  t ->
  Frame.source ->
  out:(string -> unit) ->
  unit
(** Run the loop: read frames from the source, emit one response frame
    to [out] per request, until clean EOF, an unrecoverable framing
    error (after emitting its error frame) or a ["shutdown"] request.
    [on_frame] runs before each read — the hook the CLI uses to advance
    the fake clock deterministically. *)

val serve_string : ?on_frame:(unit -> unit) -> t -> string -> string
(** {!serve} over in-memory bytes: feed a session transcript in, get
    the concatenated response frames back.  The fuzz harness's
    entry point — no sockets, no pipes. *)

val serve_channels : ?on_frame:(unit -> unit) -> t -> in_channel -> out_channel -> unit
(** {!serve} over channels, flushing after every response frame (so a
    pipe peer can run the session interactively). *)

(** {2 Introspection (tests, CLI)} *)

val telemetry : t -> Telemetry.t
val cache_hits : t -> int
val cache_misses : t -> int
val cache_evictions : t -> int
val delta_updates : t -> int

val cached_engines : t -> int
(** Entries currently in the LRU. *)
