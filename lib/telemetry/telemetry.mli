(** Unified telemetry: hierarchical spans, a metrics registry, and a
    Chrome [trace_event] exporter (rendered as a summary by
    {!Tracejson.summarize}, behind [svc trace summary]).

    A tracer {!t} records {e spans} (named, nested, timestamped intervals)
    and owns a {e registry} of named metrics.  Timestamps come from an
    injectable {!Clock.t}, so tests run on a fake deterministic clock and
    pin exporter output byte-exactly.

    {2 Cost model}

    A {e disabled} tracer ({!disabled}, or [create ~enabled:false]) records
    nothing: {!span} is one branch and then the thunk, {!enter}/{!exit} are
    no-ops.  Metrics are {e always} live — a {!Counter.t} is a mutable
    [int] — so subsystems keep their instrumentation in the registry
    instead of duplicating it in private fields, at no extra cost.

    {2 Concurrency}

    A tracer is single-domain: spans and metrics must be touched only from
    the domain that owns it.  Parallel runs give each worker slot its own
    {!fork} (fresh span buffer and stack; shared clock, epoch, registry and
    track table) created {e in the owning domain before spawning}, and
    {!join} the buffers back after the workers are joined.  Events carry a
    (track, per-track sequence) pair, so the exported order is canonical
    whatever the scheduling. *)

module Clock : sig
  type t = unit -> float
  (** Monotonic seconds.  Absolute origin is irrelevant: all exported
      timestamps are relative to the tracer's creation. *)

  val monotonic : t
  (** Wall clock ([Unix.gettimeofday]). *)

  val fake : ?start:float -> unit -> t * (float -> unit)
  (** A deterministic manual clock and its [advance] function (strictly
      non-negative increments).  Reads never mutate, so concurrent domains
      may read freely; advancing is atomic.
      @raise Invalid_argument on a negative advance. *)
end

(** Monotone integer counters.  Not thread-safe: increment only from the
    owning domain.  A {!fork} shares its parent's registry, so parallel
    code bumps a registry counter from the calling domain after the
    join. *)
module Counter : sig
  type t

  val create : unit -> t
  (** A fresh standalone counter (not in any registry). *)

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  val reset : t -> unit
end

(** Last-value integer gauges. *)
module Gauge : sig
  type t

  val create : unit -> t
  val set : t -> int -> unit
  val value : t -> int
end

type metric = Counter of Counter.t | Gauge of Gauge.t

type t

val create : ?clock:Clock.t -> ?enabled:bool -> unit -> t
(** A fresh tracer on track [0] (named ["main"]), epoch = the clock now.
    [enabled] defaults to [true]. *)

val disabled : unit -> t
(** A fresh disabled tracer: spans are free no-ops, the metrics registry
    is fully functional.  The default instrumentation sink. *)

val enabled : t -> bool

(** {1 Spans} *)

type span

val enter : t -> ?attrs:(string * string) list -> string -> span
(** Open a span.  On a disabled tracer, a free no-op handle. *)

val exit : t -> span -> unit
(** Close a span.  Spans close innermost-first.
    @raise Invalid_argument if the span is not the innermost open one. *)

val span : t -> ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span t name f] runs [f] inside a fresh span.  The span is closed (and
    its event recorded) even when [f] raises. *)

val open_spans : t -> int
(** Currently open spans on this tracer's stack. *)

(** {1 Forking (parallel tracks)} *)

val fork : ?name:string -> t -> track:int -> t
(** A child tracer recording onto [track] (default name ["domain N"]):
    fresh buffer, stack and sequence, shared clock/epoch/registry/track
    table.  Call from the owning domain {e before} handing the child to a
    worker; the child must then be touched by that worker alone.
    @raise Invalid_argument on a negative track. *)

val join : t -> t -> unit
(** [join t child] folds the child's recorded events into [t].  Call after
    the worker domain has been joined. *)

(** {1 Reading the record} *)

type event = {
  ev_name : string;
  ev_track : int;
  ev_seq : int;  (** completion order within the track *)
  ev_depth : int;  (** open spans above this one when it was entered *)
  ev_path : string list;  (** root-first call path, ending in [ev_name] *)
  ev_start_s : float;  (** seconds since the tracer's epoch *)
  ev_dur_s : float;
  ev_attrs : (string * string) list;
}

val events : t -> event list
(** All recorded (and joined) span events, sorted by (track, sequence). *)

val tracks : t -> (int * string) list
(** Known tracks, ascending. *)

val aggregate : t -> (string * int * float) array
(** Per span name: (name, count, total duration in seconds), sorted by
    name.  The deterministic projection used by {!Stats}-style records. *)

(** {1 Metrics registry} *)

val counter : t -> string -> Counter.t
(** Find-or-create by name; the same name always yields the same counter,
    so independent subsystems naming one arrow share one count.
    @raise Invalid_argument if the name is registered as another kind. *)

val gauge : t -> string -> Gauge.t

val metrics : t -> (string * metric) list
(** Registration order. *)

(** {1 Exporters}

    Pure functions of the recorded events and registry. *)

module Export : sig
  val chrome : t -> string
  (** Chrome [trace_event] JSON, loadable in [about:tracing] / Perfetto:
      a [thread_name] metadata record per track, an ["X"] (complete)
      event per span with microsecond timestamps, and a final ["C"]
      counter sample per counter/gauge. *)

  val write_chrome : t -> string -> unit
  (** Write {!chrome} to a file path.  @raise Sys_error on I/O failure. *)
end
