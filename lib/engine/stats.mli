(** Instrumentation record of a batched SVC {!Engine} run: the fields
    every backend shares, one variant carrying the resolved backend's own
    counters, and the telemetry span rollup that holds every duration.

    Common counters:
    - [players]: endogenous facts;
    - [jobs]: the configured worker count;
    - [compilations]: lineage compilations performed (the engine's whole
      point is that this stays at [1] per (query, database));
    - [conditionings]: size-polynomial evaluations against the engine's
      caches ([n + 1] for a full conditioning [svc_all] at {e any} jobs
      count: the unconditioned polynomial once, then [φ[μ:=1]] once per
      fact — [φ[μ:=0]] comes from the splitting identity without a
      count; [0] under the circuit and sample backends).

    Durations live only in [spans], {!Telemetry.aggregate} of the
    engine's tracer, so they come from the tracer's injectable clock.  A
    disabled tracer records no spans and [spans] is empty.

    Determinism: for a given (query, database, jobs, capacity, backend),
    every field is deterministic {e except} the span durations.
    {!normalize} zeroes exactly those, so two runs of the same workload
    must satisfy [normalize s1 = normalize s2] — the regression test for
    the deterministic-merge contract.  The per-slot [d_facts]/[d_hits]/
    [d_misses] are deterministic because each slot owns a static slice
    of the work and its own cache. *)

type domain_stat = {
  d_facts : int;  (** endogenous facts evaluated by this worker slot *)
  d_hits : int;  (** this slot's private cache hits *)
  d_misses : int;  (** this slot's private cache misses *)
}

type backend =
  | Conditioning of {
      cache_hits : int;
      cache_misses : int;
      cache_size : int;  (** retained entries *)
      cache_capacity : int;  (** [max_int] when unbounded *)
      cache_drops : int;  (** results dropped at capacity *)
      poly_ops : int;  (** ring operations charged to the cache *)
      domains : domain_stat array;
          (** one per worker slot of the last batched run at [jobs > 1];
              [[||]] until such a run happens *)
    }
      (** The engine's own {!Compile.Memo} counters.  At [jobs > 1] that
          cache only serves the serial phases (the full polynomial and
          per-fact calls outside a batched run); the workers' private
          caches are counted in [domains]. *)
  | Circuit of {
      nodes : int;  (** live d-DNNF nodes *)
      edges : int;
      smoothing : int;  (** nodes spent on smoothing gadgets *)
      cache_hits : int;  (** formula→node compilation cache *)
      cache_misses : int;
      cache_drops : int;
    }
      (** All zero until the first answer compiles the circuit. *)
  | Sample of {
      seed : int;
      draws : int;  (** {!Sample.report.total_draws} of the last run *)
      max_hw : string;
          (** exact rational string of the per-fact CI half-width *)
      familywise_hw : string;
          (** {!Sample.report.familywise_half_width}: the half-width at
              which every fact's interval holds at once *)
      epsilon : string;  (** the configured target, exact rational *)
      confidence : string;
      converged : bool;
          (** every fact's half-width hit the [epsilon] target in budget *)
    }
      (** The configuration and the report of the last run (before any
          run: draws [0], both half-widths ["0"], [converged]
          [false]). *)

type t = {
  players : int;
  jobs : int;
  compilations : int;
  conditionings : int;
  backend : backend;
  spans : (string * int * float) array;
      (** (span name, completions, total seconds), sorted by name *)
}

val backend_name : t -> string
(** ["conditioning"], ["circuit"] or ["sample"]. *)

val par_facts : t -> int
(** Sum of [d_facts] over the conditioning backend's [domains] ([0] for
    the other backends); likewise below. *)

val par_hits : t -> int
val par_misses : t -> int

val normalize : t -> t
(** The deterministic projection: span durations zeroed (span {e counts}
    are deterministic and kept), everything else untouched.  Two runs of the same (query, database,
    jobs, capacity, backend) produce structurally equal normalized
    records. *)

val to_string : t -> string
(** Multi-line human-readable block (the [svc eval --stats] output): the
    common counters, the backend's own lines — at [jobs > 1] the
    conditioning backend adds a [parallel] line with the per-domain
    counters summed — and, when [spans] is non-empty, a [spans:] block
    with one [time  : …ms] line per span name, so one mask covers every
    duration. *)

val to_json : t -> string
(** One-line JSON object.  Every backend emits [backend], [players],
    [jobs], [compilations] and [conditionings] first and [spans] last;
    in between come only the resolved backend's keys:
    - conditioning: [cache_hits], [cache_misses], [cache_size],
      [cache_capacity] (JSON [null] when unbounded), [cache_drops],
      [poly_ops], then [par_facts], [par_cache_hits] and
      [par_cache_misses] (the per-domain counters summed, all [0] at
      [jobs = 1]);
    - circuit: [circuit_nodes], [circuit_edges], [circuit_smoothing],
      [circuit_cache_hits], [circuit_cache_misses], [circuit_cache_drops];
    - sample: [sample_seed], [sample_draws], [sample_max_hw],
      [sample_familywise_hw], [sample_epsilon], [sample_confidence],
      [sample_converged].

    [spans] maps each span name to [{"count":N,"ms":D}], in name order
    — the only durations in the record. *)
