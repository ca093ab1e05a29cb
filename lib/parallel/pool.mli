(** Dependency-free fork/join parallelism on stdlib [Domain]s.

    {!run} evaluates a fixed number of numbered slots: slot [0] in the
    calling domain and every other slot on a domain of its own, spawned
    by the call and joined before it returns — no domain outlives a
    call.  Results are position-stable ([run n f] is [Array.init n f]
    whichever domain computed each slot), so parallelism changes wall
    clock, never answers.

    [f] must be safe to run concurrently with itself from several
    domains: it must not mutate shared state without synchronization
    (in particular, stdlib [Hashtbl]s must not be shared across slots —
    give each slot its own).  Reading shared immutable data is fine. *)

val recommended_domains : unit -> int
(** [Domain.recommended_domain_count ()], floored at [1] — the [0 =
    auto] resolution used by every [--jobs] flag. *)

val bench_gate : required:int -> host:int -> cap:int option -> string option
(** Machine-readable skip reason for a wall-clock speedup gate that
    needs [required] true domains: [Some "host_domains=H"] when the host
    reports [host < required] domains (the speedup physically cannot
    show, whatever else holds — this check outranks the cap),
    [Some "cap=N"] on a size-capped smoke run, [None] when the gate is
    enforceable.  The string lands verbatim in the bench JSONs'
    ["skipped"] field, so its shape is pinned by a regression test. *)

val run : int -> (int -> 'a) -> 'a array
(** [run slots f] is [Array.init slots f] with slot [0] run in the
    calling domain and each slot [1 .. slots - 1] on a domain of its
    own.  Every spawned domain is joined before [run] returns or
    raises.  If slots raise (a domain that cannot be spawned counts as
    its slot raising the spawn's exception), the lowest-numbered
    slot's exception is re-raised with its backtrace, after every
    join; nothing carries over to the next call.
    @raise Invalid_argument if [slots < 0]. *)
