(** The code base's JSON: a minimal parser and printer, plus the reading
    side of the Chrome [trace_event] format (a schema validator and the
    renderer behind [svc trace summary]).  Dependency-free on purpose —
    the repo has no JSON library and should not grow one for this. *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

val parse : string -> (json, string) result
(** Parse a complete JSON document.  Errors carry a byte offset. *)

val escape : string -> string
(** The body of a JSON string literal: double quotes and backslashes
    backslash-escaped, newline, carriage return and tab as [\n], [\r],
    [\t], every other control character as [\u00XX].  Every JSON writer
    in the code base escapes through this. *)

val quote : string -> string
(** [escape]d and wrapped in double quotes. *)

val to_string : json -> string
(** Compact one-line rendering: integral numbers below [1e15] without a
    fraction, other numbers in [%g] form. *)

(** One validated trace event. *)
type tev = {
  t_name : string;
  t_ph : string;  (** phase: ["X"], ["M"], ["C"], … *)
  t_tid : int;
  t_ts : float;  (** microseconds; [0.] for metadata events *)
  t_dur : float;  (** microseconds; [0.] unless [t_ph = "X"] *)
  t_args : (string * json) list;
}

val validate : json -> (tev list, string) result
(** Check the document against the trace-event subset we emit: a
    top-level object with a ["traceEvents"] array whose members each
    carry a known ["ph"], a ["name"], numeric ["pid"]/["tid"], a ["ts"]
    (except metadata) and a non-negative ["dur"] on complete events. *)

val summarize : name:string -> string -> (string, string) result
(** [summarize ~name text] parses and validates [text] (a trace file's
    contents) and renders the human-readable summary printed by
    [svc trace summary].  Wall-clock lines end in [time  : …ms] to match
    the cram mask. *)
