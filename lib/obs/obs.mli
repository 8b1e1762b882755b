(** Structured observability: hierarchical spans, typed metrics, and
    per-domain ring buffers behind one ambient switch.

    Tracing is off by default.  Installing a {!Sink.t} with {!set_sink}
    turns every instrumentation point in the toolkit on at once; with no
    sink installed each point costs a single atomic load and a branch,
    which is what keeps the disabled overhead under the bench harness's
    2% budget (bench/perf.exe measures and enforces it).

    Each domain records into its own track (ring buffer), so recording
    is lock-free; {!Pool} additionally routes each job's events onto a
    per-job track registered in job order, which is what makes exports
    deterministic at any worker count.  Exporters merge the tracks at
    read time: {!Trace_export} emits Chrome [trace_event] JSON for
    chrome://tracing / Perfetto, {!Csv_export} a flat CSV for the bench
    harness. *)

module Event = Event
module Histogram = Histogram
module Metrics = Metrics
module Ring = Ring
module Sink = Sink
module Trace_export = Trace_export
module Csv_export = Csv_export
module Reqtrace = Reqtrace
module Sampler = Sampler
module Flight = Flight
module Prometheus = Prometheus

(** {1 Ambient sink} *)

val set_sink : Sink.t option -> unit
(** Install (or remove) the global sink.  Takes effect on every domain
    at its next instrumentation point. *)

val sink : unit -> Sink.t option
val enabled : unit -> bool

val with_sink : Sink.t -> (unit -> 'a) -> 'a
(** Install for the duration of [f], restoring the previous sink. *)

(** {1 Recording} *)

val span : ?cat:string -> ?args:(string * Event.value) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a [Begin]/[End] pair on the current
    domain's track (no-op without a sink).  Exceptions pass through; the
    [End] is still recorded.  Inside a {!Reqtrace.with_scope} the span
    is additionally recorded into the active request trace and the ring
    event tagged with [trace]/[span]/[parent] correlation args; without
    a sink the request-trace hook is never consulted, keeping the
    disabled path at a single atomic load.  A [~cat:"phase"] span also
    records its duration into the sink's metrics
    ({!Metrics.observe_phase}), from the same two clock reads as its
    events, so phase totals equal the span sums of the tracks exactly. *)

val instant : ?cat:string -> ?args:(string * Event.value) list -> string -> unit

val counter : ?cat:string -> ?args:(string * Event.value) list -> string -> unit
(** Record a {!Event.Counter} sample (Chrome counter-track point) on the
    current domain's track; each arg is one series value. *)

val emit_begin : ts:int64 -> ?cat:string -> ?args:(string * Event.value) list -> string -> unit
(** Low-level: record a [Begin] with an externally read timestamp, for
    callers that drive their own (e.g. virtual) clock.  Unlike {!span} it
    records no phase total. *)

val emit_end : ts:int64 -> unit

val now_ns : unit -> int64
(** The active clock: the installed sink's (virtual in tests), else
    CLOCK_MONOTONIC nanoseconds. *)

val with_track : Sink.t -> Sink.track -> (unit -> 'a) -> 'a
(** Route the current domain's recording onto [track] for the duration
    of [f].  The pool uses this to give each job its own track. *)

(** {1 Ambient metrics} — all no-ops without a sink. *)

val add : string -> int -> unit
val set_counter : string -> int -> unit
val set_gauge : string -> int -> unit
val observe : string -> int -> unit
