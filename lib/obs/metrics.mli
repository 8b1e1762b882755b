(** Typed metrics registry: named counters (monotone sums), gauges
    (last-write-wins) and log2 histograms.

    The registry is safe to share between domains: every update takes a
    private mutex for a few dozen nanoseconds.  Hot paths should batch
    (accumulate locally, [add] a delta per phase) rather than update per
    unit of work.  Names live in per-kind namespaces; first-registration
    order is preserved in {!snapshot} so reports read in pipeline
    order. *)

type t

val create : unit -> t

val add : t -> string -> int -> unit
(** Bump a counter. *)

val set_counter : t -> string -> int -> unit
(** Raise a counter to an absolute value (never lowers it) — for
    mirroring an externally maintained monotone total (store hit/miss
    counts, ring drop totals) into the registry at scrape time. *)

val set_gauge : t -> string -> int -> unit
val observe : t -> string -> int -> unit
(** Record a value into the named histogram. *)

type item =
  | Counter_v of string * int
  | Gauge_v of string * int
  | Hist_v of string * Histogram.snapshot

val snapshot : t -> item list
(** In first-registration order. *)

val counter : t -> string -> int
(** Current counter value (0 when absent). *)

val gauge : t -> string -> int
val hist : t -> string -> Histogram.snapshot option

(** {1 Phase totals}

    {!Obs.span} records every [cat:"phase"] span (cfg-build,
    value-analysis, cache-analysis, ipet-solve, ...) on the installed
    sink as one observation of the histogram ["phase." ^ name], so a
    registry is also the per-phase time ledger of the analyses run
    under it. *)

val observe_phase : t -> string -> int -> unit
(** [observe_phase t name ns] records one call of phase [name] lasting
    [ns] nanoseconds. *)

type phase = { phase : string; total_ns : int; calls : int }

val phases : t -> phase list
(** In first-recorded order, names without the ["phase."] prefix. *)

val render : t -> string
(** Human-readable summary: per-phase time/share/calls, then every
    counter.  Empty string when neither was recorded. *)

val csv_header : string
(** The CSV header line (with trailing newline).  Exposed separately so
    streaming consumers can emit it up front — a run killed mid-way then
    still leaves a parseable file. *)

val csv_rows : t -> string
(** The data rows only: [phase,<name>,<ns>,<calls>] per phase, then
    [counter,<name>,<value>,] per counter. *)
