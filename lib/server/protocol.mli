(** Wire protocol for [paratime serve]: one JSON object per line.

    Requests:
    {v
    {"id":1,"op":"analyze","source":"bench:matmul","mode":"joint","cores":2}
    {"id":2,"op":"attribute","name":"t","asm":"start:\n  halt","kind":"wcet"}
    {"id":3,"op":"status"}
    {"id":4,"op":"stats"}
    {"id":5,"op":"metrics","format":"prometheus"}
    {"id":6,"op":"shutdown"}
    v}

    [source] names a catalog program ("bench:NAME"); alternatively
    [name] + [asm] carry an inline assembly listing.  [mode] defaults to
    "solo" and additionally accepts "all" (every approach mode from one
    shared analysis context; per-mode results in the reply), [cores] to
    2 (clamped to 1..4 by validation), [kind] to "wcet".  [attribute] is
    [analyze] plus the full per-block attribution table in the reply.

    Replies always echo ["id"] and carry ["ok"].  Successful analyses
    add ["cached"] ("hot" = in-memory, "warm" = on-disk, "cold" =
    freshly computed), ["key"] (the store key), and ["result"].  Errors
    carry ["code"] (one of [bad_request], [unknown_benchmark], [busy],
    [not_analysable], [internal]) and ["error"]. *)

type op = Analyze | Attribute | Status | Stats | Metrics | Shutdown

type mode_req = One of Core.Mode.t | All
(** [mode:"all"] requests every approach mode at once; the server
    computes them from one shared context pack ({!Modes.analyze_all})
    and replies with a per-mode object ({!ok_all_reply}). *)

type metrics_format = Fmt_json | Fmt_prometheus
(** Rendering of a ["metrics"] reply: structured JSON (default) or
    Prometheus text exposition carried in the reply's ["body"] field
    (wire field ["format"]: "json" / "prometheus"). *)

type request = {
  id : int;
  op : op;
  source : source;
  mode : mode_req;
  cores : int;
  kind : Modes.kind;
  refine : bool;
      (** [refine:true] on an analyze/attribute request turns on
          infeasible-path refinement ({!Refine.default} budget); the
          served bound is the refined one and is stored under a salted
          key ({!Modes.store_key}).  Defaults to [false]. *)
  trace_id : string option;
      (** client-supplied trace id (wire field ["trace_id"]); [None]
          lets the server mint one from its per-connection counter.
          Never echoed in replies — analysis replies stay bit-identical
          with tracing on. *)
  format : metrics_format;
}

and source =
  | No_source
  | Bench of string
  | Inline of {
      name : string;
      asm : string;
      bounds : (string * string * int) list;
          (** (proc, header label, bound) flow facts, wire field
              ["bounds": [[proc,label,n],...]] — generated programs are
              useless without their loop bounds *)
    }

val parse_request : string -> (request, string * string) result
(** [Error (code, message)] — [code] is a protocol error code. *)

val op_name : op -> string
(** Wire name of an op — the suffix of the per-op request counters
    (["server.req.analyze"], ...). *)

type cached = Hot | Warm | Cold

val cached_name : cached -> string

val ok_reply :
  id:int -> cached:cached -> key:string -> detail:bool -> Store.Entry.t -> string
(** [detail] selects the full attribution table ([attribute]) over the
    summary ([analyze]).  Single line, no trailing newline. *)

val ok_all_reply :
  id:int ->
  detail:bool ->
  (string * (cached * string * Store.Entry.t, string * string) result) list ->
  string
(** Reply for a [mode:"all"] request: ["modes"] maps each mode name to
    either an [ok_reply]-shaped object (minus the echoed id) or an
    error object [(code, message)].  The top-level ["ok"] is [true] as
    long as the request itself was well-formed — per-mode failures live
    inside their mode's object. *)

val error_reply : id:int -> code:string -> string -> string

val percentile : Obs.Histogram.snapshot -> float -> int
(** [percentile snap q] with [q] in [0,1]: smallest bucket upper bound
    covering rank [q * count] — the resolution is the histogram's log2
    bucketing.  [0] on an empty snapshot. *)
