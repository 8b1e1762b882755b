(** [paratime loadtest] — drive a running server with a mixed workload.

    N client connections (sys-threads) issue a configured number of
    requests.  Each request flips a seeded coin: with probability
    [repeat_ratio] it re-requests a catalog benchmark (exercising the
    hot/warm store paths), otherwise it ships a freshly generated fuzz
    program inline with its loop bounds (always cold, unique key).  Modes
    rotate over [modes]; latencies land in {!Obs.Histogram}s per outcome
    so the report's p50/p99 are exact to bucket resolution.

    The hit-rate *curve* is the per-decile cache-hit fraction over the
    request sequence — it should climb as the store warms. *)

type config = {
  host : string;
  port : int;
  requests : int;
  connections : int;
  repeat_ratio : float;  (** clamped to [0,1] *)
  working_set : int;
      (** how many catalog benchmarks the repeated mix draws from —
          small keeps the repeat traffic genuinely hot *)
  modes : Core.Mode.t list;  (** rotation; must be nonempty *)
  cores : int;
  kind : Modes.kind;
  seed : int;
  shutdown_after : bool;  (** send ["shutdown"] once done *)
  scrape : bool;
      (** snapshot server metrics before/after and report the delta, so
          client- and server-observed latency land in one artifact *)
}

val default_config : config
(** localhost:7421, 200 requests over 8 connections, repeat 0.8 over a
    4-benchmark working set, all eight modes, 2 cores, wcet, seed 42, no
    shutdown, no scrape. *)

type outcome_stats = {
  o_count : int;
  o_p50_ns : int;
  o_p99_ns : int;
}

type server_delta = {
  sd_requests : int;  (** delta of ["server.requests"] — includes the
                          run's own first scrape round trip *)
  sd_by_op : (string * int) list;
      (** nonzero per-op deltas; [("analyze", n)] equals the client-side
          analysis count exactly (scrapes are [op:"metrics"]) *)
  sd_outcomes : (string * int) list;
  sd_p50_ns : int;
  sd_p99_ns : int;
  sd_write_dropped : int;
}

type report = {
  sent : int;
  ok : int;
  hot : int;
  warm : int;
  cold : int;
  busy : int;
  errors : int;  (** non-busy failures *)
  wall_ns : int;
  overall : outcome_stats;
  by_outcome : (string * outcome_stats) list;  (** hot/warm/cold/busy *)
  hit_curve : (int * int) list;
      (** per decile: (hits, requests); hits = hot + warm *)
  server : server_delta option;  (** present when [scrape] was set *)
}

val run : config -> (report, string) result
(** [Error] when no connection can be established or [config] is
    invalid — including an empty working set ([working_set < 1]) or
    [connections < 1], which callers surface as exit 2. *)

val hit_rate : report -> float
val render : report -> string
val report_json : report -> Json.t
