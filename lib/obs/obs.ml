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

let sink_cell : Sink.t option Atomic.t = Atomic.make None
let set_sink s = Atomic.set sink_cell s
let sink () = Atomic.get sink_cell
let enabled () = Atomic.get sink_cell <> None

let with_sink s f =
  let old = Atomic.get sink_cell in
  Atomic.set sink_cell (Some s);
  Fun.protect ~finally:(fun () -> Atomic.set sink_cell old) f

(* The current track of each domain, validated by physical equality
   against the installed sink so a stale entry from a previous sink is
   never written to.  [default_key] caches the per-domain fallback track
   ("domain N") separately so leaving a [with_track] scope returns to
   it without re-registering. *)
let current_key : (Sink.t * Sink.track) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let default_key : (Sink.t * Sink.track) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let track_for s =
  let cur = Domain.DLS.get current_key in
  match !cur with
  | Some (s', tr) when s' == s -> tr
  | _ -> (
      let def = Domain.DLS.get default_key in
      match !def with
      | Some (s', tr) when s' == s -> tr
      | _ ->
          let tr =
            Sink.new_track s
              (Printf.sprintf "domain %d" (Domain.self () :> int))
          in
          def := Some (s, tr);
          tr)

let with_track s tr f =
  let cur = Domain.DLS.get current_key in
  let old = !cur in
  cur := Some (s, tr);
  Fun.protect ~finally:(fun () -> cur := old) f

let now_ns () =
  match Atomic.get sink_cell with
  | Some s -> Sink.now s
  | None -> Monotonic_clock.now ()

(* The no-sink path stays exactly one atomic load; the request-trace
   hook lives on the sink-present branch only.  With a sink but no
   active scope (every path outside a traced service job) the extra
   cost is one domain-local read.  The clock is read once per boundary
   and the same timestamps feed the events and, for a [cat:"phase"]
   span, the sink's phase histogram — so phase totals equal the span
   sums recomputed from the tracks exactly, even after a ring wrapped. *)
let close_span s tr scoped cat name t0 =
  (match scoped with
  | Reqtrace.Scoped _ -> Reqtrace.scoped_end ()
  | Reqtrace.Inactive -> ());
  let t1 = Sink.now s in
  Sink.end_at tr ~ts:t1;
  match cat with
  | Some "phase" ->
      Metrics.observe_phase (Sink.metrics s) name
        (Int64.to_int (Int64.sub t1 t0))
  | _ -> ()

let span ?cat ?args name f =
  match Atomic.get sink_cell with
  | None -> f ()
  | Some s -> (
      let tr = track_for s in
      let scoped = Reqtrace.scoped_begin ?cat ?args name in
      let args =
        match scoped with
        | Reqtrace.Scoped (Some (id, parent, trace_id)) ->
            Some
              (("trace", Event.Str trace_id)
              :: ("span", Event.Int id)
              :: ("parent", Event.Int parent)
              :: Option.value ~default:[] args)
        | Reqtrace.Scoped None | Reqtrace.Inactive -> args
      in
      let t0 = Sink.now s in
      Sink.begin_at tr ~ts:t0 ?cat ?args name;
      match f () with
      | x ->
          close_span s tr scoped cat name t0;
          x
      | exception e ->
          close_span s tr scoped cat name t0;
          raise e)

let instant ?cat ?args name =
  match Atomic.get sink_cell with
  | None -> ()
  | Some s -> Sink.instant s (track_for s) ?cat ?args name

let counter ?cat ?args name =
  match Atomic.get sink_cell with
  | None -> ()
  | Some s -> Sink.counter s (track_for s) ?cat ?args name

let emit_begin ~ts ?cat ?args name =
  match Atomic.get sink_cell with
  | None -> ()
  | Some s -> Sink.begin_at (track_for s) ~ts ?cat ?args name

let emit_end ~ts =
  match Atomic.get sink_cell with
  | None -> ()
  | Some s -> Sink.end_at (track_for s) ~ts

let add name n =
  match Atomic.get sink_cell with
  | None -> ()
  | Some s -> Metrics.add (Sink.metrics s) name n

let set_counter name v =
  match Atomic.get sink_cell with
  | None -> ()
  | Some s -> Metrics.set_counter (Sink.metrics s) name v

let set_gauge name v =
  match Atomic.get sink_cell with
  | None -> ()
  | Some s -> Metrics.set_gauge (Sink.metrics s) name v

let observe name v =
  match Atomic.get sink_cell with
  | None -> ()
  | Some s -> Metrics.observe (Sink.metrics s) name v
