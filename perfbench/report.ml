(* What one workload run hands back to [Main], and the helpers every
   workload shares: the clock, GC deltas and peak resident memory. *)

type t = {
  attempted : int;
  failed : int;
  errors : string list;  (** first few failure messages, for stderr *)
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let now_ns = Spans.now_ns
let ms_of_ns ns = float_of_int ns /. 1e6

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  let path = "/proc/self/status" in
  let ic = open_in path in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf
          (String.sub line 6 (String.length line - 6))
          " %d kB"
          (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> failwith ("no VmHWM in " ^ path)
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Host speed.  The 2-vCPU host's speed swings by up to 1.5x for tens
   of seconds at a time (other tenants on the same physical cores and
   memory, not steal time: CPU time swings with wall time), which moves
   every timing by as much between runs.  So the benchmark also times a
   fixed calibration kernel next to the work it measures, and reports
   every timing at a reference speed: a duration measured while the
   kernel took k ns reads as duration * [ref_kernel_ns] / k.  The kernel
   uses no paratime code, only what the analyses lean on — hashing,
   short-lived allocation through the minor heap, polymorphic compare —
   so a change to paratime moves the timings and not the kernel, while
   a slow host moves both.  An integer-only kernel was tried first: it
   tracked only a third of the slowdown the fuzz workload saw. *)
let kernel_once () =
  let t0 = now_ns () in
  let h = Hashtbl.create 256 and acc = ref [] in
  for i = 0 to 10_000 do
    let k = (i * 7919) land 1023 in
    Hashtbl.replace h k (i + Option.value ~default:0 (Hashtbl.find_opt h k));
    if i land 7 = 0 then acc := i :: !acc
  done;
  let a = Array.of_list !acc in
  Array.sort compare a;
  ignore (Sys.opaque_identity a);
  now_ns () - t0

(* One sample of the kernel's time: the least of three runs, which drops
   a run that an interrupt, a preemption or a collection of the
   workload's garbage landed in. *)
let kernel_ns () =
  float_of_int (min (kernel_once ()) (min (kernel_once ()) (kernel_once ())))

(* The kernel's time at the reference speed: about its time on a quiet
   2.1 GHz Xeon vCPU, so that reported timings read close to raw ones
   there. *)
let ref_kernel_ns = 800_000.

(* Set up [reps] times and report the median duration at the reference
   speed, each scaled by a kernel sample taken right after it: the first
   repetition is timed from [main] (its [t_main]), later ones from their
   own start, each on a heap collected beforehand (untimed) as a fresh
   process's is — otherwise whether an earlier repetition's garbage is
   collected inside a repetition splits its time into two modes.
   Returns the last repetition's state, which the measured window then
   uses. *)
let repeated_setup ~t_main ~reps f =
  let rec go i acc =
    if i > 0 then Gc.full_major ();
    let t0 = if i = 0 then t_main else now_ns () in
    let v = f () in
    let d = float_of_int (now_ns () - t0) /. 1e9 in
    let d = d *. ref_kernel_ns /. kernel_ns () in
    if i + 1 = reps then (v, Stats.median (d :: acc))
    else go (i + 1) (d :: acc)
  in
  go 0 []

(* Every run of a workload does the same fixed set of ops, sized for a
   measured window of about [window_s] seconds on a 2-vCPU host; the
   seed only orders them.  A run asked for another window is refused
   rather than given a different workload. *)
let window_s = 30

(* Seeded Fisher-Yates shuffle, in place. *)
let shuffle ~seed a =
  let st = Random.State.make seed in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The measured window runs in [rounds] rounds of nearly equal content:
   op i of the workload's canonical op list goes to round i mod
   [rounds], and the seed shuffles each round.  [rounds] is prime to the
   8 ops per catalog program and the 9 ops per fuzz pair, so every round
   gets every kind of op.  Each round's timings are
   scaled to the reference speed by the median of the kernel samples
   taken in it, one at its start and one after every 100 ms of ops; the
   kernel runs between ops, outside their timings.  The reported rate is
   the median of the rounds' rates, so a round the scaling does not set
   right does not move it. *)
let rounds = 11

let deal ~seed ops =
  Array.init rounds (fun r ->
      Array.of_list
        (List.filteri (fun i _ -> i mod rounds = r) (Array.to_list ops))
      |> shuffle ~seed:[| seed; r |])

(* Runs [f i op] on every op of every round ([i] counts the ops in the
   order they run); [f] returns the op's latency in ns when it is one
   the latency metrics cover.  Returns the number of ops, the median of
   the rounds' op rates (1/s) and the latencies (ms), all at the
   reference speed. *)
let run_rounds rounds f =
  let i = ref 0 and lat = ref [] in
  let rates =
    Array.map
      (fun ops ->
        let busy = ref 0 and round_lat = ref [] in
        let ks = ref [ kernel_ns () ] and since = ref 0 in
        Array.iter
          (fun o ->
            let t0 = now_ns () in
            Option.iter (fun ns -> round_lat := ns :: !round_lat) (f !i o);
            let dt = now_ns () - t0 in
            incr i;
            busy := !busy + dt;
            since := !since + dt;
            if !since > 100_000_000 then (
              ks := kernel_ns () :: !ks;
              since := 0))
          ops;
        let scale = ref_kernel_ns /. Stats.median !ks in
        List.iter
          (fun ns -> lat := (float_of_int ns *. scale /. 1e6) :: !lat)
          !round_lat;
        float_of_int (Array.length ops)
        /. (float_of_int !busy *. scale /. 1e9))
      rounds
  in
  (!i, Stats.median (Array.to_list rates), !lat)

(* The run's failed ops: their count, and the first few messages. *)
type failures = { mutable failed : int; mutable errors : string list }

let failures () = { failed = 0; errors = [] }

let fail f msg =
  f.failed <- f.failed + 1;
  if List.length f.errors < 5 then f.errors <- msg :: f.errors

(* Work counters and GC deltas summed over a run's untraced ops (a
   traced op's replays would count its work twice), plus the time and
   count of both kinds of op, for the traced-over-untraced rate. *)
type work = {
  mutable ops : int;
  mutable ns : int;
  mutable traced_ops : int;
  mutable traced_ns : int;
  mutable iters : int;
  mutable pops : int;
  mutable transfers : int;
  mutable pivots : int;
  mutable minor_words : float;
  mutable minor : int;
  mutable major : int;
}

let work () =
  {
    ops = 0; ns = 0; traced_ops = 0; traced_ns = 0; iters = 0; pops = 0;
    transfers = 0; pivots = 0; minor_words = 0.; minor = 0; major = 0;
  }

(* Run one untraced op, accumulate its counts, return its result and
   wall time in ns. *)
let untraced w f =
  let g0 = Gc.quick_stat () in
  let it0 = Cache.Analysis.fixpoint_iterations ()
  and po0 = Dataflow.Worklist.pops ()
  and tr0 = Dataflow.Worklist.transfers ()
  and pv0 = Lp.Simplex.pivots () in
  let t0 = now_ns () in
  let v = f () in
  let dt = now_ns () - t0 in
  w.iters <- w.iters + (Cache.Analysis.fixpoint_iterations () - it0);
  w.pops <- w.pops + (Dataflow.Worklist.pops () - po0);
  w.transfers <- w.transfers + (Dataflow.Worklist.transfers () - tr0);
  w.pivots <- w.pivots + (Lp.Simplex.pivots () - pv0);
  let g1 = Gc.quick_stat () in
  w.minor_words <- w.minor_words +. (g1.Gc.minor_words -. g0.Gc.minor_words);
  w.minor <- w.minor + (g1.Gc.minor_collections - g0.Gc.minor_collections);
  w.major <- w.major + (g1.Gc.major_collections - g0.Gc.major_collections);
  w.ops <- w.ops + 1;
  w.ns <- w.ns + dt;
  (v, dt)

let traced w f =
  let t0 = now_ns () in
  let v = f () in
  w.traced_ns <- w.traced_ns + (now_ns () - t0);
  w.traced_ops <- w.traced_ops + 1;
  v

(* The per-op counts and GC metrics of the untraced ops, and the
   traced-over-untraced op rate. *)
let work_metrics w =
  let per x = x /. float_of_int (max 1 w.ops) in
  let rate ns ops = float_of_int ops /. (float_of_int (max 1 ns) /. 1e9) in
  [
    ("cache.fixpoint_iters", per (float_of_int w.iters), "1/op");
    ("dataflow.worklist_pops", per (float_of_int w.pops), "1/op");
    ("dataflow.worklist_transfers", per (float_of_int w.transfers), "1/op");
    ("lp.pivots", per (float_of_int w.pivots), "1/op");
    ("gc.minor_words_per_op", per w.minor_words, "words");
    ("gc.minor_collections", per (float_of_int w.minor), "1/op");
    ("gc.major_collections", per (float_of_int w.major), "1/op");
    ( "trace.overhead",
      rate w.traced_ns w.traced_ops /. rate w.ns w.ops,
      "ratio" );
  ]

(* Exact nearest-rank latency metrics over raw samples (ms). *)
let latency_metrics ~prefix samples =
  let s = Stats.sorted samples in
  [
    (prefix ^ "_p50_ms", Stats.percentile s ~pct:50, "ms");
    (prefix ^ "_p99_ms", Stats.percentile s ~pct:99, "ms");
  ]

(* A layer's mean self time per traced op, from the span tree. *)
let layer_ms self ~ops name =
  Option.value ~default:0. (Hashtbl.find_opt self name)
  /. 1e6
  /. float_of_int (max 1 ops)

(* Summed self time of the layer spans over the real calls' wall time:
   the share of an op the named layers explain.  [call] names the span
   around the real call; "fuzz.oracle" is the oracle's remainder, not a
   layer it explains. *)
let coverage sp self ~call =
  let total =
    Hashtbl.fold
      (fun name v acc ->
        if List.mem name [ "op"; call; "fuzz.oracle" ] then acc else acc +. v)
      self 0.
  in
  total /. Float.max 1. (Spans.total_ns sp call)
