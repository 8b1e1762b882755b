(* Serving benchmark: the PR 10 gate (BENCH_pr10.json), superseding the
   PR 6 report with the telemetry-plane gates on top.

   Six measurements, six gates:

   1. warm_speedup — an in-process server is driven cold over a key set,
      shut down, restarted on the same on-disk store, and driven over the
      same keys again.  Every post-restart first touch is a disk (warm)
      hit; the gate is warm-hit p50 at least [min_warm_speedup] times
      lower than cold p50.

   2. store_overhead_frac — the same batch of generated solo analyses
      timed bare and through the store front (put + find per result);
      the write-through must cost less than [max_store_overhead] of the
      analysis time itself.

   3. metrics_op — the ["metrics"] scrape answered while a background
      connection hammers the hot path; its p50 must stay within the
      warm-hit p50 budget (a scrape is a registry read, not analysis).

   4. tracing_overhead — hot-only throughput ceiling with the trace
      plane on ([--trace-sample 16]) against the untraced default,
      measured as the inverse minimum round-trip latency over paired
      interleaved blocks; the traced server must keep
      [min_traced_ratio] of the untraced ceiling.

   5. plane_identity — cold/hot/warm replies byte-identical with the
      plane enabled vs disabled (trace ids are never echoed).

   6. scrape_exact — a loadtest with [--scrape]: the server-side per-op
      analyze delta must equal the client-side request count exactly
      (scrape traffic is op:"metrics", so it cannot pollute the count).

   Usage:
     dune exec bench/serve_perf.exe -- [--quick] [--out FILE]

   Exit 1 when a gate fails, so CI can gate on the exit code. *)

let min_warm_speedup = 20.0
let max_store_overhead = 0.02
let min_traced_ratio = 0.97

let quick = ref false
let out = ref "BENCH_pr10.json"

let () =
  Arg.parse
    [
      ("--quick", Arg.Set quick, " smaller key set / fewer reps (CI smoke)");
      ("--out", Arg.Set_string out, "FILE JSON report path (default BENCH_pr10.json)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "serve_perf.exe [--quick] [--out FILE]"

let now_ns () = Obs.now_ns ()

let time_ns f =
  let t0 = now_ns () in
  let r = f () in
  (r, Int64.to_int (Int64.sub (now_ns ()) t0))

(* ---------------- in-process server plumbing ---------------- *)

let start_server ?(trace_sample = 0) ?(slow_ms = 250) ?flight_dir ~store_root
    ~workers () =
  let sink = Obs.Sink.create () in
  let port_box = ref None in
  let lock = Mutex.create () in
  let cond = Condition.create () in
  let config =
    {
      Server_lib.Server.port = 0;
      workers = Some workers;
      queue_capacity = 64;
      store_root = Some store_root;
      budget_bytes = Server_lib.Server.default_config.Server_lib.Server.budget_bytes;
      mem_capacity = 512;
      trace_sample;
      slow_ms;
      flight_dir;
    }
  in
  let thread =
    Thread.create
      (fun () ->
        Server_lib.Server.run
          ~ready:(fun port ->
            Mutex.lock lock;
            port_box := Some port;
            Condition.signal cond;
            Mutex.unlock lock)
          ~sink config)
      ()
  in
  Mutex.lock lock;
  while !port_box = None do
    Condition.wait cond lock
  done;
  let port = Option.get !port_box in
  Mutex.unlock lock;
  (port, thread)

let stop_server port thread =
  (match Server_lib.Client.connect ~port () with
  | Error _ -> ()
  | Ok c ->
      ignore
        (Server_lib.Client.request c
           (Server_lib.Json.Obj
              [ ("id", Server_lib.Json.Int 0); ("op", Server_lib.Json.Str "shutdown") ]));
      Server_lib.Client.close c);
  Thread.join thread

let request_keys port keys =
  (* one request per key on one connection; returns (cached, ns) per key *)
  match Server_lib.Client.connect ~port () with
  | Error msg -> failwith msg
  | Ok c ->
      let results =
        List.map
          (fun (bench, mode) ->
            let req =
              Server_lib.Json.Obj
                [
                  ("id", Server_lib.Json.Int 0);
                  ("op", Server_lib.Json.Str "analyze");
                  ("source", Server_lib.Json.Str ("bench:" ^ bench));
                  ("mode", Server_lib.Json.Str mode);
                  ("cores", Server_lib.Json.Int 2);
                ]
            in
            let reply, ns = time_ns (fun () -> Server_lib.Client.request c req) in
            match reply with
            | Error msg -> failwith ("request failed: " ^ msg)
            | Ok r -> (
                match
                  ( Server_lib.Json.member "ok" r,
                    Server_lib.Json.str_field "cached" r )
                with
                | Some (Server_lib.Json.Bool true), Some cached -> (cached, ns)
                | _ ->
                    failwith
                      ("unexpected reply: " ^ Server_lib.Json.to_string r)))
          keys
      in
      Server_lib.Client.close c;
      results

let p50 = function
  | [] -> 0
  | l ->
      let a = Array.of_list l in
      Array.sort compare a;
      a.(Array.length a / 2)

(* ---------------- measurement 1: cold vs warm over a restart -------- *)

let keyset () =
  (* the full mode rotation, as the load generator sends it — the cold
     p50 must reflect what the service actually computes, not a cheap
     solo-only subset *)
  let benches =
    if !quick then [ "matmul"; "bubble_sort"; "crc" ]
    else [ "matmul"; "bubble_sort"; "crc"; "fir"; "bitcount"; "memcpy" ]
  in
  let modes = List.map Fuzz.Oracle.mode_name Fuzz.Oracle.all_modes in
  List.concat_map (fun b -> List.map (fun m -> (b, m)) modes) benches

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())

let measure_serve () =
  let root = Filename.concat (Filename.get_temp_dir_name ()) "paratime-serve-bench" in
  rm_rf root;
  let keys = keyset () in
  let port, thread = start_server ~store_root:root ~workers:2 () in
  let cold = request_keys port keys in
  stop_server port thread;
  let port, thread = start_server ~store_root:root ~workers:2 () in
  let warm = request_keys port keys in
  stop_server port thread;
  rm_rf root;
  List.iter
    (fun (cached, _) ->
      if cached <> "cold" then failwith ("expected cold pass, got " ^ cached))
    cold;
  List.iter
    (fun (cached, _) ->
      if cached <> "warm" then failwith ("expected warm pass, got " ^ cached))
    warm;
  let cold_p50 = p50 (List.map snd cold) in
  let warm_p50 = p50 (List.map snd warm) in
  (List.length keys, cold_p50, warm_p50)

(* ---------------- measurement 2: store write-through overhead ------- *)

let measure_overhead () =
  (* the overhead budget is against the analyses the store fronts: on
     the cold serving path every analysis pays exactly one key
     derivation, one put (memory + write-behind enqueue; the disk write
     itself overlaps later analyses on the writer thread) and one find.
     Timing the store operations directly (rather than diffing two whole
     passes) keeps analysis run-to-run jitter out of the fraction. *)
  let keys = keyset () in
  let root = Filename.concat (Filename.get_temp_dir_name ()) "paratime-overhead-bench" in
  rm_rf root;
  let disk = Store.Disk.open_ root in
  let front = Store.Front.create ~disk () in
  let analysis_samples = ref [] and store_samples = ref [] in
  List.iter
    (fun (bench, mode_s) ->
      let b = Option.get (Workloads.Bench_programs.by_name bench) in
      let task =
        (b.Workloads.Bench_programs.program, b.Workloads.Bench_programs.annot)
      in
      let mode =
        match Core.Mode.of_string mode_s with
        | Ok m -> m
        | Error msg -> failwith msg
      in
      (* min of 3 reps: the true cost of the operation, shorn of the
         scheduler/GC preemptions that land in any single run of a
         microsecond-scale window *)
      let min3 f =
        let best = ref max_int in
        let keep = ref None in
        for _ = 1 to 3 do
          let r, ns = time_ns f in
          if ns < !best then begin
            best := ns;
            keep := Some r
          end
        done;
        (Option.get !keep, !best)
      in
      let entry, a_ns =
        min3 (fun () ->
            match
              Server_lib.Modes.analyze ~mode ~cores:2
                ~kind:Server_lib.Modes.Wcet task
            with
            | Ok entry -> entry
            | Error msg -> failwith ("overhead bench analysis failed: " ^ msg))
      in
      let (), s_ns =
        min3 (fun () ->
            let key =
              Server_lib.Modes.store_key ~mode ~cores:2
                ~kind:Server_lib.Modes.Wcet
                b.Workloads.Bench_programs.annot
                b.Workloads.Bench_programs.program
            in
            Store.Front.put front key entry;
            ignore (Store.Front.find front key))
      in
      analysis_samples := a_ns :: !analysis_samples;
      store_samples := s_ns :: !store_samples)
    keys;
  Store.Front.close front;
  rm_rf root;
  (* medians, not sums: the store windows are microseconds wide, so a
     GC slice paid for by the preceding multi-ms analysis lands in them
     often enough to swamp the fraction *)
  let a_p50 = p50 !analysis_samples and s_p50 = p50 !store_samples in
  let overhead =
    if a_p50 = 0 then 0.0 else float_of_int s_p50 /. float_of_int a_p50
  in
  (List.length keys, a_p50, s_p50, overhead)

(* ---------------- measurement 3: metrics op under load ------------- *)

let hot_request_json =
  Server_lib.Json.Obj
    [
      ("id", Server_lib.Json.Int 0);
      ("op", Server_lib.Json.Str "analyze");
      ("source", Server_lib.Json.Str "bench:crc");
      ("mode", Server_lib.Json.Str "solo");
      ("cores", Server_lib.Json.Int 2);
    ]

let metrics_request_json =
  Server_lib.Json.Obj
    [ ("id", Server_lib.Json.Int 0); ("op", Server_lib.Json.Str "metrics") ]

let with_hot_background port f =
  (* one connection re-requesting a hot key as fast as replies come
     back, so the scrape latencies are measured on a busy server *)
  let stop = Atomic.make false in
  let bg =
    Thread.create
      (fun () ->
        match Server_lib.Client.connect ~port () with
        | Error _ -> ()
        | Ok c ->
            while not (Atomic.get stop) do
              ignore (Server_lib.Client.request c hot_request_json)
            done;
            Server_lib.Client.close c)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join bg)
    f

(* The gate compares a scrape against a warm hit, so both must be
   measured on the same server at the same moment, under the same
   background load — comparing against the warm p50 of measurement 1
   (different process lifetime, idle server) made the gate hostage to
   drift between the two measurements.  Cold-populate the keyset,
   restart (fresh memory tier, everything warm on disk), then
   interleave timed scrapes with timed warm analyzes while a hot
   connection hammers in the background. *)
let measure_metrics_under_load () =
  let root =
    Filename.concat (Filename.get_temp_dir_name ()) "paratime-metrics-bench"
  in
  rm_rf root;
  let keys = keyset () in
  let port, thread = start_server ~store_root:root ~workers:2 () in
  ignore (request_keys port keys);
  stop_server port thread;
  let port, thread = start_server ~store_root:root ~workers:2 () in
  let n = if !quick then 100 else 400 in
  (* the background load rides crc/solo (promoted to memory on its
     first request); the other keys stay disk-tier for warm samples *)
  let warm_keys = List.filter (fun k -> k <> ("crc", "solo")) keys in
  let metrics_samples = ref [] in
  let warm_samples = ref [] in
  with_hot_background port (fun () ->
      match Server_lib.Client.connect ~port () with
      | Error msg -> failwith msg
      | Ok c ->
          let scrape () =
            let reply, ns =
              time_ns (fun () ->
                  Server_lib.Client.request c metrics_request_json)
            in
            (match reply with
            | Error msg -> failwith ("metrics request failed: " ^ msg)
            | Ok _ -> ());
            metrics_samples := ns :: !metrics_samples
          in
          let warm (bench, mode) =
            let req =
              Server_lib.Json.Obj
                [
                  ("id", Server_lib.Json.Int 0);
                  ("op", Server_lib.Json.Str "analyze");
                  ("source", Server_lib.Json.Str ("bench:" ^ bench));
                  ("mode", Server_lib.Json.Str mode);
                  ("cores", Server_lib.Json.Int 2);
                ]
            in
            let reply, ns =
              time_ns (fun () -> Server_lib.Client.request c req)
            in
            (match reply with
            | Error msg -> failwith ("warm request failed: " ^ msg)
            | Ok r -> (
                match Server_lib.Json.str_field "cached" r with
                | Some "warm" -> ()
                | other ->
                    failwith
                      ("expected warm hit, got "
                      ^ Option.value ~default:"?" other)));
            warm_samples := ns :: !warm_samples
          in
          List.iter
            (fun k ->
              scrape ();
              warm k)
            warm_keys;
          for _ = List.length warm_keys + 1 to n do
            scrape ()
          done;
          Server_lib.Client.close c);
  stop_server port thread;
  rm_rf root;
  (n, p50 !metrics_samples, List.length warm_keys, p50 !warm_samples)

(* ---------------- measurement 4: tracing throughput ----------------- *)

(* Paired measurement: one untraced and one traced server alive at the
   same time, a persistent connection to each, and interleaved blocks of
   individually timed hot requests.  The statistic is the MINIMUM
   round-trip latency per configuration: for a serial ping-pong loop the
   throughput ceiling is the inverse of the latency floor, and the floor
   is immune to the scheduler and neighbour noise that made every
   average-throughput estimator (including best-of-segments) swing by
   more than the 3% effect being gated.  Both servers being up at once
   keeps CPU placement and machine load common to the pair.  The gate:
   the plane must not lower the throughput ceiling by more than 3%. *)
let measure_tracing_overhead () =
  let segments = if !quick then 6 else 8 in
  let n = if !quick then 1500 else 2500 in
  let mk trace_sample =
    let root =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "paratime-trace-bench-%d" trace_sample)
    in
    rm_rf root;
    let port, thread =
      start_server ~trace_sample ~store_root:root ~workers:2 ()
    in
    let conn =
      match Server_lib.Client.connect ~port () with
      | Error msg -> failwith msg
      | Ok c ->
          (* prime the memory tier so every timed request is a hot hit *)
          ignore (Server_lib.Client.request c hot_request_json);
          c
    in
    (port, thread, root, conn)
  in
  let untraced = mk 0 and traced = mk 16 in
  let segment (_, _, _, c) best =
    for _ = 1 to n do
      let reply, ns =
        time_ns (fun () -> Server_lib.Client.request c hot_request_json)
      in
      (match reply with
      | Ok _ -> ()
      | Error msg -> failwith ("hot request failed: " ^ msg));
      if ns < !best then best := ns
    done
  in
  let min_u = ref max_int and min_t = ref max_int in
  for _ = 1 to segments do
    segment untraced min_u;
    segment traced min_t
  done;
  let fin (port, thread, root, c) =
    Server_lib.Client.close c;
    stop_server port thread;
    rm_rf root
  in
  fin untraced;
  fin traced;
  let rps ns = if ns = 0 then 0.0 else 1e9 /. float_of_int ns in
  let ratio =
    if !min_t = 0 then 0.0 else float_of_int !min_u /. float_of_int !min_t
  in
  (segments, n, rps !min_u, rps !min_t, ratio)

(* ---------------- measurement 5: plane on/off bit-identity ---------- *)

let raw_request port line =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  output_string oc line;
  output_char oc '\n';
  flush oc;
  let reply = input_line ic in
  Unix.close fd;
  reply

let measure_plane_identity () =
  let line =
    {|{"id":1,"op":"analyze","source":"bench:crc","mode":"solo","cores":1,"kind":"wcet","trace_id":"bench-identity"}|}
  in
  let replies ~plane =
    let root =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "paratime-identity-bench-%b" plane)
    in
    rm_rf root;
    let trace_sample = if plane then 4 else 0 in
    let slow_ms = if plane then 0 else 250 in
    let flight_dir =
      if plane then Some (Filename.concat root "flight") else None
    in
    let store_root = Filename.concat root "store" in
    let port, thread =
      start_server ~trace_sample ~slow_ms ?flight_dir ~store_root ~workers:2 ()
    in
    let cold = raw_request port line in
    let hot = raw_request port line in
    stop_server port thread;
    let port, thread =
      start_server ~trace_sample ~slow_ms ?flight_dir ~store_root ~workers:2 ()
    in
    let warm = raw_request port line in
    stop_server port thread;
    rm_rf root;
    (cold, hot, warm)
  in
  replies ~plane:false = replies ~plane:true

(* ---------------- measurement 6: scrape-count exactness ------------- *)

let measure_scrape_exact () =
  let root =
    Filename.concat (Filename.get_temp_dir_name ()) "paratime-scrape-bench"
  in
  rm_rf root;
  let port, thread =
    start_server ~trace_sample:8 ~store_root:(Filename.concat root "store")
      ~workers:2 ()
  in
  let requests = if !quick then 40 else 120 in
  let cfg =
    {
      Server_lib.Loadtest.default_config with
      Server_lib.Loadtest.port;
      requests;
      connections = 4;
      repeat_ratio = 0.7;
      working_set = 3;
      cores = 2;
      seed = 11;
      scrape = true;
    }
  in
  let r =
    match Server_lib.Loadtest.run cfg with
    | Ok r -> r
    | Error msg -> failwith ("scrape loadtest failed: " ^ msg)
  in
  stop_server port thread;
  rm_rf root;
  let server_analyze =
    match r.Server_lib.Loadtest.server with
    | Some d ->
        Option.value ~default:0
          (List.assoc_opt "analyze" d.Server_lib.Loadtest.sd_by_op)
    | None -> 0
  in
  (r.Server_lib.Loadtest.sent, server_analyze)

(* ---------------- report ---------------- *)

let () =
  let keys, cold_p50, warm_p50 = measure_serve () in
  let n_overhead, analysis_p50, store_p50, overhead = measure_overhead () in
  let n_metrics, metrics_p50, n_warm_load, warm_load_p50 =
    measure_metrics_under_load ()
  in
  let segments, per_segment, untraced_rps, traced_rps, ratio =
    measure_tracing_overhead ()
  in
  let identity = measure_plane_identity () in
  let sent, server_analyze = measure_scrape_exact () in
  let speedup =
    if warm_p50 = 0 then infinity
    else float_of_int cold_p50 /. float_of_int warm_p50
  in
  Printf.printf "serve: %d keys  cold p50 %.3f ms  warm p50 %.3f ms  speedup %.1fx\n"
    keys
    (float_of_int cold_p50 /. 1e6)
    (float_of_int warm_p50 /. 1e6)
    speedup;
  Printf.printf
    "store: %d analyses  analysis p50 %.3f ms  store ops p50 %.4f ms  overhead %.2f%%\n"
    n_overhead
    (float_of_int analysis_p50 /. 1e6)
    (float_of_int store_p50 /. 1e6)
    (100.0 *. overhead);
  Printf.printf
    "metrics: %d scrapes under load  p50 %.3f ms  (%d warm hits under the \
     same load: p50 %.3f ms)\n"
    n_metrics
    (float_of_int metrics_p50 /. 1e6)
    n_warm_load
    (float_of_int warm_load_p50 /. 1e6);
  Printf.printf
    "tracing: latency floor over %d x %d-request blocks  untraced %.0f rps  \
     traced %.0f rps  ratio %.3f\n"
    segments per_segment untraced_rps traced_rps ratio;
  Printf.printf "identity: plane on/off replies %s\n"
    (if identity then "bit-identical" else "DIVERGED");
  Printf.printf "scrape: client sent %d  server counted %d analyze ops\n" sent
    server_analyze;
  let gate_speedup = speedup >= min_warm_speedup in
  let gate_overhead = overhead < max_store_overhead in
  let gate_metrics = metrics_p50 <= warm_load_p50 in
  let gate_tracing = ratio >= min_traced_ratio in
  let gate_identity = identity in
  let gate_scrape = sent = server_analyze in
  let oc = open_out !out in
  Printf.fprintf oc
    {|{
  "bench": "pr10-serve",
  "quick": %b,
  "serve": {
    "keys": %d,
    "cold_p50_ns": %d,
    "warm_p50_ns": %d,
    "warm_speedup": %.2f,
    "min_warm_speedup": %.1f,
    "pass": %b
  },
  "store_overhead": {
    "analyses": %d,
    "analysis_p50_ns": %d,
    "store_ops_p50_ns": %d,
    "overhead_frac": %.5f,
    "max_overhead_frac": %.2f,
    "pass": %b
  },
  "metrics_op": {
    "scrapes": %d,
    "metrics_p50_ns": %d,
    "warm_hits_under_load": %d,
    "warm_p50_budget_ns": %d,
    "pass": %b
  },
  "tracing_overhead": {
    "segments": %d,
    "requests_per_segment": %d,
    "untraced_rps": %.1f,
    "traced_rps": %.1f,
    "ratio": %.4f,
    "min_ratio": %.2f,
    "pass": %b
  },
  "acceptance": {
    "metrics_p50_le_warm_p50": %b,
    "traced_throughput_ratio_ok": %b,
    "plane_replies_bit_identical": %b,
    "scrape_count_exact": %b
  },
  "scrape_exact": {
    "sent": %d,
    "server_analyze": %d,
    "pass": %b
  }
}
|}
    !quick keys cold_p50 warm_p50 speedup min_warm_speedup gate_speedup
    n_overhead analysis_p50 store_p50 overhead max_store_overhead gate_overhead
    n_metrics metrics_p50 n_warm_load warm_load_p50 gate_metrics segments
    per_segment untraced_rps
    traced_rps ratio min_traced_ratio gate_tracing gate_metrics gate_tracing
    gate_identity gate_scrape sent server_analyze gate_scrape;
  close_out oc;
  Printf.printf "report -> %s\n" !out;
  if not gate_speedup then
    Printf.eprintf "GATE FAIL: warm speedup %.1fx < %.1fx\n" speedup
      min_warm_speedup;
  if not gate_overhead then
    Printf.eprintf "GATE FAIL: store overhead %.2f%% >= %.0f%%\n"
      (100.0 *. overhead)
      (100.0 *. max_store_overhead);
  if not gate_metrics then
    Printf.eprintf "GATE FAIL: metrics p50 %.3f ms > warm p50 %.3f ms\n"
      (float_of_int metrics_p50 /. 1e6)
      (float_of_int warm_load_p50 /. 1e6);
  if not gate_tracing then
    Printf.eprintf "GATE FAIL: traced throughput ratio %.3f < %.2f\n" ratio
      min_traced_ratio;
  if not gate_identity then
    Printf.eprintf "GATE FAIL: plane on/off replies diverged\n";
  if not gate_scrape then
    Printf.eprintf "GATE FAIL: scrape counted %d analyze ops, client sent %d\n"
      server_analyze sent;
  if
    not
      (gate_speedup && gate_overhead && gate_metrics && gate_tracing
     && gate_identity && gate_scrape)
  then exit 1
