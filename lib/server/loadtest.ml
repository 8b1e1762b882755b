type config = {
  host : string;
  port : int;
  requests : int;
  connections : int;
  repeat_ratio : float;
  working_set : int;
  modes : Core.Mode.t list;
  cores : int;
  kind : Modes.kind;
  seed : int;
  shutdown_after : bool;
  scrape : bool;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7421;
    requests = 200;
    connections = 8;
    repeat_ratio = 0.8;
    working_set = 4;
    modes = Core.Mode.all;
    cores = 2;
    kind = Modes.Wcet;
    seed = 42;
    shutdown_after = false;
    scrape = false;
  }

type outcome_stats = { o_count : int; o_p50_ns : int; o_p99_ns : int }

type server_delta = {
  sd_requests : int;
  sd_by_op : (string * int) list;
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
  errors : int;
  wall_ns : int;
  overall : outcome_stats;
  by_outcome : (string * outcome_stats) list;
  hit_curve : (int * int) list;
  server : server_delta option;
}

(* per-thread accumulator; merged under [agg_lock] when the thread ends *)
type acc = {
  mutable a_sent : int;
  mutable a_hot : int;
  mutable a_warm : int;
  mutable a_cold : int;
  mutable a_busy : int;
  mutable a_errors : int;
  h_all : Obs.Histogram.t;
  h_outcome : (string * Obs.Histogram.t) list;
  deciles : (int * int) array;  (* (hits, total) per tenth of the sequence *)
}

let fresh_acc () =
  {
    a_sent = 0;
    a_hot = 0;
    a_warm = 0;
    a_cold = 0;
    a_busy = 0;
    a_errors = 0;
    h_all = Obs.Histogram.create ();
    h_outcome =
      List.map
        (fun k -> (k, Obs.Histogram.create ()))
        [ "hot"; "warm"; "cold"; "busy" ];
    deciles = Array.make 10 (0, 0);
  }

let outcome_hist acc name = List.assoc name acc.h_outcome

(* BCET is only served for solo; when the kind is bcet, contended modes
   in the rotation would all be protocol errors, so pin the mode. *)
let effective_modes cfg =
  match cfg.kind with
  | Modes.Bcet -> [ Core.Mode.Solo ]
  | Modes.Wcet -> cfg.modes

let bench_names =
  lazy
    (List.map
       (fun (b : Workloads.Bench_programs.t) -> b.Workloads.Bench_programs.name)
       (Workloads.Bench_programs.suite ()))

let request_json cfg ~id ~mode ~fresh_index rng =
  let common =
    [
      ("id", Json.Int id);
      ("op", Json.Str "analyze");
      ("mode", Json.Str (Core.Mode.name mode));
      ("cores", Json.Int cfg.cores);
      ("kind", Json.Str (Modes.kind_name cfg.kind));
    ]
  in
  if Random.State.float rng 1.0 < cfg.repeat_ratio then
    (* draw from a small hot working set so repeats actually repeat a
       (bench, mode) key — the whole catalog x 8 modes would dilute the
       mix into near-misses at smoke-test request counts *)
    let names = Lazy.force bench_names in
    let k = max 1 (min cfg.working_set (List.length names)) in
    let name = List.nth names (Random.State.int rng k) in
    (Json.Obj (("source", Json.Str ("bench:" ^ name)) :: common), None)
  else
    let g = Fuzz.Generator.generate ~seed:cfg.seed ~index:fresh_index () in
    let bounds =
      Json.List
        (List.map
           (fun (proc, label, n) ->
             Json.List [ Json.Str proc; Json.Str label; Json.Int n ])
           (Dataflow.Annot.loop_bounds g.Fuzz.Generator.annot))
    in
    ( Json.Obj
        (("name", Json.Str g.Fuzz.Generator.name)
        :: ("asm", Json.Str g.Fuzz.Generator.source)
        :: ("bounds", bounds) :: common),
      Some g.Fuzz.Generator.name )

let classify reply =
  match Json.member "ok" reply with
  | Some (Json.Bool true) -> (
      match Json.str_field "cached" reply with
      | Some ("hot" | "warm" | "cold" as c) -> `Outcome c
      | _ -> `Outcome "cold" (* status/shutdown replies never reach here *))
  | _ -> (
      match Json.str_field "code" reply with
      | Some "busy" -> `Outcome "busy"
      | _ -> `Error)

let worker cfg ~tid ~count acc =
  match Client.connect ~host:cfg.host ~port:cfg.port () with
  | Error msg -> Error msg
  | Ok client ->
      let rng = Random.State.make [| cfg.seed; tid; 0x10ad |] in
      let modes = effective_modes cfg in
      let n_modes = List.length modes in
      (try
         for i = 0 to count - 1 do
           let id = (tid * count) + i in
           let mode = List.nth modes (id mod n_modes) in
           let req, _ = request_json cfg ~id ~mode ~fresh_index:id rng in
           let t0 = Obs.now_ns () in
           let reply = Client.request client req in
           let dt = Int64.to_int (Int64.sub (Obs.now_ns ()) t0) in
           acc.a_sent <- acc.a_sent + 1;
           Obs.Histogram.observe acc.h_all dt;
           let decile = min 9 (i * 10 / max 1 count) in
           let hit = ref false in
           (match reply with
           | Error _ -> acc.a_errors <- acc.a_errors + 1
           | Ok reply -> (
               match classify reply with
               | `Error -> acc.a_errors <- acc.a_errors + 1
               | `Outcome o ->
                   Obs.Histogram.observe (outcome_hist acc o) dt;
                   (match o with
                   | "hot" ->
                       acc.a_hot <- acc.a_hot + 1;
                       hit := true
                   | "warm" ->
                       acc.a_warm <- acc.a_warm + 1;
                       hit := true
                   | "busy" -> acc.a_busy <- acc.a_busy + 1
                   | _ -> acc.a_cold <- acc.a_cold + 1)));
           let hits, total = acc.deciles.(decile) in
           acc.deciles.(decile) <- ((hits + if !hit then 1 else 0), total + 1)
         done
       with e ->
         Client.close client;
         raise e);
      Client.close client;
      Ok ()

let stats_of_hist h =
  let snap = Obs.Histogram.snapshot h in
  {
    o_count = snap.Obs.Histogram.s_count;
    o_p50_ns = Protocol.percentile snap 0.50;
    o_p99_ns = Protocol.percentile snap 0.99;
  }

(* One scrape round trip on its own connection; the scrape traffic is
   [op:"metrics"], so per-op deltas over ["server.req.analyze"] count
   exactly the analysis requests this run sent. *)
let scrape_sample cfg =
  match Client.connect ~host:cfg.host ~port:cfg.port () with
  | Error msg -> Error (Printf.sprintf "scrape: %s" msg)
  | Ok c ->
      let r = Scrape.fetch c in
      Client.close c;
      Result.map_error (fun msg -> Printf.sprintf "scrape: %s" msg) r

let delta_of ~before ~after =
  {
    sd_requests = Scrape.counter_delta ~before ~after "server.requests";
    sd_by_op = Scrape.counters_with_prefix ~before ~after "server.req.";
    sd_outcomes = Scrape.counters_with_prefix ~before ~after "server.out.";
    sd_p50_ns =
      Scrape.percentile (Scrape.hist_delta ~before ~after "server.request_ns") 0.50;
    sd_p99_ns =
      Scrape.percentile (Scrape.hist_delta ~before ~after "server.request_ns") 0.99;
    sd_write_dropped =
      Scrape.counter_delta ~before ~after "store.write_dropped";
  }

let run cfg =
  if cfg.requests < 0 then
    Error (Printf.sprintf "requests must be >= 0 (got %d)" cfg.requests)
  else if cfg.connections < 1 then
    Error (Printf.sprintf "connections must be >= 1 (got %d)" cfg.connections)
  else if cfg.working_set < 1 then
    Error
      (Printf.sprintf "working set is empty (--working-set %d; need >= 1)"
         cfg.working_set)
  else if cfg.modes = [] then Error "empty mode rotation"
  else begin
    let cfg =
      { cfg with repeat_ratio = Float.max 0.0 (Float.min 1.0 cfg.repeat_ratio) }
    in
    (* probe first so a dead server is one clean error, not N thread
       failures *)
    match Client.connect ~host:cfg.host ~port:cfg.port () with
    | Error msg -> Error msg
    | Ok probe -> (
        Client.close probe;
        let before_scrape =
          if cfg.scrape then Result.map Option.some (scrape_sample cfg)
          else Ok None
        in
        match before_scrape with
        | Error msg -> Error msg
        | Ok before ->
        let per_thread = cfg.requests / cfg.connections in
        let remainder = cfg.requests mod cfg.connections in
        let accs = Array.init cfg.connections (fun _ -> fresh_acc ()) in
        let results = Array.make cfg.connections (Ok ()) in
        let t0 = Obs.now_ns () in
        let threads =
          List.init cfg.connections (fun tid ->
              let count = per_thread + if tid < remainder then 1 else 0 in
              Thread.create
                (fun () ->
                  results.(tid) <- worker cfg ~tid ~count accs.(tid))
                ())
        in
        List.iter Thread.join threads;
        let wall_ns = Int64.to_int (Int64.sub (Obs.now_ns ()) t0) in
        (* scrape before any shutdown: the delta must cover exactly the
           run's own traffic *)
        let server_delta =
          Option.map
            (fun before ->
              Result.map (fun after -> delta_of ~before ~after)
                (scrape_sample cfg))
            before
        in
        if cfg.shutdown_after then
          (match Client.connect ~host:cfg.host ~port:cfg.port () with
          | Error _ -> ()
          | Ok c ->
              ignore
                (Client.request c
                   (Json.Obj
                      [ ("id", Json.Int 0); ("op", Json.Str "shutdown") ]));
              Client.close c);
        let first_err =
          Array.fold_left
            (fun acc r ->
              match (acc, r) with Some e, _ -> Some e | None, Error e -> Some e | None, Ok () -> None)
            None results
        in
        (match (first_err, server_delta) with
        | Some e, _ -> Error e
        | None, Some (Error e) -> Error e
        | None, (None | Some (Ok _)) ->
            let total = fresh_acc () in
            Array.iter
              (fun a ->
                total.a_sent <- total.a_sent + a.a_sent;
                total.a_hot <- total.a_hot + a.a_hot;
                total.a_warm <- total.a_warm + a.a_warm;
                total.a_cold <- total.a_cold + a.a_cold;
                total.a_busy <- total.a_busy + a.a_busy;
                total.a_errors <- total.a_errors + a.a_errors;
                Obs.Histogram.merge_into ~into:total.h_all a.h_all;
                List.iter
                  (fun (k, h) ->
                    Obs.Histogram.merge_into ~into:(outcome_hist total k) h)
                  a.h_outcome;
                Array.iteri
                  (fun d (hits, n) ->
                    let th, tn = total.deciles.(d) in
                    total.deciles.(d) <- (th + hits, tn + n))
                  a.deciles)
              accs;
            Ok
              {
                sent = total.a_sent;
                ok = total.a_hot + total.a_warm + total.a_cold;
                hot = total.a_hot;
                warm = total.a_warm;
                cold = total.a_cold;
                busy = total.a_busy;
                errors = total.a_errors;
                wall_ns;
                overall = stats_of_hist total.h_all;
                by_outcome =
                  List.map
                    (fun (k, h) -> (k, stats_of_hist h))
                    total.h_outcome;
                hit_curve = Array.to_list total.deciles;
                server =
                  (match server_delta with
                  | Some (Ok d) -> Some d
                  | _ -> None);
              }))
  end

let hit_rate r =
  if r.sent = 0 then 0.0
  else float_of_int (r.hot + r.warm) /. float_of_int r.sent

let render r =
  let b = Buffer.create 512 in
  let ms ns = float_of_int ns /. 1e6 in
  Buffer.add_string b
    (Printf.sprintf
       "loadtest: %d requests in %.1f ms (%.0f req/s)\n" r.sent
       (ms r.wall_ns)
       (if r.wall_ns = 0 then 0.0
        else float_of_int r.sent /. (float_of_int r.wall_ns /. 1e9)));
  Buffer.add_string b
    (Printf.sprintf
       "  outcomes: hot %d, warm %d, cold %d, busy %d, errors %d (hit rate %.1f%%)\n"
       r.hot r.warm r.cold r.busy r.errors (100.0 *. hit_rate r));
  Buffer.add_string b
    (Printf.sprintf "  latency: p50 %.3f ms, p99 %.3f ms\n"
       (ms r.overall.o_p50_ns) (ms r.overall.o_p99_ns));
  List.iter
    (fun (k, s) ->
      if s.o_count > 0 then
        Buffer.add_string b
          (Printf.sprintf "    %-4s n=%-5d p50 %.3f ms  p99 %.3f ms\n" k
             s.o_count (ms s.o_p50_ns) (ms s.o_p99_ns)))
    r.by_outcome;
  Option.iter
    (fun d ->
      Buffer.add_string b
        (Printf.sprintf
           "  server: %d requests seen, p50 %.3f ms, p99 %.3f ms, \
            write-dropped %d\n"
           d.sd_requests (ms d.sd_p50_ns) (ms d.sd_p99_ns) d.sd_write_dropped);
      let row label kvs =
        if kvs <> [] then
          Buffer.add_string b
            (Printf.sprintf "    %s:%s\n" label
               (String.concat ""
                  (List.map (fun (k, v) -> Printf.sprintf " %s %d" k v) kvs)))
      in
      row "by op" d.sd_by_op;
      row "by outcome" d.sd_outcomes)
    r.server;
  Buffer.add_string b "  hit-rate curve (per decile):";
  List.iter
    (fun (hits, n) ->
      Buffer.add_string b
        (if n = 0 then " -"
         else Printf.sprintf " %.0f%%" (100.0 *. float_of_int hits /. float_of_int n)))
    r.hit_curve;
  Buffer.add_char b '\n';
  Buffer.contents b

let outcome_json s =
  Json.Obj
    [
      ("count", Json.Int s.o_count);
      ("p50_ns", Json.Int s.o_p50_ns);
      ("p99_ns", Json.Int s.o_p99_ns);
    ]

let report_json r =
  Json.Obj
    ([
      ("sent", Json.Int r.sent);
      ("ok", Json.Int r.ok);
      ("hot", Json.Int r.hot);
      ("warm", Json.Int r.warm);
      ("cold", Json.Int r.cold);
      ("busy", Json.Int r.busy);
      ("errors", Json.Int r.errors);
      ("hit_rate", Json.Float (hit_rate r));
      ("wall_ns", Json.Int r.wall_ns);
      ("latency", outcome_json r.overall);
      ( "by_outcome",
        Json.Obj (List.map (fun (k, s) -> (k, outcome_json s)) r.by_outcome) );
      ( "hit_curve",
        Json.List
          (List.map
             (fun (hits, n) ->
               Json.Obj [ ("hits", Json.Int hits); ("requests", Json.Int n) ])
             r.hit_curve) );
    ]
    @
    match r.server with
    | None -> []
    | Some d ->
      [
        ( "server",
          Json.Obj
            [
              ("requests", Json.Int d.sd_requests);
              ( "by_op",
                Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) d.sd_by_op)
              );
              ( "outcomes",
                Json.Obj
                  (List.map (fun (k, v) -> (k, Json.Int v)) d.sd_outcomes) );
              ( "latency",
                Json.Obj
                  [
                    ("p50_ns", Json.Int d.sd_p50_ns);
                    ("p99_ns", Json.Int d.sd_p99_ns);
                  ] );
              ("write_dropped", Json.Int d.sd_write_dropped);
            ] );
      ])
