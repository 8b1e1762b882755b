(* fuzz-soundness: the differential oracle, where the simulator does a
   large share of the work (none in catalog-cold) on generated shapes
   (diamonds, calls, I/O polls) the catalog lacks.

   The corpus is a Fuzz.Generator corpus with heavier loops than the
   default, paired into 2-core groups.  One op is one oracle call
   with the default interpreter and engine: check_solo on one program,
   or check_group ~modes:[m] on one pair for one contended mode.  Every
   op checks BCET <= observed <= WCET, so a speed-up that breaks
   soundness shows up as failed ops. *)

module G = Fuzz.Generator
module O = Fuzz.Oracle
module M = Core.Multicore
module P = Core.Platform

let params =
  {
    G.default_params with
    G.max_pieces = 8;
    max_ops = 8;
    max_iters = 20;
    max_depth = 3;
  }

(* One fixed corpus for every run: the op costs are heavy-tailed (p99
   about ten times p50), so a corpus drawn per seed moved throughput and
   p99 by a fifth between seeds.  The run's seed shuffles the op order,
   as in catalog-cold. *)
let corpus_seed = 7

type op = Solo of G.t | Group of O.mode * G.t array

let contended = List.filter (fun m -> m <> O.Solo) O.all_modes

(* Nine ops per pair: both programs solo, the pair in each contended
   mode. *)
let ops_of_pair a b =
  Solo a :: Solo b :: List.map (fun m -> Group (m, [| a; b |])) contended

(* Pairs: 3906 ops, which keep a [Report.window_s] window busy at
   130-200 ops/s, and far more than the 1000 ops that put >= 10 samples
   beyond p99. *)
let pairs = 434

let op_name = function
  | Solo g -> g.G.name ^ "/solo"
  | Group (m, gs) ->
      Printf.sprintf "%s+%s/%s" gs.(0).G.name gs.(1).G.name (O.mode_name m)

let run_op = function
  | Solo g -> O.check_solo g
  | Group (m, gs) -> O.check_group ~modes:[ m ] gs

let verdict op (r : O.report) =
  match (r.O.violations, r.O.errors, r.O.checks) with
  | [], [], _ :: _ -> None
  | v :: _, _, _ -> Some (op_name op ^ ": " ^ v.O.reason)
  | [], e :: _, _ -> Some (op_name op ^ ": " ^ e)
  | [], [], [] -> Some (op_name op ^ ": no checks")

(* ---- traced decomposition ------------------------------------------- *)

(* The oracle's five solo platform shapes and the machine each one
   describes, as the oracle builds them. *)
let solo_shapes () =
  let l2_small = Cache.Config.make ~sets:16 ~assoc:2 ~line_size:16 in
  let tiny = Cache.Config.make ~sets:2 ~assoc:2 ~line_size:8 in
  [
    P.single_core ();
    P.single_core ~l2:l2_small ();
    { (P.single_core ~l2:l2_small ()) with P.l1i = tiny; l1d = tiny };
    {
      (P.single_core ()) with
      P.refresh =
        Interconnect.Arbiter.Distributed { interval = 128; duration = 12 };
    };
    {
      (P.single_core ()) with
      P.method_cache = Some Cache.Method_cache.default;
    };
  ]

let sim_config_of (p : P.t) =
  {
    Sim.Machine.latencies = p.P.latencies;
    l1i = p.P.l1i;
    l1d = p.P.l1d;
    l2 =
      (match P.l2_config p with
      | None -> Sim.Machine.No_l2
      | Some c -> Sim.Machine.Private_l2 [| c |]);
    arbiter = Interconnect.Arbiter.Private;
    refresh = p.P.refresh;
    i_path =
      (match p.P.method_cache with
      | None -> Sim.Machine.Conventional
      | Some mc -> Sim.Machine.Method_cache mc);
  }

let setup_of (g : G.t) =
  {
    (Sim.Machine.task g.G.program) with
    Sim.Machine.init_data = g.G.data_init;
  }

(* The simulator runs a group check makes for its mode, with the setups
   [Oracle.check_group] gives them: each task alone on a private L2
   (oblivious), the pair on its L2 slices (partitioned), the pair on the
   shared L2 (joint), bypassing its single-usage lines (bypass) or with
   the static lock selection loaded (locked); none for dynamic locking,
   which is analysis-only. *)
let group_sims ~ctxs sys (gs : G.t array) mode =
  let shared = M.machine_config sys ~l2:(Sim.Machine.Shared_l2 sys.M.l2) in
  let setups = Array.map setup_of gs in
  match mode with
  | O.Solo | Dynamic -> []
  | Oblivious ->
      let cfg =
        {
          (M.machine_config sys
             ~l2:(Sim.Machine.Private_l2 [| sys.M.l2 |]))
          with
          Sim.Machine.arbiter = Interconnect.Arbiter.Private;
        }
      in
      Array.to_list (Array.map (fun s -> (cfg, [| s |])) setups)
  | Columnized | Bankized ->
      let scheme =
        if mode = O.Columnized then Cache.Partition.Columnization
        else Cache.Partition.Bankization
      in
      let n = Array.length gs in
      let alloc = Cache.Partition.even_shares scheme sys.M.l2 ~parts:n in
      let slices =
        Array.init n (fun i ->
            Cache.Partition.partition_config sys.M.l2 alloc ~index:i)
      in
      [ (M.machine_config sys ~l2:(Sim.Machine.Private_l2 slices), setups) ]
  | Joint -> [ (shared, setups) ]
  | Bypass ->
      let bypassed core (g : G.t) =
        let lines =
          M.bypass_lines ?ctx:ctxs.(core) sys (g.G.program, g.G.annot)
        in
        let set = Hashtbl.create (2 * List.length lines) in
        List.iter (fun l -> Hashtbl.replace set l ()) lines;
        { setups.(core) with Sim.Machine.l2_bypass = Hashtbl.mem set }
      in
      [ (shared, Array.mapi bypassed gs) ]
  | Locked ->
      let selection = M.static_lock_selection ~ctxs sys in
      [
        ( shared,
          Array.map
            (fun s ->
              {
                s with
                Sim.Machine.locked_l2_lines = selection.Cache.Locking.locked;
              })
            setups );
      ]

(* The real oracle call, then its analysis and simulation replayed
   through the layers' public calls as children of the "fuzz.oracle"
   span, whose self time is what remains of the check.  Returns the
   report and the replayed simulations' per-core cycles, which must be
   the cycles the report observed. *)
let traced_op sp ~op o =
  Spans.record sp ~op "op" (fun root ->
      let oid = ref 0 in
      let report =
        Spans.record sp ~parent:root ~op "fuzz.oracle" (fun id ->
            oid := id;
            run_op o)
      in
      let parent = !oid in
      let span name f = Spans.record sp ~parent ~replay:true ~op name f in
      let cycles = ref [] in
      let sim cfg cores =
        let rs = span "sim.run" (fun _ -> Sim.Machine.run cfg ~cores ()) in
        Array.iter
          (fun (r : Sim.Machine.core_result) ->
            cycles := r.Sim.Machine.cycles :: !cycles)
          rs
      in
      (match o with
      | Solo g ->
          List.iter
            (fun plat ->
              ignore
                (Replay.wcet_unit sp ~op ~parent ~replay:true ~annot:g.G.annot
                   g.G.program plat);
              sim (sim_config_of plat) [| setup_of g |])
            (solo_shapes ())
      | Group (m, gs) ->
          let sys =
            M.default_system ~cores:(Array.length gs)
              ~tasks:(Array.map (fun g -> Some (g.G.program, g.G.annot)) gs)
          in
          let cid, ctxs =
            span "core.ctx_build" (fun id -> (id, M.contexts sys))
          in
          Array.iter (Option.iter (Replay.front sp ~op ~parent:cid)) ctxs;
          let bid, ws =
            span "core.backend" (fun id ->
                (id, Replay.contended ~ctxs sys m))
          in
          (* the pair's programs differ, so each core has its own context *)
          Array.iteri
            (fun core ctx ->
              match (ctx, ws.(core)) with
              | Some ctx, Some w -> Replay.back sp ~op ~parent:bid ctx w
              | _ -> ())
            ctxs;
          List.iter
            (fun (cfg, cores) -> sim cfg cores)
            (group_sims ~ctxs sys gs m));
      (report, List.rev !cycles))

(* The cycles the report's checks observed, in the order the oracle ran
   its simulations (one check per simulated core). *)
let observed (r : O.report) =
  List.filter_map (fun (c : O.check) -> c.O.observed) r.O.checks

(* ---- the run ---------------------------------------------------------- *)

let run ~t_main ~seed ~trace =
  let (rounds, generate_ms), setup_s =
    Report.repeated_setup ~t_main ~reps:5 (fun () ->
        let t0 = Report.now_ns () in
        let gens =
          Array.init (2 * pairs) (fun index ->
              G.generate ~params ~seed:corpus_seed ~index ())
        in
        let generate_ms =
          Report.ms_of_ns (Report.now_ns () - t0) /. float_of_int (2 * pairs)
        in
        (* untimed warm-up pass on pairs no measured op uses *)
        let warm index = G.generate ~params ~seed:(-1) ~index () in
        List.iter
          (fun i ->
            List.iter
              (fun o ->
                match verdict o (run_op o) with
                | None -> ()
                | Some msg -> failwith ("warm-up: " ^ msg))
              (ops_of_pair (warm (2 * i)) (warm ((2 * i) + 1))))
          (List.init 4 Fun.id);
        let ops =
          Array.of_list
            (List.concat_map
               (fun i -> ops_of_pair gens.(2 * i) gens.((2 * i) + 1))
               (List.init pairs Fun.id))
        in
        (Report.deal ~seed ops, generate_ms))
  in
  let f = Report.failures () in
  let sp = Spans.create () and w = Report.work () in
  let cycles = ref 0 in
  let n, ops_per_s, lat =
    Report.run_rounds rounds (fun i o ->
        let err, dt =
          if trace && i land 1 = 1 then
            let r, c = Report.traced w (fun () -> traced_op sp ~op:i o) in
            cycles := !cycles + List.fold_left ( + ) 0 c;
            ( (match verdict o r with
              | None when List.sort compare c <> List.sort compare (observed r)
                ->
                  Some (op_name o ^ ": replayed cycles differ from the report's")
              | e -> e),
              None )
          else
            let r, dt = Report.untraced w (fun () -> run_op o) in
            (verdict o r, Some dt)
        in
        Option.iter (Report.fail f) err;
        dt)
  in
  let metrics =
    if not trace then
      [ ("setup_s", setup_s, "s"); ("ops_per_s", ops_per_s, "1/s") ]
      @ Report.latency_metrics ~prefix:"op" lat
      @ [ ("peak_rss_mb", Report.peak_rss_mb (), "MB") ]
    else
      let self = Spans.self_ns sp in
      let traced = w.Report.traced_ops in
      let layer name = Report.layer_ms self ~ops:traced name in
      Spans.write sp
        (Printf.sprintf ".bench_run/trace-fuzz-soundness-%d.csv" seed);
      [
        ("cfg.build_ms", layer "cfg.build", "ms");
        ("dataflow.value_analysis_ms", layer "dataflow.value_analysis", "ms");
        ("dataflow.loop_bounds_ms", layer "dataflow.loop_bounds", "ms");
        ("cache.l1_fixpoint_ms", layer "cache.l1_fixpoint", "ms");
        ("core.ctx_build_ms", layer "core.ctx_build", "ms");
        ("cache.l2_fixpoint_ms", layer "cache.l2_fixpoint", "ms");
        ("lp.ipet_ms", layer "lp.ipet", "ms");
        ("core.backend_ms", layer "core.backend", "ms");
        ("sim.run_ms", layer "sim.run", "ms");
        ("fuzz.generate_ms", generate_ms, "ms");
        ("fuzz.oracle_ms", layer "fuzz.oracle", "ms");
        ( "sim.cycles",
          float_of_int !cycles /. float_of_int (max 1 traced),
          "1/op" );
        ( "trace.coverage",
          Report.coverage sp self ~call:"fuzz.oracle",
          "ratio" );
      ]
      @ Report.work_metrics w
  in
  {
    Report.attempted = n;
    failed = f.Report.failed;
    errors = List.rev f.Report.errors;
    metrics;
  }
