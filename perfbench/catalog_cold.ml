(* catalog-cold: every op pays the whole cold analysis path.

   The pool is the 19 catalog programs at their default sizes plus the
   16 parameterised ones at [extra] further sizes, each analysed once in
   each of the 8 approach modes at 2 cores through
   [Server_lib.Modes.analyze], in a seeded shuffled order (see
   [Report.deal]).  No op repeats an earlier input, so no result or
   context cache can turn this into a hit benchmark; the simulator, store
   and server do no work here.  The seed only orders the ops, so every
   run does the same work. *)

module B = Workloads.Bench_programs
module O = Fuzz.Oracle
module Modes = Server_lib.Modes

type prog = { label : string; bench : B.t }

let cores = 2

(* The k-th extra size of each parameterised program (k >= 1); k = -1
   and -2 give the warm-up sizes, which no measured op uses. *)
let variants k =
  [
    B.fibonacci ~n:(32 + (8 * k));
    B.vector_sum ~n:(48 + (8 * k));
    B.memcpy ~n:(32 + (8 * k));
    B.matmul ~n:(6 + k);
    B.fir ~n:(40 + (8 * k)) ~taps:(8 + k);
    B.bubble_sort ~n:(12 + (2 * k));
    B.crc ~n:(16 + (4 * k));
    B.cache_stress ~stride:16 ~count:(24 + (4 * k));
    B.pointer_chase ~n:(32 + (4 * k)) ~steps:(24 + (4 * k));
    B.memory_bound ~n:(32 + (8 * k));
    B.l1_thrash ~n:(16 + (4 * k));
    B.assoc_stress ~ways:4 ~reps:(8 + (2 * k));
    B.straightline ~n:(24 + (4 * k));
    B.mode_select ~n:(16 + (4 * k));
    B.exclusive_modes ~iters:(12 + (2 * k));
    B.dead_arm ~n:(16 + (4 * k));
  ]
  |> List.map (fun (b : B.t) ->
         { label = Printf.sprintf "%s@%d" b.B.name k; bench = b })

let defaults () =
  List.map
    (fun (b : B.t) -> { label = b.B.name ^ "@0"; bench = b })
    (B.suite ())

(* Extra sizes: 7704 (program, mode) ops, which keep a
   [Report.window_s] window busy at 250-320 cold ops/s, and far more
   than the 1000 ops that put >= 10 samples beyond p99.  Every one of
   them has its bound in [table_path]. *)
let extra = 59

let programs () =
  defaults () @ List.concat_map variants (List.init extra (fun i -> i + 1))

let warmup () = variants (-1) @ variants (-2)

let ops progs =
  List.concat_map (fun p -> List.map (fun m -> (p, m)) O.all_modes) progs
  |> Array.of_list

let key p m = p.label ^ "\t" ^ O.mode_name m
let table_path = "perfbench/expected_bounds.tsv"

let load_table () =
  let tbl = Hashtbl.create 4096 in
  let ic = open_in table_path in
  (try
     while true do
       match String.split_on_char '\t' (input_line ic) with
       | [ label; mode; bound ] ->
           Hashtbl.replace tbl (label ^ "\t" ^ mode) (int_of_string bound)
       | _ -> failwith ("malformed line in " ^ table_path)
     done
   with End_of_file -> close_in ic);
  tbl

let analyze p m =
  match
    Modes.analyze ~mode:m ~cores ~kind:Modes.Wcet
      (p.bench.B.program, p.bench.B.annot)
  with
  | Ok e -> Ok e.Store.Entry.bound
  | Error msg -> Error msg

(* [--write-expected]: the table every run checks bounds against. *)
let write_table () =
  let oc = open_out table_path in
  Array.iter
    (fun (p, m) ->
      match analyze p m with
      | Ok b -> Printf.fprintf oc "%s\t%d\n" (key p m) b
      | Error msg -> failwith (key p m ^ ": " ^ msg))
    (ops (warmup () @ programs ()));
  close_out oc

let solo_platform () =
  Core.Platform.single_core
    ~l2:(Cache.Config.make ~sets:64 ~assoc:4 ~line_size:16)
    ()

module M = Core.Multicore
module P = Core.Platform

(* A core's platform, as [Multicore]'s analyses build it. *)
let platform_of (sys : M.system) ~core ~l2 ~arbiter =
  {
    P.latencies = sys.M.latencies;
    l1i = sys.M.l1i;
    l1d = sys.M.l1d;
    l2;
    arbiter;
    core;
    refresh = sys.M.refresh;
    mem_arbiter = None;
    method_cache = None;
  }

(* The op decomposed the way the real call runs it.  [Modes.analyze]
   passes no contexts, so every per-core [Wcet.analyze] inside the mode's
   [Multicore.analyze_*] builds a fresh context and runs the back end
   over it (a [Replay.wcet_unit] here), and the bypass and locking
   helpers rebuild the task's call graph and value analysis
   ([Replay.task_procs]).  The helpers themselves and dynamic locking's
   per-region selections are not public, so those run as the real call
   with their inner layers replayed beneath them.  If [Modes.analyze]
   starts sharing contexts, this decomposition no longer matches it and
   trace.coverage moves away from 1.  Returns the core-0 bound, which
   must equal the real call's. *)
let decomposed sp ~op ~root p m =
  let prog = p.bench.B.program and annot = p.bench.B.annot in
  let sys =
    M.default_system ~cores ~tasks:(Array.make cores (Some (prog, annot)))
  in
  let unit ?replay ?(parent = root) plat =
    Replay.wcet_unit sp ~op ~parent ?replay ~annot prog plat
  in
  (* a helper call, its inner layers replayed once it has returned *)
  let helper f replays =
    let id = ref 0 in
    let v =
      Spans.record sp ~parent:root ~op "core.backend" (fun i ->
          id := i;
          f ())
    in
    replays !id v;
    v
  in
  let per_core f = Array.init cores f in
  let private_l2 = P.Private_l2 sys.M.l2 in
  let results =
    match m with
    | O.Solo -> [| unit (solo_platform ()) |]
    | O.Oblivious ->
        per_core (fun _ ->
            unit
              (platform_of sys ~core:0 ~l2:private_l2
                 ~arbiter:Interconnect.Arbiter.Private))
    | O.Columnized | O.Bankized ->
        let scheme =
          if m = O.Columnized then Cache.Partition.Columnization
          else Cache.Partition.Bankization
        in
        let alloc = Cache.Partition.even_shares scheme sys.M.l2 ~parts:cores in
        per_core (fun core ->
            let slice =
              Cache.Partition.partition_config sys.M.l2 alloc ~index:core
            in
            unit
              (platform_of sys ~core ~l2:(P.Private_l2 slice)
                 ~arbiter:sys.M.arbiter))
    | O.Joint | O.Bypass ->
        let bypass =
          per_core (fun _ ->
              if m = O.Joint then fun _ -> false
              else
                let lines =
                  helper
                    (fun () -> M.bypass_lines sys (prog, annot))
                    (fun parent _ ->
                      Replay.task_procs sp ~op ~parent ~loops:true prog)
                in
                let set = Hashtbl.create (2 * List.length lines) in
                List.iter (fun l -> Hashtbl.replace set l ()) lines;
                fun l -> Hashtbl.mem set l)
        in
        let shared core conflicts =
          platform_of sys ~core
            ~l2:
              (P.Shared_l2
                 { config = sys.M.l2; conflicts; bypass = bypass.(core) })
            ~arbiter:sys.M.arbiter
        in
        let phase1 =
          per_core (fun core ->
              unit (shared core (Cache.Shared.no_conflicts sys.M.l2)))
        in
        let conflicts_for core =
          List.filter_map
            (fun j ->
              if j = core then None
              else
                let w = phase1.(j) in
                if Core.Wcet.uses_unknown_l2_target w then
                  Some
                    (Array.make sys.M.l2.Cache.Config.sets
                       sys.M.l2.Cache.Config.assoc)
                else
                  Some
                    (Option.value (Core.Wcet.footprint w)
                       ~default:(Cache.Shared.no_conflicts sys.M.l2)))
            (List.init cores Fun.id)
          |> List.rev
          |> fun fps -> Cache.Shared.combine fps sys.M.l2
        in
        per_core (fun core -> unit (shared core (conflicts_for core)))
    | O.Locked ->
        let obl =
          platform_of sys ~core:0 ~l2:private_l2
            ~arbiter:Interconnect.Arbiter.Private
        in
        let selection =
          helper
            (fun () -> M.static_lock_selection sys)
            (fun parent _ ->
              for _ = 1 to cores do
                ignore (unit ~replay:true ~parent obl);
                Replay.task_procs sp ~op ~parent ~loops:false prog
              done)
        in
        per_core (fun core ->
            unit
              (platform_of sys ~core
                 ~l2:
                   (P.Locked_l2
                      {
                        config = sys.M.l2;
                        selection_of = (fun _ -> selection);
                        reload_cost = (fun ~proc:_ _ -> 0);
                      })
                 ~arbiter:sys.M.arbiter))
    | O.Dynamic ->
        helper
          (fun () -> M.analyze_locked_dynamic sys)
          (fun parent ws ->
            Array.iter
              (fun w ->
                let w = Option.get w in
                Replay.task_procs sp ~op ~parent ~loops:true prog;
                ignore (unit ~replay:true ~parent w.Core.Wcet.platform))
              ws)
        |> Array.map Option.get
  in
  (Store.Entry.of_wcet results.(0)).Store.Entry.bound

(* A traced op: the real call, then its decomposition. *)
let traced_op sp ~op p m =
  Spans.record sp ~op "op" (fun root ->
      let real =
        Spans.record sp ~parent:root ~op "op.call" (fun _ -> analyze p m)
      in
      let dec = decomposed sp ~op ~root p m in
      (real, dec))

(* The serving layers a hot or warm request of the default-size catalog
   passes through (parse, key, store, encode), replayed in process on
   seeded repeat lines over the 152-key working set. *)
let serving_layers ~seed =
  let ws = Requests.working_set () in
  let st = Random.State.make [| seed; 0x5e7 |] in
  let repeats =
    List.init 2000 (fun i ->
        let k = ws.(Random.State.int st (Array.length ws)) in
        (Requests.repeat_line ~id:i k, k))
  in
  Requests.replay
    ~store:(Printf.sprintf ".bench_run/replay-store-%d" (Unix.getpid ()))
    ~repeats
    ~cold:(List.map snd (Requests.cold_lines ~seed ~programs:16))

let run ~t_main ~seed ~trace =
  let (table, rounds), setup_s =
    Report.repeated_setup ~t_main ~reps:5 (fun () ->
        let table = load_table () in
        (* untimed warm-up pass on sizes no measured op uses *)
        Array.iter
          (fun (p, m) ->
            if analyze p m <> Ok (Hashtbl.find table (key p m)) then
              failwith ("warm-up bound mismatch: " ^ key p m))
          (ops (warmup ()));
        (table, Report.deal ~seed (ops (programs ()))))
  in
  let f = Report.failures () in
  let check p m got =
    match Hashtbl.find_opt table (key p m) with
    | Some b when got = Ok b -> None
    | Some b ->
        Some
          (Printf.sprintf "%s: expected %d, got %s" (key p m) b
             (match got with Ok g -> string_of_int g | Error e -> e))
    | None -> Some (key p m ^ ": not in " ^ table_path)
  in
  let sp = Spans.create () and w = Report.work () in
  let n, ops_per_s, lat =
    Report.run_rounds rounds (fun i (p, m) ->
        let err, dt =
          if trace && i land 1 = 1 then
            let real, dec =
              Report.traced w (fun () -> traced_op sp ~op:i p m)
            in
            ( (match check p m real with
              | None when Ok dec <> real ->
                  Some (key p m ^ ": decomposed bound differs")
              | e -> e),
              None )
          else
            let got, dt = Report.untraced w (fun () -> analyze p m) in
            (check p m got, Some dt)
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
      let layer name = Report.layer_ms self ~ops:w.Report.traced_ops name in
      Spans.write sp
        (Printf.sprintf ".bench_run/trace-catalog-cold-%d.csv" seed);
      [
        ("cfg.build_ms", layer "cfg.build", "ms");
        ("dataflow.value_analysis_ms", layer "dataflow.value_analysis", "ms");
        ("dataflow.loop_bounds_ms", layer "dataflow.loop_bounds", "ms");
        ("cache.l1_fixpoint_ms", layer "cache.l1_fixpoint", "ms");
        ("core.ctx_build_ms", layer "core.ctx_build", "ms");
        ("cache.l2_fixpoint_ms", layer "cache.l2_fixpoint", "ms");
        ("lp.ipet_ms", layer "lp.ipet", "ms");
        ("core.backend_ms", layer "core.backend", "ms");
        ("trace.coverage", Report.coverage sp self ~call:"op.call", "ratio");
      ]
      @ Report.work_metrics w
      @ serving_layers ~seed
  in
  {
    Report.attempted = n;
    failed = f.Report.failed;
    errors = List.rev f.Report.errors;
    metrics;
  }
