(* The paratime benchmark: one workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints, as its last stdout line, one JSON object
   {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
   with --trace 0, the per-layer metrics with --trace 1.  Exits 1 if any
   op's output check failed.  Run it through perfbench/run.py, which
   builds it first.

     main.exe --write-expected
   records perfbench/expected_bounds.tsv, the bounds catalog-cold checks
   against. *)

let end_to_end =
  [ "setup_s"; "ops_per_s"; "op_p50_ms"; "op_p99_ms"; "peak_rss_mb" ]

(* Every per-layer metric, in BENCHMARK.json order.  A workload whose run
   never reaches a layer reports it as 0 (the simulator in catalog-cold,
   the serving layers in fuzz-soundness). *)
let per_layer =
  [
    ("cfg.build_ms", "ms");
    ("dataflow.value_analysis_ms", "ms");
    ("dataflow.loop_bounds_ms", "ms");
    ("cache.l1_fixpoint_ms", "ms");
    ("core.ctx_build_ms", "ms");
    ("cache.l2_fixpoint_ms", "ms");
    ("lp.ipet_ms", "ms");
    ("core.backend_ms", "ms");
    ("sim.run_ms", "ms");
    ("fuzz.generate_ms", "ms");
    ("fuzz.oracle_ms", "ms");
    ("cache.fixpoint_iters", "1/op");
    ("dataflow.worklist_pops", "1/op");
    ("dataflow.worklist_transfers", "1/op");
    ("lp.pivots", "1/op");
    ("sim.cycles", "1/op");
    ("gc.minor_words_per_op", "words");
    ("gc.minor_collections", "1/op");
    ("gc.major_collections", "1/op");
    ("server.parse_us", "us");
    ("server.key_us", "us");
    ("store.mem_find_us", "us");
    ("store.disk_find_us", "us");
    ("store.put_us", "us");
    ("server.encode_us", "us");
    ("trace.coverage", "ratio");
    ("trace.overhead", "ratio");
  ]

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct (r : Report.t) names =
  let metric (name, unit_) =
    let v, u =
      match List.find_opt (fun (n, _, _) -> n = name) r.Report.metrics with
      | Some (_, v, u) -> (v, u)
      | None -> (0., unit_)
    in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) u
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n\
     %!"
    correct r.Report.attempted r.Report.failed
    (String.concat ", " (List.map metric names))

let () =
  let t_main = Report.now_ns () in
  let workload = ref "" and seed = ref 1 and seconds = ref Report.window_s in
  let trace = ref 0 and write_expected = ref false in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "NAME catalog-cold | fuzz-soundness" );
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured window");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
      ( "--write-expected",
        Arg.Set write_expected,
        " record the expected bounds" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !write_expected then (
    Catalog_cold.write_table ();
    exit 0);
  if !seconds <> Report.window_s then (
    Printf.eprintf
      "--seconds %d: the op sets are fixed and sized for a %d s window\n"
      !seconds Report.window_s;
    exit 2);
  let trace = !trace = 1 and seed = !seed in
  (* run artefacts: span dumps and the serving replay's store *)
  if not (Sys.file_exists ".bench_run") then Sys.mkdir ".bench_run" 0o755;
  let r =
    match !workload with
    | "catalog-cold" -> Catalog_cold.run ~t_main ~seed ~trace
    | "fuzz-soundness" -> Fuzz_soundness.run ~t_main ~seed ~trace
    | w ->
        prerr_endline ("unknown workload " ^ w);
        exit 2
  in
  List.iter (fun e -> prerr_endline ("check failed: " ^ e)) r.Report.errors;
  let correct = r.Report.failed = 0 in
  let names =
    if trace then per_layer else List.map (fun n -> (n, "")) end_to_end
  in
  print_result ~correct r names;
  if not correct then exit 1
