(* Layer replays for the traced runs: each listed public function called
   again on exactly the inputs a composite call (context build, back
   end, helper, oracle check) just consumed, recorded as a replay child
   of that call's span.  See [Spans] for how replays turn into self
   times. *)

module C = Core.Context
module M = Core.Multicore
module P = Core.Platform

let rec_ sp ~op ~parent name f =
  ignore (Spans.record sp ~parent ~replay:true ~op name (fun _ -> f ()))

(* The mode-invariant front end of one context: call graph, then per
   procedure the value analysis, loop bounds and both L1 fixpoints. *)
let front sp ~op ~parent (ctx : C.t) =
  let r = rec_ sp ~op ~parent in
  r "cfg.build" (fun () -> ignore (Cfg.Callgraph.build ctx.C.program));
  List.iter
    (fun (_, (p : C.proc)) ->
      r "dataflow.value_analysis" (fun () ->
          ignore
            (Dataflow.Value_analysis.analyze
               ~call_clobbers:ctx.C.call_clobbers p.C.graph));
      r "dataflow.loop_bounds" (fun () ->
          ignore
            (Dataflow.Loop_bounds.infer ~call_clobbers:ctx.C.call_clobbers
               p.C.graph p.C.dom p.C.loops p.C.va ctx.C.annot));
      r "cache.l1_fixpoint" (fun () ->
          (match p.C.l1i with
          | Some _ ->
              ignore
                (Cache.Analysis.analyze ctx.C.l1i_config p.C.graph
                   ~entry:p.C.entry
                   ~accesses:
                     (Cache.Analysis.instruction_accesses ctx.C.l1i_config
                        p.C.graph))
          | None -> ());
          ignore
            (Cache.Analysis.analyze ctx.C.l1d_config p.C.graph
               ~entry:p.C.entry
               ~accesses:
                 (Cache.Analysis.data_accesses ctx.C.l1d_config p.C.graph
                    p.C.va))))
    ctx.C.procs

(* The back end [Wcet.analyze_with ~ctx] ran for result [w]: per
   procedure one L2 fixpoint in the geometry and with the bypass
   predicate of [w]'s platform (when it has an L2), and one IPET prepare
   plus one prepared solve with [w]'s block costs.  A context's
   fixpoints and prepared systems are computed once, so replay each
   context with the first result it produced. *)
let back sp ~op ~parent (ctx : C.t) (w : Core.Wcet.t) =
  let r = rec_ sp ~op ~parent in
  List.iter
    (fun (name, (p : C.proc)) ->
      (match w.Core.Wcet.platform.P.l2 with
      | P.No_l2 -> ()
      | P.Private_l2 config | P.Locked_l2 { config; _ } ->
          r "cache.l2_fixpoint" (fun () ->
              ignore (C.multilevel ctx p ~config ()))
      | P.Shared_l2 { config; bypass; _ } ->
          r "cache.l2_fixpoint" (fun () ->
              ignore (C.multilevel ctx p ~config ~bypass ())));
      r "lp.ipet" (fun () ->
          let prep =
            Core.Ipet.prepare p.C.graph ~loops:p.C.loops
              ~loop_bounds:p.C.loop_bounds
              ~mutually_exclusive:p.C.mutually_exclusive ()
          in
          match List.assoc_opt name w.Core.Wcet.procs with
          | Some pr ->
              ignore
                (Core.Ipet.solve_prepared prep
                   ~block_cost:(fun b -> pr.Core.Wcet.block_costs.(b))
                   ())
          | None -> ()))
    ctx.C.procs

(* What [Multicore]'s bypass and locking helpers rebuild for a task when
   no context is passed in: the call graph and, per procedure, the plain
   value analysis and (when the helper uses them) dominators and
   loops. *)
let task_procs sp ~op ~parent ~loops program =
  let r = rec_ sp ~op ~parent in
  let cg = ref None in
  r "cfg.build" (fun () -> cg := Some (Cfg.Callgraph.build program));
  List.iter
    (fun (_, g) ->
      if loops then
        r "cfg.build" (fun () ->
            ignore (Cfg.Loops.analyze g (Cfg.Dominators.compute g)));
      r "dataflow.value_analysis" (fun () ->
          ignore (Dataflow.Value_analysis.analyze g)))
    (Cfg.Callgraph.bottom_up (Option.get !cg))

(* One [Wcet.analyze ~annot platform program]: a fresh context, then the
   back end over it, each as a span ([replay]: as replays under
   [parent]) with its layers replayed beneath it. *)
let wcet_unit sp ~op ~parent ?(replay = false) ~annot program platform =
  let span name f =
    let id = ref 0 in
    let v =
      Spans.record sp ~parent ~replay ~op name (fun i ->
          id := i;
          f ())
    in
    (!id, v)
  in
  let cid, ctx =
    span "core.ctx_build" (fun () -> C.of_platform ~annot platform program)
  in
  front sp ~op ~parent:cid ctx;
  let bid, w =
    span "core.backend" (fun () -> Core.Wcet.analyze_with ~ctx platform)
  in
  back sp ~op ~parent:bid ctx w;
  w

(* One contended mode's back end over prebuilt contexts — the dispatch
   {!Server_lib.Modes.analyze} performs, with the contexts exposed so the
   traced runs can time their build separately. *)
let contended ~ctxs sys (mode : Fuzz.Oracle.mode) =
  match mode with
  | Fuzz.Oracle.Solo -> invalid_arg "Replay.contended: solo"
  | Oblivious -> M.analyze_oblivious ~ctxs sys
  | Joint -> M.analyze_joint ~ctxs sys ()
  | Bypass -> M.analyze_joint ~ctxs sys ~bypass:true ()
  | Columnized ->
      M.analyze_partitioned ~ctxs sys ~scheme:Cache.Partition.Columnization
  | Bankized ->
      M.analyze_partitioned ~ctxs sys ~scheme:Cache.Partition.Bankization
  | Locked -> M.analyze_locked ~ctxs sys
  | Dynamic -> M.analyze_locked_dynamic ~ctxs sys
