type kind = Wcet | Bcet

let kind_name = function Wcet -> "wcet" | Bcet -> "bcet"

let kind_of_string = function
  | "wcet" -> Ok Wcet
  | "bcet" -> Ok Bcet
  | s -> Error (Printf.sprintf "unknown kind %S (expected wcet | bcet)" s)

let system ~cores task =
  Core.Multicore.default_system ~cores
    ~tasks:(Array.make cores (Some task))

(* The multicore modes build their platforms (and closures: lock
   selections, bypass sets) deterministically from the system record and
   the task group, so fingerprinting the system's concrete parameters
   plus the mode name pins the whole analysis configuration. *)
let system_fingerprint (sys : Core.Multicore.system) =
  let fp = Engine.Fingerprint.create () in
  let cache (c : Cache.Config.t) =
    Engine.Fingerprint.ints fp
      [ c.Cache.Config.sets; c.Cache.Config.assoc; c.Cache.Config.line_size ]
  in
  cache sys.Core.Multicore.l1i;
  cache sys.Core.Multicore.l1d;
  cache sys.Core.Multicore.l2;
  Engine.Fingerprint.string fp
    (Interconnect.Arbiter.describe sys.Core.Multicore.arbiter);
  Engine.Fingerprint.string fp
    (match sys.Core.Multicore.refresh with
    | Interconnect.Arbiter.Burst -> "burst"
    | Interconnect.Arbiter.Distributed { interval; duration } ->
        Printf.sprintf "distributed:%d:%d" interval duration);
  (* latencies: default_system always uses the default table *)
  Engine.Fingerprint.string fp "latencies:default";
  Engine.Fingerprint.digest fp

let store_key ?refine ~mode ~cores ~kind annot program =
  let kind_s = kind_name kind in
  (* Refined and unrefined bounds must live under distinct keys: the
     refinement budget salts both keying paths ({!Refine.salt}). *)
  let refine_s =
    match refine with None -> "norefine" | Some c -> Refine.salt c
  in
  match mode with
  | Core.Mode.Solo -> (
      match
        Core.Memo.key ~kind:kind_s ~annot
          ~salt:(Option.map Refine.salt refine)
          (Core.Mode.solo_platform ()) program
      with
      | Some k -> k
      | None ->
          (* unreachable for the pure solo platform, but never crash the
             keying path *)
          Engine.Fingerprint.of_strings
            [
              "paratime-serve-v1";
              kind_s;
              "solo-fallback";
              refine_s;
              Dataflow.Annot.fingerprint annot;
              Core.Memo.program_fingerprint program;
            ])
  | _ ->
      let sys = system ~cores (program, Dataflow.Annot.empty) in
      Engine.Fingerprint.of_strings
        [
          "paratime-serve-v1";
          kind_s;
          Core.Mode.name mode;
          string_of_int cores;
          refine_s;
          system_fingerprint sys;
          Dataflow.Annot.fingerprint annot;
          Core.Memo.program_fingerprint program;
        ]

(* [ctxs]/[solo_ctx] are lazy context packs shared across the modes of a
   multi-mode request ([analyze_all]); forcing happens inside the
   per-mode exception guard, so a front-end failure surfaces as each
   mode's [Error] exactly as it would on the fresh path.  The solo
   platform has its own L1 geometry, hence its own context. *)
let analyze_mode ?ctxs ?solo_ctx ?refine ~mode ~cores ~kind
    ((program, annot) as task) =
  let ctxs () = Option.map Lazy.force ctxs in
  let solo = Core.Mode.solo_platform () in
  let solo_wcet () =
    match solo_ctx with
    | Some ctx -> Core.Wcet.analyze_with ?refine ~ctx:(Lazy.force ctx) solo
    | None -> Core.Wcet.analyze ~annot ?refine solo program
  in
  let solo_bcet () =
    match solo_ctx with
    | Some ctx -> Core.Bcet.analyze_with ~ctx:(Lazy.force ctx) solo
    | None -> Core.Bcet.analyze ~annot solo program
  in
  match (kind, mode) with
  | Bcet, Core.Mode.Solo -> (
      match solo_bcet () with
      | b -> Ok (Store.Entry.of_bcet b)
      | exception Core.Wcet.Not_analysable msg ->
          Error ("not analysable: " ^ msg))
  | Bcet, m ->
      Error
        (Printf.sprintf
           "kind bcet is only defined for mode solo (got mode %s)"
           (Core.Mode.name m))
  | Wcet, m -> (
      match
        match m with
        | Core.Mode.Solo -> Some (solo_wcet ())
        | m ->
            (Core.Mode.analyze ?ctxs:(ctxs ()) ?refine (system ~cores task) m)
              .(0)
      with
      | Some w -> Ok (Store.Entry.of_wcet w)
      | None -> Error "no analysis result for core 0"
      | exception Core.Wcet.Not_analysable msg ->
          Error ("not analysable: " ^ msg))

let analyze ?refine ~mode ~cores ~kind task =
  analyze_mode ?refine ~mode ~cores ~kind task

let analyze_all ?(modes = Core.Mode.all) ?refine ~cores ~kind
    ((program, annot) as task) =
  (* One context pack for the whole request: every contended mode's back
     end shares the task-group contexts, solo shares its own.  Lazy so a
     modes list that never touches one pack never pays for it. *)
  let ctxs = lazy (Core.Multicore.contexts (system ~cores task)) in
  let solo_ctx =
    lazy
      (Core.Context.of_platform ~annot (Core.Mode.solo_platform ()) program)
  in
  List.map
    (fun mode ->
      (mode, analyze_mode ~ctxs ~solo_ctx ?refine ~mode ~cores ~kind task))
    modes
