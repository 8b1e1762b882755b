(** Mode-invariant analysis context: the per-(program, annotations,
    cache-geometry) front end computed once and shared by every approach
    mode and core slot.

    The survey's scenario explosion means each program is bounded under
    many sharing/arbitration configurations, yet between modes only the
    L2 view, arbiter costs, and IPET objective coefficients change.  A
    context holds everything else — the callgraph in bottom-up order,
    per-procedure dominators, loops, interval value analysis (in both
    the interprocedurally-refined and plain flavors), loop bounds,
    L1i/L1d ACS fixpoints, per-procedure L2 access lists, and the
    prepared objective-free IPET systems ({!Ipet.prepare}) — so an
    8-mode sweep pays the front end once.

    A context is not domain-safe: its lazy fields and memo tables are
    unsynchronized.  Build one per domain (the parallel fuzz/batch
    layers fan out at task granularity, so each worker builds its
    own). *)

exception Not_analysable of string
(** The front end rejected the program (recursive call cycle,
    irreducible loop, missing loop bound...).  {!Wcet.Not_analysable}
    is the same exception (rebound), so existing handlers catch both. *)

val ipet_boundary : proc:string -> (unit -> 'a) -> 'a
(** Run an IPET solve of procedure [proc] (forcing its prepared system
    included), mapping {!Ipet.Flow_infeasible} to [Not_analysable] and
    {!Lp.Q.Overflow} to [Not_analysable "bound_overflow: ..."]. *)

val checked_sum : proc:string -> int list -> int
(** The exact sum, or [Not_analysable "bound_overflow: ..."] when it
    leaves the native int range. *)

type proc = {
  name : string;
  graph : Cfg.Graph.t;
  dom : Cfg.Dominators.t;
  loops : Cfg.Loops.t;
  va : Dataflow.Value_analysis.result;
      (** interprocedurally refined ([call_clobbers]) — the flavor
          {!Wcet.analyze} consumes *)
  va_plain : Dataflow.Value_analysis.result Lazy.t;
      (** the sound default (every register forgotten at calls) — the
          flavor the {!Multicore} bypass/locking helpers consume; the
          two yield different access-target sets, so both are kept to
          preserve bit-identity of each consumer *)
  loop_bounds : Dataflow.Loop_bounds.bound list;
  entry : Cache.Analysis.entry_state;
  l1i : Cache.Analysis.t option;  (** [None] on method-cache platforms *)
  l1d : Cache.Analysis.t;
  mutually_exclusive : (Cfg.Block.id * Cfg.Block.id) list;
  ipet_wcet : Ipet.prepared Lazy.t;
  ipet_bcet : Ipet.prepared Lazy.t;
  refine_candidates : Refine.cut list Lazy.t;
      (** mode-invariant semantic conflict cuts ({!Refine.candidates}
          over [va]), computed once and shared by every refining mode *)
  l2_access_memo :
    (int * int * int, Cfg.Block.id -> Cache.Analysis.access list) Hashtbl.t;
}

type t = {
  program : Isa.Program.t;
  annot : Dataflow.Annot.t;
  l1i_config : Cache.Config.t;
  l1d_config : Cache.Config.t;
  method_cache : Cache.Method_cache.config option;
  callgraph : Cfg.Callgraph.t;
  root : string;
  call_clobbers : string -> Isa.Instr.reg list;
  mc_analysis : (Cache.Method_cache.config * Cache.Method_cache.analysis) option;
  procs : (string * proc) list;  (** bottom-up order *)
  multilevel_memo :
    (string * (int * int * int) * string, Cache.Multilevel.t) Hashtbl.t;
}

val build :
  ?annot:Dataflow.Annot.t ->
  l1i:Cache.Config.t ->
  l1d:Cache.Config.t ->
  ?method_cache:Cache.Method_cache.config ->
  Isa.Program.t ->
  t
(** Compute the full mode-invariant front end.  Emits one balanced
    [cat:"ctx"] span named ["ctx.build"] (plus the usual per-phase
    spans), so traces show one build per program, however many modes
    consume it.
    @raise Not_analysable exactly where {!Wcet.analyze} would. *)

val of_platform :
  ?annot:Dataflow.Annot.t ->
  Platform.t ->
  Isa.Program.t ->
  t
(** {!build} over the geometry fields of a platform (everything else in
    the platform is mode-specific and ignored). *)

val proc : t -> string -> proc
(** @raise Invalid_argument on an unknown procedure name. *)

val compatible : t -> Platform.t -> bool
(** Whether the platform's L1/method-cache geometry matches the
    context's (the precondition of {!Wcet.analyze_with}). *)

val check_compatible : t -> Platform.t -> unit
(** @raise Invalid_argument when {!compatible} is false. *)

val combined_l2_accesses :
  include_fetches:bool ->
  Cache.Config.t ->
  Cfg.Graph.t ->
  Dataflow.Value_analysis.result ->
  Cfg.Block.id ->
  Cache.Analysis.access list
(** L2 accesses of a block: instruction fetches interleaved with the
    instruction's data accesses, in program order, targets in L2
    geometry.  Data accesses are indexed by instruction once — O(f + d)
    per block rather than the quadratic per-fetch filter. *)

val l2_accesses :
  t -> proc -> Cache.Config.t -> Cfg.Block.id -> Cache.Analysis.access list
(** The procedure's combined L2 access lists in the given L2 geometry,
    memoized per geometry and per block. *)

val multilevel :
  t ->
  proc ->
  config:Cache.Config.t ->
  ?bypass_key:string ->
  ?bypass:(int -> bool) ->
  unit ->
  Cache.Multilevel.t
(** The L2 multilevel fixpoint for a procedure under a geometry and a
    bypass predicate.  Memoized per (procedure, geometry, [bypass_key]);
    [bypass_key] follows the {!Memo} salt discipline — it must encode
    the [bypass] closure's semantics, and with no key the fixpoint is
    computed fresh and never shared.  Modes that differ only in how the
    fixpoint's result is post-processed (private, shared-with-conflicts,
    locked) share one entry. *)
