(** The approach-mode table: the one place that says what each of the
    eight approach modes means — which per-core analysis bounds a task
    group under it ({!Multicore}) and which simulated machine executes
    that group the way the analysis assumed.  The fuzz oracle, the
    server, the CLI and the bench harnesses all dispatch through it.

    - [Solo]: one task on the standard single-core hardware
      ({!solo_platform}); analysed and simulated per platform, not per
      task group, so {!analyze} and {!machine} reject it.
    - [Oblivious]: the interference-oblivious baseline; its bound is only
      claimed for a task owning the machine, so each core runs alone.
    - [Joint]/[Bypass]: joint shared-L2 analysis without/with the
      single-usage bypass, on the shared-L2 machine.
    - [Columnized]/[Bankized]: partitioned L2 slices, on the sliced
      machine.
    - [Locked]: statically locked shared L2, on a machine whose L2 is
      preloaded with the analysis's global selection.
    - [Dynamic]: dynamic locking; analysis-level only (the machine does
      not reprogram lock bits at run time). *)

type t =
  | Solo
  | Oblivious
  | Joint
  | Bypass
  | Columnized
  | Bankized
  | Locked
  | Dynamic

val all : t list
(** Every mode, in the order reports and sweeps list them. *)

val name : t -> string
(** The lower-case protocol/CLI spelling, e.g. ["bypass"]. *)

val of_string : string -> (t, string) result
(** Inverse of {!name}, case-insensitive; the error lists every name. *)

val solo_platform : unit -> Platform.t
(** The single-core hardware [Solo] requests are served and attributed
    on: {!Platform.single_core} with a 64-set, 4-way, 16-byte private
    L2. *)

val solo_machine : Platform.t -> Sim.Machine.config
(** The concrete single-core machine a platform describes: same
    geometry, latencies, refresh and instruction path; a shared or
    locked L2 view becomes the machine's one shared L2. *)

val analyze :
  ?memo:Memo.t ->
  ?ctxs:Multicore.contexts ->
  ?refine:Refine.config ->
  Multicore.system ->
  t ->
  Wcet.t option array
(** The mode's per-core bounds: the matching {!Multicore} analysis
    ([analyze_oblivious], [analyze_joint] without/with [~bypass],
    [analyze_partitioned] per scheme, [analyze_locked],
    [analyze_locked_dynamic]) with the optional arguments passed through.
    @raise Invalid_argument on [Solo].
    @raise Wcet.Not_analysable as the analysis does. *)

type run = Sim.Machine.config * Sim.Machine.core_setup array
(** One simulator invocation: a machine and the setups of the cores it
    runs. *)

val machine :
  ?memo:Memo.t ->
  ?ctxs:Multicore.contexts ->
  Multicore.system ->
  t ->
  Sim.Machine.core_setup array ->
  run list option
(** The simulated machine of a mode, given one base setup per core slot
    of the system: a single run of all cores for the shared modes, one
    solo run per core for [Oblivious], [None] for [Dynamic].  The runs'
    setups, concatenated, are the per-core setups in core order (so are
    their results).  [Bypass] marks each core's single-usage lines
    ({!Multicore.bypass_lines}, from the core's context when [ctxs] has
    one) and [Locked] preloads {!Multicore.static_lock_selection} — the
    same sets the analysis assumed under the same [memo]/[ctxs].
    Nothing is built until this is called, so analysis-only callers
    never pay for it.
    @raise Invalid_argument on [Solo]. *)
