module M = Multicore

type t =
  | Solo
  | Oblivious
  | Joint
  | Bypass
  | Columnized
  | Bankized
  | Locked
  | Dynamic

let all =
  [ Solo; Oblivious; Joint; Bypass; Columnized; Bankized; Locked; Dynamic ]

let name = function
  | Solo -> "solo"
  | Oblivious -> "oblivious"
  | Joint -> "joint"
  | Bypass -> "bypass"
  | Columnized -> "columnized"
  | Bankized -> "bankized"
  | Locked -> "locked"
  | Dynamic -> "dynamic"

let of_string s =
  match List.find_opt (fun m -> name m = String.lowercase_ascii s) all with
  | Some m -> Ok m
  | None ->
      Error
        (Printf.sprintf "unknown mode %S (expected one of: %s)" s
           (String.concat ", " (List.map name all)))

let solo_platform () =
  Platform.single_core
    ~l2:(Cache.Config.make ~sets:64 ~assoc:4 ~line_size:16)
    ()

let solo_machine (p : Platform.t) =
  {
    Sim.Machine.latencies = p.Platform.latencies;
    l1i = p.Platform.l1i;
    l1d = p.Platform.l1d;
    l2 =
      (match p.Platform.l2 with
      | Platform.No_l2 -> Sim.Machine.No_l2
      | Platform.Private_l2 c -> Sim.Machine.Private_l2 [| c |]
      | Platform.Shared_l2 { config; _ } | Platform.Locked_l2 { config; _ } ->
          Sim.Machine.Shared_l2 config);
    arbiter = Interconnect.Arbiter.Private;
    refresh = p.Platform.refresh;
    i_path =
      (match p.Platform.method_cache with
      | None -> Sim.Machine.Conventional
      | Some mc -> Sim.Machine.Method_cache mc);
  }

let scheme m =
  if m = Columnized then Cache.Partition.Columnization
  else Cache.Partition.Bankization

let solo_only fn =
  invalid_arg
    ("Mode." ^ fn ^ ": solo is analysed per platform, not per task group")

let analyze ?memo ?ctxs ?refine sys = function
  | Solo -> solo_only "analyze"
  | Oblivious -> M.analyze_oblivious ?memo ?ctxs ?refine sys
  | Joint -> M.analyze_joint ?memo ?ctxs ?refine sys ()
  | Bypass -> M.analyze_joint ?memo ?ctxs ?refine sys ~bypass:true ()
  | (Columnized | Bankized) as m ->
      M.analyze_partitioned ?memo ?ctxs ?refine sys ~scheme:(scheme m)
  | Locked -> M.analyze_locked ?memo ?ctxs ?refine sys
  | Dynamic -> M.analyze_locked_dynamic ?memo ?ctxs ?refine sys

type run = Sim.Machine.config * Sim.Machine.core_setup array

let machine ?memo ?ctxs (sys : M.system) mode setups =
  let l2 = sys.M.l2 in
  let shared setups =
    Some [ (M.machine_config sys ~l2:(Sim.Machine.Shared_l2 l2), setups) ]
  in
  match mode with
  | Solo -> solo_only "machine"
  | Oblivious ->
      let cfg =
        {
          (M.machine_config sys ~l2:(Sim.Machine.Private_l2 [| l2 |])) with
          Sim.Machine.arbiter = Interconnect.Arbiter.Private;
        }
      in
      Some (Array.to_list (Array.map (fun s -> (cfg, [| s |])) setups))
  | Joint -> shared setups
  | Bypass ->
      shared
        (Array.mapi
           (fun core (s : Sim.Machine.core_setup) ->
             match sys.M.tasks.(core) with
             | None -> s
             | Some task ->
                 let ctx = Option.bind ctxs (fun a -> a.(core)) in
                 let lines = M.bypass_lines ?ctx sys task in
                 let set = Hashtbl.create (2 * List.length lines + 1) in
                 List.iter (fun l -> Hashtbl.replace set l ()) lines;
                 { s with Sim.Machine.l2_bypass = Hashtbl.mem set })
           setups)
  | (Columnized | Bankized) as m ->
      let n = Array.length sys.M.tasks in
      let alloc = Cache.Partition.even_shares (scheme m) l2 ~parts:n in
      let slices =
        Array.init n (fun i ->
            Cache.Partition.partition_config l2 alloc ~index:i)
      in
      Some
        [ (M.machine_config sys ~l2:(Sim.Machine.Private_l2 slices), setups) ]
  | Locked ->
      let selection = M.static_lock_selection ?memo ?ctxs sys in
      shared
        (Array.map
           (fun s ->
             {
               s with
               Sim.Machine.locked_l2_lines = selection.Cache.Locking.locked;
             })
           setups)
  | Dynamic -> None
