type packed = Wcet_r of Wcet.t | Bcet_r of Bcet.t
type t = (string, packed) Engine.Lru.t

let create ?(capacity = 512) () = Engine.Lru.create ~capacity ()
let stats = Engine.Lru.stats

(* Per-domain (hits, lookups) counters, global across all memo tables so a
   pool worker can attribute cache behaviour to the job it is running. *)
let local_key = Domain.DLS.new_key (fun () -> (ref 0, ref 0))

let local_stats () =
  let hits, lookups = Domain.DLS.get local_key in
  (!hits, !lookups)

let program_fingerprint (p : Isa.Program.t) =
  let fp = Engine.Fingerprint.create () in
  Engine.Fingerprint.string fp p.Isa.Program.name;
  Engine.Fingerprint.int fp p.Isa.Program.base;
  Engine.Fingerprint.int fp p.Isa.Program.entry;
  List.iter
    (fun (l, i) ->
      Engine.Fingerprint.string fp l;
      Engine.Fingerprint.int fp i)
    p.Isa.Program.labels;
  Array.iter
    (fun ins -> Engine.Fingerprint.string fp (Isa.Instr.to_string ins))
    p.Isa.Program.code;
  Engine.Fingerprint.digest fp

(* [None] when the point is uncacheable: the platform's resolved waits do
   not exist (unanalysable arbiter — the analysis will raise anyway) or the
   L2 mode carries closures and the caller supplied no salt for them. *)
let key ~kind ~annot ~salt platform program =
  let finish platform_repr =
    Some
      (Engine.Fingerprint.of_strings
         [
           kind;
           platform_repr;
           Option.value salt ~default:"";
           Dataflow.Annot.fingerprint annot;
           program_fingerprint program;
         ])
  in
  match Platform.fingerprint platform with
  | None -> None
  | Some (`Pure repr) -> finish repr
  | Some (`Needs_salt repr) -> (
      match salt with Some _ -> finish repr | None -> None)

let lookup t key =
  let hits, lookups = Domain.DLS.get local_key in
  incr lookups;
  match Engine.Lru.find t key with
  | Some _ as r ->
      incr hits;
      r
  | None -> None

let wcet t ?(annot = Dataflow.Annot.empty) ?salt ?compute platform
    program =
  (* [compute] overrides the miss path (e.g. a context-based back end);
     its result must be bit-identical to the fresh analysis — the memo
     key cannot tell them apart, by design. *)
  let analyze () =
    match compute with
    | Some f -> f ()
    | None -> Wcet.analyze ~annot platform program
  in
  match key ~kind:"wcet" ~annot ~salt platform program with
  | None -> analyze ()
  | Some k -> (
      match lookup t k with
      | Some (Wcet_r r) -> r
      | Some (Bcet_r _) | None ->
          let r = analyze () in
          Engine.Lru.put t k (Wcet_r r);
          r)

let bcet t ?(annot = Dataflow.Annot.empty) ?salt ?compute platform
    program =
  let analyze () =
    match compute with
    | Some f -> f ()
    | None -> Bcet.analyze ~annot platform program
  in
  match key ~kind:"bcet" ~annot ~salt platform program with
  | None -> analyze ()
  | Some k -> (
      match lookup t k with
      | Some (Bcet_r r) -> r
      | Some (Wcet_r _) | None ->
          let r = analyze () in
          Engine.Lru.put t k (Bcet_r r);
          r)
