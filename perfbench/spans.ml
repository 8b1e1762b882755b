(* In-memory span recorder for the traced runs.

   A span is (name, start, end, parent, op id).  Each traced op has a
   root span "op" holding the real call (as an untraced run makes it) and
   then the same op decomposed through the layers' public calls.  Spans
   are kept in memory while the run measures and written out once it
   ends, so recording costs one clock read at each boundary and one
   cons.

   Some spans are replays: a layer's public function called a second
   time on the inputs the op just used, to learn how long that layer
   took inside a composite call the benchmark cannot open (a context
   build, a back end, an oracle check).  A replay is recorded as a child
   of the composite span, so the composite's self time is its duration
   minus its replayed layers. *)

type span = {
  id : int;
  parent : int;  (** 0 for an op's root span *)
  op : int;
  name : string;
  t0 : int;
  t1 : int;
  replay : bool;
}

type t = { mutable spans : span list; mutable next : int }

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let create () = { spans = []; next = 1 }

let record t ?(parent = 0) ?(replay = false) ~op name f =
  let id = t.next in
  t.next <- id + 1;
  let t0 = now_ns () in
  let close () =
    t.spans <- { id; parent; op; name; t0; t1 = now_ns (); replay } :: t.spans
  in
  match f id with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let dur s = float_of_int (s.t1 - s.t0)

(* Self time: a span's duration minus that of its direct children. *)
let self_ns t =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children s.parent
          (dur s
          +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
    t.spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self =
        dur s -. Option.value ~default:0. (Hashtbl.find_opt children s.id)
      in
      Hashtbl.replace by_name s.name
        (self +. Option.value ~default:0. (Hashtbl.find_opt by_name s.name)))
    t.spans;
  by_name

let total_ns t name =
  List.fold_left (fun acc s -> if s.name = name then acc +. dur s else acc) 0.
    t.spans

let write t path =
  let oc = open_out path in
  output_string oc "op,id,parent,name,start_ns,end_ns,replay\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d,%d,%d,%s,%d,%d,%b\n" s.op s.id s.parent s.name
        s.t0 s.t1 s.replay)
    (List.rev t.spans);
  close_out oc
