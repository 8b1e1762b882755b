type kind = Counter | Gauge | Hist

type cell =
  | C_counter of int ref
  | C_gauge of int ref
  | C_hist of Histogram.t

type t = {
  lock : Mutex.t;
  cells : (string * kind, cell) Hashtbl.t;
  mutable order : (string * kind) list;  (* reversed *)
}

let create () = { lock = Mutex.create (); cells = Hashtbl.create 16; order = [] }

let locked t f =
  Mutex.lock t.lock;
  match f () with
  | x ->
      Mutex.unlock t.lock;
      x
  | exception e ->
      Mutex.unlock t.lock;
      raise e

let cell t name kind mk =
  let key = (name, kind) in
  match Hashtbl.find_opt t.cells key with
  | Some c -> c
  | None ->
      let c = mk () in
      Hashtbl.add t.cells key c;
      t.order <- key :: t.order;
      c

let add t name n =
  locked t (fun () ->
      match cell t name Counter (fun () -> C_counter (ref 0)) with
      | C_counter r -> r := !r + n
      | C_gauge _ | C_hist _ -> assert false)

let set_counter t name v =
  locked t (fun () ->
      match cell t name Counter (fun () -> C_counter (ref 0)) with
      | C_counter r -> if v > !r then r := v
      | C_gauge _ | C_hist _ -> assert false)

let set_gauge t name v =
  locked t (fun () ->
      match cell t name Gauge (fun () -> C_gauge (ref 0)) with
      | C_gauge r -> r := v
      | C_counter _ | C_hist _ -> assert false)

let observe t name v =
  locked t (fun () ->
      match cell t name Hist (fun () -> C_hist (Histogram.create ())) with
      | C_hist h -> Histogram.observe h v
      | C_counter _ | C_gauge _ -> assert false)

type item =
  | Counter_v of string * int
  | Gauge_v of string * int
  | Hist_v of string * Histogram.snapshot

let snapshot t =
  locked t (fun () ->
      List.rev_map
        (fun ((name, kind) as key) ->
          match (kind, Hashtbl.find t.cells key) with
          | Counter, C_counter r -> Counter_v (name, !r)
          | Gauge, C_gauge r -> Gauge_v (name, !r)
          | Hist, C_hist h -> Hist_v (name, Histogram.snapshot h)
          | _ -> assert false)
        t.order)

let counter t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.cells (name, Counter) with
      | Some (C_counter r) -> !r
      | _ -> 0)

let gauge t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.cells (name, Gauge) with
      | Some (C_gauge r) -> !r
      | _ -> 0)

let hist t name =
  locked t (fun () ->
      match Hashtbl.find_opt t.cells (name, Hist) with
      | Some (C_hist h) -> Some (Histogram.snapshot h)
      | _ -> None)

(* Phase totals: {!Obs.span} records each [cat:"phase"] span's duration
   as one observation of the histogram [phase.<name>]; the prefix keeps
   phases apart from the value histograms (pivots per solve, rounds per
   fixpoint) in the same registry. *)
let phase_prefix = "phase."
let observe_phase t name ns = observe t (phase_prefix ^ name) ns

type phase = { phase : string; total_ns : int; calls : int }

let phase_of = function
  | Hist_v (name, s) when String.starts_with ~prefix:phase_prefix name ->
      let n = String.length phase_prefix in
      Some
        {
          phase = String.sub name n (String.length name - n);
          total_ns = s.Histogram.s_sum;
          calls = s.Histogram.s_count;
        }
  | Hist_v _ | Counter_v _ | Gauge_v _ -> None

let counter_of = function
  | Counter_v (name, v) -> Some (name, v)
  | Hist_v _ | Gauge_v _ -> None

let phases t = List.filter_map phase_of (snapshot t)

let render t =
  let items = snapshot t in
  let ps = List.filter_map phase_of items in
  let cs = List.filter_map counter_of items in
  let b = Buffer.create 256 in
  if ps <> [] then begin
    let total = List.fold_left (fun acc p -> acc + p.total_ns) 0 ps in
    let ms ns = float_of_int ns /. 1e6 in
    Buffer.add_string b
      (Printf.sprintf "%-28s %12s %7s %8s\n" "phase" "ms" "share" "calls");
    List.iter
      (fun p ->
        let share =
          if total > 0 then
            100. *. float_of_int p.total_ns /. float_of_int total
          else 0.
        in
        Buffer.add_string b
          (Printf.sprintf "%-28s %12.3f %6.1f%% %8d\n" p.phase (ms p.total_ns)
             share p.calls))
      ps;
    Buffer.add_string b
      (Printf.sprintf "%-28s %12.3f %6.1f%%\n" "total" (ms total) 100.)
  end;
  List.iter
    (fun (name, v) ->
      Buffer.add_string b (Printf.sprintf "%-28s %12d\n" name v))
    cs;
  Buffer.contents b

let csv_header = "kind,name,value,calls\n"

let csv_rows t =
  let items = snapshot t in
  let b = Buffer.create 256 in
  List.iter
    (fun p ->
      Buffer.add_string b
        (Printf.sprintf "phase,%s,%d,%d\n" p.phase p.total_ns p.calls))
    (List.filter_map phase_of items);
  List.iter
    (fun (name, v) ->
      Buffer.add_string b (Printf.sprintf "counter,%s,%d,\n" name v))
    (List.filter_map counter_of items);
  Buffer.contents b
