(* The serve protocol's request lines, and their in-process replay
   through the public calls a served request makes. *)

module J = Server_lib.Json
module Protocol = Server_lib.Protocol
module Modes = Server_lib.Modes
module O = Fuzz.Oracle
module B = Workloads.Bench_programs

let cores = 2

(* Below the 152-key working set, so both store levels answer. *)
let mem_capacity = 64

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let analyze_line ~id ~mode fields =
  J.to_string
    (J.Obj
       ([ ("id", J.Int id); ("op", J.Str "analyze") ]
       @ fields
       @ [ ("mode", J.Str (O.mode_name mode)); ("cores", J.Int cores) ]))

let repeat_line ~id (name, mode) =
  analyze_line ~id ~mode [ ("source", J.Str ("bench:" ^ name)) ]

(* Programs 0..programs-1 of generator campaign [seed], inline with
   their loop bounds, each in all 8 modes as consecutive requests. *)
let cold_lines ~seed ~programs =
  List.concat_map
    (fun index ->
      let g = Fuzz.Generator.generate ~seed ~index () in
      let bounds =
        J.List
          (List.map
             (fun (p, l, n) -> J.List [ J.Str p; J.Str l; J.Int n ])
             (Dataflow.Annot.loop_bounds g.Fuzz.Generator.annot))
      in
      List.map
        (fun mode ->
          ( mode,
            analyze_line ~id:index ~mode
              [
                ("name", J.Str g.Fuzz.Generator.name);
                ("asm", J.Str g.Fuzz.Generator.source);
                ("bounds", bounds);
              ] ))
        O.all_modes)
    (List.init programs Fun.id)

let working_set () =
  List.concat_map
    (fun (b : B.t) -> List.map (fun m -> (b.B.name, m)) O.all_modes)
    (B.suite ())
  |> Array.of_list

(* In-process replay of repeat request lines through the public calls a
   hot or warm request makes: parse, key, front lookup, encode; plus the
   put a cold request makes, for the 152 working-set entries.  Mean
   microseconds per call. *)
let replay ~store ~repeats ~cold =
  let ws = working_set () in
  let entries = Hashtbl.create 256 in
  Array.iter
    (fun (name, mode) ->
      let b = Option.get (B.by_name name) in
      let key =
        Modes.store_key ~mode ~cores ~kind:Modes.Wcet b.B.annot b.B.program
      in
      match
        Modes.analyze ~mode ~cores ~kind:Modes.Wcet (b.B.program, b.B.annot)
      with
      | Ok e -> Hashtbl.replace entries (name, mode) (key, e)
      | Error msg -> failwith msg)
    ws;
  rm_rf store;
  let front =
    Store.Front.create ~mem_capacity ~disk:(Store.Disk.open_ store) ()
  in
  let timed acc f =
    let t0 = Report.now_ns () in
    let v = f () in
    acc := (float_of_int (Report.now_ns () - t0) /. 1e3) :: !acc;
    v
  in
  let parse = ref [] and key_t = ref [] and mem = ref [] and disk = ref [] in
  let put = ref [] and encode = ref [] in
  Array.iter
    (fun k ->
      let key, e = Hashtbl.find entries k in
      timed put (fun () -> Store.Front.put front key e))
    ws;
  Store.Front.flush front;
  List.iter
    (fun (line, k) ->
      (match timed parse (fun () -> Protocol.parse_request line) with
      | Ok _ -> ()
      | Error (_, msg) -> failwith msg);
      let b = Option.get (B.by_name (fst k)) in
      let key =
        timed key_t (fun () ->
            Modes.store_key ~mode:(snd k) ~cores ~kind:Modes.Wcet b.B.annot
              b.B.program)
      in
      let t0 = Report.now_ns () in
      let found = Store.Front.find front key in
      let us = float_of_int (Report.now_ns () - t0) /. 1e3 in
      match found with
      | Some (Store.Front.Memory, e) ->
          mem := us :: !mem;
          ignore
            (timed encode (fun () ->
                 Protocol.ok_reply ~id:1 ~cached:Protocol.Hot ~key
                   ~detail:false e))
      | Some (Store.Front.Disk, _) -> disk := us :: !disk
      | None -> failwith ("replay: key missing from the front: " ^ fst k))
    repeats;
  List.iter
    (fun line -> ignore (timed parse (fun () -> Protocol.parse_request line)))
    cold;
  Store.Front.close front;
  rm_rf store;
  let mean l = Stats.mean !l in
  [
    ("server.parse_us", mean parse, "us");
    ("server.key_us", mean key_t, "us");
    ("store.mem_find_us", mean mem, "us");
    ("store.disk_find_us", mean disk, "us");
    ("store.put_us", mean put, "us");
    ("server.encode_us", mean encode, "us");
  ]

