type op = Analyze | Attribute | Status | Stats | Metrics | Shutdown

type mode_req = One of Core.Mode.t | All

type metrics_format = Fmt_json | Fmt_prometheus

type request = {
  id : int;
  op : op;
  source : source;
  mode : mode_req;
  cores : int;
  kind : Modes.kind;
  refine : bool;
  trace_id : string option;
  format : metrics_format;
}

and source =
  | No_source
  | Bench of string
  | Inline of {
      name : string;
      asm : string;
      bounds : (string * string * int) list;
    }

let op_of_string = function
  | "analyze" -> Ok Analyze
  | "attribute" -> Ok Attribute
  | "status" -> Ok Status
  | "stats" -> Ok Stats
  | "metrics" -> Ok Metrics
  | "shutdown" -> Ok Shutdown
  | s -> Error (Printf.sprintf "unknown op %S" s)

let op_name = function
  | Analyze -> "analyze"
  | Attribute -> "attribute"
  | Status -> "status"
  | Stats -> "stats"
  | Metrics -> "metrics"
  | Shutdown -> "shutdown"

let parse_request line =
  let bad msg = Error ("bad_request", msg) in
  match Json.parse line with
  | Error msg -> bad msg
  | Ok j -> (
      let id = Option.value ~default:0 (Json.int_field "id" j) in
      match Json.str_field "op" j with
      | None -> bad "missing op"
      | Some op_s -> (
          match op_of_string op_s with
          | Error msg -> bad msg
          | Ok op -> (
              let parse_bounds () =
                match Json.member "bounds" j with
                | None | Some Json.Null -> Ok []
                | Some v -> (
                    match Json.to_list v with
                    | None -> Error "bounds must be a list"
                    | Some items ->
                        let triple item =
                          match Json.to_list item with
                          | Some [ Json.Str p; Json.Str l; Json.Int n ]
                            when n >= 0 ->
                              Some (p, l, n)
                          | _ -> None
                        in
                        let parsed = List.filter_map triple items in
                        if List.length parsed = List.length items then
                          Ok parsed
                        else
                          Error
                            "each bound must be [proc, header_label, n>=0]")
              in
              let source =
                match (Json.str_field "source" j, Json.str_field "asm" j) with
                | Some s, _ -> Ok (Bench s)
                | None, Some asm -> (
                    let name =
                      Option.value ~default:"inline"
                        (Json.str_field "name" j)
                    in
                    match parse_bounds () with
                    | Ok bounds -> Ok (Inline { name; asm; bounds })
                    | Error msg -> Error msg)
                | None, None -> (
                    match op with
                    | Analyze | Attribute ->
                        Error "missing source (or name+asm)"
                    | _ -> Ok No_source)
              in
              match source with
              | Error msg -> bad msg
              | Ok source -> (
                  let mode_r =
                    match Json.str_field "mode" j with
                    | None -> Ok (One Core.Mode.Solo)
                    | Some "all" -> Ok All
                    | Some s ->
                        Result.map (fun m -> One m) (Core.Mode.of_string s)
                  in
                  let kind_r =
                    match Json.str_field "kind" j with
                    | None -> Ok Modes.Wcet
                    | Some s -> Modes.kind_of_string s
                  in
                  let cores = Option.value ~default:2 (Json.int_field "cores" j) in
                  let refine =
                    match Option.bind (Json.member "refine" j) Json.to_bool with
                    | Some b -> b
                    | None -> false
                  in
                  let trace_id = Json.str_field "trace_id" j in
                  let format_r =
                    match Json.str_field "format" j with
                    | None | Some "json" -> Ok Fmt_json
                    | Some "prometheus" -> Ok Fmt_prometheus
                    | Some s ->
                        Error
                          (Printf.sprintf
                             "unknown format %S (json or prometheus)" s)
                  in
                  match (mode_r, kind_r, format_r) with
                  | Error msg, _, _ | _, Error msg, _ | _, _, Error msg ->
                      bad msg
                  | Ok mode, Ok kind, Ok format ->
                      if cores < 1 || cores > 4 then
                        bad
                          (Printf.sprintf "cores %d out of range 1..4" cores)
                      else
                        Ok
                          {
                            id;
                            op;
                            source;
                            mode;
                            cores;
                            kind;
                            refine;
                            trace_id;
                            format;
                          }))))

type cached = Hot | Warm | Cold

let cached_name = function Hot -> "hot" | Warm -> "warm" | Cold -> "cold"

let ok_reply ~id ~cached ~key ~detail entry =
  let result =
    if detail then Store.Entry.to_json entry else Store.Entry.summary_json entry
  in
  Printf.sprintf
    {|{"id":%d,"ok":true,"cached":"%s","key":"%s","result":%s}|} id
    (cached_name cached) key result

let ok_all_reply ~id ~detail results =
  let field (mode_name, r) =
    match r with
    | Ok (cached, key, entry) ->
        let result =
          if detail then Store.Entry.to_json entry
          else Store.Entry.summary_json entry
        in
        Printf.sprintf {|"%s":{"ok":true,"cached":"%s","key":"%s","result":%s}|}
          mode_name (cached_name cached) key result
    | Error (code, msg) ->
        Printf.sprintf {|"%s":%s|} mode_name
          (Json.to_string
             (Json.Obj
                [
                  ("ok", Json.Bool false);
                  ("code", Json.Str code);
                  ("error", Json.Str msg);
                ]))
  in
  Printf.sprintf {|{"id":%d,"ok":true,"mode":"all","modes":{%s}}|} id
    (String.concat "," (List.map field results))

let error_reply ~id ~code msg =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Int id);
         ("ok", Json.Bool false);
         ("code", Json.Str code);
         ("error", Json.Str msg);
       ])

let percentile (snap : Obs.Histogram.snapshot) q =
  if snap.Obs.Histogram.s_count = 0 then 0
  else begin
    let rank =
      int_of_float (ceil (q *. float_of_int snap.Obs.Histogram.s_count))
    in
    let rank = max 1 (min rank snap.Obs.Histogram.s_count) in
    let seen = ref 0 in
    let answer = ref snap.Obs.Histogram.s_max in
    (try
       List.iter
         (fun (bucket, count) ->
           seen := !seen + count;
           if !seen >= rank then begin
             let _, hi = Obs.Histogram.bucket_bounds bucket in
             answer := min hi snap.Obs.Histogram.s_max;
             raise Exit
           end)
         snap.Obs.Histogram.s_buckets
     with Exit -> ());
    !answer
  end
