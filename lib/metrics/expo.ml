(* Exposition: render a metrics instance (registry cells + ledger) as
   Prometheus text or JSON, and parse the JSON back for round-trip
   testing. The ledger is exposed as a synthetic counter family
   [fbufs_cost_us_total{machine,component,kind}] so one scrape carries
   both the live counters and the cost attribution. *)

module Json = Fbufs_trace.Json

let kind_str = function
  | Metrics.Counter -> "counter"
  | Metrics.Gauge -> "gauge"
  | Metrics.Sketch -> "sketch"

(* Prometheus has no sketch type: a sketch family's [_count], [_sum] and
   [{quantile=...}] samples are the summary shape. *)
let prometheus_type = function
  | Metrics.Sketch -> "summary"
  | k -> kind_str k

(* Prometheus label-value escaping: backslash, quote, newline. *)
let escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun ch ->
      match ch with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | _ -> Buffer.add_char b ch)
    s;
  Buffer.contents b

let label_str names values =
  if names = [] then ""
  else
    "{"
    ^ String.concat ","
        (List.map2 (fun n v -> Printf.sprintf "%s=%S" n (escape v)) names values)
    ^ "}"

let fnum x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.0f" x
  else Printf.sprintf "%.9g" x

(* Ledger rows presented as one more metric family. *)
let ledger_family ledger =
  List.map
    (fun (r : Ledger.row) ->
      ( [ r.machine; Component.label r.comp;
          (if r.kind = "" then "untyped" else r.kind) ],
        r.us,
        r.count ))
    (Ledger.rows ledger)

let ledger_name = "fbufs_cost_us_total"
let ledger_help = "Simulated microseconds charged, by Table 1 component"
let ledger_labels = [ "machine"; "component"; "kind" ]

let to_prometheus t =
  let b = Buffer.create 4096 in
  let emit_header name help kind =
    Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" name help);
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind)
  in
  let samples = Metrics.samples t in
  let seen = Hashtbl.create 32 in
  List.iter
    (fun (s : Metrics.sample) ->
      let d = s.def in
      if not (Hashtbl.mem seen d.id) then begin
        Hashtbl.add seen d.id ();
        emit_header d.name d.help (prometheus_type d.kind)
      end;
      match s.sketch with
      | Some sk ->
          let ls = label_str d.labels s.labels in
          Buffer.add_string b
            (Printf.sprintf "%s_count%s %d\n" d.name ls (Sketch.count sk));
          Buffer.add_string b
            (Printf.sprintf "%s_sum%s %s\n" d.name ls (fnum (Sketch.sum sk)));
          List.iter
            (fun p ->
              let q =
                label_str
                  (d.labels @ [ "quantile" ])
                  (s.labels @ [ Printf.sprintf "%.2f" (p /. 100.0) ])
              in
              Buffer.add_string b
                (Printf.sprintf "%s%s %s\n" d.name q
                   (fnum (Sketch.quantile sk p))))
            [ 50.0; 90.0; 99.0 ]
      | None ->
          Buffer.add_string b
            (Printf.sprintf "%s%s %s\n" d.name
               (label_str d.labels s.labels)
               (fnum s.value)))
    samples;
  let rows = ledger_family (Metrics.ledger t) in
  if rows <> [] then begin
    emit_header ledger_name ledger_help "counter";
    List.iter
      (fun (labels, us, _) ->
        Buffer.add_string b
          (Printf.sprintf "%s%s %s\n" ledger_name
             (label_str ledger_labels labels)
             (fnum us)))
      rows
  end;
  Buffer.contents b

let sample_json name kind help (labels_n : string list) rows =
  Json.Obj
    [
      ("name", Json.String name);
      ("type", Json.String kind);
      ("help", Json.String help);
      ( "samples",
        Json.List
          (List.map
             (fun (labels_v, value, count) ->
               Json.Obj
                 [
                   ( "labels",
                     Json.Obj
                       (List.map2
                          (fun n v -> (n, Json.String v))
                          labels_n labels_v) );
                   ("value", Json.Float value);
                   ("count", Json.Int count);
                 ])
             rows) );
    ]

let to_json t =
  let samples = Metrics.samples t in
  let ids =
    List.sort_uniq compare
      (List.map (fun (s : Metrics.sample) -> s.def.Metrics.id) samples)
  in
  let families =
    List.filter_map
      (fun id ->
        match
          List.find_opt (fun (s : Metrics.sample) -> s.def.Metrics.id = id)
            samples
        with
        | None -> None
        | Some first ->
            let d = first.def in
            let rows =
              List.filter_map
                (fun (s : Metrics.sample) ->
                  if s.def.Metrics.id = id then Some (s.labels, s.value, s.count)
                  else None)
                samples
            in
            Some (sample_json d.name (kind_str d.kind) d.help d.labels rows))
      ids
  in
  let ledger_rows = ledger_family (Metrics.ledger t) in
  let families =
    if ledger_rows = [] then families
    else
      families
      @ [ sample_json ledger_name "counter" ledger_help ledger_labels
            ledger_rows ]
  in
  Json.Obj [ ("metrics", Json.List families) ]

let to_json_string t = Json.to_string (to_json t)

type flat = { name : string; labels : (string * string) list; value : float }

exception Bad_exposition of string

let jstr = function
  | Json.String s -> s
  | _ -> raise (Bad_exposition "expected string")

let jnum = function
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> raise (Bad_exposition "expected number")

let of_json j =
  match Json.member "metrics" j with
  | Some (Json.List families) ->
      List.concat_map
        (fun fam ->
          let name =
            match Json.member "name" fam with
            | Some v -> jstr v
            | None -> raise (Bad_exposition "family without name")
          in
          match Json.member "samples" fam with
          | Some (Json.List rows) ->
              List.map
                (fun row ->
                  let labels =
                    match Json.member "labels" row with
                    | Some (Json.Obj kvs) ->
                        List.map (fun (k, v) -> (k, jstr v)) kvs
                    | _ -> []
                  in
                  let value =
                    match Json.member "value" row with
                    | Some v -> jnum v
                    | None -> raise (Bad_exposition "sample without value")
                  in
                  { name; labels; value })
                rows
          | _ -> raise (Bad_exposition "family without samples"))
        families
  | _ -> raise (Bad_exposition "missing metrics list")

let of_json_string s = of_json (Json.parse s)
