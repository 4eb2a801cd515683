module Json = Fbufs_trace.Json
module Chrome = Fbufs_trace.Chrome
module Comp = Fbufs_metrics.Component

(* Exporters for recorded span trees.

   Chrome trace_event: spans become "X" complete events and follows-from
   edges become flow event pairs ("s" at the source, "f"/bp:"e" at the
   destination), so about:tracing / Perfetto draws the causal arrows
   across machines; lanes (a pid per machine, tid 1 for the machine
   lane, domains after it) come from Fbufs_trace.Chrome.

   JSONL: one self-contained object per line — a "transfer" line then
   its "span" lines — with a round-trip parser used by the tests and by
   external tooling that wants the raw trees. *)

let ns_list a = Json.List (Array.to_list (Array.map (fun n -> Json.Int n) a))

let float_or_null f = if Float.is_nan f then Json.Null else Json.Float f

(* -- Chrome trace_event ------------------------------------------------- *)

(* Only the events are built here; lanes, metadata and the envelope
   come from the one Chrome writer. *)
let chrome t =
  let lanes = Chrome.lanes () in
  let lane (sp : Span.span) =
    Chrome.lane lanes ~machine:sp.Span.machine ~domain:sp.Span.domain
  in
  let events = ref [] in
  let emit e = events := e :: !events in
  let flow ph ~id ~ts (pid, tid) extra =
    emit
      (Json.Obj
         ([
            ("name", Json.String "follows");
            ("cat", Json.String "flow");
            ("ph", Json.String ph);
          ]
         @ extra
         @ [
             ("id", Json.Int id);
             ("ts", Json.Float ts);
             ("pid", Json.Int pid);
             ("tid", Json.Int tid);
           ]))
  in
  List.iter
    (fun (tr : Span.transfer) ->
      List.iter
        (fun (sp : Span.span) ->
          let pid, tid = lane sp in
          let dur =
            if Span.is_closed sp then sp.Span.end_us -. sp.Span.start_us
            else 0.0
          in
          let args =
            ("transfer", Json.Int sp.Span.transfer)
            :: ("span", Json.Int sp.Span.id)
            :: ("charged_us", Json.Float (Span.us_of_ns (Span.span_total_ns sp)))
            :: List.concat_map
                 (fun comp ->
                   let ns = sp.Span.charges_ns.(Comp.index comp) in
                   if ns = 0 then []
                   else [ (Comp.label comp, Json.Float (Span.us_of_ns ns)) ])
                 Comp.all
          in
          emit
            (Json.Obj
               [
                 ("name", Json.String sp.Span.kind);
                 ("cat", Json.String "span");
                 ("ph", Json.String "X");
                 ("ts", Json.Float sp.Span.start_us);
                 ("dur", Json.Float dur);
                 ("pid", Json.Int pid);
                 ("tid", Json.Int tid);
                 ("args", Json.Obj args);
               ]);
          if sp.Span.follows <> 0 then
            match Span.find_span t sp.Span.follows with
            | None -> ()
            | Some src ->
                let sts =
                  if Span.is_closed src then src.Span.end_us
                  else src.Span.start_us
                in
                flow "s" ~id:sp.Span.id ~ts:sts (lane src) [];
                flow "f" ~id:sp.Span.id ~ts:sp.Span.start_us (pid, tid)
                  [ ("bp", Json.String "e") ])
        (Span.spans_of tr))
    (Span.transfers t);
  Chrome.document lanes (List.rev !events)

let write_chrome path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let buf = Buffer.create 65536 in
      Json.to_buffer buf (chrome t);
      Buffer.output_buffer oc buf;
      output_char oc '\n')

(* -- JSONL -------------------------------------------------------------- *)

let transfer_line (tr : Span.transfer) =
  Json.Obj
    [
      ("type", Json.String "transfer");
      ("tid", Json.Int tr.Span.tid);
      ("label", Json.String tr.Span.label);
      ("root", Json.Int tr.Span.root);
      ("start_us", Json.Float tr.Span.t_start_us);
      ("cells_ns", ns_list tr.Span.cells_ns);
    ]

let span_line (sp : Span.span) =
  Json.Obj
    [
      ("type", Json.String "span");
      ("id", Json.Int sp.Span.id);
      ("transfer", Json.Int sp.Span.transfer);
      ("parent", Json.Int sp.Span.parent);
      ("follows", Json.Int sp.Span.follows);
      ("kind", Json.String sp.Span.kind);
      ("machine", Json.String sp.Span.machine);
      ("domain", Json.String sp.Span.domain);
      ("path_id", Json.Int sp.Span.path_id);
      ("start_us", Json.Float sp.Span.start_us);
      ("end_us", float_or_null sp.Span.end_us);
      ("charges_ns", ns_list sp.Span.charges_ns);
    ]

let jsonl_of_transfers trs =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (tr : Span.transfer) ->
      Json.to_buffer buf (transfer_line tr);
      Buffer.add_char buf '\n';
      List.iter
        (fun sp ->
          Json.to_buffer buf (span_line sp);
          Buffer.add_char buf '\n')
        (Span.spans_of tr))
    trs;
  Buffer.contents buf

let jsonl t = jsonl_of_transfers (Span.transfers t)

let write_jsonl path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (jsonl t))

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let get name j =
  match Json.member name j with
  | Some v -> v
  | None -> fail "missing field %S" name

let int_field name j =
  match get name j with Json.Int i -> i | _ -> fail "field %S: not an int" name

let str_field name j =
  match get name j with
  | Json.String s -> s
  | _ -> fail "field %S: not a string" name

let num_field name j =
  match get name j with
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | Json.Null -> Float.nan
  | _ -> fail "field %S: not a number" name

let ns_field name j =
  match get name j with
  | Json.List l ->
      if List.length l <> Span.ncomp then
        fail "field %S: expected %d components" name Span.ncomp;
      let a = Array.make Span.ncomp 0 in
      List.iteri
        (fun i v ->
          match v with
          | Json.Int n -> a.(i) <- n
          | _ -> fail "field %S: not an int array" name)
        l;
      a
  | _ -> fail "field %S: not a list" name

let parse_jsonl text =
  let transfers = ref [] in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun lineno line ->
      if String.trim line <> "" then begin
        let j =
          try Json.parse line
          with Json.Parse_error m -> fail "line %d: %s" (lineno + 1) m
        in
        match str_field "type" j with
        | "transfer" ->
            let tr : Span.transfer =
              {
                Span.tid = int_field "tid" j;
                label = str_field "label" j;
                root = int_field "root" j;
                t_start_us = num_field "start_us" j;
                cells_ns = ns_field "cells_ns" j;
                spans = [];
              }
            in
            transfers := tr :: !transfers
        | "span" -> (
            let sp : Span.span =
              {
                Span.id = int_field "id" j;
                transfer = int_field "transfer" j;
                parent = int_field "parent" j;
                follows = int_field "follows" j;
                kind = str_field "kind" j;
                machine = str_field "machine" j;
                domain = str_field "domain" j;
                path_id = int_field "path_id" j;
                start_us = num_field "start_us" j;
                end_us = num_field "end_us" j;
                charges_ns = ns_field "charges_ns" j;
              }
            in
            match
              List.find_opt
                (fun (tr : Span.transfer) -> tr.Span.tid = sp.Span.transfer)
                !transfers
            with
            | Some tr -> tr.Span.spans <- sp :: tr.Span.spans
            | None ->
                fail "line %d: span #%d references unknown transfer #%d"
                  (lineno + 1) sp.Span.id sp.Span.transfer)
        | other -> fail "line %d: unknown record type %S" (lineno + 1) other
      end)
    lines;
  List.rev !transfers
