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
   its "span" lines — printed field by field with Json's scalar
   printers, and a round-trip parser used by the tests and by external
   tooling that wants the raw trees. *)

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
  Json.write_file path (fun oc ->
      let buf = Buffer.create 65536 in
      Json.to_buffer buf (chrome t);
      Buffer.output_buffer oc buf;
      output_char oc '\n')

(* -- JSONL -------------------------------------------------------------- *)

(* Lines are printed straight into the buffer, in the field order and
   with the bytes [Json.to_buffer] would give the same record as a tree
   (an open span's nan [end_us] prints as [null]). A field is the
   literal that opens it, [{|,"name":|}], then its value. *)
let int_field buf k i =
  Buffer.add_string buf k;
  Json.add_int buf i

let str_field buf k s =
  Buffer.add_string buf k;
  Json.add_string buf s

let float_field buf k f =
  Buffer.add_string buf k;
  Json.add_float buf f

let ns_field buf k a =
  Buffer.add_string buf k;
  Buffer.add_char buf '[';
  for i = 0 to Array.length a - 1 do
    if i > 0 then Buffer.add_char buf ',';
    Json.add_int buf a.(i)
  done;
  Buffer.add_char buf ']'

let add_transfer_line buf (tr : Span.transfer) =
  int_field buf {|{"type":"transfer","tid":|} tr.Span.tid;
  str_field buf {|,"label":|} tr.Span.label;
  int_field buf {|,"root":|} tr.Span.root;
  float_field buf {|,"start_us":|} tr.Span.t_start_us;
  ns_field buf {|,"cells_ns":|} tr.Span.cells_ns;
  Buffer.add_string buf "}\n"

let add_span_line buf (sp : Span.span) =
  int_field buf {|{"type":"span","id":|} sp.Span.id;
  int_field buf {|,"transfer":|} sp.Span.transfer;
  int_field buf {|,"parent":|} sp.Span.parent;
  int_field buf {|,"follows":|} sp.Span.follows;
  str_field buf {|,"kind":|} sp.Span.kind;
  str_field buf {|,"machine":|} sp.Span.machine;
  str_field buf {|,"domain":|} sp.Span.domain;
  int_field buf {|,"path_id":|} sp.Span.path_id;
  float_field buf {|,"start_us":|} sp.Span.start_us;
  float_field buf {|,"end_us":|} sp.Span.end_us;
  ns_field buf {|,"charges_ns":|} sp.Span.charges_ns;
  Buffer.add_string buf "}\n"

(* [tr.spans] is newest first; the lines go oldest first. *)
let rec add_span_lines buf = function
  | [] -> ()
  | sp :: older ->
      add_span_lines buf older;
      add_span_line buf sp

let add_transfer buf (tr : Span.transfer) =
  add_transfer_line buf tr;
  add_span_lines buf tr.Span.spans

let jsonl_of_transfers trs =
  let buf = Buffer.create 65536 in
  List.iter (add_transfer buf) trs;
  Buffer.contents buf

let jsonl t = jsonl_of_transfers (Span.transfers t)

(* One transfer's lines at a time: a full sweep's JSONL is tens of MB. *)
let write_jsonl path t =
  Json.write_file path (fun oc ->
      let buf = Buffer.create 4096 in
      List.iter
        (fun tr ->
          Buffer.clear buf;
          add_transfer buf tr;
          Buffer.output_buffer oc buf)
        (Span.transfers t))

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
