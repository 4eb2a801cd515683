(* Lane assignment: machines get pids 1.. in order of first appearance;
   within a machine, tid 1 is the machine-level lane (domain = "") and
   domains get tids 2.. in order of first appearance. *)

type lanes = {
  pids : (string, int) Hashtbl.t;
  tids : (string * string, int) Hashtbl.t;
  next_tid : (string, int) Hashtbl.t;
}

let lanes () =
  {
    pids = Hashtbl.create 4;
    tids = Hashtbl.create 16;
    next_tid = Hashtbl.create 4;
  }

let lane ids ~machine ~domain =
  let pid =
    match Hashtbl.find_opt ids.pids machine with
    | Some p -> p
    | None ->
        let p = 1 + Hashtbl.length ids.pids in
        Hashtbl.add ids.pids machine p;
        Hashtbl.add ids.next_tid machine 2;
        p
  in
  let tid =
    if domain = "" then 1
    else
      let key = (machine, domain) in
      match Hashtbl.find_opt ids.tids key with
      | Some t -> t
      | None ->
          let t = Hashtbl.find ids.next_tid machine in
          Hashtbl.replace ids.next_tid machine (t + 1);
          Hashtbl.add ids.tids key t;
          t
  in
  (pid, tid)

let name_meta what pid tid name =
  Json.Obj
    ([
       ("name", Json.String what);
       ("ph", Json.String "M");
       ("pid", Json.Int pid);
     ]
    @ (match tid with Some t -> [ ("tid", Json.Int t) ] | None -> [])
    @ [ ("args", Json.Obj [ ("name", Json.String name) ]) ])

(* process_name per pid, thread_name "machine" for every tid 1 lane, then
   thread_name per domain lane. *)
let metadata ids =
  let procs =
    Hashtbl.fold
      (fun name pid acc -> name_meta "process_name" pid None name :: acc)
      ids.pids []
  in
  let machine_lanes =
    Hashtbl.fold
      (fun _ pid acc -> name_meta "thread_name" pid (Some 1) "machine" :: acc)
      ids.pids []
  in
  let threads =
    Hashtbl.fold
      (fun (machine, domain) tid acc ->
        match Hashtbl.find_opt ids.pids machine with
        | None -> acc
        | Some pid -> name_meta "thread_name" pid (Some tid) domain :: acc)
      ids.tids []
  in
  procs @ machine_lanes @ threads

let document ?dropped ids events =
  Json.Obj
    ([
       ("traceEvents", Json.List (events @ metadata ids));
       ("displayTimeUnit", Json.String "ms");
     ]
    @
    match dropped with
    | Some n -> [ ("otherData", Json.Obj [ ("dropped", Json.Int n) ]) ]
    | None -> [])

let arg_json = function
  | Trace.Str s -> Json.String s
  | Trace.Int i -> Json.Int i
  | Trace.Float f -> Json.Float f

let args_json args = List.map (fun (k, v) -> (k, arg_json v)) args

let event_json ids (ev : Trace.event) =
  let pid, tid = lane ids ~machine:ev.Trace.machine ~domain:ev.Trace.domain in
  let common ph =
    [
      ("name", Json.String ev.Trace.kind);
      ("ph", Json.String ph);
      ("ts", Json.Float ev.Trace.ts_us);
      ("pid", Json.Int pid);
      ("tid", Json.Int tid);
    ]
  in
  let async ph =
    common ph
    @ [ ("cat", Json.String ev.Trace.kind); ("id", Json.Int ev.Trace.span) ]
  in
  let fields =
    match ev.Trace.phase with
    | Trace.Instant -> common "i" @ [ ("s", Json.String "t") ]
    | Trace.Complete dur -> common "X" @ [ ("dur", Json.Float dur) ]
    | Trace.Span_begin -> common "B"
    | Trace.Span_end -> common "E"
    | Trace.Async_begin -> async "b"
    | Trace.Async_end -> async "e"
  in
  let args =
    let base = args_json ev.Trace.args in
    if ev.Trace.path_id >= 0 then ("path", Json.Int ev.Trace.path_id) :: base
    else base
  in
  Json.Obj
    (match args with [] -> fields | a -> fields @ [ ("args", Json.Obj a) ])

let to_json t =
  let ids = lanes () in
  let evs = ref [] in
  Trace.iter t (fun ev -> evs := event_json ids ev :: !evs);
  document ~dropped:(Trace.dropped t) ids (List.rev !evs)

let to_string t = Json.to_string (to_json t)

let write_file t path =
  Json.write_file path (fun oc -> output_string oc (to_string t))

let phase_name = function
  | Trace.Instant -> "i"
  | Trace.Complete _ -> "X"
  | Trace.Span_begin -> "B"
  | Trace.Span_end -> "E"
  | Trace.Async_begin -> "b"
  | Trace.Async_end -> "e"

let jsonl_event (ev : Trace.event) =
  Json.Obj
    ([
       ("ts", Json.Float ev.Trace.ts_us);
       ("machine", Json.String ev.Trace.machine);
       ("domain", Json.String ev.Trace.domain);
       ("path", Json.Int ev.Trace.path_id);
       ("kind", Json.String ev.Trace.kind);
       ("ph", Json.String (phase_name ev.Trace.phase));
     ]
    @ (match ev.Trace.phase with
      | Trace.Complete dur -> [ ("dur", Json.Float dur) ]
      | _ -> [])
    @ (if ev.Trace.span <> 0 then [ ("span", Json.Int ev.Trace.span) ] else [])
    @
    match ev.Trace.args with
    | [] -> []
    | args -> [ ("args", Json.Obj (args_json args)) ])

let add_line buf ev =
  Json.to_buffer buf (jsonl_event ev);
  Buffer.add_char buf '\n'

let jsonl evs =
  let buf = Buffer.create 65536 in
  List.iter (add_line buf) evs;
  Buffer.contents buf

(* Streamed line by line: a full trace's JSONL is tens of MB. *)
let write_jsonl t path =
  Json.write_file path (fun oc ->
      let buf = Buffer.create 256 in
      Trace.iter t (fun ev ->
          Buffer.clear buf;
          add_line buf ev;
          Buffer.output_buffer oc buf))
