module Machine = Fbufs_sim.Machine
module Trace = Fbufs_trace.Trace
module Chrome = Fbufs_trace.Chrome
module Json = Fbufs_trace.Json
module Span = Fbufs_span.Span
module Span_export = Fbufs_span.Span_export
module Mx = Fbufs_metrics.Metrics

(* Recorder parameters. Every caller uses these values; the dump
   directory is the only setting. *)
let seed = 1 (* the reservoir draws from substream [seed + 1] *)
let event_capacity = 4096 (* recent-event ring (recorder-owned sink) *)
let reservoir = 256 (* weighted event reservoir *)
let span_capacity = 64 (* completed transfer roots *)
let debounce_us = 10_000.0 (* min simulated time between dumps *)
let max_dumps = 4 (* lifetime dump cap *)

(* Nursery size (words) guaranteed while armed. The recorder's churn —
   event records materialized on acceptance, boxed floats at emission
   calls — otherwise raises the minor-GC rate of the host run; a
   pre-sized nursery absorbs it the same way flight recorders pre-size
   their arenas. Restored on disarm. *)
let gc_minor_words = 8_000_000

let dumps_total =
  Mx.counter ~name:"fbufs_obs_dumps_total"
    ~help:"Post-mortem dumps written by the flight recorder"
    ~labels:[ "reason" ] ()

let suppressed_total =
  Mx.counter ~name:"fbufs_obs_dump_suppressed_total"
    ~help:"Dump triggers suppressed by the debounce window or the dump cap"
    ~labels:[ "reason" ] ()

type t = {
  dir : string;
  res : Trace.event Sample.Reservoir.t;
  roots : Span.transfer Ring.t;
  mutable trace : Trace.t option;  (* sink being tapped while armed *)
  mutable spans : Span.t option;
  mutable metrics : Mx.t option;  (* the run's registry, for dump counts *)
  mutable own_spans : bool;  (* we added the span sink: forget what we drop *)
  mutable armed : bool;
  mutable last_ts : float; (* span-side; merge with the trace via [last_ts t] *)
  mutable seen0 : int; (* events already in the trace when we armed *)
  mutable dumps : int;
  mutable suppressed : int;
  mutable last_dump_ts : float;
  mutable saved_minor : int; (* nursery size to restore on disarm; 0 = none *)
}

let create ~dir =
  {
    dir;
    res = Sample.Reservoir.create ~seed:(seed + 1) ~k:reservoir;
    roots = Ring.create ~capacity:span_capacity;
    trace = None;
    spans = None;
    metrics = None;
    own_spans = false;
    armed = false;
    last_ts = 0.0;
    seen0 = 0;
    dumps = 0;
    suppressed = 0;
    last_dump_ts = Float.neg_infinity;
    saved_minor = 0;
  }

(* Per-event work is a skip-budget decrement inside the trace (one
   float subtract + compare in the steady state); the event record is
   only materialized on reservoir acceptance. Counters and timestamps
   come from the trace itself, so the recorder adds no per-event
   bookkeeping of its own. *)
let sampler t =
  {
    Trace.skip = [| 0.0 |];
    accept = (fun ev w -> Sample.Reservoir.accept_weighted t.res ~weight:w ev);
  }

let pushed tr = Trace.event_count tr + Trace.dropped tr

let events_seen t =
  match t.trace with Some tr -> pushed tr - t.seen0 | None -> 0

let last_ts t =
  match t.trace with
  | Some tr -> Float.max t.last_ts (Trace.last_ts tr)
  | None -> t.last_ts

(* Every completed transfer joins the root ring; when the recorder owns
   the span sink, the transfer the ring evicts is forgotten from it. *)
let span_tap t (tr : Span.transfer) =
  if tr.Span.t_start_us > t.last_ts then t.last_ts <- tr.Span.t_start_us;
  match (Ring.push t.roots tr, t.spans) with
  | Some evicted, Some s when t.own_spans -> Span.forget s evicted.Span.tid
  | _ -> ()

let arm t (o : Machine.obs) =
  if t.armed then o
  else begin
    t.armed <- true;
    (let cur = (Gc.get ()).Gc.minor_heap_size in
     if gc_minor_words > cur then begin
       t.saved_minor <- cur;
       Gc.set { (Gc.get ()) with Gc.minor_heap_size = gc_minor_words }
     end);
    let tr =
      match o.trace with
      | Some tr -> tr
      | None ->
          Trace.create ~ring:true ~latency:false ~capacity:event_capacity ()
    in
    t.seen0 <- pushed tr;
    Trace.set_sampler tr (Some (sampler t));
    let s =
      match o.spans with
      | Some s -> s
      | None ->
          t.own_spans <- true;
          Span.create ()
    in
    Span.set_tap s (Some (span_tap t));
    t.trace <- Some tr;
    t.spans <- Some s;
    t.metrics <- o.metrics;
    { o with trace = Some tr; spans = Some s }
  end

let disarm t =
  if t.armed then begin
    t.armed <- false;
    if t.saved_minor > 0 then begin
      Gc.set { (Gc.get ()) with Gc.minor_heap_size = t.saved_minor };
      t.saved_minor <- 0
    end;
    (match t.trace with Some tr -> Trace.set_sampler tr None | None -> ());
    (match t.spans with Some s -> Span.set_tap s None | None -> ());
    t.own_spans <- false
  end

let note t ~kind ?(args = []) () =
  if t.armed then
    match t.trace with
    | Some tr ->
        Trace.instant tr ~ts_us:(last_ts t) ~machine:"obs" ~args kind
    | None -> ()

(* -- dumps -------------------------------------------------------------- *)

let meta_json t ~reason =
  (* Every completed transfer is kept; the ring bounds how many survive. *)
  let roots = Ring.pushed t.roots in
  Json.Obj
    [
      ("reason", Json.String reason);
      ("ts_us", Json.Float (last_ts t));
      ("seed", Json.Int seed);
      ("events_seen", Json.Int (events_seen t));
      ("roots_seen", Json.Int roots);
      ("roots_kept", Json.Int roots);
      ("reservoir_accepts", Json.Int (Sample.Reservoir.offered t.res));
      ("dumps", Json.Int t.dumps);
      ("suppressed", Json.Int t.suppressed);
    ]

let render_dump t ~reason =
  let events, chrome =
    match t.trace with
    | Some tr ->
        ( Chrome.jsonl (Trace.events ~last:event_capacity tr),
          Chrome.to_string tr )
    | None -> ("", "{\"traceEvents\":[]}")
  in
  [
    ("events.jsonl", events);
    ("chrome.json", chrome);
    ("sampled.jsonl", Chrome.jsonl (Sample.Reservoir.items t.res));
    ("spans.jsonl", Span_export.jsonl_of_transfers (Ring.to_list t.roots));
    ("meta.json", Json.to_string (meta_json t ~reason));
  ]

let metric_label reason =
  (* Keep the label set bounded: strip any per-op detail after ':'. *)
  match String.index_opt reason ':' with
  | Some i -> String.sub reason 0 i
  | None -> reason

(* A file that cannot be written is reported and skipped, as every
   other sink does: a dump, the monitors' included, never ends the run. *)
let reporting path f =
  try f () with Sys_error msg ->
    Printf.eprintf "record: cannot write %s: %s\n%!" path msg

let write_dump t ~reason =
  reporting t.dir (fun () ->
      if not (Sys.file_exists t.dir) then Sys.mkdir t.dir 0o755);
  t.dumps <- t.dumps + 1;
  t.last_dump_ts <- last_ts t;
  let prefix = Printf.sprintf "postmortem-%d-" t.dumps in
  List.iter
    (fun (name, content) ->
      let path = Filename.concat t.dir (prefix ^ name) in
      reporting path (fun () ->
          Json.write_file path (fun oc -> output_string oc content)))
    (render_dump t ~reason);
  match t.metrics with
  | Some mx -> Mx.incr1 mx dumps_total (metric_label reason)
  | None -> ()

let trigger ?(force = false) t ~reason =
  let allowed =
    force
    || t.dumps < max_dumps && last_ts t -. t.last_dump_ts >= debounce_us
  in
  if allowed then begin
    write_dump t ~reason;
    true
  end
  else begin
    t.suppressed <- t.suppressed + 1;
    (match t.metrics with
    | Some mx -> Mx.incr1 mx suppressed_total (metric_label reason)
    | None -> ());
    false
  end

let dumps t = t.dumps
let roots_seen t = Ring.pushed t.roots
