(* Tests for the tracing facility: histogram math, span bookkeeping,
   Chrome trace_event export round-tripped through the JSON parser, and
   the zero-overhead-when-disabled invariant. *)

open Fbufs_sim
open Fbufs
module Trace = Fbufs_trace.Trace
module Histogram = Fbufs_trace.Histogram
module Json = Fbufs_trace.Json
module Chrome = Fbufs_trace.Chrome
module Testbed = Fbufs_harness.Testbed

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

let test_hist_exact_extrema () =
  let h = Histogram.create () in
  List.iter (Histogram.add h) [ 3.0; 1.0; 4.0; 1.0; 5.0; 9.0; 2.0; 6.0 ];
  check Alcotest.int "count" 8 (Histogram.count h);
  check (Alcotest.float 1e-9) "sum" 31.0 (Histogram.sum h);
  check (Alcotest.float 1e-9) "min" 1.0 (Histogram.min_value h);
  check (Alcotest.float 1e-9) "max" 9.0 (Histogram.max_value h)

let test_hist_percentiles_known_inputs () =
  let h = Histogram.create () in
  for i = 1 to 100 do
    Histogram.add h (float_of_int i)
  done;
  (* Buckets grow by 2^(1/8) (~9%); a reported percentile is an upper
     bound within one bucket of the true order statistic. *)
  let assert_close p truth =
    let v = Histogram.percentile h p in
    let name = Printf.sprintf "p%g in [truth, truth*1.09]" p in
    Alcotest.(check bool) name true (v >= truth && v <= truth *. 1.09)
  in
  assert_close 50.0 50.0;
  assert_close 90.0 90.0;
  assert_close 99.0 99.0;
  check (Alcotest.float 1e-9) "p100 is exact max" 100.0
    (Histogram.percentile h 100.0);
  check (Alcotest.float 1e-9) "p0 is exact min" 1.0
    (Histogram.percentile h 0.0)

let test_hist_single_sample () =
  let h = Histogram.create () in
  Histogram.add h 42.0;
  List.iter
    (fun p ->
      check (Alcotest.float 1e-9)
        (Printf.sprintf "p%g of single sample" p)
        42.0
        (Histogram.percentile h p))
    [ 0.0; 50.0; 99.0; 100.0 ]

let test_hist_empty_and_zero () =
  let h = Histogram.create () in
  check (Alcotest.float 1e-9) "empty percentile" 0.0
    (Histogram.percentile h 50.0);
  check (Alcotest.float 1e-9) "empty mean" 0.0 (Histogram.mean h);
  Histogram.add h 0.0;
  Histogram.add h (-3.0) (* clamped to zero *);
  check Alcotest.int "zero samples counted" 2 (Histogram.count h);
  check (Alcotest.float 1e-9) "all-zero percentile" 0.0
    (Histogram.percentile h 99.0)

(* ------------------------------------------------------------------ *)
(* Spans and event bookkeeping                                         *)
(* ------------------------------------------------------------------ *)

(* The latency histogram of [kind] on no path. *)
let hist tr kind =
  match List.assoc_opt (kind, -1) (Trace.summary tr) with
  | Some h -> h
  | None -> Alcotest.failf "no histogram for %s" kind

(* Open minus closed synchronous spans among the retained events. *)
let open_spans tr =
  List.fold_left
    (fun n (e : Trace.event) ->
      match e.phase with
      | Trace.Span_begin -> n + 1
      | Trace.Span_end -> n - 1
      | _ -> n)
    0 (Trace.events tr)

let test_span_nesting () =
  let tr = Trace.create () in
  let outer = Trace.begin_span tr ~ts_us:0.0 ~machine:"m" "outer" in
  let inner = Trace.begin_span tr ~ts_us:1.0 ~machine:"m" "inner" in
  check Alcotest.int "two open spans" 2 (open_spans tr);
  Trace.end_span tr ~ts_us:3.0 inner;
  Trace.end_span tr ~ts_us:10.0 outer;
  check Alcotest.int "all spans closed" 0 (open_spans tr);
  (match List.map (fun (e : Trace.event) -> (e.kind, e.phase)) (Trace.events tr) with
  | [
   ("outer", Trace.Span_begin);
   ("inner", Trace.Span_begin);
   ("inner", Trace.Span_end);
   ("outer", Trace.Span_end);
  ] ->
      ()
  | evs ->
      Alcotest.failf "unexpected event sequence (%d events)" (List.length evs));
  (* Each closed span fed its duration to the per-kind histogram. *)
  let dur kind = Histogram.max_value (hist tr kind) in
  check (Alcotest.float 1e-9) "inner duration" 2.0 (dur "inner");
  check (Alcotest.float 1e-9) "outer duration" 10.0 (dur "outer")

let test_span_unknown_id_ignored () =
  let tr = Trace.create () in
  Trace.end_span tr ~ts_us:1.0 0;
  Trace.end_span tr ~ts_us:1.0 999;
  check Alcotest.int "no events from bogus ends" 0 (Trace.event_count tr)

let test_async_span_crosses_machines () =
  let tr = Trace.create () in
  Trace.async_begin tr ~ts_us:5.0 ~machine:"tx" ~path_id:7 ~id:1 "pdu";
  Trace.async_end tr ~ts_us:9.0 ~machine:"rx" ~id:1 "pdu";
  let h = List.assoc ("pdu", 7) (Trace.summary tr) in
  check Alcotest.int "one flight sample" 1 (Histogram.count h);
  check (Alcotest.float 1e-9) "flight latency" 4.0 (Histogram.max_value h)

let test_capacity_drops_events_not_samples () =
  let tr = Trace.create ~capacity:2 () in
  for i = 0 to 9 do
    Trace.complete tr
      ~ts_us:(float_of_int i)
      ~dur_us:1.0 ~machine:"m" "op"
  done;
  check Alcotest.int "buffer capped" 2 (Trace.event_count tr);
  check Alcotest.int "drops counted" 8 (Trace.dropped tr);
  check Alcotest.int "histogram saw every sample" 10
    (Histogram.count (hist tr "op"))

let test_machine_span_helpers () =
  let m = Machine.create ~name:"host" () in
  Alcotest.(check bool) "disabled by default" false (Machine.tracing m);
  check Alcotest.int "span_begin returns 0 when disabled" 0
    (Machine.span_begin m "nope");
  Machine.span_end m 0 (* must not raise *);
  let tr = Trace.create () in
  Machine.set_obs m (Some { Machine.no_obs with trace = Some tr });
  let sp = Machine.span_begin m "work" in
  Alcotest.(check bool) "span id when enabled" true (sp > 0);
  Machine.charge ~kind:(Machine.kind "step") m 5.0;
  Machine.span_end m sp;
  check Alcotest.int "no leaked spans" 0 (open_spans tr);
  (match
     List.map (fun (e : Trace.event) -> (e.kind, e.phase)) (Trace.events tr)
   with
  | [
   ("work", Trace.Span_begin);
   ("step", Trace.Complete 5.0);
   ("work", Trace.Span_end);
  ] ->
      ()
  | evs ->
      Alcotest.failf "unexpected event sequence (%d events)" (List.length evs));
  check (Alcotest.float 1e-9) "span covers the charge" 5.0
    (Histogram.max_value (hist tr "work"))

(* ------------------------------------------------------------------ *)
(* One store for every trace                                           *)
(* ------------------------------------------------------------------ *)

(* One fixed stream through every emission entry point — instants with
   args, complete slices with a lone comp argument, record-free charge
   slices with and without a comp, B/E spans on a domain lane and async
   pairs across machines: eight events per round. *)
let feed tr ~rounds =
  for k = 0 to rounds - 1 do
    let ts = float_of_int k *. 10.0 in
    Trace.instant tr ~ts_us:ts ~machine:"tx" ~args:[ ("n", Trace.Int k) ] "mark";
    Trace.complete tr ~ts_us:ts
      ~dur_us:(float_of_int (k mod 7) +. 0.25)
      ~machine:"tx"
      ~args:[ ("comp", Trace.Str "copy") ]
      "charge";
    Trace.complete_comp tr ~at:[| ts +. 1.0 |] ~dur_us:0.5 ~machine:"tx"
      ~comp:(Fbufs_trace.Name.intern (if k mod 2 = 0 then "map" else ""))
      (Fbufs_trace.Name.intern "charge");
    let sp =
      Trace.begin_span tr ~ts_us:(ts +. 2.0) ~machine:"tx" ~domain:"app" "call"
    in
    Trace.complete tr ~ts_us:(ts +. 2.5) ~dur_us:1.5 ~machine:"tx"
      ~domain:"app" ~path_id:(k mod 3) "work";
    Trace.end_span tr ~ts_us:(ts +. 4.0) sp;
    Trace.async_begin tr ~ts_us:(ts +. 4.0) ~machine:"tx" ~path_id:(k mod 5)
      ~id:k "pdu";
    Trace.async_end tr ~ts_us:(ts +. 9.0) ~machine:"rx" ~id:k "pdu"
  done

let summary_digest tr =
  List.map
    (fun (key, h) ->
      ( key,
        ( Histogram.count h,
          Histogram.sum h,
          Histogram.percentile h 50.0,
          Histogram.max_value h ) ))
    (Trace.summary tr)

let same_events what expect got =
  check Alcotest.int (what ^ ": retained count") (List.length expect)
    (List.length got);
  List.iteri
    (fun i (a, b) ->
      if a <> b then Alcotest.failf "%s: event %d differs" what i)
    (List.combine expect got)

let test_stores_agree_within_capacity () =
  let rounds = 400 (* 3200 events: the columns grow 1024 -> 2048 -> 4096 *) in
  let unbounded = Trace.create () in
  let bounded = Trace.create ~capacity:4096 () in
  let ring = Trace.create ~ring:true ~capacity:4096 () in
  List.iter (fun tr -> feed tr ~rounds) [ unbounded; bounded; ring ];
  let expect = Trace.events unbounded in
  check Alcotest.int "every event retained" (8 * rounds) (List.length expect);
  List.iter
    (fun (what, tr) ->
      same_events what expect (Trace.events tr);
      check Alcotest.int (what ^ ": nothing dropped") 0 (Trace.dropped tr);
      Alcotest.(check bool)
        (what ^ ": same summary") true
        (summary_digest unbounded = summary_digest tr))
    [ ("bounded", bounded); ("ring", ring) ]

(* Past capacity the bounded trace keeps the oldest events and the ring
   the newest, both counting the rest as dropped; the histograms see
   every event either way. At capacity 1000 the bounded and ring
   columns never grow (the ring wraps three times), so they check the
   unbounded trace's growth independently; at 2500 they grow to a
   clamped size themselves. *)
let test_stores_agree_past_capacity () =
  let rounds = 400 in
  let unbounded = Trace.create () in
  feed unbounded ~rounds;
  let all = Trace.events unbounded in
  let n = List.length all in
  List.iter
    (fun cap ->
      let bounded = Trace.create ~capacity:cap () in
      let ring = Trace.create ~ring:true ~capacity:cap () in
      List.iter (fun tr -> feed tr ~rounds) [ bounded; ring ];
      let what s = Printf.sprintf "capacity %d, %s" cap s in
      same_events (what "bounded keeps the oldest")
        (List.filteri (fun i _ -> i < cap) all)
        (Trace.events bounded);
      same_events (what "ring keeps the newest")
        (List.filteri (fun i _ -> i >= n - cap) all)
        (Trace.events ring);
      List.iter
        (fun (name, tr) ->
          check Alcotest.int (what (name ^ ": overflow dropped")) (n - cap)
            (Trace.dropped tr);
          Alcotest.(check bool)
            (what (name ^ ": same summary"))
            true
            (summary_digest unbounded = summary_digest tr))
        [ ("bounded", bounded); ("ring", ring) ])
    [ 1000; 2500 ]

(* ------------------------------------------------------------------ *)
(* Chrome export round trip                                            *)
(* ------------------------------------------------------------------ *)

(* A small real workload with the sink installed the way the harness
   does it: via [Machine.with_obs], picked up by [Machine.create]. *)
let traced_workload () =
  let tr = Trace.create () in
  Machine.with_obs { Machine.no_obs with trace = Some tr } (fun () ->
      let tb = Testbed.create () in
      let app = Testbed.user_domain tb "app" in
      let recv = Testbed.user_domain tb "recv" in
      let alloc =
        Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile
      in
      for _ = 1 to 3 do
        let fb = Allocator.alloc alloc ~npages:2 in
        Fbuf_api.touch_write fb ~as_:app;
        Transfer.send fb ~src:app ~dst:recv;
        Fbuf_api.touch_read fb ~as_:recv;
        Transfer.free fb ~dom:recv;
        Transfer.free fb ~dom:app
      done);
  tr

let test_chrome_json_roundtrip () =
  let tr = traced_workload () in
  Alcotest.(check bool) "workload emitted events" true
    (Trace.event_count tr > 0);
  let parsed = Json.parse (Chrome.to_string tr) in
  let events =
    match Json.member "traceEvents" parsed with
    | Some (Json.List evs) -> evs
    | _ -> Alcotest.fail "traceEvents missing or not a list"
  in
  Alcotest.(check bool) "non-empty traceEvents" true (events <> []);
  let str_field name ev =
    match Json.member name ev with
    | Some (Json.String s) -> s
    | _ -> Alcotest.failf "event without string %S field" name
  in
  let balance = Hashtbl.create 8 in
  let metadata = ref 0 in
  List.iter
    (fun ev ->
      let ph = str_field "ph" ev in
      (match ph with
      | "B" | "E" | "X" | "i" | "b" | "e" | "M" -> ()
      | other -> Alcotest.failf "unknown phase %S" other);
      if ph = "M" then incr metadata
      else begin
        (* Every non-metadata event carries a numeric timestamp. *)
        (match Json.member "ts" ev with
        | Some (Json.Float _ | Json.Int _) -> ()
        | _ -> Alcotest.fail "event without numeric ts");
        (* Async events need the correlation id Chrome requires. *)
        if ph = "b" || ph = "e" then
          if Json.member "id" ev = None || Json.member "cat" ev = None then
            Alcotest.fail "async event without id/cat"
      end;
      (* B/E must balance per (pid, tid) lane. *)
      if ph = "B" || ph = "E" then begin
        let lane = (Json.member "pid" ev, Json.member "tid" ev) in
        let d = try Hashtbl.find balance lane with Not_found -> 0 in
        let d = d + if ph = "B" then 1 else -1 in
        Alcotest.(check bool) "E never precedes B on a lane" true (d >= 0);
        Hashtbl.replace balance lane d
      end)
    events;
  Hashtbl.iter
    (fun _ d -> check Alcotest.int "B/E balanced per lane" 0 d)
    balance;
  Alcotest.(check bool) "has process/thread metadata" true (!metadata > 0);
  match Json.member "displayTimeUnit" parsed with
  | Some (Json.String _) -> ()
  | _ -> Alcotest.fail "missing displayTimeUnit"

let test_jsonl_lines_parse () =
  let tr = traced_workload () in
  let path = Filename.temp_file "fbufs_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Chrome.write_jsonl tr path;
      let ic = open_in path in
      let lines = ref 0 in
      (try
         while true do
           let line = input_line ic in
           incr lines;
           match Json.parse line with
           | Json.Obj fields ->
               Alcotest.(check bool) "line has kind" true
                 (List.mem_assoc "kind" fields)
           | _ -> Alcotest.fail "jsonl line is not an object"
         done
       with End_of_file -> close_in ic);
      check Alcotest.int "one line per buffered event" (Trace.event_count tr)
        !lines)

(* ------------------------------------------------------------------ *)
(* Zero overhead when disabled                                         *)
(* ------------------------------------------------------------------ *)

(* The same seeded workload must leave bit-identical statistics and
   clock whether a sink is attached or not: tracing observes charges, it
   never adds any. *)
let run_workload ~trace () =
  Machine.with_obs { Machine.no_obs with trace } (fun () ->
      let tb = Testbed.create () in
      let app = Testbed.user_domain tb "app" in
      let recv = Testbed.user_domain tb "recv" in
      let alloc =
        Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile
      in
      for _ = 1 to 5 do
        let fb = Allocator.alloc alloc ~npages:3 in
        Fbuf_api.touch_write fb ~as_:app;
        Transfer.send fb ~src:app ~dst:recv;
        Fbuf_api.touch_read fb ~as_:recv;
        Transfer.free fb ~dom:recv;
        Transfer.free fb ~dom:app
      done;
      let m = tb.Testbed.m in
      (Stats.snapshot m.Machine.stats, Machine.now m))

let test_disabled_tracing_is_invisible () =
  let stats_off, now_off = run_workload ~trace:None () in
  let tr = Trace.create () in
  let stats_on, now_on = run_workload ~trace:(Some tr) () in
  Alcotest.(check bool) "traced run actually traced" true
    (Trace.event_count tr > 0);
  check (Alcotest.float 0.0) "identical clock" now_off now_on;
  check
    Alcotest.(list (pair string (Alcotest.float 0.0)))
    "identical statistics" stats_off stats_on;
  check
    Alcotest.(list (pair string (Alcotest.float 0.0)))
    "no residual delta" []
    (Stats.diff ~before:stats_off ~after:stats_on)

(* ------------------------------------------------------------------ *)
(* JSON scalar printers                                                *)
(* ------------------------------------------------------------------ *)

(* The oracle: what the writers printed when every scalar went through
   [Printf], kept here so the direct printers are checked against it. *)
let printf_float f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s
    else
      let s = Printf.sprintf "%.15g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

let printf_string s =
  let buf = Buffer.create 16 in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

let printed add x =
  let buf = Buffer.create 32 in
  add buf x;
  Buffer.contents buf

let special_floats =
  [
    0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity; 1e15;
    Float.pred 1e15; Float.succ 1e15; -1e15; Float.pred (-1e15);
    Float.succ (-1e15); 1e16; 999999999999999.5; Float.min_float;
    Float.min_float /. 2.0; Float.pred Float.min_float; 5e-324; -5e-324;
    Float.max_float; -.Float.max_float; Float.epsilon; 0.1; 1.0 /. 3.0;
    -2.5; 123456.789; 1e-7; 4503599627370496.5;
  ]

(* Specials, arbitrary bit patterns (every class: subnormal, nan
   payloads, infinities), and the short decimals simulated times are. *)
let float_arb =
  QCheck.make ~print:(Printf.sprintf "%h")
    QCheck.Gen.(
      oneof
        [
          oneofl special_floats;
          map Int64.float_of_bits ui64;
          float;
          map
            (fun i -> float_of_int i /. 1000.0)
            (int_range (-10_000_000) 10_000_000);
          map (fun i -> float_of_int i) int;
        ])

let prop_float_printer =
  QCheck.Test.make ~name:"add_float = Printf oracle" ~count:5000 float_arb
    (fun f -> printed Json.add_float f = printf_float f)

let int_arb =
  QCheck.make ~print:string_of_int
    QCheck.Gen.(
      oneof
        [
          oneofl
            [ 0; 1; -1; 9; 10; -10; max_int; min_int; max_int - 1; min_int + 1 ];
          int;
          small_signed_int;
        ])

let prop_int_printer =
  QCheck.Test.make ~name:"add_int = Printf oracle" ~count:5000 int_arb
    (fun i -> printed Json.add_int i = Printf.sprintf "%d" i)

(* Bytes weighted toward the ones with escapes: quotes, backslashes and
   every control character, then any byte at all. *)
let string_arb =
  QCheck.make ~print:String.escaped
    QCheck.Gen.(
      string_size
        ~gen:
          (frequency
             [
               (3, oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\b'; '\012' ]);
               (3, char_range '\000' '\031');
               (4, printable);
               (2, char);
             ])
        (int_range 0 40))

let prop_string_printer =
  QCheck.Test.make ~name:"add_string = Printf oracle" ~count:5000 string_arb
    (fun s -> printed Json.add_string s = printf_string s)

let test_printer_specials () =
  List.iter
    (fun f ->
      check Alcotest.string (Printf.sprintf "%h" f) (printf_float f)
        (printed Json.add_float f))
    special_floats;
  List.iter
    (fun i ->
      check Alcotest.string (string_of_int i) (Printf.sprintf "%d" i)
        (printed Json.add_int i))
    [ min_int; max_int; 0 ];
  let every_control = String.init 32 Char.chr ^ "\"\\" in
  check Alcotest.string "control characters and quotes"
    (printf_string every_control)
    (printed Json.add_string every_control)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "trace"
    [
      ( "histogram",
        [
          Alcotest.test_case "exact extrema" `Quick test_hist_exact_extrema;
          Alcotest.test_case "percentiles on known inputs" `Quick
            test_hist_percentiles_known_inputs;
          Alcotest.test_case "single sample" `Quick test_hist_single_sample;
          Alcotest.test_case "empty and zero" `Quick test_hist_empty_and_zero;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "unknown ids ignored" `Quick
            test_span_unknown_id_ignored;
          Alcotest.test_case "async crosses machines" `Quick
            test_async_span_crosses_machines;
          Alcotest.test_case "capacity drops events not samples" `Quick
            test_capacity_drops_events_not_samples;
          Alcotest.test_case "machine helpers" `Quick test_machine_span_helpers;
        ] );
      ( "store",
        [
          Alcotest.test_case "stores agree within capacity" `Quick
            test_stores_agree_within_capacity;
          Alcotest.test_case "stores agree past capacity" `Quick
            test_stores_agree_past_capacity;
        ] );
      ( "chrome-export",
        [
          Alcotest.test_case "json round trip" `Quick test_chrome_json_roundtrip;
          Alcotest.test_case "jsonl lines parse" `Quick test_jsonl_lines_parse;
        ] );
      ( "zero-overhead",
        [
          Alcotest.test_case "disabled tracing is invisible" `Quick
            test_disabled_tracing_is_invisible;
        ] );
      ( "json-printers",
        [
          Alcotest.test_case "special values" `Quick test_printer_specials;
          QCheck_alcotest.to_alcotest prop_float_printer;
          QCheck_alcotest.to_alcotest prop_int_printer;
          QCheck_alcotest.to_alcotest prop_string_printer;
        ] );
    ]
