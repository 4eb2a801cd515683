open Fbufs_sim
module Trace = Fbufs_trace.Trace
module Chrome = Fbufs_trace.Chrome
module Mx = Fbufs_metrics.Metrics
module Ledger = Fbufs_metrics.Ledger
module Component = Fbufs_metrics.Component
module Expo = Fbufs_metrics.Expo
module Span = Fbufs_span.Span
module Critical = Fbufs_span.Critical
module Span_export = Fbufs_span.Span_export

(* Full experiment sweeps emit tens of millions of events; a bounded
   buffer keeps exports loadable in a viewer while the online histograms
   (fed before the capacity check) still see every span. *)
let trace_capacity = 2_000_000

let transfer_wall =
  Mx.sketch ~name:"fbufs_transfer_wall_us"
    ~help:
      "End-to-end wall time per causal transfer (mergeable quantile sketch)"
    ~labels:[ "label" ] ()

(* A transfer's wall is its latest closed-span end minus its start, 0
   without a closed span: the figure [Critical.analyze] reports as
   [wall_us], without extracting the path. [found] is nan until a closed
   span is seen; each step passes an existing boxed end along. *)
let rec latest_end found = function
  | [] -> found
  | (sp : Span.span) :: rest ->
      latest_end
        (if Span.is_closed sp && (Float.is_nan found || sp.Span.end_us > found)
         then sp.Span.end_us
         else found)
        rest

let roll_transfer_walls mx sink =
  List.iter
    (fun (tr : Span.transfer) ->
      let finish = latest_end Float.nan tr.Span.spans in
      Mx.observe1 mx transfer_wall tr.Span.label
        (if Float.is_nan finish then 0.0 else finish -. tr.Span.t_start_us))
    (Span.transfers sink)

(* Per-component breakdown of everything the run charged. The total row
   is [Ledger.total_us], which is by construction the sum of the printed
   component rows — a reader adding the column reproduces it exactly. *)
let print_breakdown mx =
  let ledger = Mx.ledger mx in
  let total = Ledger.total_us ledger in
  if Ledger.charge_count ledger = 0 then
    print_endline "metrics: no simulated time was charged"
  else begin
    Report.print_title "Cost attribution (simulated microseconds)";
    Report.print_columns [ "component"; "us"; "%"; "table1" ];
    let row cols =
      print_endline
        (String.concat "  " (List.map (Report.cell ~width:14) cols))
    in
    List.iter
      (fun (comp, us) ->
        if us <> 0.0 then
          row
            [
              Component.label comp;
              Printf.sprintf "%.2f" us;
              (if total > 0.0 then Printf.sprintf "%.1f" (100.0 *. us /. total)
               else "-");
              (if Component.in_table1 comp then "yes" else "-");
            ])
      (Ledger.by_component ledger);
    row [ "total"; Printf.sprintf "%.2f" total; "100.0"; "" ]
  end

let write_file path contents =
  Fbufs_trace.Json.write_file path (fun oc -> output_string oc contents)

(* One requested output file: a note on stdout says where it went; an
   unwritable path is reported on stderr and never fails the run. *)
let export sink ~what ?(format = "") write = function
  | None -> ()
  | Some path -> (
      match write path with
      | () -> Printf.printf "%s: %s -> %s%s\n" sink what path format
      | exception Sys_error msg ->
          Printf.eprintf "%s: cannot write %s: %s\n" sink path msg)

let viewer = " (chrome://tracing, Perfetto)"

let with_outputs ?chrome ?jsonl ?metrics ?folded ?(breakdown = false) ?spans
    ?spans_chrome ?(critical = false) ?top ?extend f =
  let tr =
    if chrome = None && jsonl = None then None
    else Some (Trace.create ~capacity:trace_capacity ())
  in
  let mx =
    if metrics = None && folded = None && not breakdown then None
    else Some (Mx.create ())
  in
  let sink =
    if spans = None && spans_chrome = None && not critical then None
    else Some (Span.create ())
  in
  let base = { Machine.no_obs with trace = tr; metrics = mx; spans = sink } in
  let result =
    match extend with
    | Some extend -> Machine.with_obs (extend base) f
    | None when tr = None && mx = None && sink = None -> f ()
    | None -> Machine.with_obs base f
  in
  Option.iter
    (fun s ->
      (* Per-transfer wall times land in the run's registry as a
         mergeable sketch keyed by transfer label. *)
      Option.iter (fun mx -> roll_transfer_walls mx s) mx;
      let what =
        Printf.sprintf "%d transfers" (List.length (Span.transfers s))
      in
      export "spans" ~what ~format:" (jsonl)"
        (fun p -> Span_export.write_jsonl p s)
        spans;
      export "spans" ~what ~format:viewer
        (fun p -> Span_export.write_chrome p s)
        spans_chrome;
      if critical then Critical.print_report Format.std_formatter ?top s)
    sink;
  Option.iter
    (fun mx ->
      export "metrics" ~what:"exposition"
        (fun p ->
          write_file p
            (if Filename.check_suffix p ".json" then Expo.to_json_string mx
             else Expo.to_prometheus mx))
        metrics;
      export "metrics" ~what:"collapsed stacks"
        (fun p -> write_file p (Ledger.collapsed (Mx.ledger mx)))
        folded;
      if breakdown then print_breakdown mx)
    mx;
  Option.iter
    (fun tr ->
      let what = Printf.sprintf "%d events" (Trace.event_count tr) in
      export "trace" ~what ~format:viewer (Chrome.write_file tr) chrome;
      export "trace" ~what ~format:" (jsonl)" (Chrome.write_jsonl tr) jsonl;
      if Trace.dropped tr > 0 then
        Printf.printf "trace: %d events dropped (buffer capacity)\n"
          (Trace.dropped tr);
      Report.print_trace_summary tr)
    tr;
  result

let workload ?(config = Exp_fig5.User_user) ?(bytes = 65536)
    ?(uncached = false) ?pdu_size ?window ?nmsgs () =
  Report.print_title
    (Printf.sprintf
       "Traced end-to-end transfer: %s, %s fbufs, %d-byte messages"
       (Exp_fig5.config_name config)
       (if uncached then "uncached" else "cached/volatile")
       bytes);
  let p =
    Exp_fig5.run_one ~uncached ~config ~bytes ?pdu_size ?window ?nmsgs ()
  in
  Printf.printf "throughput %.1f Mb/s, tx CPU load %.2f, rx CPU load %.2f\n"
    p.Exp_fig5.mbps p.Exp_fig5.tx_cpu_load p.Exp_fig5.rx_cpu_load
