module Machine = Fbufs_sim.Machine
module Mx = Fbufs_metrics.Metrics

(* The one rule, and its fixed parameters. *)
let rule = "gauge"
let budget = 32 (* held-pages gauges examined per sequence point *)
let grace = 16 (* pages of held-over-threshold slack before [gauge] fires *)
let drop_spike = 8.0 (* drops between sequence points that trigger a dump *)
let max_violations = 64 (* retained messages; the metric counts all *)

let violations_total =
  Mx.counter ~name:"fbufs_monitor_violations_total"
    ~help:"Invariant violations detected by the online monitors"
    ~labels:[ "rule" ] ()

let checks_total =
  Mx.counter ~name:"fbufs_monitor_checks_total"
    ~help:"Rule evaluations performed at sequence points"
    ~labels:[ "rule" ] ()

type t = {
  recorder : Recorder.t option;
  last_drops : (string, float) Hashtbl.t;
  mutable violations : (string * string) list;  (* newest first, capped *)
  mutable violation_count : int;
  mutable checks : int;
}

let create ?recorder () =
  {
    recorder;
    last_drops = Hashtbl.create 4;
    violations = [];
    violation_count = 0;
    checks = 0;
  }

let violate t mx msg =
  t.violation_count <- t.violation_count + 1;
  if List.length t.violations < max_violations then
    t.violations <- (rule, msg) :: t.violations;
  Mx.incr1 mx violations_total rule;
  match t.recorder with
  | Some r ->
      Recorder.note r ~kind:"monitor.violation"
        ~args:
          [
            ("rule", Fbufs_trace.Trace.Str rule);
            ("msg", Fbufs_trace.Trace.Str msg);
          ]
        ();
      ignore (Recorder.trigger r ~reason:("monitor:" ^ rule))
  | None -> ()

(* Held pages per path stay within [grace] of the path's threshold.
   Only the held-pages family is read, at every sequence point. *)
let check_gauges t mx =
  Mx.incr1 mx checks_total rule;
  let held =
    match Mx.find_def "fbufs_policy_held_pages" with
    | Some d -> Mx.samples_of mx d
    | None -> []
  in
  List.iteri
    (fun i (s : Mx.sample) ->
      if i < budget then
        match
          Mx.value_by_name mx ~name:"fbufs_policy_threshold_pages"
            ~labels:s.Mx.labels
        with
        | Some thr when s.Mx.value > thr +. float_of_int grace ->
            violate t mx
              (Printf.sprintf
                 "path %s holds %.0f pages, threshold %.0f (+%d grace)"
                 (String.concat "/" s.Mx.labels)
                 s.Mx.value thr grace)
        | Some _ | None -> ())
    held

let check_drop_spike t m mx =
  let total = Mx.total_by_name mx ~name:"fbufs_policy_dropped_total" in
  let last =
    Option.value ~default:0.0 (Hashtbl.find_opt t.last_drops m.Machine.name)
  in
  Hashtbl.replace t.last_drops m.Machine.name total;
  if total -. last >= drop_spike then
    match t.recorder with
    | Some r ->
        Recorder.note r ~kind:"monitor.drop_spike"
          ~args:[ ("drops", Fbufs_trace.Trace.Float (total -. last)) ]
          ();
        ignore (Recorder.trigger r ~reason:"drop-spike")
    | None -> ()

let hook t m _site =
  t.checks <- t.checks + 1;
  match Machine.metrics m with
  | Some mx ->
      check_drop_spike t m mx;
      check_gauges t mx
  | None -> ()

let violations t = List.rev t.violations
let violation_count t = t.violation_count
let checks t = t.checks
