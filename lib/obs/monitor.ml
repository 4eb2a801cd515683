module Machine = Fbufs_sim.Machine
module Mx = Fbufs_metrics.Metrics
module Ledger = Fbufs_metrics.Ledger
module Region = Fbufs.Region
module Allocator = Fbufs.Allocator
module Fbuf = Fbufs.Fbuf

type config = {
  budget : int;
  grace : int;
  drop_spike : float;
  max_violations : int;
}

let default = { budget = 32; grace = 16; drop_spike = 8.0; max_violations = 64 }

let violations_total =
  Mx.counter ~name:"fbufs_monitor_violations_total"
    ~help:"Invariant violations detected by the online monitors"
    ~labels:[ "rule" ] ()

let checks_total =
  Mx.counter ~name:"fbufs_monitor_checks_total"
    ~help:"Rule evaluations performed at sequence points"
    ~labels:[ "rule" ] ()

type target = {
  region : Region.t;
  allocators : Allocator.t list;
}

type rule = Refcount | Free_list | Ledger_rule | Gauge

let rules = [| Refcount; Free_list; Ledger_rule; Gauge |]

let rule_name = function
  | Refcount -> "refcount"
  | Free_list -> "free-list"
  | Ledger_rule -> "ledger"
  | Gauge -> "gauge"

type t = {
  config : config;
  recorder : Recorder.t option;
  targets : (string, target) Hashtbl.t;
  last_drops : (string, float) Hashtbl.t;
  mutable rule_idx : int;  (* round-robin over [rules] *)
  mutable fb_cursor : int;  (* resume point into registered fbufs *)
  mutable alloc_cursor : int;  (* resume point into the allocator list *)
  mutable violations : (string * string) list;  (* newest first, capped *)
  mutable violation_count : int;
  mutable checks : int;
}

let create ?recorder config =
  {
    config;
    recorder;
    targets = Hashtbl.create 4;
    last_drops = Hashtbl.create 4;
    rule_idx = 0;
    fb_cursor = 0;
    alloc_cursor = 0;
    violations = [];
    violation_count = 0;
    checks = 0;
  }

let attach t ~machine target = Hashtbl.replace t.targets machine target

let violate t m rule fmt =
  Printf.ksprintf
    (fun msg ->
      t.violation_count <- t.violation_count + 1;
      if List.length t.violations < t.config.max_violations then
        t.violations <- (rule_name rule, msg) :: t.violations;
      (match Machine.metrics m with
      | Some mx -> Mx.incr mx violations_total ~labels:[ rule_name rule ] ()
      | None -> ());
      match t.recorder with
      | Some r ->
          Recorder.note r ~kind:"monitor.violation"
            ~args:
              [
                ("rule", Fbufs_trace.Trace.Str (rule_name rule));
                ("msg", Fbufs_trace.Trace.Str msg);
              ]
            ();
          ignore (Recorder.trigger r ~reason:("monitor:" ^ rule_name rule))
      | None -> ())
    fmt

(* -- rules --------------------------------------------------------------- *)

(* Examine a [budget]-sized window of [items] starting at the saved
   cursor, wrapping; returns the advanced cursor. *)
let window ~cursor ~budget items f =
  let n = List.length items in
  if n = 0 then 0
  else begin
    let arr = Array.of_list items in
    let start = cursor mod n in
    let steps = min budget n in
    for i = 0 to steps - 1 do
      f arr.((start + i) mod n)
    done;
    (start + steps) mod n
  end

let check_refcount t m target =
  t.fb_cursor <-
    window ~cursor:t.fb_cursor ~budget:t.config.budget
      (Region.registered_fbufs target.region)
      (fun (fb : Fbuf.t) ->
        let refs = Fbuf.total_refs fb in
        if refs < 0 then
          violate t m Refcount "fbuf#%d holds %d references" fb.Fbuf.id refs;
        if fb.Fbuf.state = Fbuf.Cached_free && refs <> 0 then
          violate t m Refcount "cached-free fbuf#%d holds %d references"
            fb.Fbuf.id refs)

let check_free_list t m target =
  match target.allocators with
  | [] -> ()
  | allocs ->
      let n = List.length allocs in
      let ai = t.alloc_cursor mod n in
      t.alloc_cursor <- (ai + 1) mod n;
      let alloc = List.nth allocs ai in
      let parked = Allocator.parked alloc in
      if List.length parked <> Allocator.free_list_length alloc then
        violate t m Free_list
          "allocator %d: free_list_length %d but %d parked buffers" ai
          (Allocator.free_list_length alloc)
          (List.length parked);
      List.iteri
        (fun i (fb : Fbuf.t) ->
          if i < t.config.budget then begin
            if fb.Fbuf.state <> Fbuf.Cached_free then
              violate t m Free_list "allocator %d: parked fbuf#%d not \
                                     Cached_free" ai fb.Fbuf.id;
            if Fbuf.total_refs fb <> 0 then
              violate t m Free_list
                "allocator %d: parked fbuf#%d holds %d references" ai
                fb.Fbuf.id (Fbuf.total_refs fb)
          end)
        parked

let check_ledger t m =
  match Machine.metrics m with
  | None -> ()
  | Some mx ->
      let charged = Ledger.charged_us (Mx.ledger mx) ~machine:m.Machine.name in
      let busy = Machine.busy_us m in
      if Float.abs (charged -. busy) > 1e-6 then
        violate t m Ledger_rule
          "machine %s: ledger charged %.3f us but busy %.3f us"
          m.Machine.name charged busy

let check_gauges t m =
  match Machine.metrics m with
  | None -> ()
  | Some mx ->
      let held =
        List.filter
          (fun (s : Mx.sample) ->
            s.Mx.def.Mx.name = "fbufs_policy_held_pages")
          (Mx.samples mx)
      in
      List.iteri
        (fun i (s : Mx.sample) ->
          if i < t.config.budget then
            match
              Mx.value_by_name mx ~name:"fbufs_policy_threshold_pages"
                ~labels:s.Mx.labels
            with
            | Some thr ->
                if s.Mx.value > thr +. float_of_int t.config.grace then
                  violate t m Gauge
                    "path %s holds %.0f pages, threshold %.0f (+%d grace)"
                    (String.concat "/" s.Mx.labels)
                    s.Mx.value thr t.config.grace
            | None -> ())
        held

let check_drop_spike t m =
  match Machine.metrics m with
  | None -> ()
  | Some mx ->
      let total = Mx.total_by_name mx ~name:"fbufs_policy_dropped_total" in
      let last =
        Option.value ~default:0.0 (Hashtbl.find_opt t.last_drops m.Machine.name)
      in
      Hashtbl.replace t.last_drops m.Machine.name total;
      if total -. last >= t.config.drop_spike then begin
        match t.recorder with
        | Some r ->
            Recorder.note r ~kind:"monitor.drop_spike"
              ~args:
                [ ("drops", Fbufs_trace.Trace.Float (total -. last)) ]
              ();
            ignore (Recorder.trigger r ~reason:"drop-spike")
        | None -> ()
      end

let hook t m _site =
  t.checks <- t.checks + 1;
  check_drop_spike t m;
  let rule = rules.(t.rule_idx mod Array.length rules) in
  t.rule_idx <- (t.rule_idx + 1) mod Array.length rules;
  (match Machine.metrics m with
  | Some mx -> Mx.incr mx checks_total ~labels:[ rule_name rule ] ()
  | None -> ());
  match rule with
  | Refcount -> (
      match Hashtbl.find_opt t.targets m.Machine.name with
      | Some target -> check_refcount t m target
      | None -> ())
  | Free_list -> (
      match Hashtbl.find_opt t.targets m.Machine.name with
      | Some target -> check_free_list t m target
      | None -> ())
  | Ledger_rule -> check_ledger t m
  | Gauge -> check_gauges t m

let violations t = List.rev t.violations
let violation_count t = t.violation_count
let checks t = t.checks
