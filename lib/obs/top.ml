module Machine = Fbufs_sim.Machine
module Mx = Fbufs_metrics.Metrics
module Ledger = Fbufs_metrics.Ledger
module Sketch = Fbufs_metrics.Sketch
module Comp = Fbufs_metrics.Component

type t = {
  interval_us : float;
  ppf : Format.formatter;
  mutable metrics : Mx.t;
  prev : (string, float) Hashtbl.t;  (* counter totals at the last frame *)
  mutable next_due : float;
  mutable last_now : float;
  mutable frames : int;
}

let create ?(interval_us = 1_000_000.0) ?(ppf = Format.std_formatter) () =
  if interval_us <= 0.0 then
    invalid_arg "Top.create: interval must be positive";
  {
    interval_us;
    ppf;
    metrics = Mx.create ();
    prev = Hashtbl.create 16;
    next_due = interval_us;
    last_now = 0.0;
    frames = 0;
  }

(* Counter total with the per-frame delta, updating the saved value. *)
let delta t name =
  let total = Mx.total_by_name t.metrics ~name in
  let prev = Option.value ~default:0.0 (Hashtbl.find_opt t.prev name) in
  Hashtbl.replace t.prev name total;
  (total, total -. prev)

let gauge_sum t name =
  List.fold_left
    (fun acc (s : Mx.sample) ->
      if s.Mx.def.Mx.name = name then acc +. s.Mx.value else acc)
    0.0 (Mx.samples t.metrics)

(* Aggregate a counter by one label position (e.g. drops by class). *)
let by_label t name ~pos =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (s : Mx.sample) ->
      if s.Mx.def.Mx.name = name then
        match List.nth_opt s.Mx.labels pos with
        | Some l ->
            Hashtbl.replace tbl l
              (s.Mx.value
              +. Option.value ~default:0.0 (Hashtbl.find_opt tbl l))
        | None -> ())
    (Mx.samples t.metrics);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let merged_sketch t name =
  List.fold_left
    (fun acc (s : Mx.sample) ->
      if s.Mx.def.Mx.name = name then
        match (s.Mx.sketch, acc) with
        | Some sk, None -> Some sk
        | Some sk, Some m -> Some (Sketch.merge m sk)
        | None, _ -> acc
      else acc)
    None (Mx.samples t.metrics)

let frame t ~now_us =
  t.frames <- t.frames + 1;
  let p = Format.fprintf in
  let ppf = t.ppf in
  p ppf "── top @@ %.1f us ─ frame %d ─@." now_us t.frames;
  let sends, d_sends = delta t "fbufs_sends_total" in
  let pdus, d_pdus = delta t "fbufs_net_pdus_total" in
  let pdu_drops, d_pdu_drops = delta t "fbufs_net_pdus_dropped_total" in
  p ppf "  sends %12.0f (+%.0f)   net pdus %12.0f (+%.0f)  lost %.0f (+%.0f)@."
    sends d_sends pdus d_pdus pdu_drops d_pdu_drops;
  let allocs, d_allocs = delta t "fbufs_alloc_total" in
  let secured, d_secured = delta t "fbufs_secured_total" in
  p ppf "  allocs %11.0f (+%.0f)   secured %13.0f (+%.0f)@." allocs d_allocs
    secured d_secured;
  let pol_drops, d_pol_drops = delta t "fbufs_policy_dropped_total" in
  if pol_drops > 0.0 || d_pol_drops > 0.0 then begin
    p ppf "  policy drops %5.0f (+%.0f)" pol_drops d_pol_drops;
    let classes = by_label t "fbufs_policy_dropped_total" ~pos:2 in
    if classes <> [] then begin
      p ppf "  [";
      List.iteri
        (fun i (c, v) -> p ppf "%s%s %.0f" (if i > 0 then ", " else "") c v)
        classes;
      p ppf "]"
    end;
    p ppf "@."
  end;
  let held = gauge_sum t "fbufs_policy_held_pages" in
  let thr = gauge_sum t "fbufs_policy_threshold_pages" in
  if held > 0.0 || thr > 0.0 then
    p ppf "  held pages %7.0f   threshold %11.0f@." held thr;
  let shoot, d_shoot = delta t "fbufs_tlb_shootdowns_total" in
  let elided, d_elided = delta t "fbufs_tlb_flushes_elided_total" in
  p ppf "  tlb shootdowns %3.0f (+%.0f)   elided %14.0f (+%.0f)@." shoot
    d_shoot elided d_elided;
  (let v = Mx.total_by_name t.metrics ~name:"fbufs_monitor_violations_total" in
   if v > 0.0 then p ppf "  monitor violations %.0f@." v);
  let ledger = Mx.ledger t.metrics in
  let total = Ledger.total_us ledger in
  if total > 0.0 then begin
    p ppf "  cost shares:";
    List.iter
      (fun (comp, us) ->
        if us > 0.0 then
          p ppf " %s %.1f%%" (Comp.label comp) (100.0 *. us /. total))
      (Ledger.by_component ledger);
    p ppf "  (total %.1f us)@." total
  end;
  (match merged_sketch t "fbufs_transfer_wall_us" with
  | Some sk when Sketch.count sk > 0 ->
      p ppf "  transfer wall p50 %.1f us  p99 %.1f us  (n=%d)@."
        (Sketch.quantile sk 50.0) (Sketch.quantile sk 99.0) (Sketch.count sk)
  | Some _ | None -> ())

let tick t now_us =
  if now_us > t.last_now then t.last_now <- now_us;
  while now_us >= t.next_due do
    frame t ~now_us:t.next_due;
    t.next_due <- t.next_due +. t.interval_us
  done

let final t = frame t ~now_us:t.last_now

let attach t (o : Machine.obs) =
  let mx = match o.metrics with Some mx -> mx | None -> t.metrics in
  t.metrics <- mx;
  { o with metrics = Some mx; on_tick = Some (tick t) }

let metrics t = t.metrics
let frames t = t.frames
