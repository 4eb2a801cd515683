open Fbufs_sim
module Mx = Fbufs_metrics.Metrics

let pageout_reclaimed = Stats.counter "pageout.reclaimed"
let k_pageout_scan = Machine.kind "pageout.scan"

type victim = Allocator.t * Fbuf.t

type t = {
  region : Region.t;
  low_water : int;
  order : victim list -> victim list;
  mutable allocators : Allocator.t list;
}

(* Global LRU: coldest parked buffer first across every registered
   allocator, ties on fbuf id (allocation order). The key is total (ids
   are unique), so the sweep order is deterministic regardless of
   registration or size-class iteration order — the old round-robin
   sweep was per-allocator LRU and ignored cache recency across paths. *)
let lru_order vs =
  List.sort
    (fun ((_, a) : victim) ((_, b) : victim) ->
      match compare a.Fbuf.last_alloc.us b.Fbuf.last_alloc.us with
      | 0 -> compare a.Fbuf.id b.Fbuf.id
      | c -> c)
    vs

let create region ?low_water_frames ?(order = lru_order) () =
  let m = Region.machine region in
  let low_water =
    match low_water_frames with
    | Some n -> n
    | None -> Phys_mem.total_frames m.Machine.pmem / 16
  in
  { region; low_water; order; allocators = [] }

let register t alloc = t.allocators <- alloc :: t.allocators

let victims_total =
  Mx.counter ~name:"fbufs_pageout_victims_total"
    ~help:"Fbufs evicted by pageout-daemon balance sweeps"
    ~labels:[ "machine" ] ()

let registered t = List.length t.allocators

let pressure t =
  let m = Region.machine t.region in
  Phys_mem.free_frames m.Machine.pmem < t.low_water

(* Every reclaimable (parked, still-resident) buffer of every registered
   allocator, paired with its allocator. *)
let candidates t =
  List.concat_map
    (fun alloc ->
      List.filter_map
        (fun fb ->
          if Allocator.buffer_resident fb then Some (alloc, fb) else None)
        (Allocator.parked alloc))
    t.allocators

let balance t =
  let m = Region.machine t.region in
  let reclaimed = ref 0 in
  let sp = Machine.span_begin m "pageout.balance" in
  (* Victim selection reasons about which frames are reachable, so the
     deferred-shootdown queue must be empty before the sweep starts. *)
  Fbufs_vm.Tlb_sync.drain m;
  (* One daemon scan costs a range operation's worth of work. *)
  Machine.charge ~kind:k_pageout_scan ~comp:Fbufs_metrics.Component.Alloc m
    m.Machine.cost.Cost_model.vm_range_op;
  (* The candidate list and its order are fixed at sweep start; the walk
     then reclaims victims in that order until pressure clears, so the
     reclaimed set is always a prefix of the ordered candidates. *)
  let ordered = t.order (candidates t) in
  List.iter
    (fun (alloc, fb) ->
      if pressure t then begin
        Allocator.reclaim_one alloc fb;
        incr reclaimed
      end)
    ordered;
  Stats.add m.Machine.stats pageout_reclaimed !reclaimed;
  (match Machine.metrics m with
  | None -> ()
  | Some mx ->
      if !reclaimed > 0 then
        Mx.add1 mx victims_total m.Machine.name (float_of_int !reclaimed));
  (if Machine.tracing m then
     Machine.span_end m
       ~args:[ ("reclaimed", Fbufs_trace.Trace.Int !reclaimed) ]
       sp
   else Machine.span_end m sp);
  Machine.seq_point m "pageout.balance";
  !reclaimed
