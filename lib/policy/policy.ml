open Fbufs_sim
open Fbufs
module Mx = Fbufs_metrics.Metrics
module Comp = Fbufs_metrics.Component

let k_policy_check = Machine.kind "policy.check"
let k_policy_victim_scan = Machine.kind "policy.victim_scan"

type klass = Control | Latency | Bulk
type kind = Static | Fb_dynamic of { alpha : float }

exception Dropped of string

(* Test-only fault injection: skip the threshold comparison so every
   allocation is admitted regardless of the path's held pages — the
   planted bug the differential checker must catch and shrink. *)
let chaos_skip_threshold = ref false

let klass_label = function
  | Control -> "control"
  | Latency -> "latency"
  | Bulk -> "bulk"

(* Reclaim priority is the inverse of service priority: bulk buffers are
   evicted first, control buffers last. *)
let rank = function Bulk -> 0 | Latency -> 1 | Control -> 2

(* FB-style weights: a path's dynamic threshold is weight * alpha *
   remaining-free-frames, so higher classes may hold proportionally more
   of a scarce pool and the thresholds of every class collapse together
   as the pool empties. *)
let weight = function Control -> 8.0 | Latency -> 3.0 | Bulk -> 1.0

let threshold kind klass ~free_frames =
  match kind with
  | Static -> max_int
  | Fb_dynamic { alpha } ->
      int_of_float (weight klass *. alpha *. float_of_int free_frames)

type entry = {
  e_alloc : Allocator.t;
  e_klass : klass;
  mutable e_held : int; (* pages: Active + parked-resident, via hooks *)
}

type event =
  | Admit of {
      path : int;
      npages : int;
      growth : int;
      held : int;
      free : int;
      threshold : int;
    }
  | Drop of {
      path : int;
      npages : int;
      held : int;
      free : int;
      threshold : int;
    }
  | Evict of { victim_path : int; fbuf : int; npages : int; free : int }

type t = {
  kind : kind;
  region : Region.t;
  mutable entries : entry list; (* registration order *)
  mutable events : event list; (* newest first; see drain_events *)
  mutable recording : bool;
  mutable n_admitted : int;
  mutable n_dropped : int;
  mutable n_evicted : int;
}

let admitted_total =
  Mx.counter ~name:"fbufs_policy_admitted_total"
    ~help:"Allocations admitted by the buffer-sharing policy"
    ~labels:[ "machine"; "path"; "class" ] ()

let dropped_total =
  Mx.counter ~name:"fbufs_policy_dropped_total"
    ~help:"Allocations refused by the buffer-sharing policy"
    ~labels:[ "machine"; "path"; "class" ] ()

let evictions_total =
  Mx.counter ~name:"fbufs_policy_evictions_total"
    ~help:
      "Parked buffers reclaimed from over-threshold lower-priority paths \
       to admit an allocation"
    ~labels:[ "machine"; "path"; "class" ] ()

let held_gauge =
  Mx.gauge ~name:"fbufs_policy_held_pages"
    ~help:"Pages a policy-managed path currently holds (active + parked \
           resident)"
    ~labels:[ "machine"; "path" ] ()

let threshold_gauge =
  Mx.gauge ~name:"fbufs_policy_threshold_pages"
    ~help:"Dynamic held-page threshold at the path's last admission check"
    ~labels:[ "machine"; "path" ] ()

let create region kind =
  {
    kind;
    region;
    entries = [];
    events = [];
    recording = false;
    n_admitted = 0;
    n_dropped = 0;
    n_evicted = 0;
  }

let kind t = t.kind
let machine t = Region.machine t.region
let free_frames t = Phys_mem.free_frames (machine t).Machine.pmem
let find_entry t alloc = List.find_opt (fun e -> e.e_alloc == alloc) t.entries

(* One bump of [d] under an entry's (machine, path, class) labels. *)
let incr_entry mx d t e =
  Mx.incr3 mx d (machine t).Machine.name
    (Mx.int_label mx (Allocator.path e.e_alloc).Path.id)
    (klass_label e.e_klass)

let note_held t e =
  match Machine.metrics (machine t) with
  | None -> ()
  | Some mx ->
      let path = Allocator.path e.e_alloc in
      Mx.set2 mx held_gauge (machine t).Machine.name
        (Mx.int_label mx path.Path.id)
        (float_of_int e.e_held)

let record t ev = if t.recording then t.events <- ev :: t.events
let set_recording t on = t.recording <- on

let drain_events t =
  let evs = List.rev t.events in
  t.events <- [];
  evs

(* Victim selection for reclaim-before-drop: among paths of strictly
   lower class than the requester that are over their own threshold at
   the current free level, the coldest parked still-resident buffer —
   lowest class first, then least recently allocated, then fbuf id. *)
let next_victim t requester ~free =
  let candidates =
    List.concat_map
      (fun e ->
        if
          rank e.e_klass >= rank requester.e_klass
          || e.e_held <= threshold t.kind e.e_klass ~free_frames:free
        then []
        else
          List.filter_map
            (fun fb ->
              if Allocator.buffer_resident fb then Some (e, fb) else None)
            (Allocator.parked e.e_alloc))
      t.entries
  in
  let key (e, (fb : Fbuf.t)) =
    (rank e.e_klass, fb.Fbuf.last_alloc.us, fb.Fbuf.id)
  in
  match candidates with
  | [] -> None
  | first :: rest ->
      Some
        (List.fold_left
           (fun best c -> if key c < key best then c else best)
           first rest)

let admit t e ~npages ~growth =
  let m = machine t in
  Machine.charge ~kind:k_policy_check ~comp:Comp.Policy m
    m.Machine.cost.Cost_model.policy_check;
  let path = Allocator.path e.e_alloc in
  let path_id = path.Path.id in
  let rec decide () =
    let free = free_frames t in
    let thr = threshold t.kind e.e_klass ~free_frames:free in
    (match Machine.metrics m with
    | None -> ()
    | Some mx ->
        Mx.set2 mx threshold_gauge m.Machine.name (Mx.int_label mx path_id)
          (float_of_int (min thr max_int)));
    if growth = 0 || !chaos_skip_threshold || e.e_held + growth <= thr then begin
      record t
        (Admit
           { path = path_id; npages; growth; held = e.e_held; free;
             threshold = thr });
      t.n_admitted <- t.n_admitted + 1;
      match Machine.metrics m with
      | None -> ()
      | Some mx -> incr_entry mx admitted_total t e
    end
    else
      match next_victim t e ~free with
      | Some (ve, fb) ->
          Machine.charge ~kind:k_policy_victim_scan ~comp:Comp.Policy m
            m.Machine.cost.Cost_model.policy_victim_scan;
          record t
            (Evict
               {
                 victim_path = (Allocator.path ve.e_alloc).Path.id;
                 fbuf = fb.Fbuf.id;
                 npages = fb.Fbuf.npages;
                 free;
               });
          t.n_evicted <- t.n_evicted + 1;
          (match Machine.metrics m with
          | None -> ()
          | Some mx ->
              incr_entry mx evictions_total t ve);
          Allocator.reclaim_one ve.e_alloc fb;
          decide ()
      | None ->
          record t
            (Drop
               { path = path_id; npages; held = e.e_held; free;
                 threshold = thr });
          t.n_dropped <- t.n_dropped + 1;
          (match Machine.metrics m with
          | None -> ()
          | Some mx -> incr_entry mx dropped_total t e);
          raise
            (Dropped
               (Printf.sprintf
                  "policy drop: path %d (%s) held %d + %d pages > threshold \
                   %d with %d frames free and no lower-class victim"
                  path_id (klass_label e.e_klass) e.e_held growth thr free))
  in
  decide ()

let register t alloc ~klass =
  (match find_entry t alloc with
  | Some _ -> invalid_arg "Policy.register: allocator already registered"
  | None -> ());
  (* Pre-existing parked buffers still carrying their allocation charge
     enter the held account; registering before first use is the normal
     pattern. *)
  let held0 =
    List.fold_left
      (fun acc fb ->
        if Allocator.buffer_accounted fb then acc + fb.Fbuf.npages else acc)
      0 (Allocator.parked alloc)
  in
  let e = { e_alloc = alloc; e_klass = klass; e_held = held0 } in
  t.entries <- t.entries @ [ e ];
  let dynamic = match t.kind with Static -> false | Fb_dynamic _ -> true in
  Allocator.set_share alloc
    {
      Allocator.sh_dynamic = dynamic;
      sh_admit = (fun ~npages ~growth -> admit t e ~npages ~growth);
      sh_grow =
        (fun n ->
          e.e_held <- e.e_held + n;
          note_held t e);
      sh_shrink =
        (fun n ->
          e.e_held <- e.e_held - n;
          note_held t e);
    };
  note_held t e

(* Pageout-daemon victim ordering: static defers to the daemon's global
   LRU; dynamic ranks over-threshold buffers (at sweep-start free level)
   first, lowest class first, then LRU — so pressure relief lands on the
   paths that exceed their fair share before it touches anyone else. *)
let pageout_order t (vs : Pageout.victim list) =
  match t.kind with
  | Static -> Pageout.lru_order vs
  | Fb_dynamic _ ->
      let m = machine t in
      Machine.charge ~kind:k_policy_victim_scan ~comp:Comp.Policy m
        m.Machine.cost.Cost_model.policy_victim_scan;
      let free = free_frames t in
      let key ((alloc, fb) : Pageout.victim) =
        match find_entry t alloc with
        | None -> (1, max_int, fb.Fbuf.last_alloc.us, fb.Fbuf.id)
        | Some e ->
            let over =
              e.e_held > threshold t.kind e.e_klass ~free_frames:free
            in
            ((if over then 0 else 1), rank e.e_klass, fb.Fbuf.last_alloc.us,
             fb.Fbuf.id)
      in
      List.sort (fun a b -> compare (key a) (key b)) vs

(* Introspection *)
let held t alloc =
  match find_entry t alloc with None -> None | Some e -> Some e.e_held

let over_threshold t alloc =
  match find_entry t alloc with
  | None -> false
  | Some e ->
      e.e_held > threshold t.kind e.e_klass ~free_frames:(free_frames t)

let entries t =
  List.map (fun e -> (e.e_alloc, e.e_klass, e.e_held)) t.entries

let totals t = (t.n_admitted, t.n_dropped, t.n_evicted)
