open Fbufs_sim
open Fbufs_vm
module Mx = Fbufs_metrics.Metrics

let fbuf_last_free = Stats.counter "fbuf.last_free"
let fbuf_reclaimed = Stats.counter "fbuf.reclaimed"
let fbuf_secure_noop = Stats.counter "fbuf.secure_noop"
let fbuf_secured = Stats.counter "fbuf.secured"
let fbuf_send = Stats.counter "fbuf.send"

exception Dead_fbuf of string

let sends_total =
  Mx.counter ~name:"fbufs_sends_total"
    ~help:"Cross-domain fbuf transfers (Transfer.send)"
    ~labels:[ "machine"; "path" ] ()

let secured_total =
  Mx.counter ~name:"fbufs_secured_total"
    ~help:"Write-permission revocations enforcing fbuf immutability"
    ~labels:[ "machine" ] ()

let check_active (fb : Fbuf.t) op =
  match fb.Fbuf.state with
  | Fbuf.Active -> ()
  | Fbuf.Cached_free | Fbuf.Dead ->
      raise (Dead_fbuf (Printf.sprintf "%s: fbuf#%d is not active" op fb.id))

let stats (fb : Fbuf.t) = fb.Fbuf.m.Machine.stats

let trace_fbuf_event (fb : Fbuf.t) ?(extra = []) ~domain kind =
  let m = fb.Fbuf.m in
  if Machine.tracing m then
    Machine.trace_instant m ~domain ~path_id:fb.Fbuf.path.Path.id
      ~args:(("fbuf", Fbufs_trace.Trace.Int fb.Fbuf.id) :: extra)
      kind

let chaos_skip_protect = ref false

(* Revoke the originator's write permission (immutability enforcement). *)
let protect_originator (fb : Fbuf.t) =
  let orig = Fbuf.originator fb in
  trace_fbuf_event fb ~domain:orig.Pd.name "fbuf.secure";
  if orig.Pd.kernel then
    (* Trusted originator: enforcement is a no-op. *)
    Stats.incr (stats fb) fbuf_secure_noop
  else if !chaos_skip_protect then
    (* Fault injection: claim the buffer is secured without actually
       revoking write permission — the bug class Fbufs_check exists to
       catch. Bookkeeping below proceeds so the divergence is purely
       between recorded and enforced protection state. *)
    Stats.incr (stats fb) fbuf_secured
  else begin
    Vm_map.protect orig.Pd.map ~vpn:fb.base_vpn ~npages:fb.npages
      ~prot:Prot.Read_only;
    Stats.incr (stats fb) fbuf_secured
  end;
  (match Machine.metrics fb.Fbuf.m with
  | None -> ()
  | Some mx ->
      Mx.incr1 mx secured_total fb.Fbuf.m.Machine.name);
  fb.Fbuf.secured <- true

let secure fb =
  check_active fb "Transfer.secure";
  (* Securing is a protection barrier: any deferred shootdowns must land
     before the immutability promise can be relied on. *)
  Tlb_sync.drain fb.Fbuf.m;
  if not fb.Fbuf.secured then protect_originator fb;
  Machine.seq_point fb.Fbuf.m "transfer.secure"

let is_secured (fb : Fbuf.t) = fb.Fbuf.secured

(* Grant the receiver the *right* to map the fbuf; the mappings themselves
   are established lazily, on first touch, by the region's fault hook. A
   receiver that never examines the data (the paper's netserver case) never
   pays any per-page VM cost. The only eager work is clearing stale
   mappings left from an earlier life of these addresses (e.g. a dead page
   faulted in by a speculative read). *)
let grant (fb : Fbuf.t) (dst : Pd.t) =
  let orig = Fbuf.originator fb in
  for i = 0 to fb.npages - 1 do
    let vpn = fb.base_vpn + i in
    let f = Vm_map.frame_of dst.Pd.map ~vpn in
    if f <> -1 && f <> Vm_map.frame_of orig.Pd.map ~vpn then
      Vm_map.unmap dst.Pd.map ~vpn ~npages:1 ~free_frames:true
  done;
  fb.Fbuf.mapped_in <- dst :: fb.Fbuf.mapped_in

let send (fb : Fbuf.t) ~src ~dst =
  check_active fb "Transfer.send";
  if Fbuf.ref_count fb src = 0 then
    invalid_arg
      (Printf.sprintf "Transfer.send: %s holds no reference to fbuf#%d"
         src.Pd.name fb.id);
  if Pd.equal src dst then invalid_arg "Transfer.send: src = dst";
  if fb.variant.cached && not (Path.mem fb.path dst) then
    invalid_arg
      (Printf.sprintf "Transfer.send: %s is not on %s's path" dst.Pd.name
         (Fbuf.variant_name fb.variant));
  (* Eager immutability enforcement for non-volatile fbufs. *)
  if (not fb.variant.volatile) && not fb.Fbuf.secured then
    protect_originator fb;
  if not (Fbuf.is_mapped_in fb dst) then grant fb dst;
  Fbuf.add_ref fb dst;
  Stats.incr (stats fb) fbuf_send;
  (match Machine.metrics fb.Fbuf.m with
  | None -> ()
  | Some mx ->
      Mx.incr2 mx sends_total fb.Fbuf.m.Machine.name
        (Mx.int_label mx fb.Fbuf.path.Path.id));
  if Machine.tracing fb.Fbuf.m then
    trace_fbuf_event fb ~domain:src.Pd.name
      ~extra:[ ("dst", Fbufs_trace.Trace.Str dst.Pd.name) ]
      "fbuf.send"

let unmap_in (fb : Fbuf.t) (d : Pd.t) =
  Vm_map.unmap d.Pd.map ~vpn:fb.base_vpn ~npages:fb.npages ~free_frames:true

(* Top-level walks, not [List.iter]/[List.filter] with a closure over
   [fb]: they run on every uncached free. *)
let rec unmap_all fb = function
  | [] -> ()
  | d :: rest ->
      unmap_in fb d;
      unmap_all fb rest

let rec without dom = function
  | [] -> []
  | d :: rest ->
      if Pd.equal d dom then without dom rest else d :: without dom rest

(* Full teardown of an uncached (or evicted) fbuf. *)
let teardown (fb : Fbuf.t) =
  unmap_all fb fb.Fbuf.mapped_in;
  fb.Fbuf.mapped_in <- [];
  unmap_in fb (Fbuf.originator fb);
  fb.Fbuf.state <- Fbuf.Dead

let unmap_receiver (fb : Fbuf.t) (dom : Pd.t) =
  if Pd.mem dom fb.Fbuf.mapped_in then begin
    unmap_in fb dom;
    fb.Fbuf.mapped_in <- without dom fb.Fbuf.mapped_in
  end

let restore_originator_write (fb : Fbuf.t) =
  let orig = Fbuf.originator fb in
  if fb.Fbuf.secured then begin
    if not orig.Pd.kernel then
      Vm_map.protect orig.Pd.map ~vpn:fb.base_vpn ~npages:fb.npages
        ~prot:Prot.Read_write;
    fb.Fbuf.secured <- false
  end

let free (fb : Fbuf.t) ~dom =
  check_active fb "Transfer.free";
  Fbuf.drop_ref fb dom;
  trace_fbuf_event fb ~domain:dom.Pd.name "fbuf.free";
  let orig = Fbuf.originator fb in
  (* An uncached receiver that is done with the buffer has no further use
     for its mapping; cached receivers keep theirs (that is the cache).
     "Done" means the last reference: a receiver holding several (e.g. two
     overlapping sends) keeps its mapping until the final free — dropping
     it early would let a later read lazily re-fault the mapping without
     re-entering [mapped_in], and teardown would then leak it onto the
     next life of these addresses. *)
  if
    (not fb.variant.cached)
    && (not (Pd.equal dom orig))
    && Fbuf.ref_count fb dom = 0
  then unmap_receiver fb dom;
  if Fbuf.total_refs fb = 0 then begin
    if fb.variant.cached then begin
      (* Return write permission to the originator and park the buffer on
         its path's free list, mappings intact. *)
      restore_originator_write fb;
      fb.Fbuf.state <- Fbuf.Cached_free
    end
    else teardown fb;
    Stats.incr (stats fb) fbuf_last_free;
    (* Guarded although [async_end] checks too: its optional arguments
       would be wrapped in fresh [Some]s before the check. *)
    if Machine.tracing fb.Fbuf.m then
      Machine.async_end fb.Fbuf.m ~domain:dom.Pd.name
        ~path_id:fb.Fbuf.path.Path.id ~id:fb.Fbuf.id "fbuf.life";
    match fb.Fbuf.on_all_freed with Some f -> f fb | None -> ()
  end

let destroy_cached (fb : Fbuf.t) =
  (match fb.Fbuf.state with
  | Fbuf.Cached_free -> ()
  | Fbuf.Active | Fbuf.Dead ->
      invalid_arg "Transfer.destroy_cached: fbuf not on a free list");
  fb.Fbuf.state <- Fbuf.Active;
  (* teardown expects an active buffer; transition through it. *)
  teardown fb

let reclaim_memory (fb : Fbuf.t) =
  (match fb.Fbuf.state with
  | Fbuf.Cached_free -> ()
  | Fbuf.Active | Fbuf.Dead ->
      invalid_arg "Transfer.reclaim_memory: fbuf not on a free list");
  let orig = Fbuf.originator fb in
  unmap_all fb fb.Fbuf.mapped_in;
  fb.Fbuf.mapped_in <- [];
  Vm_map.convert_zero_fill orig.Pd.map ~vpn:fb.base_vpn ~npages:fb.npages;
  Stats.incr (stats fb) fbuf_reclaimed;
  trace_fbuf_event fb ~domain:orig.Pd.name "fbuf.reclaimed"
