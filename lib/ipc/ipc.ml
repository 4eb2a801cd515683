open Fbufs_sim
open Fbufs_vm
open Fbufs
module Mx = Fbufs_metrics.Metrics
module Comp = Fbufs_metrics.Component

let ipc_call = Stats.counter "ipc.call"
let ipc_dealloc_deferred = Stats.counter "ipc.dealloc_deferred"
let ipc_dealloc_piggybacked = Stats.counter "ipc.dealloc_piggybacked"
let ipc_dealloc_processed = Stats.counter "ipc.dealloc_processed"
let ipc_explicit_dealloc_msg = Stats.counter "ipc.explicit_dealloc_msg"
let k_ipc_call = Machine.kind "ipc.call"
let k_ipc_crossing = Machine.kind "ipc.crossing"
let k_ipc_marshal = Machine.kind "ipc.marshal"
let k_ipc_reply = Machine.kind "ipc.reply"

type mode = Rebuild | Integrated

type facility = Mach | Urpc

type conn = {
  region : Region.t;
  src : Pd.t;
  dst : Pd.t;
  mode : mode;
  facility : facility;
  auto_free_dst : bool;
  meta_alloc : Allocator.t option;
  m : Machine.t;
  call_us : float;  (* the facility's crossing costs, looked up once *)
  reply_us : float;
  footprint : int;
  (* Deferred-deallocation notices, oldest first, in [pending.(0 ..
     npending - 1)]. An array reused from call to call, where a list
     would cons a cell per notice; slots past [npending] are stale. *)
  mutable pending : Fbuf.t array;
  mutable npending : int;
}

let threshold = 64

let connect region ~src ~dst ?(mode = Rebuild) ?(facility = Mach)
    ?(auto_free_dst = false) () =
  let meta_alloc =
    match mode with
    | Rebuild -> None
    | Integrated ->
        Some
          (Allocator.create region
             ~path:(Path.create [ src; dst ])
             ~variant:Fbuf.cached_volatile ())
  in
  let m = Region.machine region in
  let cost = m.Machine.cost in
  let call_us, reply_us, footprint =
    match facility with
    | Mach ->
        ( cost.Cost_model.ipc_call,
          cost.Cost_model.ipc_reply,
          cost.Cost_model.ipc_tlb_footprint )
    | Urpc ->
        ( cost.Cost_model.urpc_call,
          cost.Cost_model.urpc_reply,
          cost.Cost_model.urpc_tlb_footprint )
  in
  {
    region;
    src;
    dst;
    mode;
    facility;
    auto_free_dst;
    meta_alloc;
    m;
    call_us;
    reply_us;
    footprint;
    pending = [||];
    npending = 0;
  }

let facility c = c.facility
let meta_allocator c = c.meta_alloc

let calls_total =
  Mx.counter ~name:"fbufs_ipc_calls_total"
    ~help:"IPC crossings by facility and aggregate-transfer mode"
    ~labels:[ "machine"; "facility"; "mode" ] ()

let deallocs_total =
  Mx.counter ~name:"fbufs_ipc_deallocs_total"
    ~help:
      "Deferred-deallocation dispositions: queued, piggybacked on a reply, \
       or flushed by an explicit message"
    ~labels:[ "machine"; "kind" ] ()

let note_deallocs c kind n =
  match Machine.metrics c.m with
  | None -> ()
  | Some mx ->
      Mx.add2 mx deallocs_total c.m.Machine.name kind (float_of_int n)

let src c = c.src
let dst c = c.dst
let mode c = c.mode

let pending_deallocs c = c.npending

(* Oldest notice first. *)
let process_pending c =
  for i = 0 to c.npending - 1 do
    Stats.incr c.m.Machine.stats ipc_dealloc_processed;
    Transfer.free c.pending.(i) ~dom:c.dst
  done;
  c.npending <- 0

let explicit_flush c =
  if c.npending > 0 then begin
    if Machine.tracing c.m then
      Machine.trace_instant c.m ~domain:c.dst.Pd.name
        ~args:[ ("pending", Fbufs_trace.Trace.Int c.npending) ]
        "ipc.dealloc_flush";
    Machine.charge ~kind:k_ipc_call ~comp:Comp.Ipc c.m
      c.m.cost.Cost_model.ipc_call;
    Machine.charge ~kind:k_ipc_reply ~comp:Comp.Ipc c.m
      c.m.cost.Cost_model.ipc_reply;
    Stats.incr c.m.Machine.stats ipc_explicit_dealloc_msg;
    note_deallocs c "explicit" c.npending;
    process_pending c
  end

let flush_deallocs c = explicit_flush c

let push_pending c fb =
  let n = c.npending in
  if n = Array.length c.pending then begin
    let grown = Array.make (max 8 (2 * n)) fb in
    Array.blit c.pending 0 grown 0 n;
    c.pending <- grown
  end;
  c.pending.(n) <- fb;
  c.npending <- n + 1

(* Callbacks for [Msg.fold_fbufs] that capture nothing, so walking a
   message allocates nothing: the connection rides as the accumulator. *)
let defer_or_free (fb : Fbuf.t) c =
  if Pd.equal (Fbuf.originator fb) c.src then begin
    Stats.incr c.m.Machine.stats ipc_dealloc_deferred;
    note_deallocs c "deferred" 1;
    push_pending c fb
  end
  else Transfer.free fb ~dom:c.dst;
  c

let count _ n = n + 1

let send (fb : Fbuf.t) c =
  Transfer.send fb ~src:c.src ~dst:c.dst;
  c

let free_deferred c msg =
  ignore (Fbufs_msg.Msg.fold_fbufs defer_or_free msg c);
  if c.npending >= threshold then explicit_flush c

let node_bytes msg = Fbufs_msg.Integrated.node_count msg * Fbufs_msg.Integrated.node_size

let facility_name = function Mach -> "mach" | Urpc -> "urpc"

let call c msg ~handler =
  let cost = c.m.Machine.cost in
  (* One span covers the whole crossing: control transfer in, transfer of
     the message's buffers, handler execution, and the reply. *)
  let sp =
    if Machine.tracing c.m then
      Machine.span_begin c.m ~domain:c.src.Pd.name
        ~args:
          [
            ("dst", Fbufs_trace.Trace.Str c.dst.Pd.name);
            ("facility", Fbufs_trace.Trace.Str (facility_name c.facility));
            ( "mode",
              Fbufs_trace.Trace.Str
                (match c.mode with Rebuild -> "rebuild" | Integrated -> "integrated")
            );
          ]
        "ipc.call"
    else 0
  in
  (* Causal span for the crossing. The caller's transfer context usually
     reaches here down the stack; a call made outside any context (a
     proxy invoked from a detached continuation) adopts the transfer
     carried by the message's first fbuf. *)
  let csp =
    if not (Machine.spanning c.m) then 0
    else if Machine.current_transfer c.m <> 0 then
      Machine.span_enter c.m ~domain:c.src.Pd.name "ipc.call"
    else
      let tid =
        match Fbufs_msg.Msg.fbufs msg with
        | fb :: _ -> fb.Fbuf.xfer
        | [] -> 0
      in
      Machine.span_adopt c.m ~transfer:tid ~follows:0 ~domain:c.src.Pd.name
        "ipc.call"
  in
  Machine.charge ~kind:k_ipc_crossing ~comp:Comp.Ipc c.m c.call_us;
  Stats.incr c.m.Machine.stats ipc_call;
  (match Machine.metrics c.m with
  | None -> ()
  | Some mx ->
      Mx.incr3 mx calls_total c.m.Machine.name (facility_name c.facility)
        (match c.mode with Rebuild -> "rebuild" | Integrated -> "integrated"));
  (match c.mode with
  | Rebuild ->
      (* Flatten to an fbuf list, marshal one descriptor per buffer, and
         let the receiving side reconstruct the aggregate. *)
      Machine.charge_n ~kind:k_ipc_marshal ~comp:Comp.Ipc c.m
        (Fbufs_msg.Msg.fold_fbufs count msg 0)
        cost.Cost_model.ipc_per_fbuf;
      ignore (Fbufs_msg.Msg.fold_fbufs send msg c);
      Machine.domain_crossing_tlb_pressure ~entries:c.footprint c.m;
      handler msg;
      if c.auto_free_dst then Fbufs_msg.Msg.free_held msg ~dom:c.dst
  | Integrated ->
      (* Everything spent building, walking and reconstructing the
         aggregate object — including the VM and allocator work for the
         meta buffer — is DAG-support cost (Table 1's last row), so the
         whole activity runs under a [Dag] attribution context. *)
      let meta, root_vaddr =
        Machine.with_comp c.m Comp.Dag (fun () ->
            let meta_alloc = Option.get c.meta_alloc in
            let ps = cost.Cost_model.page_size in
            let npages = max 1 ((node_bytes msg + ps - 1) / ps) in
            let meta = Allocator.alloc meta_alloc ~npages in
            (meta, Fbufs_msg.Integrated.serialize msg ~meta ~as_:c.src))
      in
      (* Only the root reference is marshalled; the kernel inspects the
         aggregate to find the buffers to transfer. *)
      Machine.charge ~kind:k_ipc_marshal ~comp:Comp.Ipc c.m
        cost.Cost_model.ipc_per_fbuf;
      let reachable =
        Machine.with_comp c.m Comp.Dag (fun () ->
            Fbufs_msg.Integrated.reachable_fbufs c.region ~as_:c.src
              ~root_vaddr)
      in
      List.iter (fun fb -> Transfer.send fb ~src:c.src ~dst:c.dst) reachable;
      Machine.domain_crossing_tlb_pressure ~entries:c.footprint c.m;
      let received =
        Machine.with_comp c.m Comp.Dag (fun () ->
            Fbufs_msg.Integrated.deserialize c.region ~as_:c.dst ~root_vaddr)
      in
      handler received;
      if c.auto_free_dst then Fbufs_msg.Msg.free_held received ~dom:c.dst;
      (* The meta buffer served its purpose on both sides. *)
      Transfer.free meta ~dom:c.dst;
      Transfer.free meta ~dom:c.src);
  (* Reply path: control transfer back, carrying deferred deallocation
     notices for free. *)
  Machine.charge ~kind:k_ipc_crossing ~comp:Comp.Ipc c.m c.reply_us;
  Machine.domain_crossing_tlb_pressure ~entries:c.footprint c.m;
  (* The return crossing is the call's synchronization barrier: whatever
     deferred shootdowns survived the roundtrip — and were not cancelled
     by a page being re-entered with its old translation — drain here,
     batched, so staleness is bounded by one roundtrip. (Draining once
     per call rather than at every crossing is what gives a reused page's
     pending shootdown the chance to be cancelled by the receiver's
     re-fault during the call.) *)
  Tlb_sync.drain c.m;
  if c.npending > 0 then begin
    Stats.add c.m.Machine.stats ipc_dealloc_piggybacked c.npending;
    note_deallocs c "piggybacked" c.npending;
    if Machine.tracing c.m then
      Machine.trace_instant c.m ~domain:c.dst.Pd.name
        ~args:[ ("pending", Fbufs_trace.Trace.Int c.npending) ]
        "ipc.dealloc_piggyback";
    process_pending c
  end;
  Machine.span_end c.m sp;
  Machine.span_exit c.m csp;
  (* The reply delivered and its deferred notices processed: a sequence
     point where cross-domain state is expected consistent. *)
  Machine.seq_point c.m "ipc.reply"
