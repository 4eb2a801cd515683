open Fbufs_sim
open Fbufs_vm
open Fbufs
module Msg = Fbufs_msg.Msg
module Mx = Fbufs_metrics.Metrics
module Comp = Fbufs_metrics.Component

let osiris_path_evicted = Stats.counter "osiris.path_evicted"
let osiris_pdu_dropped = Stats.counter "osiris.pdu_dropped"
let osiris_rx_pdu = Stats.counter "osiris.rx_pdu"
let osiris_rx_uncached = Stats.counter "osiris.rx_uncached"
let osiris_slack_zeroed = Stats.counter "osiris.slack_zeroed"
let osiris_sw_demux_copy = Stats.counter "osiris.sw_demux_copy"
let osiris_tx_pdu = Stats.counter "osiris.tx_pdu"
let k_driver_op = Machine.kind "driver.op"
let k_interrupt = Machine.kind "interrupt"
let k_osiris_slack_zero = Machine.kind "osiris.slack_zero"
let k_osiris_sw_demux_copy = Machine.kind "osiris.sw_demux_copy"

let net_pdus =
  Mx.counter ~name:"fbufs_net_pdus_total"
    ~help:"PDUs handled by the Osiris adapter, by direction"
    ~labels:[ "machine"; "dir" ] ()

let net_pdu_bytes =
  Mx.sketch ~name:"fbufs_net_pdu_bytes"
    ~help:"PDU payload sizes, by direction" ~labels:[ "machine"; "dir" ] ()

let net_cells =
  Mx.counter ~name:"fbufs_net_cells_sent_total"
    ~help:"Link-level cells occupied on the wire" ~labels:[ "machine" ] ()

let net_dropped =
  Mx.counter ~name:"fbufs_net_pdus_dropped_total"
    ~help:"PDUs lost in flight (simulated CRC failures)"
    ~labels:[ "machine" ] ()

let max_cached_paths = 16

(* AAL5-style trailer bytes carried per PDU on the wire. *)
let pdu_overhead = 8

(* All-float record: a time stored flat, not boxed per write. *)
type stamp = { mutable at : float }

(* A cached receive path: its allocator and when it was last used (for
   LRU replacement). *)
type path = { alloc : Allocator.t; last_use : stamp }

(* The PDUs in flight from an adapter to its peer, oldest first, in a
   power-of-two ring of reused slots: the wire copy and the PDU's length
   (the copy may be longer), the vci, the trace flight id, and the causal
   transfer and flight span the delivery continues. On one link each PDU
   arrives strictly after the one sent before it (transmission starts no
   earlier than the link is free and takes a positive time), and the
   scheduler breaks ties by scheduling order, so the arrival that fires
   is always the oldest slot's. *)
type wire = {
  mutable data : Bytes.t array;
  mutable lens : int array;
  mutable vcis : int array;
  mutable flights : int array;
  mutable xfers : int array;
  mutable spans : int array;
  mutable head : int;
  mutable count : int;
}

type t = {
  m : Machine.t;
  des : Des.t;
  region : Region.t;
  kernel : Pd.t;
  mutable peer : t option;
  paths : (int, path) Hashtbl.t;
  uncached : Allocator.t;
  mutable rx_handler : (vci:int -> Msg.t -> unit) option;
  cell_us : float; (* [Cost_model.cell_time], computed once *)
  link : stamp; (* when the outgoing link is next free *)
  wire : wire;
  mutable arrive : unit -> unit;
      (* the arrival event of every PDU on the wire, bound at [connect] *)
  mutable gather_out : Bytes.t; (* the DMA gather's cursor *)
  mutable gather_pos : int;
  spares : Bytes.t array; (* delivered wire copies kept for reuse *)
  mutable nspares : int;
  mutable cells_sent : int;
  mutable pdus_received : int;
  mutable uncached_rx : int;
  mutable loss_rate : float;
  mutable pdus_dropped : int;
  mutable evictions : int;
  hw_demux : bool;
  mutable sw_demux_copies : int;
}

let wire_slots = 8

(* Wire copies an adapter keeps for its next sends. Each is as long as
   the largest PDU it has carried, and they stay live between runs of
   the scheduler, so the cap bounds what they retain: 16 buffers of a
   16 KB PDU are 256 KB. *)
let max_spares = 16

let create ~m ~des ~region ~kernel ?(hw_demux = true) () =
  {
    m;
    des;
    region;
    kernel;
    peer = None;
    paths = Hashtbl.create 16;
    uncached = Allocator.default region ~owner:kernel;
    rx_handler = None;
    cell_us = Cost_model.cell_time m.Machine.cost;
    link = { at = 0.0 };
    wire =
      {
        data = Array.make wire_slots Bytes.empty;
        lens = Array.make wire_slots 0;
        vcis = Array.make wire_slots 0;
        flights = Array.make wire_slots 0;
        xfers = Array.make wire_slots 0;
        spans = Array.make wire_slots 0;
        head = 0;
        count = 0;
      };
    arrive = ignore;
    gather_out = Bytes.empty;
    gather_pos = 0;
    spares = Array.make max_spares Bytes.empty;
    nspares = 0;
    cells_sent = 0;
    pdus_received = 0;
    uncached_rx = 0;
    loss_rate = 0.0;
    pdus_dropped = 0;
    evictions = 0;
    hw_demux;
    sw_demux_copies = 0;
  }

let machine t = t.m

(* Least-recently-used cached path (for replacement). *)
let lru_vci t =
  Hashtbl.fold
    (fun vci p best ->
      let used = p.last_use.at in
      match best with
      | Some (_, bu) when bu <= used -> best
      | Some _ | None -> Some (vci, used))
    t.paths None

let evict_path t vci =
  match Hashtbl.find_opt t.paths vci with
  | None -> ()
  | Some p ->
      t.evictions <- t.evictions + 1;
      Stats.incr t.m.stats osiris_path_evicted;
      Hashtbl.remove t.paths vci;
      Allocator.teardown p.alloc

let register_path t ~vci ~domains =
  (match domains with
  | first :: _ when Pd.equal first t.kernel -> ()
  | _ ->
      invalid_arg
        "Osiris.register_path: incoming data paths originate in the kernel");
  if
    (not (Hashtbl.mem t.paths vci))
    && Hashtbl.length t.paths >= max_cached_paths
  then begin
    match lru_vci t with
    | Some (victim, _) -> evict_path t victim
    | None -> ()
  end;
  let alloc =
    Allocator.create t.region ~path:(Path.create domains)
      ~variant:Fbuf.cached_volatile ()
  in
  (match Hashtbl.find_opt t.paths vci with
  | Some old when old.alloc != alloc -> Allocator.teardown old.alloc
  | Some _ | None -> ());
  Hashtbl.replace t.paths vci
    { alloc; last_use = { at = Machine.now t.m } }

let set_rx_handler t f = t.rx_handler <- Some f

let rx_allocator t ~vci =
  Option.map (fun p -> p.alloc) (Hashtbl.find_opt t.paths vci)

let set_loss_rate t r =
  if r < 0.0 || r > 1.0 then invalid_arg "Osiris.set_loss_rate";
  t.loss_rate <- r

let pdus_dropped t = t.pdus_dropped

let evictions t = t.evictions

let software_demux_copies t = t.sw_demux_copies

let cells_sent t = t.cells_sent
let pdus_received t = t.pdus_received
let uncached_rx_pdus t = t.uncached_rx

(* DMA engines address physical memory directly: no TLB, no CPU charges.
   Frames are found through the owning domain's map. The gather folds
   over the message's leaves with a callback that captures nothing; the
   adapter rides as the accumulator and keeps the cursor. *)
let rec gather_segs t map vaddr remaining =
  if remaining > 0 then begin
    let ps = t.m.Machine.cost.Cost_model.page_size in
    let off = vaddr mod ps in
    let seg = min remaining (ps - off) in
    (match Vm_map.frame_of map ~vpn:(vaddr / ps) with
    | -1 -> Bytes.fill t.gather_out t.gather_pos seg '\000'
    | f ->
        Bytes.blit (Phys_mem.data t.m.pmem f) off t.gather_out t.gather_pos
          seg);
    t.gather_pos <- t.gather_pos + seg;
    gather_segs t map (vaddr + seg) (remaining - seg)
  end

let gather_leaf (l : Msg.leaf) t =
  let orig = Fbuf.originator l.Msg.fbuf in
  gather_segs t orig.Pd.map (Fbuf.vaddr l.Msg.fbuf + l.Msg.off) l.Msg.len;
  t

(* A wire buffer of at least [len] bytes: the top spare when it is long
   enough, else a fresh one, and a spare too short is dropped. *)
let take_buffer t len =
  if t.nspares = 0 then Bytes.create len
  else begin
    let n = t.nspares - 1 in
    let b = t.spares.(n) in
    t.spares.(n) <- Bytes.empty;
    t.nspares <- n;
    if Bytes.length b >= len then b else Bytes.create len
  end

let give_back t b =
  if t.nspares < max_spares then begin
    t.spares.(t.nspares) <- b;
    t.nspares <- t.nspares + 1
  end

let dma_gather t msg out =
  t.gather_out <- out;
  t.gather_pos <- 0;
  ignore (Msg.fold_leaves gather_leaf msg t);
  t.gather_out <- Bytes.empty

(* The frame behind a receive buffer's page. A reclaimed cached buffer
   has none: the driver re-pins a frame when it hands the buffer to the
   adapter. *)
let rx_frame t ~vpn =
  match Vm_map.frame_of t.kernel.Pd.map ~vpn with
  | -1 ->
      let f = Phys_mem.alloc t.m.pmem in
      Vm_map.map_frame t.kernel.Pd.map ~vpn ~frame:f ~prot:Prot.Read_write
        ~eager:true;
      f
  | f -> f

(* Write [remaining] bytes at [vaddr], page segment by page segment:
   [src] from [pos] on, or zeros when [zero] is set. *)
let rec scatter_segs t ~zero src pos vaddr remaining =
  if remaining > 0 then begin
    let ps = t.m.Machine.cost.Cost_model.page_size in
    let off = vaddr mod ps in
    let seg = min remaining (ps - off) in
    let dst = Phys_mem.data t.m.pmem (rx_frame t ~vpn:(vaddr / ps)) in
    if zero then Bytes.fill dst off seg '\000'
    else Bytes.blit src pos dst off seg;
    scatter_segs t ~zero src (pos + seg) (vaddr + seg) (remaining - seg)
  end

let dma_scatter t (fb : Fbuf.t) data len =
  scatter_segs t ~zero:false data 0 (Fbuf.vaddr fb) len

let deliver t ~flight ~xfer ~follows ~vci data len =
  let now = Des.now t.des in
  Machine.elapse_to ~kind:Machine.untyped t.m now;
  (* Continue the sender's transfer on this machine: the rx span follows
     the wire-flight span, and everything charged while the handler runs
     (interrupt, driver, demux, protocol processing, the ack) lands in
     the same causal tree. [xfer] and [follows] are the transfer and the
     flight span, both 0 when the sender recorded no spans. *)
  let csp =
    Machine.span_adopt t.m ~transfer:xfer ~follows ~domain:"" "osiris.rx"
  in
  Machine.charge ~kind:k_interrupt ~comp:Comp.Net t.m
    t.m.cost.Cost_model.interrupt;
  Machine.charge ~kind:k_driver_op ~comp:Comp.Net t.m
    t.m.cost.Cost_model.driver_op;
  Stats.incr t.m.stats osiris_rx_pdu;
  t.pdus_received <- t.pdus_received + 1;
  (match Machine.metrics t.m with
  | None -> ()
  | Some mx ->
      let name = t.m.Machine.name in
      Mx.incr2 mx net_pdus name "rx";
      Mx.observe2 mx net_pdu_bytes name "rx" (float_of_int len));
  let ps = t.m.Machine.cost.Cost_model.page_size in
  let npages = max 1 ((len + ps - 1) / ps) in
  let cached_path = Hashtbl.mem t.paths vci in
  if Machine.tracing t.m then begin
    let open Fbufs_trace.Trace in
    Machine.trace_instant t.m
      ~args:
        [
          ("vci", Int vci);
          ("bytes", Int len);
          ("cached", Str (if cached_path then "yes" else "no"));
        ]
      "osiris.rx";
    if flight <> 0 then
      Machine.async_end t.m ~id:flight ~args:[ ("vci", Int vci) ] "osiris.pdu"
  end;
  let alloc =
    match Hashtbl.find t.paths vci with
    | p ->
        p.last_use.at <- now;
        p.alloc
    | exception Not_found ->
        t.uncached_rx <- t.uncached_rx + 1;
        Stats.incr t.m.stats osiris_rx_uncached;
        t.uncached
  in
  let fb = Allocator.alloc alloc ~npages in
  (* Without hardware demultiplexing the adapter could only DMA into a
     fixed driver pool; choosing the per-path fbuf happens in software,
     after the fact, at the cost of one full copy of the PDU. *)
  if not t.hw_demux then begin
    t.sw_demux_copies <- t.sw_demux_copies + 1;
    Stats.incr t.m.stats osiris_sw_demux_copy;
    Machine.charge ~kind:k_osiris_sw_demux_copy ~comp:Comp.Copy t.m
      (float_of_int len *. t.m.cost.Cost_model.copy_per_byte)
  end;
  dma_scatter t fb data len;
  (* Security: an uncached buffer is built from frames recycled from
     arbitrary domains, so the slack beyond the PDU must be cleared before
     the buffer is exposed to the receiving path. Cached buffers recycle
     within one I/O data path and never pay this. *)
  let slack = (npages * ps) - len in
  if (not cached_path) && slack > 0 then begin
    Machine.charge ~kind:k_osiris_slack_zero ~comp:Comp.Zero t.m
      (float_of_int slack /. float_of_int ps
      *. t.m.cost.Cost_model.page_zero);
    Stats.incr t.m.stats osiris_slack_zeroed;
    (* The clearing loop itself is charged above at the bzero rate; write
       the zeros into the frames in place. *)
    scatter_segs t ~zero:true Bytes.empty 0 (Fbuf.vaddr fb + len) slack
  end;
  let msg = Msg.of_fbuf fb ~off:0 ~len in
  (match t.rx_handler with
  | Some h -> h ~vci msg
  | None -> Msg.free_all msg ~dom:t.kernel);
  Machine.span_exit t.m csp

let grow_wire w =
  let cap = Array.length w.data in
  let take a blank =
    let b = Array.make (2 * cap) blank in
    for k = 0 to w.count - 1 do
      b.(k) <- a.((w.head + k) land (cap - 1))
    done;
    b
  in
  w.data <- take w.data Bytes.empty;
  w.lens <- take w.lens 0;
  w.vcis <- take w.vcis 0;
  w.flights <- take w.flights 0;
  w.xfers <- take w.xfers 0;
  w.spans <- take w.spans 0;
  w.head <- 0

let enqueue w ~vci ~flight ~xfer ~span data len =
  if w.count = Array.length w.data then grow_wire w;
  let i = (w.head + w.count) land (Array.length w.data - 1) in
  w.data.(i) <- data;
  w.lens.(i) <- len;
  w.vcis.(i) <- vci;
  w.flights.(i) <- flight;
  w.xfers.(i) <- xfer;
  w.spans.(i) <- span;
  w.count <- w.count + 1

(* The oldest PDU on [src]'s wire reaches [dst]. The slot is released
   before the delivery runs, which may transmit again. The wire copy goes
   back on [src]'s spares only once the delivery has returned: it is
   read by the scatter, before the handler that may send. *)
let arrive src dst =
  let w = src.wire in
  let i = w.head in
  let data = w.data.(i) in
  w.data.(i) <- Bytes.empty;
  w.head <- (i + 1) land (Array.length w.data - 1);
  w.count <- w.count - 1;
  deliver dst ~flight:w.flights.(i) ~xfer:w.xfers.(i) ~follows:w.spans.(i)
    ~vci:w.vcis.(i) data w.lens.(i);
  give_back src data

let connect a b =
  a.peer <- Some b;
  b.peer <- Some a;
  a.arrive <- (fun () -> arrive a b);
  b.arrive <- (fun () -> arrive b a)

let send_pdu t ~vci msg =
  if Option.is_none t.peer then
    invalid_arg "Osiris.send_pdu: adapter is not connected";
  (* Causal tx span; a send outside any context (driver-level retry)
     adopts the transfer stamped on the message's first fbuf. *)
  let csp =
    if not (Machine.spanning t.m) then 0
    else if Machine.current_transfer t.m <> 0 then
      Machine.span_enter t.m ~domain:"" "osiris.tx"
    else
      let tid =
        match Msg.fbufs msg with fb :: _ -> fb.Fbuf.xfer | [] -> 0
      in
      Machine.span_adopt t.m ~transfer:tid ~follows:0 ~domain:"" "osiris.tx"
  in
  let ctid = Machine.current_transfer t.m in
  Machine.charge ~kind:k_driver_op ~comp:Comp.Net t.m
    t.m.cost.Cost_model.driver_op;
  Stats.incr t.m.stats osiris_tx_pdu;
  let len = Msg.length msg in
  let data = take_buffer t len in
  dma_gather t msg data;
  let cells =
    (len + pdu_overhead + t.m.cost.Cost_model.cell_payload - 1)
    / t.m.cost.Cost_model.cell_payload
  in
  t.cells_sent <- t.cells_sent + cells;
  (match Machine.metrics t.m with
  | None -> ()
  | Some mx ->
      let name = t.m.Machine.name in
      Mx.incr2 mx net_pdus name "tx";
      Mx.observe2 mx net_pdu_bytes name "tx" (float_of_int len);
      Mx.add1 mx net_cells name (float_of_int cells));
  let tx_time = float_of_int cells *. t.cell_us in
  let now = t.m.Machine.clock.Clock.now in
  let start = if t.link.at > now then t.link.at else now in
  let finish = start +. tx_time in
  t.link.at <- finish;
  let propagation = 1.0 in
  (* The flight id links this tx to the delivery on the peer machine; ids
     are only consumed when tracing so untraced runs are unperturbed. *)
  let flight =
    if Machine.tracing t.m then begin
      let id = Machine.fresh_id t.m in
      let open Fbufs_trace.Trace in
      Machine.trace_instant t.m
        ~args:
          [
            ("vci", Int vci);
            ("bytes", Int len);
            ("cells", Int cells);
          ]
        "osiris.tx";
      Machine.async_begin t.m ~id ~args:[ ("vci", Int vci) ] "osiris.pdu";
      id
    end
    else 0
  in
  if t.loss_rate > 0.0 && Rng.float t.m.rng 1.0 < t.loss_rate then begin
    (* The cells occupy the wire but the frame is lost (CRC failure at the
       receiving adapter); nothing is delivered. *)
    t.pdus_dropped <- t.pdus_dropped + 1;
    give_back t data;
    Stats.incr t.m.stats osiris_pdu_dropped;
    (match Machine.metrics t.m with
    | None -> ()
    | Some mx -> Mx.incr1 mx net_dropped t.m.Machine.name);
    if Machine.tracing t.m then begin
      Machine.trace_instant t.m
        ~args:[ ("vci", Fbufs_trace.Trace.Int vci) ]
        "osiris.pdu_dropped";
      Machine.async_end t.m ~id:flight "osiris.pdu"
    end;
    if Machine.spanning t.m then
      ignore
        (Machine.span_flight t.m ~transfer:ctid ~follows:csp ~start_us:start
           ~end_us:finish "pdu.lost")
  end
  else begin
    let fsp =
      if Machine.spanning t.m then
        Machine.span_flight t.m ~transfer:ctid ~follows:csp ~start_us:start
          ~end_us:(finish +. propagation) "pdu.flight"
      else 0
    in
    Des.schedule t.des (finish +. propagation) t.arrive;
    enqueue t.wire ~vci ~flight ~xfer:ctid ~span:fsp data len
  end;
  Machine.span_exit t.m csp
