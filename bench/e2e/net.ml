(* net-udp: messages from an application on one host to an application
   on another, over UDP/IP and an Osiris null modem, in the
   user-netserver-user topology of Figure 5 — four domain crossings per
   message (app -> netserver -> kernel, kernel -> netserver -> app).
   Cached/volatile fbufs, 16 KB IP PDUs, a window of 8 unacknowledged
   messages from a single sender. The discrete-event scheduler advances
   both hosts and the link; one op is one message delivered to the sink,
   and its time is the host gap between consecutive deliveries. *)

open Harness
open Fbufs_sim
open Fbufs
module Msg = Fbufs_msg.Msg
module Ipc = Fbufs_ipc.Ipc
module Protocol = Fbufs_xkernel.Protocol
module Proxy = Fbufs_xkernel.Proxy
module Ip = Fbufs_protocols.Ip
module Udp = Fbufs_protocols.Udp
module Testproto = Fbufs_protocols.Testproto
module Osiris = Fbufs_netdev.Osiris
module Testbed = Fbufs_harness.Testbed

(* Pages per message (4K..256K) and how many of every 20 messages have
   that size: p50 falls inside the 16K class, p90 inside the 256K one. *)
let sizes = [ (1, 4); (2, 4); (4, 4); (16, 5); (64, 3) ]

let data_vci = 5
let ack_vci = 6
let port = 2000
let window = 8

type world = {
  mutable sent : int;
  mutable delivered : int;
  mutable outstanding : int;
  mutable stopping : bool;
}

let make ctx (tr : Span.t) =
  let variant = Fbuf.cached_volatile in
  let des = Des.create () in
  let tb1 = Testbed.create ~name:"tx" ~seed:1 () in
  let tb2 = Testbed.create ~name:"rx" ~seed:2 () in
  let m1 = tb1.Testbed.m and m2 = tb2.Testbed.m in
  let k1 = tb1.Testbed.kernel and k2 = tb2.Testbed.kernel in
  let ps = Testbed.page_size tb1 in
  let ad1 = Osiris.create ~m:m1 ~des ~region:tb1.Testbed.region ~kernel:k1 () in
  let ad2 = Osiris.create ~m:m2 ~des ~region:tb2.Testbed.region ~kernel:k2 () in
  Osiris.connect ad1 ad2;
  (* transmit host: app -> (proxy) UDP in the netserver -> (proxy) IP in
     the kernel -> driver *)
  let ns1 = Testbed.user_domain tb1 "netserver" in
  let app1 = Testbed.user_domain tb1 "app" in
  let driver1 =
    Protocol.create ~name:"osiris-tx" ~dom:k1
      ~push:(fun pdu -> Osiris.send_pdu ad1 ~vci:data_vci pdu)
      ()
  in
  let ip1 =
    Ip.create ~dom:k1 ~below:driver1
      ~header_alloc:(Testbed.allocator tb1 ~domains:[ k1 ] variant)
      ~pdu_size:16384 ()
  in
  let udp1 =
    Udp.create ~dom:ns1
      ~below:
        (Proxy.push_proxy tb1.Testbed.region ~from_dom:ns1
           ~target:(Ip.proto ip1) ())
      ~header_alloc:(Testbed.allocator tb1 ~domains:[ ns1; k1 ] variant)
      ~dst_port:port ()
  in
  let entry =
    Proxy.push_proxy tb1.Testbed.region ~from_dom:app1 ~target:(Udp.proto udp1)
      ()
  in
  let data_alloc = Testbed.allocator tb1 ~domains:[ app1; ns1; k1 ] variant in
  (* receive host: driver -> IP in the kernel -> (proxy) UDP in the
     netserver -> (proxy) sink in the app; cached receive buffers on the
     data path, demultiplexed by VCI in the adapter *)
  let ns2 = Testbed.user_domain tb2 "netserver" in
  let app2 = Testbed.user_domain tb2 "app" in
  Osiris.register_path ad2 ~vci:data_vci ~domains:[ k2; ns2; app2 ];
  Osiris.register_path ad1 ~vci:ack_vci ~domains:[ k1 ];
  let ip2 =
    Ip.create ~dom:k2
      ~below:(Protocol.create ~name:"null" ~dom:k2 ())
      ~header_alloc:(Testbed.allocator tb2 ~domains:[ k2 ] variant)
      ~pdu_size:16384 ()
  in
  let udp2 =
    Udp.create ~dom:ns2
      ~below:(Protocol.create ~name:"null-up" ~dom:ns2 ())
      ~header_alloc:(Testbed.allocator tb2 ~domains:[ ns2 ] variant)
      ()
  in
  Ip.set_up ip2
    (Proxy.pop_proxy tb2.Testbed.region ~from_dom:k2 ~target:(Udp.proto udp2)
       ());
  let w = { sent = 0; delivered = 0; outstanding = 0; stopping = false } in
  (* The sink hands each acknowledgement to the kernel over IPC, which
     sends it back over the adapter. *)
  let ack_conn = Ipc.connect tb2.Testbed.region ~src:app2 ~dst:k2 () in
  let ack_alloc = Testbed.allocator tb2 ~domains:[ k2 ] Fbuf.cached_volatile in
  let send_ack () =
    Ipc.call ack_conn Msg.empty ~handler:(fun _ -> ());
    let ack = Testproto.make_message ~alloc:ack_alloc ~as_:k2 ~bytes:64 () in
    Osiris.send_pdu ad2 ~vci:ack_vci ack;
    Msg.free_held ack ~dom:k2
  in
  let verify msg =
    let len = Msg.length msg in
    if len = 0 || len mod ps <> 0 then
      error ctx (Printf.sprintf "message %d: %d bytes" w.delivered len);
    for p = 0 to (len / ps) - 1 do
      let b = Msg.sub_bytes msg ~as_:app2 ~off:(p * ps) ~len:4 in
      let got = Int32.to_int (Bytes.get_int32_le b 0) land 0xFFFF_FFFF in
      if got <> tag ~seed:ctx.seed ~msg:w.delivered ~page:p lxor ctx.plant then
        error ctx
          (Printf.sprintf "message %d page %d: wrong word" w.delivered p)
    done
  in
  let sink =
    Testproto.sink ~dom:app2
      ~consume:(fun msg ->
        Span.enter tr Span.vm_read;
        verify msg;
        Span.leave tr;
        w.delivered <- w.delivered + 1;
        Span.enter tr Span.netdev_ack;
        send_ack ();
        Span.leave tr)
      ~free:(fun msg ->
        Span.enter tr Span.core_free;
        Msg.free_all msg ~dom:app2;
        Span.leave tr)
      ()
  in
  Udp.bind udp2 ~port
    (Proxy.pop_proxy tb2.Testbed.region ~from_dom:ns2
       ~target:(Testproto.sink_proto sink) ());
  let deck = Deck.create (Gen.create ~seed:ctx.seed ~stream:2) sizes in
  let send_one () =
    let npages = Deck.next deck in
    let id = w.sent in
    w.sent <- id + 1;
    w.outstanding <- w.outstanding + 1;
    Span.enter tr Span.core_alloc;
    let fb = Allocator.alloc data_alloc ~npages in
    Span.leave tr;
    let base = Fbuf.vaddr fb in
    Span.enter tr Span.vm_write;
    for p = 0 to npages - 1 do
      Fbufs_vm.Access.write_word app1 ~vaddr:(base + (p * ps))
        (tag ~seed:ctx.seed ~msg:id ~page:p)
    done;
    Span.leave tr;
    let msg = Msg.of_fbuf fb ~off:0 ~len:(npages * ps) in
    Span.enter tr Span.protocols_push;
    entry.Protocol.push msg;
    Span.leave tr;
    Msg.free_held msg ~dom:app1
  in
  let pump () =
    while (not w.stopping) && w.outstanding < window do
      send_one ()
    done
  in
  Osiris.set_rx_handler ad2 (fun ~vci msg ->
      if vci = data_vci then begin
        Span.enter tr Span.protocols_pop;
        (Ip.proto ip2).Protocol.pop msg;
        Span.leave tr
      end
      else Msg.free_held msg ~dom:k2);
  Osiris.set_rx_handler ad1 (fun ~vci msg ->
      if vci = ack_vci then begin
        Msg.free_held msg ~dom:k1;
        w.outstanding <- w.outstanding - 1;
        pump ()
      end);
  (* One op: dispatch events until the next message reaches the sink. *)
  let step _ =
    let target = w.delivered + 1 in
    while w.delivered < target do
      Span.enter tr Span.netdev_des;
      let progressed = Des.step des in
      Span.leave tr;
      if not progressed then failwith "event queue ran dry before a delivery"
    done
  in
  let finish () =
    w.stopping <- true;
    Des.run des;
    if w.delivered <> w.sent || w.outstanding <> 0 then
      error ctx
        (Printf.sprintf "sent %d, delivered %d, %d unacknowledged" w.sent
           w.delivered w.outstanding)
  in
  let counters () =
    let machines = [| m1; m2 |] in
    [
      ("tlb.miss", stat machines "tlb.miss");
      ("pmap.enter", stat machines "pmap.enter");
      ("pmap.remove", stat machines "pmap.remove");
      ("pmap.protect", stat machines "pmap.protect");
      ("tlb.shootdown", stat machines "tlb.shootdown");
      ("vm.fault", stat machines "vm.fault");
      ("fbuf.alloc_cached_hit", stat machines "fbuf.alloc_cached_hit");
      ("fbuf.alloc_fresh", stat machines "fbuf.alloc_fresh");
      ( "cells",
        float_of_int (Osiris.cells_sent ad1 + Osiris.cells_sent ad2) );
      ("rx_pdus", float_of_int (Osiris.pdus_received ad2));
      ("rx_uncached", float_of_int (Osiris.uncached_rx_pdus ad2));
    ]
  in
  pump ();
  { step; finish; counters; machines = [| m1; m2 |]; child_gc = None }

let workload =
  {
    name = "net-udp";
    why =
      "the only workload through protocols, x-kernel proxies, the network \
       device and the event scheduler: four crossings per message";
    warmup = 2000;
    det_ops = 20_000;
    paper_row = None;
    make;
  }
