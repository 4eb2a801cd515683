open Fbufs_sim
open Fbufs_vm
open Fbufs
module Msg = Fbufs_msg.Msg
module Protocol = Fbufs_xkernel.Protocol
module Proxy = Fbufs_xkernel.Proxy
module Ip = Fbufs_protocols.Ip
module Udp = Fbufs_protocols.Udp
module Testproto = Fbufs_protocols.Testproto
module Osiris = Fbufs_netdev.Osiris

type config = Kernel_kernel | User_user | User_netserver_user

let config_name = function
  | Kernel_kernel -> "kernel-kernel"
  | User_user -> "user-user"
  | User_netserver_user -> "user-netserver-user"

type point = {
  bytes : int;
  mbps : float;
  rx_cpu_load : float;
  tx_cpu_load : float;
}

let sizes = List.init 9 (fun i -> 4096 lsl i)

let data_vci = 5
let ack_vci = 6
let port = 2000

let run_one ~uncached ~config ~bytes ?(pdu_size = 16384) ?(window = 8)
    ?nmsgs ?(hw_demux = true) () =
  let nmsgs =
    match nmsgs with
    | Some n -> n
    | None -> max 4 (min 128 (4 * 1024 * 1024 / bytes))
  in
  let variant =
    if uncached && config <> Kernel_kernel then Fbuf.plain
    else Fbuf.cached_volatile
  in
  let des = Des.create () in
  let tb1 = Testbed.create ~name:"tx" ~seed:1 () in
  let tb2 = Testbed.create ~name:"rx" ~seed:2 () in
  let m1 = tb1.Testbed.m and m2 = tb2.Testbed.m in
  let k1 = tb1.Testbed.kernel and k2 = tb2.Testbed.kernel in
  let ad1 = Osiris.create ~m:m1 ~des ~region:tb1.Testbed.region ~kernel:k1 () in
  let ad2 =
    Osiris.create ~m:m2 ~des ~region:tb2.Testbed.region ~kernel:k2 ~hw_demux ()
  in
  Osiris.connect ad1 ad2;

  (* ---------------- transmit host ---------------- *)
  let sender_dom, udp1_dom =
    match config with
    | Kernel_kernel -> (k1, k1)
    | User_user -> (Testbed.user_domain tb1 "app", k1)
    | User_netserver_user ->
        let ns = Testbed.user_domain tb1 "netserver" in
        (Testbed.user_domain tb1 "app", ns)
  in
  (* The driver consumes PDU bytes synchronously (DMA gather) and frees
     nothing: header references are released by the protocols that
     allocated them, data references by the proxies / the sending test
     protocol. *)
  let driver1 =
    Protocol.create ~name:"osiris-tx" ~dom:k1
      ~push:(fun pdu -> Osiris.send_pdu ad1 ~vci:data_vci pdu)
      ()
  in
  let ip1 =
    Ip.create ~dom:k1 ~below:driver1
      ~header_alloc:(Testbed.allocator tb1 ~domains:[ k1 ] variant)
      ~pdu_size ()
  in
  let udp1_below =
    if Pd.equal udp1_dom k1 then Ip.proto ip1
    else
      Proxy.push_proxy tb1.Testbed.region ~from_dom:udp1_dom
        ~target:(Ip.proto ip1) ()
  in
  let udp1_header_path =
    if Pd.equal udp1_dom k1 then [ k1 ] else [ udp1_dom; k1 ]
  in
  let udp1 =
    Udp.create ~dom:udp1_dom ~below:udp1_below
      ~header_alloc:(Testbed.allocator tb1 ~domains:udp1_header_path variant)
      ~dst_port:port ()
  in
  let entry =
    if Pd.equal sender_dom udp1_dom then Udp.proto udp1
    else
      Proxy.push_proxy tb1.Testbed.region ~from_dom:sender_dom
        ~target:(Udp.proto udp1) ()
  in
  let data_path =
    match config with
    | Kernel_kernel -> [ k1 ]
    | User_user -> [ sender_dom; k1 ]
    | User_netserver_user -> [ sender_dom; udp1_dom; k1 ]
  in
  let data_alloc = Testbed.allocator tb1 ~domains:data_path variant in

  (* ---------------- receive host ---------------- *)
  let sink_dom, udp2_dom =
    match config with
    | Kernel_kernel -> (k2, k2)
    | User_user -> (Testbed.user_domain tb2 "app", k2)
    | User_netserver_user ->
        let ns = Testbed.user_domain tb2 "netserver" in
        (Testbed.user_domain tb2 "app", ns)
  in
  let rx_path =
    match config with
    | Kernel_kernel -> [ k2 ]
    | User_user -> [ k2; sink_dom ]
    | User_netserver_user -> [ k2; udp2_dom; sink_dom ]
  in
  (* Cached receive buffers: the adapter demultiplexes on VCI into
     preallocated per-path fbufs. The uncached experiment leaves the VCI
     unregistered, so PDUs land in uncached buffers. The kernel-kernel
     configuration always runs cached: Figure 6 includes it purely as the
     unchanged baseline. *)
  if (not uncached) || config = Kernel_kernel then
    Osiris.register_path ad2 ~vci:data_vci ~domains:rx_path;
  Osiris.register_path ad1 ~vci:ack_vci ~domains:[ k1 ];
  let null_below = Protocol.create ~name:"null" ~dom:k2 () in
  let ip2 =
    Ip.create ~dom:k2 ~below:null_below
      ~header_alloc:(Testbed.allocator tb2 ~domains:[ k2 ] variant)
      ~pdu_size ()
  in
  let udp2 =
    let below = Protocol.create ~name:"null-up" ~dom:udp2_dom () in
    Udp.create ~dom:udp2_dom ~below
      ~header_alloc:(Testbed.allocator tb2 ~domains:[ udp2_dom ] variant)
      ()
  in
  (if Pd.equal udp2_dom k2 then Ip.set_up ip2 (Udp.proto udp2)
   else
     Ip.set_up ip2
       (Proxy.pop_proxy tb2.Testbed.region ~from_dom:k2
          ~target:(Udp.proto udp2) ()));

  (* Receiving test protocol: consume, then send a window acknowledgement
     back through the driver (paying the user->kernel crossing when it
     does not live in the kernel). *)
  let received = ref 0 in
  let finish_time = ref 0.0 in
  let ack_alloc = Testbed.allocator tb2 ~domains:[ k2 ] Fbuf.cached_volatile in
  let send_ack () =
    if not (Pd.equal sink_dom k2) then begin
      Machine.charge ~kind:Machine.untyped ~comp:Fbufs_metrics.Component.Ipc m2
        m2.Machine.cost.Cost_model.ipc_call;
      Machine.charge ~kind:Machine.untyped ~comp:Fbufs_metrics.Component.Ipc m2
        m2.Machine.cost.Cost_model.ipc_reply;
      Machine.domain_crossing_tlb_pressure
        ~entries:m2.Machine.cost.Cost_model.ipc_tlb_footprint m2
    end;
    let ack = Testproto.make_message ~alloc:ack_alloc ~as_:k2 ~bytes:64 () in
    Osiris.send_pdu ad2 ~vci:ack_vci ack;
    Msg.free_held ack ~dom:k2
  in
  let sink =
    Testproto.sink ~dom:sink_dom
      ~consume:(fun msg ->
        Msg.touch_read msg ~as_:sink_dom;
        incr received;
        if !received = nmsgs then finish_time := Machine.now m2;
        send_ack ())
      ()
  in
  (if Pd.equal sink_dom udp2_dom then
     Udp.bind udp2 ~port (Testproto.sink_proto sink)
   else
     Udp.bind udp2 ~port
       (Proxy.pop_proxy tb2.Testbed.region ~from_dom:udp2_dom
          ~target:(Testproto.sink_proto sink) ()));

  (* ---------------- window-driven send loop ---------------- *)
  let sent = ref 0 in
  let outstanding = ref 0 in
  let pump () =
    while !sent < nmsgs && !outstanding < window do
      incr sent;
      incr outstanding;
      (* One causal transfer per message: the root span covers the send
         path; the PDU flights, the receive side and the ack adopt into
         it as they happen. *)
      Machine.with_transfer m1 ~domain:sender_dom.Pd.name
        (config_name config) (fun () ->
          let msg =
            Testproto.make_message ~alloc:data_alloc ~as_:sender_dom ~bytes ()
          in
          entry.Protocol.push msg;
          (* When no proxy sits between the test protocol and UDP, the
             sender still owns its references after the push. *)
          Msg.free_held msg ~dom:sender_dom)
    done
  in
  Osiris.set_rx_handler ad2 (fun ~vci msg ->
      if vci = data_vci then (Ip.proto ip2).Protocol.pop msg
      else Msg.free_held msg ~dom:k2);
  Osiris.set_rx_handler ad1 (fun ~vci msg ->
      if vci = ack_vci then begin
        Msg.free_held msg ~dom:k1;
        decr outstanding;
        pump ()
      end);
  let cp1 = Machine.checkpoint m1 in
  let cp2 = Machine.checkpoint m2 in
  pump ();
  Des.run des;
  assert (!received = nmsgs);
  let total_bytes = nmsgs * bytes in
  {
    bytes;
    mbps = Report.mbps ~bytes:total_bytes ~us:!finish_time;
    rx_cpu_load = Machine.load_since m2 cp2;
    tx_cpu_load = Machine.load_since m1 cp1;
  }

let run ~uncached ?pdu_size ?window () =
  List.map
    (fun config ->
      {
        Report.name = config_name config;
        points =
          List.map
            (fun bytes ->
              let p = run_one ~uncached ~config ~bytes ?pdu_size ?window () in
              (bytes, p.mbps))
            sizes;
      })
    [ Kernel_kernel; User_user; User_netserver_user ]

let print series =
  Report.print_title
    "Figures 5/6: end-to-end UDP/IP throughput (Mb/s), IP PDU = 16 KB";
  Report.print_series_table ~x_label:"msg size" series
