(* Tests for the pageout daemon, domain termination, reliable transport
   over lossy links, and the URPC facility. *)

open Fbufs_sim
open Fbufs_vm
open Fbufs
module Msg = Fbufs_msg.Msg
module Ipc = Fbufs_ipc.Ipc
module Protocol = Fbufs_xkernel.Protocol
module Rtp = Fbufs_protocols.Rtp
module Testproto = Fbufs_protocols.Testproto
module Osiris = Fbufs_netdev.Osiris
module Testbed = Fbufs_harness.Testbed

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Pageout daemon                                                      *)
(* ------------------------------------------------------------------ *)

let pool_of_parked tb app recv n =
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile in
  for _ = 1 to n do
    let fb = Allocator.alloc alloc ~npages:4 in
    Transfer.free fb ~dom:app
  done;
  (* Park them all: allocate-and-free builds only one at a time; force a
     resident pool by allocating n at once instead. *)
  alloc

let test_pageout_no_pressure_no_reclaim () =
  let tb = Testbed.create () in
  let app = Testbed.user_domain tb "app" in
  let recv = Testbed.user_domain tb "recv" in
  let daemon = Pageout.create tb.Testbed.region ~low_water_frames:1 () in
  let alloc = pool_of_parked tb app recv 3 in
  Pageout.register daemon alloc;
  check Alcotest.int "nothing reclaimed" 0 (Pageout.balance daemon)

let test_pageout_relieves_pressure () =
  let tb = Testbed.create ~nframes:256 () in
  let m = tb.Testbed.m in
  let app = Testbed.user_domain tb "app" in
  let recv = Testbed.user_domain tb "recv" in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile in
  let daemon = Pageout.create tb.Testbed.region ~low_water_frames:128 () in
  Pageout.register daemon alloc;
  (* Park 40 4-page buffers: 160 frames used, ~96 free -> under water. *)
  let fbs = List.init 40 (fun _ -> Allocator.alloc alloc ~npages:4) in
  List.iter (fun fb -> Transfer.free fb ~dom:app) fbs;
  Alcotest.(check bool) "pressure before" true (Pageout.pressure daemon);
  let n = Pageout.balance daemon in
  Alcotest.(check bool)
    (Printf.sprintf "reclaimed %d > 0" n)
    true (n > 0);
  Alcotest.(check bool) "pressure relieved" false (Pageout.pressure daemon);
  Alcotest.(check bool) "frames actually freed" true
    (Phys_mem.free_frames m.Machine.pmem >= 128)

let test_pageout_spares_warm_buffers () =
  let tb = Testbed.create ~nframes:256 () in
  let app = Testbed.user_domain tb "app" in
  let recv = Testbed.user_domain tb "recv" in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile in
  let daemon = Pageout.create tb.Testbed.region ~low_water_frames:120 () in
  Pageout.register daemon alloc;
  let cold = List.init 30 (fun _ -> Allocator.alloc alloc ~npages:4) in
  List.iter (fun fb -> Transfer.free fb ~dom:app) cold;
  Machine.charge ~kind:Machine.untyped tb.Testbed.m 10_000.0;
  (* One recently used buffer. *)
  let warm = Allocator.alloc alloc ~npages:4 in
  Transfer.free warm ~dom:app;
  ignore (Pageout.balance daemon);
  Alcotest.(check bool) "warm buffer kept its memory" true
    (Vm_map.frame_of app.Pd.map ~vpn:warm.Fbuf.base_vpn <> -1)

let test_pageout_stops_when_nothing_reclaimable () =
  let tb = Testbed.create ~nframes:64 () in
  let app = Testbed.user_domain tb "app" in
  let recv = Testbed.user_domain tb "recv" in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile in
  let daemon = Pageout.create tb.Testbed.region ~low_water_frames:60 () in
  Pageout.register daemon alloc;
  (* All buffers are live (not parked): the daemon must terminate with the
     pressure unrelieved rather than loop. *)
  let held = List.init 4 (fun _ -> Allocator.alloc alloc ~npages:4) in
  check Alcotest.int "nothing to take" 0 (Pageout.balance daemon);
  List.iter (fun fb -> Transfer.free fb ~dom:app) held

(* ------------------------------------------------------------------ *)
(* Domain termination                                                  *)
(* ------------------------------------------------------------------ *)

let test_terminate_releases_held_references () =
  let tb = Testbed.create () in
  let app = Testbed.user_domain tb "app" in
  let recv = Testbed.user_domain tb "recv" in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile in
  let fb = Allocator.alloc alloc ~npages:1 in
  Transfer.send fb ~src:app ~dst:recv;
  (* recv dies without freeing. *)
  check Alcotest.int "holds one" 1
    (Lifecycle.orphaned_references tb.Testbed.region recv);
  Lifecycle.terminate_domain tb.Testbed.region recv ~allocators:[];
  check Alcotest.int "released" 0
    (Lifecycle.orphaned_references tb.Testbed.region recv);
  Alcotest.(check bool) "marked dead" false recv.Pd.live;
  (* The originator can finish normally and the buffer parks. *)
  Transfer.free fb ~dom:app;
  check Alcotest.int "parked" 1 (Allocator.free_list_length alloc)

let test_terminate_originator_retains_chunks_until_drain () =
  let tb = Testbed.create () in
  let app = Testbed.user_domain tb "app" in
  let recv = Testbed.user_domain tb "recv" in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile in
  let fb = Allocator.alloc alloc ~npages:1 in
  Fbuf_api.write fb ~as_:app ~off:0 "survives";
  Transfer.send fb ~src:app ~dst:recv;
  Lifecycle.terminate_domain tb.Testbed.region app ~allocators:[ alloc ];
  Alcotest.(check bool) "chunks retained for external refs" true
    (Region.chunks_owned tb.Testbed.region app > 0);
  check Alcotest.string "receiver still reads" "survives"
    (Fbuf_api.read_string fb ~as_:recv ~off:0 ~len:8);
  Transfer.free fb ~dom:recv;
  check Alcotest.int "chunks returned after drain" 0
    (Region.chunks_owned tb.Testbed.region app)

let test_terminate_wrong_allocator_rejected () =
  let tb = Testbed.create () in
  let app = Testbed.user_domain tb "app" in
  let other = Testbed.user_domain tb "other" in
  let alloc = Testbed.allocator tb ~domains:[ other ] Fbuf.cached_volatile in
  Alcotest.(check bool) "raises" true
    (try
       Lifecycle.terminate_domain tb.Testbed.region app ~allocators:[ alloc ];
       false
     with Invalid_argument m ->
       (* The documented contract: the rejection names the function, so a
          caller sweeping many allocators can attribute the failure. *)
       String.starts_with ~prefix:"Lifecycle.terminate_domain" m);
  (* The rejected sweep must not have half-killed anything: the allocator
     still serves its real owner. *)
  let fb = Allocator.alloc alloc ~npages:1 in
  Transfer.free fb ~dom:other

let test_terminate_frees_frames_of_private_buffers () =
  let tb = Testbed.create () in
  let m = tb.Testbed.m in
  let app = Testbed.user_domain tb "app" in
  let free0 = Phys_mem.free_frames m.Machine.pmem in
  let alloc = Testbed.allocator tb ~domains:[ app ] Fbuf.cached_volatile in
  let fb = Allocator.alloc alloc ~npages:8 in
  ignore fb;
  Lifecycle.terminate_domain tb.Testbed.region app ~allocators:[ alloc ];
  check Alcotest.int "all frames back" free0
    (Phys_mem.free_frames m.Machine.pmem)

(* ------------------------------------------------------------------ *)
(* Reliable transport over a lossy link                                *)
(* ------------------------------------------------------------------ *)

(* Two hosts, RTP directly above the drivers (stressing the transport, not
   UDP/IP which have their own tests). *)
type rtp_net = {
  des : Des.t;
  tb1 : Testbed.t;
  tb2 : Testbed.t;
  ad1 : Osiris.t;
  sender : Rtp.sender;
  receiver : Rtp.receiver;
  data_alloc : Allocator.t;
}

let rtp_setup ?(loss = 0.0) ?(window = 4) () =
  let des = Des.create () in
  let tb1 = Testbed.create ~name:"tx" ~seed:11 () in
  let tb2 = Testbed.create ~name:"rx" ~seed:12 () in
  let k1 = tb1.Testbed.kernel and k2 = tb2.Testbed.kernel in
  let ad1 = Osiris.create ~m:tb1.Testbed.m ~des ~region:tb1.Testbed.region ~kernel:k1 () in
  let ad2 = Osiris.create ~m:tb2.Testbed.m ~des ~region:tb2.Testbed.region ~kernel:k2 () in
  Osiris.connect ad1 ad2;
  Osiris.set_loss_rate ad1 loss;
  let drv1 =
    Protocol.create ~name:"drv1" ~dom:k1
      ~push:(fun pdu -> Osiris.send_pdu ad1 ~vci:1 pdu)
      ()
  in
  let drv2 =
    Protocol.create ~name:"drv2" ~dom:k2
      ~push:(fun pdu -> Osiris.send_pdu ad2 ~vci:2 pdu)
      ()
  in
  let sender =
    Rtp.create_sender ~dom:k1 ~below:drv1
      ~header_alloc:(Testbed.allocator tb1 ~domains:[ k1 ] Fbuf.cached_volatile)
      ~des ~window ~timeout_us:20_000.0 ()
  in
  let receiver =
    Rtp.create_receiver ~dom:k2 ~ack_below:drv2
      ~header_alloc:(Testbed.allocator tb2 ~domains:[ k2 ] Fbuf.cached_volatile)
      ()
  in
  Osiris.set_rx_handler ad2 (fun ~vci:_ msg ->
      (Rtp.receiver_proto receiver).Protocol.pop msg;
      Msg.free_held msg ~dom:k2);
  Osiris.set_rx_handler ad1 (fun ~vci:_ msg ->
      (Rtp.sender_ack_proto sender).Protocol.pop msg;
      Msg.free_held msg ~dom:k1);
  let data_alloc = Testbed.allocator tb1 ~domains:[ k1 ] Fbuf.cached_volatile in
  { des; tb1; tb2; ad1; sender; receiver; data_alloc }

let test_rtp_lossless_delivery () =
  let net = rtp_setup () in
  let delivered = ref [] in
  let up =
    Protocol.create ~name:"app" ~dom:net.tb2.Testbed.kernel
      ~pop:(fun m ->
        delivered := Msg.length m :: !delivered;
        Msg.free_held m ~dom:net.tb2.Testbed.kernel)
      ()
  in
  Rtp.set_up net.receiver up;
  List.iter
    (fun bytes ->
      let msg = Testproto.make_message ~alloc:net.data_alloc ~as_:net.tb1.Testbed.kernel ~bytes () in
      (Rtp.sender_proto net.sender).Protocol.push msg)
    [ 1000; 2000; 3000 ];
  Des.run net.des;
  check Alcotest.(list int) "in order" [ 1000; 2000; 3000 ] (List.rev !delivered);
  check Alcotest.int "no retransmissions" 0 (Rtp.retransmissions net.sender);
  check Alcotest.int "all acked" 3 (Rtp.acked net.sender);
  check Alcotest.int "none in flight" 0 (Rtp.in_flight net.sender)

let test_rtp_retransmits_through_loss () =
  let net = rtp_setup ~loss:0.25 () in
  let delivered = ref 0 in
  let seen = Buffer.create 64 in
  let up =
    Protocol.create ~name:"app" ~dom:net.tb2.Testbed.kernel
      ~pop:(fun m ->
        incr delivered;
        Buffer.add_string seen (Msg.to_string m ~as_:net.tb2.Testbed.kernel);
        Msg.free_held m ~dom:net.tb2.Testbed.kernel)
      ()
  in
  Rtp.set_up net.receiver up;
  let n = 12 in
  for i = 1 to n do
    let msg =
      Testproto.make_message ~alloc:net.data_alloc
        ~as_:net.tb1.Testbed.kernel ~bytes:100
        ~fill:(Printf.sprintf "[msg%02d]" i) ()
    in
    (Rtp.sender_proto net.sender).Protocol.push msg
  done;
  Des.run net.des;
  check Alcotest.int "all delivered despite loss" n !delivered;
  check Alcotest.int "delivered in order" n (Rtp.delivered net.receiver);
  Alcotest.(check bool) "loss actually happened" true
    (Osiris.pdus_dropped net.ad1 > 0);
  Alcotest.(check bool) "retransmissions happened" true
    (Rtp.retransmissions net.sender > 0);
  (* In-order byte stream: message i's pattern appears before i+1's. *)
  let s = Buffer.contents seen in
  let pos i =
    match String.index_opt s '[' with
    | None -> -1
    | Some _ ->
        let needle = Printf.sprintf "[msg%02d]" i in
        let rec find from =
          if from + String.length needle > String.length s then -1
          else if String.sub s from (String.length needle) = needle then from
          else find (from + 1)
        in
        find 0
  in
  Alcotest.(check bool) "stream ordered" true (pos 1 < pos 2 && pos 2 < pos 12)

let test_rtp_retains_buffers_until_ack () =
  (* The mechanism the paper's copy semantics exist for: the transport
     keeps references so a retransmission needs no copy. *)
  let net = rtp_setup ~loss:1.0 () (* everything lost: nothing acked *) in
  Rtp.set_up net.receiver
    (Protocol.create ~name:"app" ~dom:net.tb2.Testbed.kernel ~pop:(fun _ -> ()) ());
  let msg =
    Testproto.make_message ~alloc:net.data_alloc ~as_:net.tb1.Testbed.kernel
      ~bytes:5000 ()
  in
  let fb = List.hd (Msg.fbufs msg) in
  (Rtp.sender_proto net.sender).Protocol.push msg;
  (* Drain a few timer firings (well under max_retries), then stop: the
     buffer must still be held. *)
  for _ = 1 to 5 do
    ignore (Des.step net.des)
  done;
  Alcotest.(check bool) "buffer still referenced for retransmit" true
    (Fbuf.ref_count fb net.tb1.Testbed.kernel > 0);
  Alcotest.(check bool) "retransmissions under way" true
    (Rtp.retransmissions net.sender > 0)

let test_rtp_gives_up_after_max_retries () =
  let des = Des.create () in
  let tb1 = Testbed.create ~name:"tx" ~seed:21 () in
  let tb2 = Testbed.create ~name:"rx" ~seed:22 () in
  let k1 = tb1.Testbed.kernel in
  let ad1 = Osiris.create ~m:tb1.Testbed.m ~des ~region:tb1.Testbed.region ~kernel:k1 () in
  let ad2 =
    Osiris.create ~m:tb2.Testbed.m ~des ~region:tb2.Testbed.region
      ~kernel:tb2.Testbed.kernel ()
  in
  Osiris.connect ad1 ad2;
  Osiris.set_loss_rate ad1 1.0;
  let drv1 =
    Protocol.create ~name:"drv1" ~dom:k1
      ~push:(fun pdu -> Osiris.send_pdu ad1 ~vci:1 pdu)
      ()
  in
  let sender =
    Rtp.create_sender ~dom:k1 ~below:drv1
      ~header_alloc:(Testbed.allocator tb1 ~domains:[ k1 ] Fbuf.cached_volatile)
      ~des ~timeout_us:1000.0 ~max_retries:5 ()
  in
  let alloc = Testbed.allocator tb1 ~domains:[ k1 ] Fbuf.cached_volatile in
  let msg = Testproto.make_message ~alloc ~as_:k1 ~bytes:500 () in
  let fb = List.hd (Msg.fbufs msg) in
  (Rtp.sender_proto sender).Protocol.push msg;
  Des.run des;
  check Alcotest.int "gave up" 1 (Rtp.failed sender);
  check Alcotest.int "references released" 0 (Fbuf.ref_count fb k1);
  check Alcotest.int "nothing in flight" 0 (Rtp.in_flight sender)

let test_rtp_duplicate_suppression () =
  (* Slow acks cause retransmissions whose duplicates the receiver must
     drop exactly once each. *)
  let net = rtp_setup ~loss:0.4 ~window:2 () in
  let delivered = ref 0 in
  Rtp.set_up net.receiver
    (Protocol.create ~name:"app" ~dom:net.tb2.Testbed.kernel
       ~pop:(fun m ->
         incr delivered;
         Msg.free_held m ~dom:net.tb2.Testbed.kernel)
       ());
  for _ = 1 to 8 do
    let msg =
      Testproto.make_message ~alloc:net.data_alloc
        ~as_:net.tb1.Testbed.kernel ~bytes:300 ()
    in
    (Rtp.sender_proto net.sender).Protocol.push msg
  done;
  Des.run net.des;
  check Alcotest.int "exactly once delivery" 8 !delivered

(* ------------------------------------------------------------------ *)
(* URPC facility                                                       *)
(* ------------------------------------------------------------------ *)

let test_urpc_cheaper_than_mach () =
  let run facility =
    let tb = Testbed.create () in
    let app = Testbed.user_domain tb "app" in
    let recv = Testbed.user_domain tb "recv" in
    let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile in
    let conn = Ipc.connect tb.Testbed.region ~src:app ~dst:recv ~facility () in
    let roundtrip () =
      let msg = Testproto.make_message ~alloc ~as_:app ~bytes:4096 () in
      Ipc.call conn msg ~handler:(fun received ->
          Msg.touch_read received ~as_:recv;
          Ipc.free_deferred conn received);
      Msg.free_all msg ~dom:app
    in
    roundtrip ();
    let t0 = Machine.now tb.Testbed.m in
    for _ = 1 to 10 do
      roundtrip ()
    done;
    (Machine.now tb.Testbed.m -. t0) /. 10.0
  in
  let mach = run Ipc.Mach and urpc = run Ipc.Urpc in
  Alcotest.(check bool)
    (Printf.sprintf "urpc %.1f much cheaper than mach %.1f" urpc mach)
    true
    (urpc < mach /. 2.0)

let test_urpc_same_semantics () =
  let tb = Testbed.create () in
  let app = Testbed.user_domain tb "app" in
  let recv = Testbed.user_domain tb "recv" in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile in
  let conn =
    Ipc.connect tb.Testbed.region ~src:app ~dst:recv ~facility:Ipc.Urpc ()
  in
  let fb = Allocator.alloc alloc ~npages:1 in
  Fbuf_api.write fb ~as_:app ~off:0 "same data, cheaper ride";
  let msg = Msg.of_fbuf fb ~off:0 ~len:23 in
  let seen = ref "" in
  Ipc.call conn msg ~handler:(fun received ->
      seen := Msg.to_string received ~as_:recv;
      Ipc.free_deferred conn received);
  check Alcotest.string "delivered" "same data, cheaper ride" !seen

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "lifecycle"
    [
      ( "pageout",
        [
          tc "no pressure no reclaim" `Quick test_pageout_no_pressure_no_reclaim;
          tc "relieves pressure" `Quick test_pageout_relieves_pressure;
          tc "spares warm buffers" `Quick test_pageout_spares_warm_buffers;
          tc "stops when nothing reclaimable" `Quick
            test_pageout_stops_when_nothing_reclaimable;
        ] );
      ( "termination",
        [
          tc "releases held references" `Quick
            test_terminate_releases_held_references;
          tc "originator chunks retained until drain" `Quick
            test_terminate_originator_retains_chunks_until_drain;
          tc "wrong allocator rejected" `Quick
            test_terminate_wrong_allocator_rejected;
          tc "frees frames of private buffers" `Quick
            test_terminate_frees_frames_of_private_buffers;
        ] );
      ( "reliable-transport",
        [
          tc "lossless delivery" `Quick test_rtp_lossless_delivery;
          tc "retransmits through loss" `Quick test_rtp_retransmits_through_loss;
          tc "retains buffers until ack" `Quick
            test_rtp_retains_buffers_until_ack;
          tc "gives up after max retries" `Quick
            test_rtp_gives_up_after_max_retries;
          tc "duplicate suppression" `Quick test_rtp_duplicate_suppression;
        ] );
      ( "urpc",
        [
          tc "cheaper than Mach" `Quick test_urpc_cheaper_than_mach;
          tc "same semantics" `Quick test_urpc_same_semantics;
        ] );
    ]
