(* Tests for the simulated Osiris adapter, the null-modem link, and the
   bandwidth caps of the hardware model. *)

open Fbufs_sim
open Fbufs
module Msg = Fbufs_msg.Msg
module Osiris = Fbufs_netdev.Osiris
module Testbed = Fbufs_harness.Testbed
module Testproto = Fbufs_protocols.Testproto
module Ip = Fbufs_protocols.Ip
module Udp = Fbufs_protocols.Udp
module Protocol = Fbufs_xkernel.Protocol

let check = Alcotest.check

type pair = {
  des : Des.t;
  tb1 : Testbed.t;
  tb2 : Testbed.t;
  ad1 : Osiris.t;
  ad2 : Osiris.t;
}

let setup () =
  let des = Des.create () in
  let tb1 = Testbed.create ~name:"tx" ~seed:1 () in
  let tb2 = Testbed.create ~name:"rx" ~seed:2 () in
  let ad1 =
    Osiris.create ~m:tb1.Testbed.m ~des ~region:tb1.Testbed.region
      ~kernel:tb1.Testbed.kernel ()
  in
  let ad2 =
    Osiris.create ~m:tb2.Testbed.m ~des ~region:tb2.Testbed.region
      ~kernel:tb2.Testbed.kernel ()
  in
  Osiris.connect ad1 ad2;
  { des; tb1; tb2; ad1; ad2 }

let kernel_msg tb bytes fill =
  let alloc =
    Testbed.allocator tb ~domains:[ tb.Testbed.kernel ] Fbuf.cached_volatile
  in
  Testproto.make_message ~alloc ~as_:tb.Testbed.kernel ~bytes ?fill ()

(* ------------------------------------------------------------------ *)
(* Delivery                                                            *)
(* ------------------------------------------------------------------ *)

let test_pdu_delivery_integrity () =
  let p = setup () in
  let got = ref "" in
  Osiris.set_rx_handler p.ad2 (fun ~vci msg ->
      check Alcotest.int "vci" 7 vci;
      got := Msg.to_string msg ~as_:p.tb2.Testbed.kernel;
      Msg.free_held msg ~dom:p.tb2.Testbed.kernel);
  let msg = kernel_msg p.tb1 640 (Some "payload-pattern-") in
  Osiris.send_pdu p.ad1 ~vci:7 msg;
  Msg.free_held msg ~dom:p.tb1.Testbed.kernel;
  Des.run p.des;
  let expected = String.init 640 (fun i -> "payload-pattern-".[i mod 16]) in
  check Alcotest.string "bytes across the wire" expected !got

let test_unconnected_send_rejected () =
  let des = Des.create () in
  let tb = Testbed.create () in
  let ad =
    Osiris.create ~m:tb.Testbed.m ~des ~region:tb.Testbed.region
      ~kernel:tb.Testbed.kernel ()
  in
  let msg = kernel_msg tb 100 None in
  Alcotest.(check bool) "raises" true
    (try
       Osiris.send_pdu ad ~vci:1 msg;
       false
     with Invalid_argument _ -> true)

let test_multi_pdu_ordering () =
  let p = setup () in
  let order = ref [] in
  Osiris.set_rx_handler p.ad2 (fun ~vci:_ msg ->
      order := Msg.length msg :: !order;
      Msg.free_held msg ~dom:p.tb2.Testbed.kernel);
  List.iter
    (fun bytes ->
      let msg = kernel_msg p.tb1 bytes None in
      Osiris.send_pdu p.ad1 ~vci:1 msg;
      Msg.free_held msg ~dom:p.tb1.Testbed.kernel)
    [ 100; 200; 300 ];
  Des.run p.des;
  check Alcotest.(list int) "in order" [ 100; 200; 300 ] (List.rev !order)

let test_bidirectional_traffic () =
  let p = setup () in
  let rx1 = ref 0 and rx2 = ref 0 in
  Osiris.set_rx_handler p.ad1 (fun ~vci:_ msg ->
      incr rx1;
      Msg.free_held msg ~dom:p.tb1.Testbed.kernel);
  Osiris.set_rx_handler p.ad2 (fun ~vci:_ msg ->
      incr rx2;
      Msg.free_held msg ~dom:p.tb2.Testbed.kernel);
  let m1 = kernel_msg p.tb1 512 None in
  let m2 = kernel_msg p.tb2 512 None in
  Osiris.send_pdu p.ad1 ~vci:1 m1;
  Osiris.send_pdu p.ad2 ~vci:2 m2;
  Msg.free_held m1 ~dom:p.tb1.Testbed.kernel;
  Msg.free_held m2 ~dom:p.tb2.Testbed.kernel;
  Des.run p.des;
  check Alcotest.int "host1 received" 1 !rx1;
  check Alcotest.int "host2 received" 1 !rx2

(* ------------------------------------------------------------------ *)
(* VCI demux into cached fbufs                                         *)
(* ------------------------------------------------------------------ *)

let test_registered_vci_uses_cached_fbufs () =
  let p = setup () in
  Osiris.register_path p.ad2 ~vci:5 ~domains:[ p.tb2.Testbed.kernel ];
  Osiris.set_rx_handler p.ad2 (fun ~vci:_ msg ->
      Msg.free_held msg ~dom:p.tb2.Testbed.kernel);
  for _ = 1 to 4 do
    let msg = kernel_msg p.tb1 8000 None in
    Osiris.send_pdu p.ad1 ~vci:5 msg;
    Msg.free_held msg ~dom:p.tb1.Testbed.kernel
  done;
  Des.run p.des;
  check Alcotest.int "no uncached arrivals" 0 (Osiris.uncached_rx_pdus p.ad2);
  match Osiris.rx_allocator p.ad2 ~vci:5 with
  | None -> Alcotest.fail "allocator missing"
  | Some a ->
      check Alcotest.int "buffer parked for reuse" 1
        (Allocator.free_list_length a)

let test_unknown_vci_falls_back_to_uncached () =
  let p = setup () in
  Osiris.set_rx_handler p.ad2 (fun ~vci:_ msg ->
      Msg.free_held msg ~dom:p.tb2.Testbed.kernel);
  let msg = kernel_msg p.tb1 3000 None in
  Osiris.send_pdu p.ad1 ~vci:99 msg;
  Msg.free_held msg ~dom:p.tb1.Testbed.kernel;
  Des.run p.des;
  check Alcotest.int "uncached arrival" 1 (Osiris.uncached_rx_pdus p.ad2)

let test_path_limit_evicts_lru () =
  let p = setup () in
  Osiris.set_rx_handler p.ad2 (fun ~vci:_ msg ->
      Msg.free_held msg ~dom:p.tb2.Testbed.kernel);
  for vci = 1 to Osiris.max_cached_paths do
    (* Distinct registration times make the LRU order deterministic. *)
    Machine.charge ~kind:Machine.untyped p.tb2.Testbed.m 1.0;
    Osiris.register_path p.ad2 ~vci ~domains:[ p.tb2.Testbed.kernel ]
  done;
  (* Touch path 1 so it is the most recently used; path 2 becomes LRU. *)
  let msg = kernel_msg p.tb1 256 None in
  Osiris.send_pdu p.ad1 ~vci:1 msg;
  Msg.free_held msg ~dom:p.tb1.Testbed.kernel;
  Des.run p.des;
  Osiris.register_path p.ad2 ~vci:17 ~domains:[ p.tb2.Testbed.kernel ];
  check Alcotest.int "one eviction" 1 (Osiris.evictions p.ad2);
  Alcotest.(check bool) "recently used path survives" true
    (Osiris.rx_allocator p.ad2 ~vci:1 <> None);
  Alcotest.(check bool) "LRU path evicted" true
    (Osiris.rx_allocator p.ad2 ~vci:2 = None);
  (* Traffic on the evicted path still flows, just uncached. *)
  let msg = kernel_msg p.tb1 256 None in
  Osiris.send_pdu p.ad1 ~vci:2 msg;
  Msg.free_held msg ~dom:p.tb1.Testbed.kernel;
  Des.run p.des;
  check Alcotest.int "uncached fallback" 1 (Osiris.uncached_rx_pdus p.ad2)

let test_rx_path_must_start_at_kernel () =
  let p = setup () in
  let user = Testbed.user_domain p.tb2 "app" in
  Alcotest.(check bool) "raises" true
    (try
       Osiris.register_path p.ad2 ~vci:3 ~domains:[ user ];
       false
     with Invalid_argument _ -> true)

let test_uncached_slack_is_cleared () =
  (* Security: the unused tail of an uncached receive buffer must not leak
     another domain's old data. *)
  let p = setup () in
  let k2 = p.tb2.Testbed.kernel in
  (* Dirty the free frames by allocating, writing and freeing. *)
  let dirty = kernel_msg p.tb2 16384 (Some "SECRETSECRET") in
  Msg.free_held dirty ~dom:k2;
  let leaked = ref "" in
  Osiris.set_rx_handler p.ad2 (fun ~vci:_ msg ->
      (* Read beyond the PDU inside the same fbuf. *)
      let fb = List.hd (Msg.fbufs msg) in
      leaked := Fbuf_api.read_string fb ~as_:k2 ~off:(Msg.length msg) ~len:6;
      Msg.free_held msg ~dom:k2);
  let msg = kernel_msg p.tb1 100 None in
  Osiris.send_pdu p.ad1 ~vci:88 msg;
  Msg.free_held msg ~dom:p.tb1.Testbed.kernel;
  Des.run p.des;
  check Alcotest.string "slack reads as zeros" (String.make 6 '\000') !leaked

let test_no_demux_pays_copy () =
  (* An Ethernet-style adapter (no hardware demux) must copy each PDU from
     the fixed pool into the chosen fbuf. *)
  let des = Des.create () in
  let tb1 = Testbed.create ~name:"tx" ~seed:1 () in
  let tb2 = Testbed.create ~name:"rx" ~seed:2 () in
  let ad1 =
    Osiris.create ~m:tb1.Testbed.m ~des ~region:tb1.Testbed.region
      ~kernel:tb1.Testbed.kernel ()
  in
  let ad2 =
    Osiris.create ~m:tb2.Testbed.m ~des ~region:tb2.Testbed.region
      ~kernel:tb2.Testbed.kernel ~hw_demux:false ()
  in
  Osiris.connect ad1 ad2;
  let got = ref "" in
  Osiris.set_rx_handler ad2 (fun ~vci:_ msg ->
      got := Msg.to_string msg ~as_:tb2.Testbed.kernel;
      Msg.free_held msg ~dom:tb2.Testbed.kernel);
  let bytes = 8192 in
  let cp = Machine.checkpoint tb2.Testbed.m in
  let msg = kernel_msg tb1 bytes (Some "ether") in
  Osiris.send_pdu ad1 ~vci:1 msg;
  Msg.free_held msg ~dom:tb1.Testbed.kernel;
  Des.run des;
  check Alcotest.int "one software copy" 1 (Osiris.software_demux_copies ad2);
  check Alcotest.string "data still intact"
    (String.init bytes (fun i -> "ether".[i mod 5]))
    !got;
  let _, busy0 = cp in
  let rx_cpu = Machine.busy_us tb2.Testbed.m -. busy0 in
  let copy_cost =
    float_of_int bytes
    *. tb2.Testbed.m.Machine.cost.Cost_model.copy_per_byte
  in
  Alcotest.(check bool)
    (Printf.sprintf "rx cpu %.0f includes the copy (%.0f)" rx_cpu copy_cost)
    true
    (rx_cpu >= copy_cost)

let test_multi_flow_paths_independent () =
  (* Four concurrent flows, each to its own path and cached pool: traffic
     on one flow must not disturb another's buffers, and each flow reaches
     buffer steady state. *)
  let p = setup () in
  let k2 = p.tb2.Testbed.kernel in
  let received = Array.make 5 0 in
  for vci = 1 to 4 do
    Osiris.register_path p.ad2 ~vci ~domains:[ k2 ]
  done;
  Osiris.set_rx_handler p.ad2 (fun ~vci msg ->
      received.(vci) <- received.(vci) + 1;
      Msg.free_held msg ~dom:k2);
  for round = 1 to 6 do
    ignore round;
    for vci = 1 to 4 do
      let msg = kernel_msg p.tb1 (4096 * vci) None in
      Osiris.send_pdu p.ad1 ~vci msg;
      Msg.free_held msg ~dom:p.tb1.Testbed.kernel
    done
  done;
  Des.run p.des;
  for vci = 1 to 4 do
    check Alcotest.int (Printf.sprintf "flow %d complete" vci) 6 received.(vci);
    match Osiris.rx_allocator p.ad2 ~vci with
    | None -> Alcotest.fail "allocator missing"
    | Some a ->
        check Alcotest.int
          (Printf.sprintf "flow %d steady state" vci)
          1
          (Allocator.free_list_length a)
  done;
  check Alcotest.int "nothing fell to uncached" 0
    (Osiris.uncached_rx_pdus p.ad2)

(* ------------------------------------------------------------------ *)
(* Bandwidth model                                                     *)
(* ------------------------------------------------------------------ *)

let measured_link_mbps p bytes npdus =
  let finish = ref 0.0 in
  let received = ref 0 in
  Osiris.set_rx_handler p.ad2 (fun ~vci:_ msg ->
      incr received;
      if !received = npdus then finish := Machine.now p.tb2.Testbed.m;
      Msg.free_held msg ~dom:p.tb2.Testbed.kernel);
  for _ = 1 to npdus do
    let msg = kernel_msg p.tb1 bytes None in
    Osiris.send_pdu p.ad1 ~vci:1 msg;
    Msg.free_held msg ~dom:p.tb1.Testbed.kernel
  done;
  Des.run p.des;
  float_of_int (bytes * npdus) *. 8.0 /. !finish

let test_link_respects_contended_cap () =
  let p = setup () in
  Osiris.register_path p.ad2 ~vci:1 ~domains:[ p.tb2.Testbed.kernel ];
  let mbps = measured_link_mbps p 16384 32 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f Mb/s within (250, 290)" mbps)
    true
    (mbps > 250.0 && mbps < 290.0)

let test_cell_accounting () =
  let p = setup () in
  Osiris.set_rx_handler p.ad2 (fun ~vci:_ msg ->
      Msg.free_held msg ~dom:p.tb2.Testbed.kernel);
  let msg = kernel_msg p.tb1 480 None in
  Osiris.send_pdu p.ad1 ~vci:1 msg;
  Msg.free_held msg ~dom:p.tb1.Testbed.kernel;
  Des.run p.des;
  (* 480 payload + 8 trailer = 488 -> ceil(488/48) = 11 cells. *)
  check Alcotest.int "cells" 11 (Osiris.cells_sent p.ad1)

let test_dma_unblocks_sender_cpu () =
  let p = setup () in
  Osiris.set_rx_handler p.ad2 (fun ~vci:_ msg ->
      Msg.free_held msg ~dom:p.tb2.Testbed.kernel);
  let m1 = p.tb1.Testbed.m in
  let msg = kernel_msg p.tb1 65536 None in
  let t0 = Machine.now m1 in
  Osiris.send_pdu p.ad1 ~vci:1 msg;
  let cpu_time = Machine.now m1 -. t0 in
  Msg.free_held msg ~dom:p.tb1.Testbed.kernel;
  (* 64 KB at ~285 Mb/s is ~1.8 ms of wire time; the CPU must only pay the
     driver cost, not wait for the DMA. *)
  Alcotest.(check bool)
    (Printf.sprintf "cpu %.0f us << wire time" cpu_time)
    true (cpu_time < 500.0);
  Des.run p.des

(* ------------------------------------------------------------------ *)
(* The wire: FIFO per direction, under loss and interleaved stepping    *)
(* ------------------------------------------------------------------ *)

type wire_op = Send of int * int * int (* side, bytes, vci *) | Step

let show_wire_op = function
  | Send (side, bytes, vci) -> Printf.sprintf "Send(%d,%d,%d)" side bytes vci
  | Step -> "Step"

(* The bytes of the [seq]th PDU sent by [side]: a pattern of prime period
   that differs from one PDU to the next. *)
let pdu_fill side seq =
  String.init 251 (fun i -> Char.chr ((i + (seq * 7) + (side * 101)) land 0xFF))

let pdu_bytes side seq bytes =
  let fill = pdu_fill side seq in
  String.init bytes (fun i -> fill.[i mod 251])

(* Runs [ops] over a connected pair (side 0 sends on [ad1], side 1 on
   [ad2]), drains the scheduler, and checks each direction: the PDUs the
   sender did not drop arrive exactly once, in send order, with their
   bytes and vci, and delivered + dropped = sent. Returns the most PDUs
   ever in flight in one direction. *)
let run_wire ~loss ops =
  let p = setup () in
  let ads = [| p.ad1; p.ad2 |] and tbs = [| p.tb1; p.tb2 |] in
  Array.iter (fun ad -> Osiris.set_loss_rate ad loss) ads;
  let expected = [| []; [] |] and received = [| []; [] |] in
  let sent = [| 0; 0 |] and dropped = [| 0; 0 |] and delivered = [| 0; 0 |] in
  let most_in_flight = ref 0 in
  Array.iteri
    (fun side ad ->
      let k = tbs.(side).Testbed.kernel in
      (* [ad] receives what the other side sends. *)
      Osiris.set_rx_handler ad (fun ~vci msg ->
          let from = 1 - side in
          received.(from) <- (vci, Msg.to_string msg ~as_:k) :: received.(from);
          delivered.(from) <- delivered.(from) + 1;
          Msg.free_held msg ~dom:k))
    ads;
  Osiris.register_path p.ad2 ~vci:3 ~domains:[ p.tb2.Testbed.kernel ];
  Osiris.register_path p.ad1 ~vci:3 ~domains:[ p.tb1.Testbed.kernel ];
  List.iter
    (function
      | Step -> ignore (Des.step p.des)
      | Send (side, bytes, vci) ->
          let seq = sent.(side) in
          let tb = tbs.(side) in
          let msg = kernel_msg tb bytes (Some (pdu_fill side seq)) in
          let lost = Osiris.pdus_dropped ads.(side) in
          Osiris.send_pdu ads.(side) ~vci msg;
          Msg.free_held msg ~dom:tb.Testbed.kernel;
          sent.(side) <- seq + 1;
          if Osiris.pdus_dropped ads.(side) > lost then
            dropped.(side) <- dropped.(side) + 1
          else
            expected.(side) <-
              (vci, pdu_bytes side seq bytes) :: expected.(side);
          let in_flight = sent.(side) - dropped.(side) - delivered.(side) in
          most_in_flight := max !most_in_flight in_flight)
    ops;
  Des.run p.des;
  for side = 0 to 1 do
    let dir = Printf.sprintf "direction %d" side in
    check Alcotest.int (dir ^ ": delivered + dropped = sent") sent.(side)
      (delivered.(side) + dropped.(side));
    check Alcotest.int (dir ^ ": the sender's drop count") dropped.(side)
      (Osiris.pdus_dropped ads.(side));
    check
      Alcotest.(list (pair int string))
      (dir ^ ": every undropped PDU once, in order, intact")
      (List.rev expected.(side))
      (List.rev received.(side))
  done;
  !most_in_flight

let wire_op_gen =
  let open QCheck.Gen in
  let bytes = frequency [ (3, int_range 1 2000); (1, int_range 1 65536) ] in
  let send =
    map3 (fun side bytes vci -> Send (side, bytes, vci)) (int_bound 1) bytes
      (int_range 1 4)
  in
  frequency [ (3, send); (2, return Step) ]

let prop_wire_fifo =
  QCheck.Test.make ~name:"wire delivers each undropped PDU once, in order"
    ~count:60
    QCheck.(
      pair
        (make ~print:string_of_float (Gen.oneofl [ 0.0; 0.0; 0.3 ]))
        (make
           ~print:(fun ops -> String.concat "; " (List.map show_wire_op ops))
           Gen.(list_size (int_range 1 60) wire_op_gen)))
    (fun (loss, ops) ->
      ignore (run_wire ~loss ops);
      true)

(* Bursts with no dispatch in between hold more PDUs in flight than the
   ring's initial 8 slots, in both directions and under loss. *)
let test_wire_ring_grows () =
  let burst side =
    List.init 20 (fun i -> Send (side, 100 + (i * 997), 1 + (i mod 4)))
  in
  let ops = burst 0 @ [ Step; Step ] @ burst 1 @ burst 0 in
  Alcotest.(check bool) "more than 8 in flight" true
    (run_wire ~loss:0.0 ops > 8);
  Alcotest.(check bool) "more than 8 in flight under loss" true
    (run_wire ~loss:0.3 ops > 8)

(* ------------------------------------------------------------------ *)
(* UDP/IP over a lossy link                                            *)
(* ------------------------------------------------------------------ *)

(* Kernel-to-kernel UDP/IP over the pair with 16 KB PDUs, as the budget
   table's two-host fixture. [send bytes] pushes one message, runs the
   scheduler dry, and says whether the link lost every fragment of it. *)
type udp_pair = { p : pair; ip2 : Ip.t; send : int -> bool }

let udp_pair ~loss =
  let p = setup () in
  let k1 = p.tb1.Testbed.kernel and k2 = p.tb2.Testbed.kernel in
  let alloc tb k = Testbed.allocator tb ~domains:[ k ] Fbuf.cached_volatile in
  let frags = ref 0 and lost = ref 0 in
  let driver =
    Protocol.create ~name:"osiris-tx" ~dom:k1
      ~push:(fun pdu ->
        let dropped = Osiris.pdus_dropped p.ad1 in
        Osiris.send_pdu p.ad1 ~vci:5 pdu;
        incr frags;
        if Osiris.pdus_dropped p.ad1 > dropped then incr lost)
      ()
  in
  let ip1 =
    Ip.create ~dom:k1 ~below:driver ~header_alloc:(alloc p.tb1 k1)
      ~pdu_size:16384 ()
  in
  let udp1 =
    Udp.create ~dom:k1 ~below:(Ip.proto ip1) ~header_alloc:(alloc p.tb1 k1)
      ~dst_port:2000 ()
  in
  Osiris.register_path p.ad2 ~vci:5 ~domains:[ k2 ];
  let ip2 =
    Ip.create ~dom:k2
      ~below:(Protocol.create ~name:"null" ~dom:k2 ())
      ~header_alloc:(alloc p.tb2 k2) ~pdu_size:16384 ()
  in
  let udp2 =
    Udp.create ~dom:k2
      ~below:(Protocol.create ~name:"null-up" ~dom:k2 ())
      ~header_alloc:(alloc p.tb2 k2) ()
  in
  Ip.set_up ip2 (Udp.proto udp2);
  let sink = Testproto.sink ~dom:k2 () in
  Udp.bind udp2 ~port:2000 (Testproto.sink_proto sink);
  Osiris.set_rx_handler p.ad2 (fun ~vci:_ msg -> (Ip.proto ip2).Protocol.pop msg);
  Osiris.set_loss_rate p.ad1 loss;
  let data_alloc = alloc p.tb1 k1 in
  let send bytes =
    frags := 0;
    lost := 0;
    let msg = Testproto.make_message ~alloc:data_alloc ~as_:k1 ~bytes () in
    (Udp.proto udp1).Protocol.push msg;
    Msg.free_held msg ~dom:k1;
    Des.run p.des;
    !lost = !frags
  in
  { p; ip2; send }

(* [count] messages of [bytes] at [loss], then lossless ones for 1.5 s
   of simulated time, past IP's 1 s reassembly timeout. Returns the
   pair, the messages sent and those whose every fragment was lost. *)
let lossy_udp_run ~bytes ~count ~loss =
  let u = udp_pair ~loss in
  let sent = ref 0 and all_lost = ref 0 in
  let send () =
    incr sent;
    if u.send bytes then incr all_lost
  in
  for _ = 1 to count do
    send ()
  done;
  Osiris.set_loss_rate u.p.ad1 0.0;
  let tail_end = Des.now u.p.des +. 1_500_000.0 in
  while Des.now u.p.des < tail_end do
    send ()
  done;
  (u, !sent, !all_lost)

(* The receiver's free frames and free region chunks once the receive
   path is torn down: its cache of parked buffers is sized by the most
   held at once, so only with it gone do the counts show what is still
   held. *)
let drained_receiver u =
  let tb2 = u.p.tb2 in
  let alloc = Option.get (Osiris.rx_allocator u.p.ad2 ~vci:5) in
  check Alcotest.int "no receive buffer still held" 0
    (Allocator.live_fbufs alloc);
  Allocator.teardown alloc;
  ( Phys_mem.free_frames tb2.Testbed.m.Machine.pmem,
    Region.free_chunk_count tb2.Testbed.region )

(* Loss leaves datagrams that cannot complete. Reassembly must expire
   them and free what they hold, or the receive path runs out of region
   chunks: without expiry the 64 KB run raised
   [Region.Chunk_limit_exceeded] within the first few hundred messages,
   and with up to 8 datagrams open the 1 MB run did. *)
let check_lossy_reassembly ~bytes ~count () =
  let u, sent, all_lost = lossy_udp_run ~bytes ~count ~loss:0.1 in
  let completed = Ip.reassemblies_completed u.ip2
  and expired = Ip.reassemblies_expired u.ip2 in
  Alcotest.(check bool) "some datagrams expired" true (expired > 0);
  check Alcotest.int "completed + expired = sent - lost whole"
    (sent - all_lost) (completed + expired);
  check Alcotest.int "expiries counted" expired
    (Stats.get u.p.tb2.Testbed.m.Machine.stats "ip.reasm_expired");
  let lossy = drained_receiver u in
  let clean, clean_sent, _ = lossy_udp_run ~bytes ~count ~loss:0.0 in
  check Alcotest.int "lossless: every datagram completes" clean_sent
    (Ip.reassemblies_completed clean.ip2);
  check Alcotest.int "lossless: nothing expires" 0
    (Ip.reassemblies_expired clean.ip2);
  check
    Alcotest.(pair int int)
    "free frames and region chunks as after a lossless run"
    (drained_receiver clean) lossy

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "netdev"
    [
      ( "delivery",
        [
          tc "pdu integrity" `Quick test_pdu_delivery_integrity;
          tc "unconnected send rejected" `Quick test_unconnected_send_rejected;
          tc "multi-pdu ordering" `Quick test_multi_pdu_ordering;
          tc "bidirectional traffic" `Quick test_bidirectional_traffic;
          tc "wire ring grows past 8 in flight" `Quick test_wire_ring_grows;
          QCheck_alcotest.to_alcotest prop_wire_fifo;
        ] );
      ( "vci-demux",
        [
          tc "registered vci uses cached fbufs" `Quick
            test_registered_vci_uses_cached_fbufs;
          tc "unknown vci falls back" `Quick
            test_unknown_vci_falls_back_to_uncached;
          tc "16-path LRU replacement" `Quick test_path_limit_evicts_lru;
          tc "rx path starts at kernel" `Quick test_rx_path_must_start_at_kernel;
          tc "uncached slack cleared" `Quick test_uncached_slack_is_cleared;
          tc "no-demux adapter pays copy" `Quick test_no_demux_pays_copy;
          tc "multi-flow paths independent" `Quick
            test_multi_flow_paths_independent;
        ] );
      ( "bandwidth",
        [
          tc "contended cap" `Quick test_link_respects_contended_cap;
          tc "cell accounting" `Quick test_cell_accounting;
          tc "dma unblocks sender" `Quick test_dma_unblocks_sender_cpu;
        ] );
      ( "loss",
        [
          tc "64 KB messages at 10% loss" `Quick
            (check_lossy_reassembly ~bytes:65536 ~count:1000);
          tc "1 MB messages at 10% loss" `Quick
            (check_lossy_reassembly ~bytes:1048576 ~count:60);
        ] );
    ]
