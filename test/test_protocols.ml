(* Tests for the protocol suite: headers, IP fragmentation/reassembly, UDP
   demultiplexing, loopback, and full stacks across domains. *)

open Fbufs_sim
open Fbufs
module Msg = Fbufs_msg.Msg
module Protocol = Fbufs_xkernel.Protocol
module Ip = Fbufs_protocols.Ip
module Udp = Fbufs_protocols.Udp
module Loopback = Fbufs_protocols.Loopback
module Header = Fbufs_protocols.Header
module Testproto = Fbufs_protocols.Testproto
module Testbed = Fbufs_harness.Testbed
module Stacks = Fbufs_harness.Stacks

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Header codecs                                                       *)
(* ------------------------------------------------------------------ *)

let test_u16_roundtrip () =
  let b = Bytes.create 4 in
  Header.set_u16 b 1 0xBEEF;
  check Alcotest.int "u16" 0xBEEF (Header.get_u16 b 1)

let test_u32_roundtrip () =
  let b = Bytes.create 8 in
  Header.set_u32 b 2 0xDEADBEEF;
  check Alcotest.int "u32" 0xDEADBEEF (Header.get_u32 b 2)

let test_prepend_and_peek () =
  let tb = Testbed.create () in
  let d = Testbed.user_domain tb "d" in
  let alloc = Testbed.allocator tb ~domains:[ d ] Fbuf.cached_volatile in
  let payload =
    let fb = Allocator.alloc alloc ~npages:1 in
    Fbuf_api.write fb ~as_:d ~off:0 "body";
    Msg.of_fbuf fb ~off:0 ~len:4
  in
  let _, pdu = Header.prepend ~alloc ~as_:d (Bytes.of_string "HDR!") payload in
  check Alcotest.int "length" 8 (Msg.length pdu);
  check Alcotest.bytes "peek" (Bytes.of_string "HDR!")
    (Header.peek pdu ~as_:d ~len:4);
  check Alcotest.string "payload intact" "body"
    (Msg.to_string (Msg.clip pdu 4) ~as_:d)

(* ------------------------------------------------------------------ *)
(* Single-domain stack plumbing                                        *)
(* ------------------------------------------------------------------ *)

let test_loopback_single_domain_delivery () =
  let stack = Stacks.single_domain () in
  let msg =
    Testproto.make_message ~alloc:stack.Stacks.data_alloc
      ~as_:stack.Stacks.sender_dom ~bytes:2048 ~fill:"ping" ()
  in
  stack.Stacks.send msg;
  check Alcotest.int "one message" 1 (Testproto.received stack.Stacks.sink);
  check Alcotest.int "all bytes" 2048
    (Testproto.received_bytes stack.Stacks.sink)

let test_payload_integrity_through_stack () =
  let stack = Stacks.single_domain () in
  let got = ref "" in
  let sink2 =
    Testproto.sink ~dom:stack.Stacks.sender_dom
      ~consume:(fun m -> got := Msg.to_string m ~as_:stack.Stacks.sender_dom)
      ()
  in
  (* Rebind the stack's UDP port to our inspecting sink. *)
  ignore sink2;
  let msg =
    Testproto.make_message ~alloc:stack.Stacks.data_alloc
      ~as_:stack.Stacks.sender_dom ~bytes:10000 ~fill:"0123456789" ()
  in
  (* Capture via the stack's own sink instead: check last message. *)
  stack.Stacks.send msg;
  match Testproto.last_message stack.Stacks.sink with
  | None -> Alcotest.fail "no message delivered"
  | Some _ ->
      (* The sink freed the message; integrity is verified by the
         fragmentation tests below which inspect before freeing. *)
      ()

let test_fragmentation_counts () =
  let stack = Stacks.single_domain ~pdu_size:4096 () in
  let msg =
    Testproto.make_message ~alloc:stack.Stacks.data_alloc
      ~as_:stack.Stacks.sender_dom ~bytes:(4096 * 4) ()
  in
  stack.Stacks.send msg;
  (* 16 KB of payload + 12 bytes of UDP header = 5 fragments. *)
  check Alcotest.int "fragments" 5 (Ip.fragments_sent stack.Stacks.ip);
  check Alcotest.int "reassembled" 1
    (Ip.reassemblies_completed stack.Stacks.ip)

let test_small_message_not_fragmented () =
  let stack = Stacks.single_domain ~pdu_size:4096 () in
  let msg =
    Testproto.make_message ~alloc:stack.Stacks.data_alloc
      ~as_:stack.Stacks.sender_dom ~bytes:1024 ()
  in
  stack.Stacks.send msg;
  check Alcotest.int "one fragment" 1 (Ip.fragments_sent stack.Stacks.ip);
  check Alcotest.int "no reassembly" 0
    (Ip.reassemblies_completed stack.Stacks.ip)

let test_reassembly_byte_integrity () =
  (* Build a custom single-domain stack whose sink inspects the payload
     before freeing. *)
  let tb = Testbed.create () in
  let d = Testbed.user_domain tb "d" in
  let variant = Fbuf.cached_volatile in
  let alloc v = Testbed.allocator tb ~domains:[ d ] v in
  let lb = Loopback.create ~dom:d () in
  let ip =
    Ip.create ~dom:d ~below:(Loopback.proto lb) ~header_alloc:(alloc variant)
      ~pdu_size:4096 ()
  in
  Loopback.set_up lb (Ip.proto ip);
  let udp =
    Udp.create ~dom:d ~below:(Ip.proto ip) ~header_alloc:(alloc variant)
      ~dst_port:7 ()
  in
  Ip.set_up ip (Udp.proto udp);
  let got = ref "" in
  let sink =
    Testproto.sink ~dom:d ~consume:(fun m -> got := Msg.to_string m ~as_:d) ()
  in
  Udp.bind udp ~port:7 (Testproto.sink_proto sink);
  let pattern = "abcdefghij" in
  let bytes = 40000 in
  let msg =
    Testproto.make_message ~alloc:(alloc variant) ~as_:d ~bytes ~fill:pattern ()
  in
  (Udp.proto udp).Protocol.push msg;
  check Alcotest.int "full length" bytes (String.length !got);
  let expected = String.init bytes (fun i -> pattern.[i mod 10]) in
  check Alcotest.bool "bytes equal" true (String.equal !got expected)

let test_udp_demux_by_port () =
  let tb = Testbed.create () in
  let d = Testbed.user_domain tb "d" in
  let alloc = Testbed.allocator tb ~domains:[ d ] Fbuf.cached_volatile in
  let lb = Loopback.create ~dom:d () in
  let ip =
    Ip.create ~dom:d ~below:(Loopback.proto lb) ~header_alloc:alloc ()
  in
  Loopback.set_up lb (Ip.proto ip);
  let udp =
    Udp.create ~dom:d ~below:(Ip.proto ip) ~header_alloc:alloc ~dst_port:42 ()
  in
  Ip.set_up ip (Udp.proto udp);
  let right = Testproto.sink ~dom:d () in
  let wrong = Testproto.sink ~dom:d () in
  Udp.bind udp ~port:42 (Testproto.sink_proto right);
  Udp.bind udp ~port:43 (Testproto.sink_proto wrong);
  let msg = Testproto.make_message ~alloc ~as_:d ~bytes:512 () in
  (Udp.proto udp).Protocol.push msg;
  check Alcotest.int "right port got it" 1 (Testproto.received right);
  check Alcotest.int "wrong port did not" 0 (Testproto.received wrong)

let test_udp_unbound_port_drops () =
  let tb = Testbed.create () in
  let d = Testbed.user_domain tb "d" in
  let alloc = Testbed.allocator tb ~domains:[ d ] Fbuf.cached_volatile in
  let lb = Loopback.create ~dom:d () in
  let ip = Ip.create ~dom:d ~below:(Loopback.proto lb) ~header_alloc:alloc () in
  Loopback.set_up lb (Ip.proto ip);
  let udp =
    Udp.create ~dom:d ~below:(Ip.proto ip) ~header_alloc:alloc ~dst_port:99 ()
  in
  Ip.set_up ip (Udp.proto udp);
  let msg = Testproto.make_message ~alloc ~as_:d ~bytes:128 () in
  (Udp.proto udp).Protocol.push msg;
  check Alcotest.int "dropped" 1 (Udp.no_port_drops udp)

let test_udp_checksum_validates () =
  let tb = Testbed.create () in
  let d = Testbed.user_domain tb "d" in
  let alloc = Testbed.allocator tb ~domains:[ d ] Fbuf.cached_volatile in
  let lb = Loopback.create ~dom:d () in
  let ip = Ip.create ~dom:d ~below:(Loopback.proto lb) ~header_alloc:alloc () in
  Loopback.set_up lb (Ip.proto ip);
  let udp =
    Udp.create ~dom:d ~below:(Ip.proto ip) ~header_alloc:alloc ~dst_port:1
      ~checksum:true ()
  in
  Ip.set_up ip (Udp.proto udp);
  let sink = Testproto.sink ~dom:d () in
  Udp.bind udp ~port:1 (Testproto.sink_proto sink);
  let msg = Testproto.make_message ~alloc ~as_:d ~bytes:4000 ~fill:"ok" () in
  (Udp.proto udp).Protocol.push msg;
  check Alcotest.int "delivered with good checksum" 1 (Testproto.received sink);
  check Alcotest.int "no failures" 0 (Udp.checksum_failures udp)

let test_udp_checksum_detects_corruption () =
  (* A volatile originator mutates the data mid-flight (between push and
     the receive-side verification we force by corrupting first). *)
  let tb = Testbed.create () in
  let d = Testbed.user_domain tb "d" in
  let alloc = Testbed.allocator tb ~domains:[ d ] Fbuf.cached_volatile in
  (* Stack where UDP pop rechecks the checksum; corrupt between the two by
     interposing a protocol that scribbles on the (volatile) buffer. *)
  let lb = Loopback.create ~dom:d () in
  let ip = Ip.create ~dom:d ~below:(Loopback.proto lb) ~header_alloc:alloc () in
  let corrupter =
    Protocol.create ~name:"corrupter" ~dom:d
      ~push:(fun pdu -> (Ip.proto ip).Protocol.push pdu)
      ()
  in
  Loopback.set_up lb (Ip.proto ip);
  let udp =
    Udp.create ~dom:d ~below:corrupter ~header_alloc:alloc ~dst_port:1
      ~checksum:true ()
  in
  Ip.set_up ip (Udp.proto udp);
  let sink = Testproto.sink ~dom:d () in
  Udp.bind udp ~port:1 (Testproto.sink_proto sink);
  let fb = Allocator.alloc alloc ~npages:1 in
  Fbuf_api.write fb ~as_:d ~off:0 "honest data";
  corrupter.Protocol.push <-
    (fun pdu ->
      (* Asynchronous modification by the (volatile) originator. *)
      Fbuf_api.write fb ~as_:d ~off:0 "tamperedata";
      (Ip.proto ip).Protocol.push pdu);
  (Udp.proto udp).Protocol.push (Msg.of_fbuf fb ~off:0 ~len:11);
  check Alcotest.int "checksum failure detected" 1 (Udp.checksum_failures udp);
  check Alcotest.int "not delivered" 0 (Testproto.received sink)

(* ------------------------------------------------------------------ *)
(* Reassembly out of order                                             *)
(* ------------------------------------------------------------------ *)

(* One domain, a sending IP whose fragments are captured below it, each
   copied into a fresh buffer the way the wire delivers it, and a
   receiving IP whose reassembled messages are kept, not freed. *)
type reasm_rig = {
  d : Fbufs_vm.Pd.t;
  data_alloc : Allocator.t;
  tx : Ip.t;
  captured : Msg.t list ref; (* newest first *)
  make_rx : unit -> Ip.t * Msg.t list ref;
}

let reasm_rig () =
  let tb = Testbed.create () in
  let d = Testbed.user_domain tb "d" in
  let alloc () = Testbed.allocator tb ~domains:[ d ] Fbuf.cached_volatile in
  let wire_alloc = alloc () in
  let captured = ref [] in
  let capture =
    Protocol.create ~name:"capture" ~dom:d
      ~push:(fun pdu ->
        let b = Msg.to_bytes pdu ~as_:d in
        let fb = Allocator.alloc wire_alloc ~npages:2 in
        Fbuf_api.write_bytes fb ~as_:d ~off:0 b;
        captured := Msg.of_fbuf fb ~off:0 ~len:(Bytes.length b) :: !captured)
      ()
  in
  let tx =
    Ip.create ~dom:d ~below:capture ~header_alloc:(alloc ()) ~pdu_size:4096 ()
  in
  let make_rx () =
    let rx =
      Ip.create ~dom:d
        ~below:(Protocol.create ~name:"null" ~dom:d ())
        ~header_alloc:(alloc ()) ~pdu_size:4096 ()
    in
    let delivered = ref [] in
    Ip.set_up rx
      (Protocol.create ~name:"keep" ~dom:d
         ~pop:(fun m -> delivered := m :: !delivered)
         ());
    (rx, delivered)
  in
  { d; data_alloc = alloc (); tx; captured; make_rx }

(* The fragments of one datagram of [bytes], in send order. *)
let fragments rig ~bytes ~fill =
  rig.captured := [];
  (Ip.proto rig.tx).Protocol.push
    (Testproto.make_message ~alloc:rig.data_alloc ~as_:rig.d ~bytes ~fill ());
  List.rev !(rig.captured)

let windows m =
  List.map
    (fun (l : Msg.leaf) -> (l.Msg.fbuf.Fbuf.id, l.Msg.off, l.Msg.len))
    (Msg.leaves m)

let test_reassembly_out_of_order () =
  let rig = reasm_rig () in
  let bytes = (4 * 4096) + 100 in
  let frags = Array.of_list (fragments rig ~bytes ~fill:"0123456789abcdef") in
  check Alcotest.int "five fragments" 5 (Array.length frags);
  let deliver order =
    let rx, delivered = rig.make_rx () in
    List.iter (fun i -> (Ip.proto rx).Protocol.pop frags.(i)) order;
    check Alcotest.int "one reassembly" 1 (Ip.reassemblies_completed rx);
    match !delivered with
    | [ m ] -> m
    | l -> Alcotest.failf "%d messages delivered" (List.length l)
  in
  let in_order = deliver [ 0; 1; 2; 3; 4 ] in
  let expected = String.init bytes (fun i -> "0123456789abcdef".[i mod 16]) in
  check Alcotest.string "in-order bytes" expected
    (Msg.to_string in_order ~as_:rig.d);
  List.iter
    (fun (name, order) ->
      let m = deliver order in
      check Alcotest.string (name ^ ": bytes") expected
        (Msg.to_string m ~as_:rig.d);
      check Alcotest.int (name ^ ": depth") (Msg.depth in_order) (Msg.depth m);
      check
        Alcotest.(list (triple int int int))
        (name ^ ": leaf windows") (windows in_order) (windows m))
    [ ("reversed", [ 4; 3; 2; 1; 0 ]); ("shuffled", [ 2; 0; 4; 1; 3 ]) ]

(* A completed datagram's record is reused: a second, longer datagram
   arriving out of order must see neither the first one's fragments nor
   its byte count nor its length. A third datagram opened while the
   second is incomplete must get a record of its own. *)
let test_reassembly_record_reuse () =
  let rig = reasm_rig () in
  let first_bytes = 4096 + 50
  and second_bytes = (4 * 4096) + 100
  and third_bytes = (2 * 4096) + 30 in
  let first = fragments rig ~bytes:first_bytes ~fill:"first" in
  let second =
    Array.of_list (fragments rig ~bytes:second_bytes ~fill:"SECOND!")
  in
  let third = Array.of_list (fragments rig ~bytes:third_bytes ~fill:"3rd") in
  let rx, delivered = rig.make_rx () in
  let pop f = (Ip.proto rx).Protocol.pop f in
  List.iter pop (List.rev first);
  List.iter pop
    [
      second.(1); third.(1); second.(0); third.(0); third.(2); second.(2);
      second.(4); second.(3);
    ];
  check Alcotest.int "three reassemblies" 3 (Ip.reassemblies_completed rx);
  let pattern fill n = String.init n (fun i -> fill.[i mod String.length fill]) in
  match !delivered with
  | [ m2; m3; m1 ] ->
      check Alcotest.string "first datagram" (pattern "first" first_bytes)
        (Msg.to_string m1 ~as_:rig.d);
      check Alcotest.string "second datagram"
        (pattern "SECOND!" second_bytes)
        (Msg.to_string m2 ~as_:rig.d);
      check Alcotest.int "second datagram is five payloads" 5
        (List.length (Msg.leaves m2));
      check Alcotest.string "third datagram" (pattern "3rd" third_bytes)
        (Msg.to_string m3 ~as_:rig.d)
  | l -> Alcotest.failf "%d messages delivered" (List.length l)

(* A duplicate fragment goes before the copy that arrived earlier, the
   order a stable sort of the newest-first arrivals gave. *)
let test_reassembly_duplicate_offset () =
  let rig = reasm_rig () in
  let frags = Array.of_list (fragments rig ~bytes:(4096 + 100) ~fill:"dup") in
  let copy m =
    let b = Msg.to_bytes m ~as_:rig.d in
    let fb = Allocator.alloc rig.data_alloc ~npages:2 in
    Fbuf_api.write_bytes fb ~as_:rig.d ~off:0 b;
    Msg.of_fbuf fb ~off:0 ~len:(Bytes.length b)
  in
  let older = frags.(0) and newer = copy frags.(0) in
  let rx, delivered = rig.make_rx () in
  List.iter (fun f -> (Ip.proto rx).Protocol.pop f) [ older; newer; frags.(1) ];
  let id m = (List.hd (Msg.leaves m)).Msg.fbuf.Fbuf.id in
  match !delivered with
  | [ m ] ->
      check
        Alcotest.(list int)
        "newer duplicate first, then the older, then the tail"
        [ id newer; id older; id frags.(1) ]
        (List.map (fun (l : Msg.leaf) -> l.Msg.fbuf.Fbuf.id) (Msg.leaves m))
  | l -> Alcotest.failf "%d messages delivered" (List.length l)

(* ------------------------------------------------------------------ *)
(* Multi-domain stack                                                  *)
(* ------------------------------------------------------------------ *)

let test_three_domain_delivery () =
  let stack = Stacks.three_domains () in
  let msg =
    Testproto.make_message ~alloc:stack.Stacks.data_alloc
      ~as_:stack.Stacks.sender_dom ~bytes:20000 ()
  in
  stack.Stacks.send msg;
  check Alcotest.int "delivered" 1 (Testproto.received stack.Stacks.sink);
  check Alcotest.int "bytes" 20000
    (Testproto.received_bytes stack.Stacks.sink)

let test_three_domain_steady_state_no_leaks () =
  let stack = Stacks.three_domains () in
  let m = stack.Stacks.tb.Testbed.m in
  let send () =
    let msg =
      Testproto.make_message ~alloc:stack.Stacks.data_alloc
        ~as_:stack.Stacks.sender_dom ~bytes:16384 ()
    in
    stack.Stacks.send msg
  in
  send ();
  send ();
  let frames = Phys_mem.free_frames m.Machine.pmem in
  for _ = 1 to 25 do
    send ()
  done;
  check Alcotest.int "frame count stable" frames
    (Phys_mem.free_frames m.Machine.pmem)

let test_three_domain_uncached_works () =
  let stack = Stacks.three_domains ~variant:Fbuf.plain () in
  let msg =
    Testproto.make_message ~alloc:stack.Stacks.data_alloc
      ~as_:stack.Stacks.sender_dom ~bytes:12000 ()
  in
  stack.Stacks.send msg;
  check Alcotest.int "delivered" 1 (Testproto.received stack.Stacks.sink)

let test_cached_faster_than_uncached_stack () =
  let time variant =
    let stack = Stacks.three_domains ~variant () in
    let m = stack.Stacks.tb.Testbed.m in
    let send () =
      let msg =
        Testproto.make_message ~alloc:stack.Stacks.data_alloc
          ~as_:stack.Stacks.sender_dom ~bytes:65536 ()
      in
      stack.Stacks.send msg
    in
    send ();
    let t0 = Machine.now m in
    for _ = 1 to 5 do
      send ()
    done;
    Machine.now m -. t0
  in
  let cached = time Fbuf.cached_volatile in
  let uncached = time Fbuf.plain in
  Alcotest.(check bool)
    (Printf.sprintf "cached (%.0f) beats uncached (%.0f)" cached uncached)
    true (uncached > cached *. 1.3)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_any_size_survives_stack =
  QCheck.Test.make ~name:"arbitrary sizes survive fragmentation/reassembly"
    ~count:40
    QCheck.(int_range 1 100_000)
    (fun bytes ->
      let tb = Testbed.create () in
      let d = Testbed.user_domain tb "d" in
      let alloc = Testbed.allocator tb ~domains:[ d ] Fbuf.cached_volatile in
      let lb = Loopback.create ~dom:d () in
      let ip =
        Ip.create ~dom:d ~below:(Loopback.proto lb) ~header_alloc:alloc
          ~pdu_size:4096 ()
      in
      Loopback.set_up lb (Ip.proto ip);
      let udp =
        Udp.create ~dom:d ~below:(Ip.proto ip) ~header_alloc:alloc ~dst_port:5 ()
      in
      Ip.set_up ip (Udp.proto udp);
      let received = ref (-1) in
      let sink =
        Testproto.sink ~dom:d ~consume:(fun m -> received := Msg.length m) ()
      in
      Udp.bind udp ~port:5 (Testproto.sink_proto sink);
      let msg = Testproto.make_message ~alloc ~as_:d ~bytes () in
      (Udp.proto udp).Protocol.push msg;
      !received = bytes)

let prop_fragment_count =
  QCheck.Test.make ~name:"fragment count = ceil((len+udp)/pdu)" ~count:60
    QCheck.(pair (int_range 1 60_000) (int_range 1000 8000))
    (fun (bytes, pdu_size) ->
      let stack = Stacks.single_domain ~pdu_size () in
      let msg =
        Testproto.make_message ~alloc:stack.Stacks.data_alloc
          ~as_:stack.Stacks.sender_dom ~bytes ()
      in
      stack.Stacks.send msg;
      let total = bytes + Udp.header_size in
      Ip.fragments_sent stack.Stacks.ip = (total + pdu_size - 1) / pdu_size)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "protocols"
    [
      ( "headers",
        [
          tc "u16 roundtrip" `Quick test_u16_roundtrip;
          tc "u32 roundtrip" `Quick test_u32_roundtrip;
          tc "prepend and peek" `Quick test_prepend_and_peek;
        ] );
      ( "single-domain",
        [
          tc "loopback delivery" `Quick test_loopback_single_domain_delivery;
          tc "payload path exercised" `Quick
            test_payload_integrity_through_stack;
          tc "fragmentation counts" `Quick test_fragmentation_counts;
          tc "small message not fragmented" `Quick
            test_small_message_not_fragmented;
          tc "reassembly byte integrity" `Quick test_reassembly_byte_integrity;
          tc "reassembly out of order" `Quick test_reassembly_out_of_order;
          tc "reassembly record reuse" `Quick test_reassembly_record_reuse;
          tc "reassembly duplicate offset" `Quick
            test_reassembly_duplicate_offset;
          tc "udp demux by port" `Quick test_udp_demux_by_port;
          tc "udp unbound port drops" `Quick test_udp_unbound_port_drops;
          tc "udp checksum validates" `Quick test_udp_checksum_validates;
          tc "udp checksum detects corruption" `Quick
            test_udp_checksum_detects_corruption;
        ] );
      ( "multi-domain",
        [
          tc "three-domain delivery" `Quick test_three_domain_delivery;
          tc "steady state no leaks" `Quick
            test_three_domain_steady_state_no_leaks;
          tc "uncached works" `Quick test_three_domain_uncached_works;
          tc "cached faster than uncached" `Quick
            test_cached_faster_than_uncached_stack;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_any_size_survives_stack;
          QCheck_alcotest.to_alcotest prop_fragment_count;
        ] );
    ]
