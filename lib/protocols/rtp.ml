open Fbufs_sim
module Msg = Fbufs_msg.Msg
module Protocol = Fbufs_xkernel.Protocol

let rtp_retransmit = Stats.counter "rtp.retransmit"

let header_size = 12
let magic = 0x5254
let kind_data = 1
let kind_ack = 2

let make_header ~kind ~seq ~len =
  let b = Bytes.create header_size in
  Header.set_u16 b 0 magic;
  Bytes.set b 2 (Char.chr kind);
  Bytes.set b 3 '\000';
  Header.set_u32 b 4 seq;
  Header.set_u32 b 8 len;
  b

(* ------------------------------------------------------------------ *)
(* Sender                                                              *)
(* ------------------------------------------------------------------ *)

type sender = {
  dom : Fbufs_vm.Pd.t;
  below : Protocol.t;
  header_alloc : Fbufs.Allocator.t;
  des : Des.t;
  window : int;
  timeout_us : float;
  max_retries : int;
  proto : Protocol.t;
  ack_proto : Protocol.t;
  inflight : (int, Msg.t * int ref) Hashtbl.t; (* seq -> (msg, retries) *)
  pending : Msg.t Queue.t;
  mutable next_seq : int;
  mutable send_base : int; (* smallest unacked sequence *)
  mutable retransmissions : int;
  mutable acked : int;
  mutable failed : int;
}

let sender_proto s = s.proto
let sender_ack_proto s = s.ack_proto
let retransmissions s = s.retransmissions
let acked s = s.acked
let in_flight s = Hashtbl.length s.inflight
let failed s = s.failed

let transmit s ~seq msg =
  let hdr = make_header ~kind:kind_data ~seq ~len:(Msg.length msg) in
  let hdr_fb, pdu = Header.prepend ~alloc:s.header_alloc ~as_:s.dom hdr msg in
  s.below.Protocol.push pdu;
  Header.release_header ~dom:s.dom hdr_fb

let rec arm_timer s ~seq =
  Des.schedule_after s.des s.timeout_us (fun () ->
      match Hashtbl.find_opt s.inflight seq with
      | None -> () (* acknowledged in the meantime *)
      | Some (msg, retries) ->
          Machine.elapse_to ~kind:Machine.untyped s.dom.Fbufs_vm.Pd.m
            (Des.now s.des);
          if !retries >= s.max_retries then begin
            (* Give up: release the retained references. *)
            Hashtbl.remove s.inflight seq;
            s.failed <- s.failed + 1;
            Msg.free_held msg ~dom:s.dom
          end
          else begin
            incr retries;
            s.retransmissions <- s.retransmissions + 1;
            Stats.incr s.dom.Fbufs_vm.Pd.m.Machine.stats rtp_retransmit;
            (* The data buffers were retained across the first push, so a
               retransmission needs only a fresh header. *)
            transmit s ~seq msg;
            arm_timer s ~seq
          end)

let pump s =
  while
    Hashtbl.length s.inflight < s.window && not (Queue.is_empty s.pending)
  do
    let msg = Queue.pop s.pending in
    let seq = s.next_seq in
    s.next_seq <- seq + 1;
    Hashtbl.add s.inflight seq (msg, ref 0);
    transmit s ~seq msg;
    arm_timer s ~seq
  done

let handle_ack s cum_seq =
  (* Cumulative: everything at or below cum_seq is delivered. *)
  let released = ref false in
  for seq = s.send_base to cum_seq do
    match Hashtbl.find_opt s.inflight seq with
    | None -> ()
    | Some (msg, _) ->
        Hashtbl.remove s.inflight seq;
        s.acked <- s.acked + 1;
        released := true;
        Msg.free_held msg ~dom:s.dom
  done;
  if cum_seq >= s.send_base then s.send_base <- cum_seq + 1;
  if !released then pump s

let sender_pop s pdu =
  Protocol.charge_op s.ack_proto;
  if Msg.length pdu >= header_size then begin
    let hdr = Header.peek pdu ~as_:s.dom ~len:header_size in
    if Header.get_u16 hdr 0 = magic && Char.code (Bytes.get hdr 2) = kind_ack
    then handle_ack s (Header.get_u32 hdr 4)
  end

let create_sender ~dom ~below ~header_alloc ~des ?(window = 8)
    ?(timeout_us = 10_000.0) ?(max_retries = 50) () =
  let proto = Protocol.create ~name:"rtp-send" ~dom () in
  let ack_proto = Protocol.create ~name:"rtp-ack" ~dom () in
  let s =
    {
      dom;
      below;
      header_alloc;
      des;
      window;
      timeout_us;
      max_retries;
      proto;
      ack_proto;
      inflight = Hashtbl.create 32;
      pending = Queue.create ();
      next_seq = 0;
      send_base = 0;
      retransmissions = 0;
      acked = 0;
      failed = 0;
    }
  in
  proto.Protocol.push <-
    (fun msg ->
      Protocol.charge_op proto;
      Queue.add msg s.pending;
      pump s);
  ack_proto.Protocol.pop <- sender_pop s;
  s

(* ------------------------------------------------------------------ *)
(* Receiver                                                            *)
(* ------------------------------------------------------------------ *)

type receiver = {
  rdom : Fbufs_vm.Pd.t;
  ack_below : Protocol.t;
  rheader_alloc : Fbufs.Allocator.t;
  rproto : Protocol.t;
  mutable up : Protocol.t option;
  mutable expected : int;
  mutable delivered : int;
}

let receiver_proto r = r.rproto
let set_up r p = r.up <- Some p
let delivered r = r.delivered

let send_ack r ~cum_seq =
  let hdr = make_header ~kind:kind_ack ~seq:cum_seq ~len:0 in
  let hdr_fb, pdu =
    Header.prepend ~alloc:r.rheader_alloc ~as_:r.rdom hdr Msg.empty
  in
  r.ack_below.Protocol.push pdu;
  Header.release_header ~dom:r.rdom hdr_fb

let receiver_pop r pdu =
  Protocol.charge_op r.rproto;
  if Msg.length pdu < header_size then ()
  else begin
    let hdr = Header.peek pdu ~as_:r.rdom ~len:header_size in
    if Header.get_u16 hdr 0 <> magic then ()
    else if Char.code (Bytes.get hdr 2) <> kind_data then ()
    else begin
      let seq = Header.get_u32 hdr 4 in
      let len = Header.get_u32 hdr 8 in
      let payload = Msg.truncate (Msg.clip pdu header_size) len in
      Header.free_stripped ~dom:r.rdom ~pdu ~payload;
      if seq = r.expected then begin
        r.expected <- r.expected + 1;
        r.delivered <- r.delivered + 1;
        (match r.up with
        | Some up -> up.Protocol.pop payload
        | None -> Msg.free_held payload ~dom:r.rdom);
        send_ack r ~cum_seq:(r.expected - 1)
      end
      else begin
        (* Out of order or duplicate: drop, re-assert cumulative state. *)
        Msg.free_held payload ~dom:r.rdom;
        if r.expected > 0 then send_ack r ~cum_seq:(r.expected - 1)
      end
    end
  end

let create_receiver ~dom ~ack_below ~header_alloc () =
  let rproto = Protocol.create ~name:"rtp-recv" ~dom () in
  let r =
    {
      rdom = dom;
      ack_below;
      rheader_alloc = header_alloc;
      rproto;
      up = None;
      expected = 0;
      delivered = 0;
    }
  in
  rproto.Protocol.pop <- receiver_pop r;
  r
