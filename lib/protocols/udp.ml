open Fbufs_sim
module Msg = Fbufs_msg.Msg

let udp_bad_header = Stats.counter "udp.bad_header"
let udp_checksum_failure = Stats.counter "udp.checksum_failure"
let udp_no_port = Stats.counter "udp.no_port"
let udp_short_pdu = Stats.counter "udp.short_pdu"

let header_size = 12
let magic = 0x5544

type t = {
  dom : Fbufs_vm.Pd.t;
  below : Fbufs_xkernel.Protocol.t;
  header_alloc : Fbufs.Allocator.t;
  src_port : int;
  dst_port : int;
  checksum : bool;
  proto : Fbufs_xkernel.Protocol.t;
  ports : (int, Fbufs_xkernel.Protocol.t) Hashtbl.t;
  mutable checksum_failures : int;
  mutable delivered : int;
  mutable no_port_drops : int;
}

let proto t = t.proto
let bind t ~port p = Hashtbl.replace t.ports port p
let checksum_failures t = t.checksum_failures
let delivered t = t.delivered
let no_port_drops t = t.no_port_drops

let push t msg =
  let m = Fbufs_xkernel.Protocol.machine t.proto in
  let csp = Machine.span_enter m ~domain:t.dom.Fbufs_vm.Pd.name "udp.push" in
  Fbufs_xkernel.Protocol.charge_op t.proto;
  let csum = if t.checksum then Msg.checksum msg ~as_:t.dom else 0 in
  let b = Bytes.create header_size in
  Header.set_u16 b 0 magic;
  Header.set_u16 b 2 t.src_port;
  Header.set_u16 b 4 t.dst_port;
  Header.set_u32 b 6 (Msg.length msg);
  Header.set_u16 b 10 csum;
  let hdr_fb, pdu = Header.prepend ~alloc:t.header_alloc ~as_:t.dom b msg in
  t.below.Fbufs_xkernel.Protocol.push pdu;
  Header.release_header ~dom:t.dom hdr_fb;
  Machine.span_exit m csp

let pop t pdu =
  let m = Fbufs_xkernel.Protocol.machine t.proto in
  let csp = Machine.span_enter m ~domain:t.dom.Fbufs_vm.Pd.name "udp.pop" in
  Fbufs_xkernel.Protocol.charge_op t.proto;
  let stats = (Fbufs_xkernel.Protocol.machine t.proto).Machine.stats in
  (if Msg.length pdu < header_size then Stats.incr stats udp_short_pdu
  else begin
    let hdr = Header.peek pdu ~as_:t.dom ~len:header_size in
    if Header.get_u16 hdr 0 <> magic then Stats.incr stats udp_bad_header
    else begin
      let dst = Header.get_u16 hdr 4 in
      let len = Header.get_u32 hdr 6 in
      let csum = Header.get_u16 hdr 10 in
      let payload = Msg.truncate (Msg.clip pdu header_size) len in
      Header.free_stripped ~dom:t.dom ~pdu ~payload;
      let ok =
        csum = 0
        || Msg.checksum payload ~as_:t.dom = csum
      in
      if not ok then begin
        t.checksum_failures <- t.checksum_failures + 1;
        Stats.incr stats udp_checksum_failure
      end
      else
        match Hashtbl.find t.ports dst with
        | up ->
            t.delivered <- t.delivered + 1;
            up.Fbufs_xkernel.Protocol.pop payload
        | exception Not_found ->
            t.no_port_drops <- t.no_port_drops + 1;
            Stats.incr stats udp_no_port
    end
  end);
  Machine.span_exit m csp

let create ~dom ~below ~header_alloc ?(src_port = 1000) ?(dst_port = 2000)
    ?(checksum = false) () =
  let proto = Fbufs_xkernel.Protocol.create ~name:"udp" ~dom () in
  let t =
    {
      dom;
      below;
      header_alloc;
      src_port;
      dst_port;
      checksum;
      proto;
      ports = Hashtbl.create 8;
      checksum_failures = 0;
      delivered = 0;
      no_port_drops = 0;
    }
  in
  proto.Fbufs_xkernel.Protocol.push <- push t;
  proto.Fbufs_xkernel.Protocol.pop <- pop t;
  t
