open Fbufs_sim
module Msg = Fbufs_msg.Msg

let ip_bad_header = Stats.counter "ip.bad_header"
let ip_frag_op = Stats.counter "ip.frag_op"
let ip_reasm_expired = Stats.counter "ip.reasm_expired"

let header_size = 20
let magic = 0x4950

(* An open datagram is dropped, with the fragments it holds, once it has
   waited [reasm_timeout_us] of simulated time since its first fragment
   (RFC 791's reassembly timer), or when opening another would leave
   more than [max_open] open. On one link the fragments of a datagram
   arrive back to back and in send order, so without loss each datagram
   completes before the next opens and neither rule fires: only a
   datagram that lost a fragment expires, and once a later datagram has
   begun to arrive it can no longer complete. The timeout is far above
   the largest datagram's flight (a 1 MB message takes about 30 ms). The
   bound holds a lossy link to the datagram being assembled and one
   that lost a fragment: with 1 MB messages, four open datagrams already
   hold more receive buffers than one domain's 64 region chunks. *)
let reasm_timeout_us = 1_000_000.0
let max_open = 2

(* One datagram in reassembly: its id, when it opened, and its fragments'
   payloads in offset order (a newer duplicate offset before the older
   one, as a stable sort of the newest-first arrivals put it). In-order
   arrival appends. *)
type reasm = {
  mutable id : int;
  opened : Fbufs.Fbuf.time;
  mutable offs : int array;
  mutable parts : Msg.t array;
  mutable n : int;
  mutable bytes : int;
  mutable total : int; (* -1 until the last fragment arrives *)
}

type t = {
  dom : Fbufs_vm.Pd.t;
  below : Fbufs_xkernel.Protocol.t;
  header_alloc : Fbufs.Allocator.t;
  pdu_size : int;
  proto : Fbufs_xkernel.Protocol.t;
  mutable up : Fbufs_xkernel.Protocol.t option;
  mutable next_id : int;
  slots : reasm array;
      (* the open datagrams, oldest first, in [slots.(0 .. nopen - 1)] *)
  mutable nopen : int;
  mutable fragments_sent : int;
  mutable reassemblies : int;
  mutable expired : int;
}

let proto t = t.proto
let set_up t p = t.up <- Some p
let fragments_sent t = t.fragments_sent
let reassemblies_completed t = t.reassemblies
let reassemblies_expired t = t.expired

let make_header ~total ~id ~off ~len ~more =
  let b = Bytes.create header_size in
  Header.set_u16 b 0 magic;
  Header.set_u32 b 2 total;
  Header.set_u32 b 6 id;
  Header.set_u32 b 10 off;
  Header.set_u32 b 14 len;
  Bytes.set b 18 (if more then '\001' else '\000');
  Bytes.set b 19 '\000';
  b

let charge_frag t =
  let m = Fbufs_xkernel.Protocol.machine t.proto in
  Machine.charge ~kind:Machine.untyped ~comp:Fbufs_metrics.Component.Proto m
    m.Machine.cost.Cost_model.frag_op;
  Stats.incr m.Machine.stats ip_frag_op

let rec send_from t ~total ~id off rest =
  let len = min t.pdu_size (Msg.length rest) in
  let frag, rest = Msg.split rest len in
  let more = not (Msg.is_empty rest) in
  if more || off > 0 then charge_frag t;
  let hdr = make_header ~total ~id ~off ~len ~more in
  let hdr_fb, pdu = Header.prepend ~alloc:t.header_alloc ~as_:t.dom hdr frag in
  t.fragments_sent <- t.fragments_sent + 1;
  t.below.Fbufs_xkernel.Protocol.push pdu;
  (* The push is synchronous: downstream consumers (driver DMA or the
     receive side of a loopback) are done with this PDU's header. *)
  Header.release_header ~dom:t.dom hdr_fb;
  if more then send_from t ~total ~id (off + len) rest

let push t msg =
  let m = Fbufs_xkernel.Protocol.machine t.proto in
  let csp = Machine.span_enter m ~domain:t.dom.Fbufs_vm.Pd.name "ip.push" in
  Fbufs_xkernel.Protocol.charge_op t.proto;
  let id = t.next_id in
  t.next_id <- t.next_id + 1;
  send_from t ~total:(Msg.length msg) ~id 0 msg;
  Machine.span_exit m csp

let deliver_up t msg =
  match t.up with
  | Some up -> up.Fbufs_xkernel.Protocol.pop msg
  | None -> failwith "Ip: no upper protocol wired"

let new_reasm () =
  {
    id = 0;
    opened = { Fbufs.Fbuf.us = 0.0 };
    offs = Array.make 4 0;
    parts = Array.make 4 Msg.empty;
    n = 0;
    bytes = 0;
    total = -1;
  }

(* A slot past the open datagrams keeps the cleared record of one that
   closed, for the next to open, so the steady state allocates no record.
   [no_reasm] marks a slot that has held none yet; it is never filled. *)
let no_reasm = new_reasm ()

let rec find_open t id i =
  if i = t.nopen then -1
  else if t.slots.(i).id = id then i
  else find_open t id (i + 1)

(* Close open slot [i]: the younger datagrams move down a slot and its
   record, cleared, goes to the first one past them. *)
let close t i =
  let r = t.slots.(i) in
  Array.blit t.slots (i + 1) t.slots i (t.nopen - i - 1);
  t.nopen <- t.nopen - 1;
  Array.fill r.parts 0 r.n Msg.empty;
  r.n <- 0;
  r.bytes <- 0;
  r.total <- -1;
  t.slots.(t.nopen) <- r

(* Drop the oldest open datagram. Its fragments are freed the way a
   stripped header is: each buffer the domain still holds, once. *)
let expire_oldest t m =
  let r = t.slots.(0) in
  for k = 0 to r.n - 1 do
    Header.free_stripped ~dom:t.dom ~pdu:r.parts.(k) ~payload:Msg.empty
  done;
  t.expired <- t.expired + 1;
  Stats.incr m.Machine.stats ip_reasm_expired;
  close t 0

(* The slot of datagram [id], opened now if it is not open. The time is
   read here, not passed in: a float argument would be boxed. *)
let open_slot t m id =
  match find_open t id 0 with
  | -1 ->
      if t.nopen = max_open then expire_oldest t m;
      let i = t.nopen in
      if t.slots.(i) == no_reasm then t.slots.(i) <- new_reasm ();
      let r = t.slots.(i) in
      r.id <- id;
      r.opened.Fbufs.Fbuf.us <- m.Machine.clock.Clock.now;
      t.nopen <- i + 1;
      i
  | i -> i

(* Insert before every fragment at [off] or beyond: an append when
   fragments arrive in order. *)
let insert r off payload =
  if r.n = Array.length r.offs then begin
    let cap = 2 * r.n in
    let offs = Array.make cap 0 and parts = Array.make cap Msg.empty in
    Array.blit r.offs 0 offs 0 r.n;
    Array.blit r.parts 0 parts 0 r.n;
    r.offs <- offs;
    r.parts <- parts
  end;
  let i = ref r.n in
  while !i > 0 && r.offs.(!i - 1) >= off do
    r.offs.(!i) <- r.offs.(!i - 1);
    r.parts.(!i) <- r.parts.(!i - 1);
    decr i
  done;
  r.offs.(!i) <- off;
  r.parts.(!i) <- payload;
  r.n <- r.n + 1

let rec join_parts r i acc =
  if i = r.n then acc else join_parts r (i + 1) (Msg.join acc r.parts.(i))

let reassemble t ~id ~total ~off ~len ~more payload =
  charge_frag t;
  let m = Fbufs_xkernel.Protocol.machine t.proto in
  let now = m.Machine.clock.Clock.now in
  while
    t.nopen > 0 && now -. t.slots.(0).opened.Fbufs.Fbuf.us >= reasm_timeout_us
  do
    expire_oldest t m
  done;
  let i = open_slot t m id in
  let r = t.slots.(i) in
  insert r off payload;
  r.bytes <- r.bytes + len;
  if not more then r.total <- total;
  if r.total >= 0 && r.bytes >= r.total then begin
    let whole = join_parts r 0 Msg.empty in
    close t i;
    t.reassemblies <- t.reassemblies + 1;
    deliver_up t whole
  end

let pop t pdu =
  let m = Fbufs_xkernel.Protocol.machine t.proto in
  let csp = Machine.span_enter m ~domain:t.dom.Fbufs_vm.Pd.name "ip.pop" in
  Fbufs_xkernel.Protocol.charge_op t.proto;
  let hdr = Header.peek pdu ~as_:t.dom ~len:header_size in
  (if Header.get_u16 hdr 0 <> magic then
    Stats.incr m.Machine.stats ip_bad_header
  else begin
    let total = Header.get_u32 hdr 2 in
    let id = Header.get_u32 hdr 6 in
    let off = Header.get_u32 hdr 10 in
    let len = Header.get_u32 hdr 14 in
    let more = Bytes.get hdr 18 = '\001' in
    let payload = Msg.truncate (Msg.clip pdu header_size) len in
    Header.free_stripped ~dom:t.dom ~pdu ~payload;
    if (not more) && off = 0 then deliver_up t payload
    else reassemble t ~id ~total ~off ~len ~more payload
  end);
  Machine.span_exit m csp

let create ~dom ~below ~header_alloc ?(pdu_size = 4096) () =
  if pdu_size <= 0 then invalid_arg "Ip.create: pdu_size must be positive";
  let proto = Fbufs_xkernel.Protocol.create ~name:"ip" ~dom () in
  let t =
    {
      dom;
      below;
      header_alloc;
      pdu_size;
      proto;
      up = None;
      next_id = 1;
      slots = Array.make max_open no_reasm;
      nopen = 0;
      fragments_sent = 0;
      reassemblies = 0;
      expired = 0;
    }
  in
  proto.Fbufs_xkernel.Protocol.push <- push t;
  proto.Fbufs_xkernel.Protocol.pop <- pop t;
  t
