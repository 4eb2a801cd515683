(** A simplified IP: fragmentation on push, reassembly on pop.

    Messages larger than the configured PDU size are fragmented by buffer
    editing alone — each fragment shares the original message's fbufs and
    gains a fresh 20-byte header fbuf. Reassembly joins fragment payloads
    back into the original byte stream. Both directions support messages
    far larger than 64 KB (the paper modified UDP/IP the same way).

    A datagram that cannot complete, because a fragment was lost, does not
    hold its fragments forever: it expires 1 s of simulated time after its
    first fragment arrived, or sooner when more than 2 datagrams would be
    open, and the buffers it holds are freed. Expiry is checked as
    fragments arrive and counted by the [ip.reasm_expired] counter.

    Header layout (big-endian):
    {v
    0  u16 magic 0x4950 ("IP")
    2  u32 total payload length of the original message
    6  u32 message id
    10 u32 fragment offset
    14 u32 fragment payload length
    18 u8  more-fragments flag
    19 u8  reserved
    v} *)

val header_size : int

type t

val create :
  dom:Fbufs_vm.Pd.t ->
  below:Fbufs_xkernel.Protocol.t ->
  header_alloc:Fbufs.Allocator.t ->
  ?pdu_size:int ->
  unit ->
  t
(** [pdu_size] defaults to 4096 bytes of payload per fragment (the paper's
    local-loopback configuration; the end-to-end tests use 16 KB). Raises
    [Invalid_argument] when [pdu_size] is not positive. *)

val proto : t -> Fbufs_xkernel.Protocol.t
(** Push fragments downward through [below]; wire [below]'s receive side to
    this protocol's [pop]. *)

val set_up : t -> Fbufs_xkernel.Protocol.t -> unit
(** Where completed (reassembled) messages are delivered. *)

val fragments_sent : t -> int
val reassemblies_completed : t -> int

val reassemblies_expired : t -> int
(** Datagrams dropped incomplete, by the timeout or the bound above. *)
