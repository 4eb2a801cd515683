(** A reliable transport protocol over lossy links.

    This protocol exists to exercise the fbuf property the paper derives in
    section 2.1.3: transfers have *copy* semantics precisely because "the
    passing layer may need to retain access to the buffer, for example,
    because it may need to retransmit it sometime in the future" — and with
    immutable buffers, retention is free (reference counting, no copying).

    The sender keeps its references on every in-flight message; a
    retransmission rebuilds only the header fbuf and pushes the same data
    buffers again. Acknowledgements are cumulative (go-back-N), so they
    tolerate loss of ack PDUs as well.

    Header (big-endian, 12 bytes):
    {v
    0  u16 magic 0x5254 ("RT")
    2  u8  kind: 1 = data, 2 = ack
    3  u8  reserved
    4  u32 sequence number (data) / cumulative ack (ack)
    8  u32 payload length
    v} *)

val header_size : int

type sender

val create_sender :
  dom:Fbufs_vm.Pd.t ->
  below:Fbufs_xkernel.Protocol.t ->
  header_alloc:Fbufs.Allocator.t ->
  des:Fbufs_sim.Des.t ->
  ?window:int ->
  ?timeout_us:float ->
  ?max_retries:int ->
  unit ->
  sender
(** [window] in messages (default 8); [timeout_us] retransmit timer
    (default 10000); [max_retries] per message before giving up
    (default 50). *)

val sender_proto : sender -> Fbufs_xkernel.Protocol.t
(** [push]: send a message reliably. The protocol takes over the caller's
    buffer references and releases them when the message is acknowledged —
    do not free after pushing. *)

val sender_ack_proto : sender -> Fbufs_xkernel.Protocol.t
(** Wire the receive path for acknowledgement PDUs to this [pop]. *)

val retransmissions : sender -> int
val acked : sender -> int
val in_flight : sender -> int
val failed : sender -> int
(** Messages abandoned after [max_retries]. *)

type receiver

val create_receiver :
  dom:Fbufs_vm.Pd.t ->
  ack_below:Fbufs_xkernel.Protocol.t ->
  header_alloc:Fbufs.Allocator.t ->
  unit ->
  receiver

val receiver_proto : receiver -> Fbufs_xkernel.Protocol.t
(** Wire the receive path for data PDUs to this [pop]. *)

val set_up : receiver -> Fbufs_xkernel.Protocol.t -> unit
(** In-order delivery of message payloads. *)

val delivered : receiver -> int
