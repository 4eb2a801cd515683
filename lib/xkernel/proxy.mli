(** Cross-domain proxy objects.

    When adjacent protocols live in different protection domains, the graph
    builder inserts a proxy pair: invoking the proxy forwards the message
    over {!Fbufs_ipc.Ipc} (charging control-transfer latency and moving the
    underlying fbufs with the configured transfer facility) and invokes the
    real protocol in its home domain. *)

val push_proxy :
  Fbufs.Region.t ->
  from_dom:Fbufs_vm.Pd.t ->
  target:Protocol.t ->
  ?mode:Fbufs_ipc.Ipc.mode ->
  ?free_after:bool ->
  unit ->
  Protocol.t
(** A protocol in [from_dom] whose [push] crosses into [target]'s domain
    and calls [target.push]. With [free_after] (default true), the sender's
    references on the message's buffers are released once the call
    returns, which is the normal hand-off discipline for a protocol that
    keeps no retransmission state. *)

val pop_proxy :
  Fbufs.Region.t ->
  from_dom:Fbufs_vm.Pd.t ->
  target:Protocol.t ->
  ?mode:Fbufs_ipc.Ipc.mode ->
  ?free_after:bool ->
  unit ->
  Protocol.t
(** Same for the receive direction: [pop] crosses domains upward. *)
