(** Protocol objects: the x-kernel composition model.

    A protocol is a named object living in one protection domain with two
    entry points: [push] carries a message down the graph (send side) and
    [pop] carries one up (receive side). Protocols are composed by the
    graph builder, which assigns each one its domain, its lower neighbour,
    and the allocators its headers come from.

    Every push/pop through a real protocol charges the machine's fixed
    per-PDU protocol-processing cost ([proto_op]) via {!charge_op};
    individual protocols add their own header-access and checksum costs
    through ordinary charged memory accesses. *)

type t = {
  name : string;
  dom : Fbufs_vm.Pd.t;
  mutable push : Fbufs_msg.Msg.t -> unit;
  mutable pop : Fbufs_msg.Msg.t -> unit;
  stat : Fbufs_sim.Stats.counter;
      (** the Stats counter {!charge_op} bumps, ["proto." ^ name],
          declared once by {!create} *)
}

val create :
  name:string ->
  dom:Fbufs_vm.Pd.t ->
  ?push:(Fbufs_msg.Msg.t -> unit) ->
  ?pop:(Fbufs_msg.Msg.t -> unit) ->
  unit ->
  t
(** Entry points default to raising [Failure] ("not wired"); builders
    assign them after the graph is assembled. *)

val charge_op : t -> unit
(** Charge one [proto_op] of processing in this protocol's machine. *)

val machine : t -> Fbufs_sim.Machine.t
