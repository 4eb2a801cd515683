open Fbufs_sim
open Fbufs_vm

type t = {
  name : string;
  dom : Pd.t;
  mutable push : Fbufs_msg.Msg.t -> unit;
  mutable pop : Fbufs_msg.Msg.t -> unit;
  stat : Stats.counter;
}

let not_wired name dir _ =
  failwith (Printf.sprintf "protocol %s: %s not wired" name dir)

let create ~name ~dom ?push ?pop () =
  {
    name;
    dom;
    push = (match push with Some f -> f | None -> not_wired name "push");
    pop = (match pop with Some f -> f | None -> not_wired name "pop");
    stat = Stats.counter ("proto." ^ name);
  }

let machine t = t.dom.Pd.m

let charge_op t =
  let m = machine t in
  Machine.charge ~kind:Machine.untyped ~comp:Fbufs_metrics.Component.Proto m
    m.Machine.cost.Cost_model.proto_op;
  Stats.incr m.Machine.stats t.stat
