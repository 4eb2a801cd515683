open Fbufs_vm

(* Proxies are ordinary Protocol.t values; the connection lives only in
   the forwarding closure, so a dropped graph takes its world with it. *)
let make region ~from_dom ~(target : Protocol.t) ~mode ~free_after ~dir =
  let conn =
    Fbufs_ipc.Ipc.connect region ~src:from_dom ~dst:target.Protocol.dom ?mode
      ~auto_free_dst:true ()
  in
  let name =
    Printf.sprintf "%s-proxy:%s->%s:%s" dir from_dom.Pd.name
      target.Protocol.dom.Pd.name target.Protocol.name
  in
  (* Built once per proxy; it reads the target's (mutable) entry point
     on every call. *)
  let invoke =
    match dir with
    | "push" -> fun m -> target.Protocol.push m
    | _ -> fun m -> target.Protocol.pop m
  in
  let forward msg =
    Fbufs_ipc.Ipc.call conn msg ~handler:invoke;
    if free_after then Fbufs_msg.Msg.free_all msg ~dom:from_dom
  in
  match dir with
  | "push" -> Protocol.create ~name ~dom:from_dom ~push:forward ()
  | _ -> Protocol.create ~name ~dom:from_dom ~pop:forward ()

let push_proxy region ~from_dom ~target ?mode ?(free_after = true) () =
  make region ~from_dom ~target ~mode ~free_after ~dir:"push"

let pop_proxy region ~from_dom ~target ?mode ?(free_after = true) () =
  make region ~from_dom ~target ~mode ~free_after ~dir:"pop"
