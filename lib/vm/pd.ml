open Fbufs_sim

type t = {
  id : int;
  name : string;
  kernel : bool;
  m : Machine.t;
  map : Vm_map.t;
  mutable live : bool;
  mutable fault_hook : (t -> vpn:int -> write:bool -> bool) option;
}

let create m ?(kernel = false) name =
  let id = Machine.fresh_id m in
  let asid = Machine.fresh_asid m in
  {
    id;
    name;
    kernel;
    m;
    map = Vm_map.create m ~name ~asid;
    live = true;
    fault_hook = None;
  }

let asid t = Pmap.asid (Vm_map.pmap t.map)

let equal a b = a.id = b.id

(* Not [List.exists (equal d)]: the partial application is a closure
   allocated on every call, and transfers ask this on every send. *)
let rec mem d = function [] -> false | x :: rest -> equal d x || mem d rest

let pp ppf t =
  Format.fprintf ppf "%s#%d%s" t.name t.id (if t.kernel then "(k)" else "")
