open Fbufs_vm

type variant = { cached : bool; volatile : bool }

let cached_volatile = { cached = true; volatile = true }
let volatile_only = { cached = false; volatile = true }
let cached_only = { cached = true; volatile = false }
let plain = { cached = false; volatile = false }

let variant_name v =
  match (v.cached, v.volatile) with
  | true, true -> "cached/volatile"
  | false, true -> "volatile"
  | true, false -> "cached"
  | false, false -> "plain"

type state = Active | Cached_free | Dead

type time = { mutable us : float }

type t = {
  id : int;
  base_vpn : int;
  npages : int;
  variant : variant;
  path : Path.t;
  m : Fbufs_sim.Machine.t;
  mutable state : state;
  mutable secured : bool;
  refs : (int, int) Hashtbl.t;
  mutable total_refs : int;
  mutable mapped_in : Pd.t list;
  mutable on_all_freed : (t -> unit) option;
  last_alloc : time;
  mutable xfer : int;  (* causal transfer carrying this fbuf; 0 = none *)
  mutable walk : int;  (* stamp of the last message walk that visited it *)
  mutable accounted : bool;
      (* pages charged to the path's held-page account (buffer-sharing);
         set at allocation, cleared when the buffer parks without frames,
         is paged out, or dies — see Allocator *)
}

let make ~m ~id ~base_vpn ~npages ~variant ~path =
  {
    id;
    base_vpn;
    npages;
    variant;
    path;
    m;
    state = Active;
    secured = false;
    refs = Hashtbl.create 4;
    total_refs = 0;
    mapped_in = [];
    on_all_freed = None;
    last_alloc = { us = 0.0 };
    xfer = 0;
    walk = 0;
    accounted = false;
  }

let originator t = Path.originator t.path
let vaddr t = t.base_vpn * t.m.Fbufs_sim.Machine.cost.Fbufs_sim.Cost_model.page_size
let size t = t.npages * t.m.Fbufs_sim.Machine.cost.Fbufs_sim.Cost_model.page_size

(* [find], not [find_opt]: a hit allocates nothing. *)
let ref_count t (d : Pd.t) =
  match Hashtbl.find t.refs d.Pd.id with n -> n | exception Not_found -> 0

let total_refs t = t.total_refs

let refcount_ops =
  Fbufs_metrics.Metrics.counter ~name:"fbufs_refcount_ops_total"
    ~help:"Fbuf reference-count churn (grants and releases)"
    ~labels:[ "machine"; "op" ] ()

let note_ref t op =
  let m = t.m in
  match Fbufs_sim.Machine.metrics m with
  | None -> ()
  | Some mx ->
      Fbufs_metrics.Metrics.incr2 mx refcount_ops m.Fbufs_sim.Machine.name op

(* A domain's entry stays at 0 after its last reference drops, so the
   next grant overwrites it in place instead of adding a bucket. *)
let add_ref t (d : Pd.t) =
  Hashtbl.replace t.refs d.Pd.id (ref_count t d + 1);
  t.total_refs <- t.total_refs + 1;
  note_ref t "add"

let drop_ref t (d : Pd.t) =
  let n = ref_count t d in
  if n <= 0 then
    invalid_arg
      (Printf.sprintf "Fbuf.drop_ref: %s holds no reference to fbuf#%d"
         d.Pd.name t.id);
  Hashtbl.replace t.refs d.Pd.id (n - 1);
  t.total_refs <- t.total_refs - 1;
  note_ref t "drop"

let is_mapped_in t (d : Pd.t) =
  Pd.equal d (originator t) || Pd.mem d t.mapped_in

let pp ppf t =
  Format.fprintf ppf "fbuf#%d[%s,%dp@%#x,%s]" t.id
    (variant_name t.variant) t.npages (vaddr t)
    (match t.state with
    | Active -> "active"
    | Cached_free -> "cached-free"
    | Dead -> "dead")
