open Fbufs_sim
module Comp = Fbufs_metrics.Component

(* Generic-facility surcharge: operating on arbitrary map entries (clip,
   validate, lock) per page, which the fbuf region's fixed layout avoids. *)
let charge_generic (dom : Pd.t) n =
  Machine.charge_n ~kind:Machine.untyped ~comp:Comp.Map dom.Pd.m n
    dom.Pd.m.Machine.cost.Cost_model.remap_page_overhead

let move ~src ~dst ~src_vpn ~npages ?dst_vpn () =
  let base =
    match dst_vpn with
    | Some v -> v
    | None -> Vm_map.reserve_private dst.Pd.map ~npages
  in
  charge_generic src npages;
  charge_generic dst npages;
  let frames =
    List.init npages (fun i ->
        match Vm_map.frame_of src.Pd.map ~vpn:(src_vpn + i) with
        | -1 -> invalid_arg "Remap.move: source page has no frame"
        | f ->
            Phys_mem.incref src.Pd.m.pmem f;
            f)
  in
  Vm_map.unmap src.Pd.map ~vpn:src_vpn ~npages ~free_frames:true;
  List.iteri
    (fun i frame ->
      Vm_map.map_frame dst.Pd.map ~vpn:(base + i) ~frame
        ~prot:Prot.Read_write ~eager:true)
    frames;
  base

let alloc_pages (dom : Pd.t) ~npages ~clear_fraction =
  let m = dom.m in
  let base = Vm_map.reserve_private dom.map ~npages in
  charge_generic dom npages;
  for i = 0 to npages - 1 do
    Machine.charge ~kind:Machine.untyped ~comp:Comp.Alloc m
      m.cost.Cost_model.page_alloc;
    let f = Phys_mem.alloc m.pmem in
    if clear_fraction > 0.0 then begin
      Machine.charge ~kind:Machine.untyped ~comp:Comp.Zero m
        (m.cost.Cost_model.page_zero *. clear_fraction);
      Phys_mem.zero m.pmem f
    end;
    Vm_map.map_frame dom.map ~vpn:(base + i) ~frame:f ~prot:Prot.Read_write
      ~eager:true
  done;
  base

let free_pages (dom : Pd.t) ~vpn ~npages =
  charge_generic dom npages;
  Vm_map.release_range dom.Pd.map ~vpn ~npages
