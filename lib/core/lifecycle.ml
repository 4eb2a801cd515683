open Fbufs_sim
open Fbufs_vm

let lifecycle_orphan_ref_released =
  Stats.counter "lifecycle.orphan_ref_released"

let orphaned_references region dom =
  List.fold_left
    (fun acc fb -> acc + Fbuf.ref_count fb dom)
    0
    (Region.registered_fbufs region)

let terminate_domain region (dom : Pd.t) ~allocators =
  List.iter
    (fun a ->
      if not (Pd.equal (Allocator.owner a) dom) then
        invalid_arg
          "Lifecycle.terminate_domain: allocator owned by another domain")
    allocators;
  let m = Region.machine region in
  Machine.charge ~kind:Machine.untyped ~comp:Fbufs_metrics.Component.Unmap m
    m.Machine.cost.Cost_model.vm_range_op;
  dom.Pd.live <- false;
  (* Relinquish the references the dead domain held on others' buffers;
     freeing an active buffer's last reference parks or tears it down
     exactly as a proper free would. *)
  List.iter
    (fun (fb : Fbuf.t) ->
      if fb.Fbuf.state = Fbuf.Active then
        for _ = 1 to Fbuf.ref_count fb dom do
          Stats.incr m.Machine.stats lifecycle_orphan_ref_released;
          Transfer.free fb ~dom
        done)
    (Region.registered_fbufs region);
  (* Destroy the domain's own communication endpoints. *)
  List.iter Allocator.teardown allocators
