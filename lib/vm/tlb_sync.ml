open Fbufs_sim
module Comp = Fbufs_metrics.Component

let tlb_shootdown_batch = Stats.counter "tlb.shootdown_batch"
let k_tlb_shootdown_batch = Machine.kind "tlb.shootdown_batch"

(* Drain the machine's deferred-shootdown queue at a synchronization
   barrier. One batched charge covers the whole queue — base (the
   trap/synchronization cost, paid once) plus a small per-entry
   increment — which is the entire point of deferring: n queued
   invalidations cost far less than n standalone shootdowns, and the
   ones cancelled by reuse before a barrier cost nothing at all. *)
let drain m =
  let n = Tlb.invalidate_pending m.Machine.tlb in
  if n > 0 then begin
    Machine.charge ~kind:k_tlb_shootdown_batch ~comp:Comp.Tlb_flush m
      (m.cost.Cost_model.tlb_shootdown_batch_base
      +. (float_of_int n *. m.cost.Cost_model.tlb_shootdown_batch_entry));
    Stats.incr m.stats tlb_shootdown_batch;
    for _ = 1 to n do
      Pmap.note_shootdown m ~reason:"batch"
    done
  end
