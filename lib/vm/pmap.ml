open Fbufs_sim
module Mx = Fbufs_metrics.Metrics
module Comp = Fbufs_metrics.Component

let pmap_enter = Stats.counter "pmap.enter"
let pmap_protect = Stats.counter "pmap.protect"
let pmap_remove = Stats.counter "pmap.remove"
let tlb_shootdown = Stats.counter "tlb.shootdown"
let k_pmap_enter = Machine.kind "pmap.enter"
let k_pmap_protect = Machine.kind "pmap.protect"
let k_pmap_remove = Machine.kind "pmap.remove"
let k_tlb_shootdown = Machine.kind "tlb.shootdown"

(* A translation is one word, [frame lsl 1 lor writable], as a hardware
   PTE is: entering, protecting and removing one rewrite a word in the
   table, and the deferred-shootdown queue records the same word. *)
type t = { m : Machine.t; asid : int; table : Ptable.t }

let encode ~frame ~writable = (frame lsl 1) lor Bool.to_int writable
let frame w = w lsr 1
let writable w = w land 1 = 1

(* Deferred/elidable shootdowns (the TLB's pending queue). On: removes of
   TLB-cached translations are queued instead of flushed and cancelled
   outright when the identical translation is re-entered; removes of
   uncached translations pay nothing. Off: every downgrade and remove
   pays the PR6-era immediate per-page shootdown, reproducing the
   paper-faithful numbers byte for byte. *)
let elision_enabled = ref true

(* Chaos fault injection for the differential checker: defer even the
   cached writable downgrade, which leaves a reachable stale *writable*
   translation over a read-only pmap entry — exactly the protection hole
   the paper's security argument forbids. The checker's TLB audit must
   catch this within one step. *)
let chaos_defer_downgrade = ref false

let pmap_ops =
  Mx.counter ~name:"fbufs_pmap_ops_total" ~help:"Pmap mutations by operation"
    ~labels:[ "machine"; "op" ] ()

let tlb_shootdowns =
  Mx.counter ~name:"fbufs_tlb_shootdowns_total"
    ~help:
      "TLB shootdowns by disposition: immediate on downgrade/remove, \
       drained in a batch, or cancelled by translation reuse"
    ~labels:[ "machine"; "reason" ] ()

let tlb_elided =
  Mx.counter ~name:"fbufs_tlb_flushes_elided_total"
    ~help:
      "TLB flushes elided because the translation was reused unchanged, \
       already evicted, or never cached"
    ~labels:[ "machine"; "reason" ] ()

let note_op_m m op =
  match Machine.metrics m with
  | None -> ()
  | Some mx -> Mx.incr2 mx pmap_ops m.Machine.name op

let note_shootdown m ~reason =
  match Machine.metrics m with
  | None -> ()
  | Some mx -> Mx.incr2 mx tlb_shootdowns m.Machine.name reason

let note_elided m ~reason =
  match Machine.metrics m with
  | None -> ()
  | Some mx -> Mx.incr2 mx tlb_elided m.Machine.name reason

let note_op t op = note_op_m t.m op

let create m ~asid = { m; asid; table = Ptable.create () }

let asid t = t.asid

let word t ~vpn = Ptable.find t.table vpn

let cached t ~vpn =
  Tlb.probe t.m.Machine.tlb ~asid:t.asid ~vpn ~write:false <> Tlb.Miss

(* One immediate per-page shootdown: the PR6-era cost, still paid for
   every non-deferrable invalidation. *)
let shoot_now t ~vpn ~reason =
  Machine.charge ~kind:k_tlb_shootdown ~comp:Comp.Tlb_flush t.m
    t.m.cost.Cost_model.tlb_shootdown;
  Stats.incr t.m.stats tlb_shootdown;
  note_shootdown t.m ~reason;
  Tlb.invalidate t.m.tlb ~asid:t.asid ~vpn

(* Each mutation is visible on the trace timeline as the Complete slice
   its [charge ~kind] emits; no separate instant is needed. *)
let enter t ~vpn ~frame ~writable =
  Machine.charge ~kind:k_pmap_enter ~comp:Comp.Map t.m
    t.m.cost.Cost_model.pmap_enter;
  Stats.incr t.m.stats pmap_enter;
  note_op t "enter";
  let w = encode ~frame ~writable in
  (match Tlb.find_pending t.m.tlb ~asid:t.asid ~vpn with
  | -1 -> ()
  | p ->
      Tlb.cancel_pending t.m.tlb ~asid:t.asid ~vpn;
      if not (cached t ~vpn) then
        (* The stale entry fell out of the TLB on its own; nothing left
           to shoot down. *)
        note_elided t.m ~reason:"evicted"
      else if p = w then begin
        (* Identical translation re-entered (fbuf reuse): the still-cached
           entry is correct again, so the queued shootdown — and the
           refill the flush would have forced — are both elided. *)
        note_shootdown t.m ~reason:"elided-cancel";
        note_elided t.m ~reason:"reuse"
      end
      else
        (* Translation changed while the old entry may still be cached:
           the deferral window ends here, immediately. *)
        shoot_now t ~vpn ~reason:"remove");
  Ptable.set t.table vpn w

let protect t ~vpn ~writable:wr =
  match Ptable.find t.table vpn with
  | -1 -> invalid_arg "Pmap.protect: no entry"
  | w ->
      Machine.charge ~kind:k_pmap_protect ~comp:Comp.Secure t.m
        t.m.cost.Cost_model.pmap_protect;
      Stats.incr t.m.stats pmap_protect;
      note_op t
        (if (not (writable w)) && wr then "protect-upgrade" else "protect");
      if writable w && not wr then begin
        if not !elision_enabled then shoot_now t ~vpn ~reason:"downgrade"
        else if cached t ~vpn then
          if !chaos_defer_downgrade then
            (* Fault injection: deferring this one is unsound (see above). *)
            Tlb.defer t.m.tlb ~asid:t.asid ~vpn ~pte:w
          else
            (* A cached writable entry another access can still use must
               die before the pmap says read-only: never deferred. *)
            shoot_now t ~vpn ~reason:"downgrade"
        else
          (* Never cached (or already evicted): the downgrade is visible
             to the next refill for free. *)
          note_elided t.m ~reason:"uncached"
      end;
      Ptable.set t.table vpn (encode ~frame:(frame w) ~writable:wr)

let remove t ~vpn =
  match Ptable.find t.table vpn with
  | -1 -> ()
  | w ->
      Machine.charge ~kind:k_pmap_remove ~comp:Comp.Unmap t.m
        t.m.cost.Cost_model.pmap_remove;
      Stats.incr t.m.stats pmap_remove;
      note_op t "remove";
      if not !elision_enabled then shoot_now t ~vpn ~reason:"remove"
      else if cached t ~vpn then
        (* Deferred-safe: the access path re-consults this pmap on every
           TLB hit, so a stale (non-writable-over-readonly) entry cannot
           be used — queue the shootdown for the next barrier, or for
           cancellation if the identical translation comes back first. *)
        Tlb.defer t.m.tlb ~asid:t.asid ~vpn ~pte:w
      else note_elided t.m ~reason:"uncached";
      Ptable.remove t.table vpn

let entry_count t = Ptable.length t.table
