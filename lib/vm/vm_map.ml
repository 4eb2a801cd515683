open Fbufs_sim
module Mx = Fbufs_metrics.Metrics
module Comp = Fbufs_metrics.Component

let vm_cow_claim = Stats.counter "vm.cow_claim"
let vm_cow_copy = Stats.counter "vm.cow_copy"
let vm_fault = Stats.counter "vm.fault"
let vm_page_free = Stats.counter "vm.page_free"
let vm_page_op = Stats.counter "vm.page_op"
let vm_range_op = Stats.counter "vm.range_op"
let vm_zero_fill = Stats.counter "vm.zero_fill"
let k_page_alloc = Machine.kind "page.alloc"
let k_page_zero = Machine.kind "page.zero"
let k_vm_cow_copy = Machine.kind "vm.cow_copy"
let k_vm_fault_trap = Machine.kind "vm.fault_trap"
let k_vm_page_op = Machine.kind "vm.page_op"
let k_vm_range_op = Machine.kind "vm.range_op"

(* A map entry is one immediate int, stored in place in the page table:
   bits 0-1 the protection (0 none, 1 read-only, 2 read-write), bit 2
   zero-fill, bit 3 copy-on-write, and the bits above them the backing
   frame plus one (0: no frame yet). Changing an entry writes a new word;
   nothing is allocated per page. *)
let prot_code = function
  | Prot.No_access -> 0
  | Prot.Read_only -> 1
  | Prot.Read_write -> 2

let encode ~frame ~prot ~cow ~zero_fill =
  ((frame + 1) lsl 4)
  lor (if cow then 8 else 0)
  lor (if zero_fill then 4 else 0)
  lor prot_code prot

let frame w = (w lsr 4) - 1

let prot w =
  match w land 3 with
  | 0 -> Prot.No_access
  | 1 -> Prot.Read_only
  | _ -> Prot.Read_write

let cow w = w land 8 <> 0
let zero_fill w = w land 4 <> 0

type t = {
  m : Machine.t;
  name : string;
  pmap : Pmap.t;
  table : Ptable.t;
  mutable next_private_vpn : int;
}

exception
  Protection_violation of { domain : string; vaddr : int; write : bool }

(* Private mappings start at 16 MB; the fbuf region (managed by the core
   library) lives at a much higher, globally agreed address. *)
let private_base_vpn = 0x1000

let create m ~name ~asid =
  {
    m;
    name;
    pmap = Pmap.create m ~asid;
    table = Ptable.create ();
    next_private_vpn = private_base_vpn;
  }

let name t = t.name
let pmap t = t.pmap
let machine t = t.m

let vm_ops =
  Mx.counter ~name:"fbufs_vm_ops_total"
    ~help:"VM map operations by granularity (range setup vs per-page)"
    ~labels:[ "machine"; "op" ] ()

let batched_saved =
  Mx.counter ~name:"fbufs_vm_batched_pages_saved_total"
    ~help:
      "Range-op invocations avoided by batching multi-page VM operations \
       (pages beyond the first per batched call)"
    ~labels:[ "machine" ] ()

let note_vm_op t op =
  match Machine.metrics t.m with
  | None -> ()
  | Some mx -> Mx.incr2 mx vm_ops t.m.Machine.name op

let note_batch t npages =
  if npages > 1 then
    match Machine.metrics t.m with
    | None -> ()
    | Some mx ->
        Mx.add1 mx batched_saved t.m.Machine.name (float_of_int (npages - 1))

let charge_range_op ?comp t =
  Machine.charge ~kind:k_vm_range_op ?comp t.m t.m.cost.Cost_model.vm_range_op;
  Stats.incr t.m.stats vm_range_op;
  note_vm_op t "range"

let charge_page_op ?comp t =
  Machine.charge ~kind:k_vm_page_op ?comp t.m t.m.cost.Cost_model.vm_page_op;
  Stats.incr t.m.stats vm_page_op;
  note_vm_op t "page"

let reserve_private t ~npages =
  charge_range_op ~comp:Comp.Alloc t;
  let base = t.next_private_vpn in
  t.next_private_vpn <- base + npages;
  base

let map_zero_fill t ~vpn ~npages =
  charge_range_op ~comp:Comp.Map t;
  note_batch t npages;
  for i = 0 to npages - 1 do
    charge_page_op ~comp:Comp.Map t;
    Ptable.set t.table (vpn + i)
      (encode ~frame:(-1) ~prot:Prot.Read_write ~cow:false ~zero_fill:true)
  done

let map_frame t ~vpn ~frame ~prot ~eager =
  charge_page_op ~comp:Comp.Map t;
  Ptable.set t.table vpn (encode ~frame ~prot ~cow:false ~zero_fill:false);
  if eager then
    Pmap.enter t.pmap ~vpn ~frame ~writable:(Prot.can_write prot)

let protect t ~vpn ~npages ~prot =
  charge_range_op ~comp:Comp.Secure t;
  note_batch t npages;
  for i = 0 to npages - 1 do
    match Ptable.find t.table (vpn + i) with
    | -1 -> invalid_arg "Vm_map.protect: page not mapped"
    | w ->
        charge_page_op ~comp:Comp.Secure t;
        Ptable.set t.table (vpn + i)
          (encode ~frame:(frame w) ~prot ~cow:(cow w) ~zero_fill:(zero_fill w));
        if Pmap.word t.pmap ~vpn:(vpn + i) <> -1 then
          if Prot.can_read prot then
            Pmap.protect t.pmap ~vpn:(vpn + i)
              ~writable:(Prot.can_write prot && not (cow w))
          else Pmap.remove t.pmap ~vpn:(vpn + i)
  done

let free_frame t f =
  (* The free-pool charge applies only when this reference is the last. *)
  if Phys_mem.refcount t.m.pmem f = 1 then begin
    Machine.charge ~kind:Machine.untyped ~comp:Comp.Alloc t.m
      t.m.cost.Cost_model.page_free;
    Stats.incr t.m.stats vm_page_free
  end;
  Phys_mem.decref t.m.pmem f

let unmap t ~vpn ~npages ~free_frames =
  charge_range_op ~comp:Comp.Unmap t;
  note_batch t npages;
  (* Walk the range backwards so freed frames land on the physical
     free stack in reverse page order: a subsequent same-size allocation
     of this address range pops them back page 0..n-1 and re-creates the
     identical vpn -> frame translations, which is what turns the queued
     TLB shootdowns into cancellations. Per-page charges are symmetric,
     so the direction is cost-invisible. *)
  for i = npages - 1 downto 0 do
    match Ptable.find t.table (vpn + i) with
    | -1 -> ()
    | w ->
        charge_page_op ~comp:Comp.Unmap t;
        Pmap.remove t.pmap ~vpn:(vpn + i);
        if free_frames && frame w <> -1 then free_frame t (frame w);
        Ptable.remove t.table (vpn + i)
  done

let copy_cow ~src ~dst ~vpn ~npages =
  charge_range_op ~comp:Comp.Map src;
  charge_range_op ~comp:Comp.Map dst;
  note_batch src npages;
  for i = 0 to npages - 1 do
    let p = vpn + i in
    match Ptable.find src.table p with
    | -1 -> invalid_arg "Vm_map.copy_cow: source page not mapped"
    | w -> (
        charge_page_op ~comp:Comp.Map src;
        charge_page_op ~comp:Comp.Map dst;
        match frame w with
        | -1 ->
            (* Unmaterialized zero-fill page: both sides keep private
               zero-fill semantics; no sharing needed. *)
            Ptable.set dst.table p
              (encode ~frame:(-1) ~prot:(prot w) ~cow:false ~zero_fill:true)
        | f ->
            Phys_mem.incref src.m.pmem f;
            (* Source first: when [src == dst] the destination's entry is
               the one that stands. *)
            Ptable.set src.table p
              (encode ~frame:f ~prot:(prot w) ~cow:true
                 ~zero_fill:(zero_fill w));
            Ptable.set dst.table p
              (encode ~frame:f ~prot:(prot w) ~cow:true ~zero_fill:false);
            (* Lazy physical-map update: invalidate rather than downgrade,
               leaving both sides to fault their entries back in. *)
            Pmap.remove src.pmap ~vpn:p)
  done

let convert_zero_fill t ~vpn ~npages =
  charge_range_op ~comp:Comp.Unmap t;
  note_batch t npages;
  for i = 0 to npages - 1 do
    match Ptable.find t.table (vpn + i) with
    | -1 -> invalid_arg "Vm_map.convert_zero_fill: page not mapped"
    | w ->
        charge_page_op ~comp:Comp.Unmap t;
        Pmap.remove t.pmap ~vpn:(vpn + i);
        if frame w <> -1 then free_frame t (frame w);
        Ptable.set t.table (vpn + i)
          (encode ~frame:(-1) ~prot:(prot w) ~cow:false ~zero_fill:true)
  done

let mapped t ~vpn = Ptable.mem t.table vpn

let prot_of t ~vpn =
  match Ptable.find t.table vpn with -1 -> Prot.No_access | w -> prot w

let frame_of t ~vpn =
  match Ptable.find t.table vpn with -1 -> -1 | w -> frame w

let entry_count t = Ptable.length t.table

let release_range t ~vpn ~npages = unmap t ~vpn ~npages ~free_frames:true

type fault_result = Resolved | Violation

let trace_fault t ~vpn ~write outcome =
  if Machine.tracing t.m then
    Machine.trace_instant t.m ~domain:t.name
      ~args:
        [
          ("vpn", Fbufs_trace.Trace.Int vpn);
          ("write", Fbufs_trace.Trace.Str (if write then "w" else "r"));
          ("outcome", Fbufs_trace.Trace.Str outcome);
        ]
      "vm.fault"

let fault t ~vpn ~write =
  Machine.charge ~kind:k_vm_fault_trap ~comp:Comp.Map t.m
    t.m.cost.Cost_model.fault_trap;
  Stats.incr t.m.stats vm_fault;
  match Ptable.find t.table vpn with
  | -1 ->
      trace_fault t ~vpn ~write "violation";
      Violation
  | w ->
      let p = prot w in
      let need = if write then Prot.can_write p else Prot.can_read p in
      if not need then begin
        trace_fault t ~vpn ~write "violation";
        Violation
      end
      else begin
        charge_page_op ~comp:Comp.Map t;
        (match frame w with
        | -1 ->
            (* Zero-fill materialization: allocate and clear a frame. *)
            assert (zero_fill w);
            Machine.charge ~kind:k_page_alloc ~comp:Comp.Alloc t.m
              t.m.cost.Cost_model.page_alloc;
            Machine.charge ~kind:k_page_zero ~comp:Comp.Zero t.m
              t.m.cost.Cost_model.page_zero;
            Stats.incr t.m.stats vm_zero_fill;
            trace_fault t ~vpn ~write "zero_fill";
            let f = Phys_mem.alloc t.m.pmem in
            Phys_mem.zero t.m.pmem f;
            Ptable.set t.table vpn
              (encode ~frame:f ~prot:p ~cow:(cow w) ~zero_fill:false);
            Pmap.enter t.pmap ~vpn ~frame:f ~writable:(Prot.can_write p)
        | f when write && cow w ->
            if Phys_mem.refcount t.m.pmem f = 1 then begin
              (* Sharing already collapsed: claim the frame in place. *)
              Stats.incr t.m.stats vm_cow_claim;
              trace_fault t ~vpn ~write "cow_claim";
              Ptable.set t.table vpn
                (encode ~frame:f ~prot:p ~cow:false
                   ~zero_fill:(zero_fill w));
              Pmap.enter t.pmap ~vpn ~frame:f ~writable:true
            end
            else begin
              (* Physical copy: the cost COW was supposed to avoid. *)
              Machine.charge ~kind:k_page_alloc ~comp:Comp.Alloc t.m
                t.m.cost.Cost_model.page_alloc;
              Machine.charge ~kind:k_vm_cow_copy ~comp:Comp.Copy t.m
                (float_of_int t.m.cost.Cost_model.page_size
                *. t.m.cost.Cost_model.copy_per_byte);
              Stats.incr t.m.stats vm_cow_copy;
              trace_fault t ~vpn ~write "cow_copy";
              let nf = Phys_mem.alloc t.m.pmem in
              Phys_mem.copy_frame t.m.pmem ~src:f ~dst:nf;
              Phys_mem.decref t.m.pmem f;
              Ptable.set t.table vpn
                (encode ~frame:nf ~prot:p ~cow:false
                   ~zero_fill:(zero_fill w));
              Pmap.enter t.pmap ~vpn ~frame:nf ~writable:true
            end
        | f ->
            (* Lazily invalidated or never-entered translation. COW pages
               are entered read-only so a later write faults again. *)
            trace_fault t ~vpn ~write "refill";
            let writable = Prot.can_write p && not (cow w) in
            Pmap.enter t.pmap ~vpn ~frame:f ~writable);
        Resolved
      end
