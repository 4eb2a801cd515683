open Fbufs_sim
module Mx = Fbufs_metrics.Metrics
module Comp = Fbufs_metrics.Component

let mem_bytes_read = Stats.counter "mem.bytes_read"
let mem_bytes_written = Stats.counter "mem.bytes_written"
let tlb_miss = Stats.counter "tlb.miss"
let tlb_mod_fault = Stats.counter "tlb.mod_fault"
let k_tlb_mod_fault = Machine.kind "tlb.mod_fault"
let k_tlb_refill = Machine.kind "tlb.refill"

let tlb_events =
  Mx.counter ~name:"fbufs_tlb_events_total"
    ~help:"TLB misses and write-protection (mod) faults taken on access"
    ~labels:[ "machine"; "event" ] ()

let note_tlb (m : Machine.t) event =
  match Machine.metrics m with
  | None -> ()
  | Some mx -> Mx.incr2 mx tlb_events m.Machine.name event

let page_size (dom : Pd.t) = dom.m.cost.Cost_model.page_size

let raise_violation (dom : Pd.t) vaddr write =
  raise (Vm_map.Protection_violation { domain = dom.name; vaddr; write })

let handle_fault (dom : Pd.t) ~vpn ~write ~vaddr =
  let hooked =
    match dom.fault_hook with Some h -> h dom ~vpn ~write | None -> false
  in
  if not hooked then
    match Vm_map.fault dom.map ~vpn ~write with
    | Vm_map.Resolved -> ()
    | Vm_map.Violation -> raise_violation dom vaddr write

(* Translate a virtual address to its physical frame, performing the full
   TLB / pmap / fault dance with charges. Returns the frame only (callers
   compute the page offset themselves): the pair this used to return was a
   fresh heap block on every simulated load/store. [attempt] is top-level
   with its context passed as arguments for the same reason: a local
   retry closure would be allocated on every translation. *)
let rec attempt (dom : Pd.t) pmap ~asid ~vpn ~write ~vaddr depth =
  let m = dom.m in
  if depth > 4 then failwith "Access.translate: fault loop (mechanism bug)"
  else
    match Tlb.probe m.tlb ~asid ~vpn ~write with
    | Tlb.Hit -> (
        match Pmap.word pmap ~vpn with
        | -1 ->
            if Tlb.pending_covers m.tlb ~asid ~vpn then begin
              (* Legal deferral window: the translation was removed with
                 its shootdown queued. Fault handling is the sequence
                 point that resolves it — re-establishing the mapping
                 runs [Pmap.enter], which either cancels the pending
                 (identical translation: this very TLB entry is valid
                 again, and the retry hits without paying a refill) or
                 shoots the stale entry down before the new translation
                 lands. *)
              handle_fault dom ~vpn ~write ~vaddr;
              attempt dom pmap ~asid ~vpn ~write ~vaddr (depth + 1)
            end
            else
              (* A TLB hit without a pmap entry and no queued shootdown
                 means one was missed; treat as fatal mechanism bug. *)
              failwith "Access.translate: TLB/pmap inconsistency"
        | w -> Pmap.frame w)
    | Tlb.Miss ->
        Machine.charge ~kind:k_tlb_refill ~comp:Comp.Tlb_flush m
          m.cost.Cost_model.tlb_refill;
        Stats.incr m.stats tlb_miss;
        note_tlb m "miss";
        let w = Pmap.word pmap ~vpn in
        if w <> -1 && ((not write) || Pmap.writable w) then begin
          Tlb.insert m.tlb ~asid ~vpn ~writable:(Pmap.writable w);
          Pmap.frame w
        end
        else begin
          handle_fault dom ~vpn ~write ~vaddr;
          attempt dom pmap ~asid ~vpn ~write ~vaddr (depth + 1)
        end
    | Tlb.Hit_readonly ->
        Machine.charge ~kind:k_tlb_mod_fault ~comp:Comp.Tlb_flush m
          m.cost.Cost_model.tlb_mod_fault;
        Stats.incr m.stats tlb_mod_fault;
        note_tlb m "mod_fault";
        let w = Pmap.word pmap ~vpn in
        if w <> -1 && Pmap.writable w then begin
          (* Permission was upgraded since the entry was cached. *)
          Tlb.insert m.tlb ~asid ~vpn ~writable:true;
          Pmap.frame w
        end
        else begin
          handle_fault dom ~vpn ~write ~vaddr;
          attempt dom pmap ~asid ~vpn ~write ~vaddr (depth + 1)
        end

let translate (dom : Pd.t) ~vaddr ~write =
  attempt dom (Vm_map.pmap dom.map) ~asid:(Pd.asid dom)
    ~vpn:(vaddr / page_size dom) ~write ~vaddr 0

(* [word_us] is the per-word sum precomputed once per machine, so this
   passes a float that is already boxed. *)
let charge_word (dom : Pd.t) =
  let m = dom.m in
  Machine.charge ~kind:Machine.untyped ~comp:Comp.Touch m m.Machine.word_us

(* The word accessors assemble the 32-bit value a byte at a time rather
   than via [Bytes.get_int32_le]/[set_int32_le]: the [Int32] round trip
   boxes on every access, and these two functions are the per-word unit of
   every touch loop in the experiments. *)
let read_word dom ~vaddr =
  let ps = page_size dom in
  let off = vaddr mod ps in
  if off + 4 > ps then invalid_arg "Access.read_word: crosses page boundary";
  charge_word dom;
  let frame = translate dom ~vaddr ~write:false in
  let b = Phys_mem.data dom.m.pmem frame in
  Char.code (Bytes.unsafe_get b off)
  lor (Char.code (Bytes.unsafe_get b (off + 1)) lsl 8)
  lor (Char.code (Bytes.unsafe_get b (off + 2)) lsl 16)
  lor (Char.code (Bytes.unsafe_get b (off + 3)) lsl 24)

let write_word dom ~vaddr v =
  let ps = page_size dom in
  let off = vaddr mod ps in
  if off + 4 > ps then invalid_arg "Access.write_word: crosses page boundary";
  charge_word dom;
  let frame = translate dom ~vaddr ~write:true in
  let b = Phys_mem.data dom.m.pmem frame in
  Bytes.unsafe_set b off (Char.unsafe_chr (v land 0xFF));
  Bytes.unsafe_set b (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF));
  Bytes.unsafe_set b (off + 2) (Char.unsafe_chr ((v lsr 16) land 0xFF));
  Bytes.unsafe_set b (off + 3) (Char.unsafe_chr ((v lsr 24) land 0xFF))

(* The bulk loops below walk the page segments of a range as top-level
   recursions with their context as arguments: a local loop closure, or
   a callback over the segments, would be a heap block per call. Each
   segment translates, then charges [seg] bytes through
   [Machine.charge_n] (the float [float_of_int seg *. per_byte], never
   boxed), then moves the bytes. *)

let rec read_segs (dom : Pd.t) va out pos remaining =
  if remaining > 0 then begin
    let m = dom.m in
    let ps = page_size dom in
    let off = va mod ps in
    let seg = min remaining (ps - off) in
    let frame = translate dom ~vaddr:va ~write:false in
    Machine.charge_n ~kind:Machine.untyped ~comp:Comp.Copy m seg
      m.cost.Cost_model.copy_per_byte;
    Bytes.blit (Phys_mem.data m.pmem frame) off out pos seg;
    read_segs dom (va + seg) out (pos + seg) (remaining - seg)
  end

let read_into (dom : Pd.t) ~vaddr ~len out ~pos =
  if len < 0 || pos < 0 || pos > Bytes.length out - len then
    invalid_arg
      (Printf.sprintf "Access.read_into: %d bytes at %d of a %d-byte buffer"
         len pos (Bytes.length out));
  read_segs dom vaddr out pos len;
  Stats.add dom.m.stats mem_bytes_read len

let read_bytes dom ~vaddr ~len =
  let out = Bytes.create len in
  read_into dom ~vaddr ~len out ~pos:0;
  out

(* [charged] is false for [blit]'s write side, which its read side pays
   for. *)
let rec write_segs ~charged (dom : Pd.t) va src pos remaining =
  if remaining > 0 then begin
    let m = dom.m in
    let ps = page_size dom in
    let off = va mod ps in
    let seg = min remaining (ps - off) in
    let frame = translate dom ~vaddr:va ~write:true in
    if charged then
      Machine.charge_n ~kind:Machine.untyped ~comp:Comp.Copy m seg
        m.cost.Cost_model.copy_per_byte;
    Bytes.blit src pos (Phys_mem.data m.pmem frame) off seg;
    write_segs ~charged dom (va + seg) src (pos + seg) (remaining - seg)
  end

let write_bytes (dom : Pd.t) ~vaddr src =
  let len = Bytes.length src in
  write_segs ~charged:true dom vaddr src 0 len;
  Stats.add dom.m.stats mem_bytes_written len

let write_string dom ~vaddr s = write_bytes dom ~vaddr (Bytes.of_string s)

let blit ~src ~src_vaddr ~dst ~dst_vaddr ~len =
  (* One physical copy: read side is charged, write side reuses the data
     without a second per-byte charge (a real bcopy touches each byte once
     on each side; copy_per_byte is calibrated for a full load+store). *)
  let data = read_bytes src ~vaddr:src_vaddr ~len in
  write_segs ~charged:false dst dst_vaddr data 0 len

(* [odd] is the unpaired high byte carried into the next range, or -1. *)
type checksum_state = { sum : int; odd : int }

let checksum_start = { sum = 0; odd = -1 }

let rec checksum_segs (dom : Pd.t) va remaining sum odd =
  if remaining <= 0 then { sum; odd }
  else begin
    let m = dom.m in
    let ps = page_size dom in
    let off = va mod ps in
    let len = min remaining (ps - off) in
    let frame = translate dom ~vaddr:va ~write:false in
    Machine.charge_n ~kind:Machine.untyped ~comp:Comp.Copy m len
      m.cost.Cost_model.checksum_per_byte;
    let b = Phys_mem.data m.pmem frame in
    let sum = ref sum in
    let i = ref 0 in
    if odd >= 0 then begin
      sum := !sum + ((odd lsl 8) lor Char.code (Bytes.get b off));
      i := 1
    end;
    while !i + 1 < len do
      sum :=
        !sum
        + ((Char.code (Bytes.get b (off + !i)) lsl 8)
          lor Char.code (Bytes.get b (off + !i + 1)));
      i := !i + 2
    done;
    let odd = if !i < len then Char.code (Bytes.get b (off + !i)) else -1 in
    checksum_segs dom (va + len) (remaining - len) !sum odd
  end

let checksum_feed dom ~vaddr ~len state =
  checksum_segs dom vaddr len state.sum state.odd

let checksum_finish state =
  let sum =
    if state.odd >= 0 then state.sum + (state.odd lsl 8) else state.sum
  in
  let fold s =
    let s = (s land 0xFFFF) + (s lsr 16) in
    (s land 0xFFFF) + (s lsr 16)
  in
  lnot (fold sum) land 0xFFFF

let checksum dom ~vaddr ~len =
  checksum_finish (checksum_feed dom ~vaddr ~len checksum_start)

let touch_read dom ~vaddr ~npages =
  let ps = page_size dom in
  for i = 0 to npages - 1 do
    ignore (read_word dom ~vaddr:(vaddr + (i * ps)))
  done

let touch_write dom ~vaddr ~npages =
  let ps = page_size dom in
  for i = 0 to npages - 1 do
    write_word dom ~vaddr:(vaddr + (i * ps)) (0xF00D + i)
  done

let can_access (dom : Pd.t) ~vaddr ~write =
  let ps = page_size dom in
  let p = Vm_map.prot_of dom.Pd.map ~vpn:(vaddr / ps) in
  if write then Prot.can_write p else Prot.can_read p
