(* Unit and property tests for the two-level VM system, fault handling and
   the memory access path. *)

open Fbufs_sim
open Fbufs_vm

let check = Alcotest.check

let machine () = Machine.create ~nframes:256 ()

let setup () =
  let m = machine () in
  let a = Pd.create m "a" in
  let b = Pd.create m "b" in
  (m, a, b)

let ps (m : Machine.t) = m.cost.Cost_model.page_size

(* ------------------------------------------------------------------ *)
(* Page-table entry words                                              *)
(* ------------------------------------------------------------------ *)

(* Every field packed into a word reads back as written, at the frame
   ids at both ends of physical memory, and a word written into a table
   reads back through the table's own accessors. *)
let test_pte_words_round_trip () =
  let m, a, _ = setup () in
  let last = Phys_mem.total_frames m.Machine.pmem - 1 in
  let bools = [ false; true ] in
  let prots = [ Prot.No_access; Prot.Read_only; Prot.Read_write ] in
  let pp_prot = Alcotest.testable Prot.pp Prot.equal in
  List.iter
    (fun frame ->
      List.iter
        (fun prot ->
          List.iter
            (fun cow ->
              List.iter
                (fun zero_fill ->
                  let w = Vm_map.encode ~frame ~prot ~cow ~zero_fill in
                  let what = Printf.sprintf "entry %d %s %b %b" frame
                      (Prot.to_string prot) cow zero_fill in
                  Alcotest.(check bool) (what ^ ": a word") true (w >= 0);
                  check Alcotest.int (what ^ ": frame") frame (Vm_map.frame w);
                  check pp_prot (what ^ ": prot") prot (Vm_map.prot w);
                  check Alcotest.bool (what ^ ": cow") cow (Vm_map.cow w);
                  check Alcotest.bool (what ^ ": zero_fill") zero_fill
                    (Vm_map.zero_fill w))
                bools)
            bools)
        prots)
    [ -1; 0; 1; last ];
  let vpn = 0x3000 in
  check Alcotest.int "unmapped: no frame" (-1) (Vm_map.frame_of a.Pd.map ~vpn);
  check pp_prot "unmapped: no access" Prot.No_access
    (Vm_map.prot_of a.Pd.map ~vpn);
  check Alcotest.int "no translation" (-1)
    (Pmap.word (Vm_map.pmap a.Pd.map) ~vpn);
  List.iter
    (fun frame ->
      List.iter
        (fun prot ->
          Vm_map.map_frame a.Pd.map ~vpn ~frame ~prot ~eager:false;
          check Alcotest.int "mapped frame" frame
            (Vm_map.frame_of a.Pd.map ~vpn);
          check pp_prot "mapped prot" prot (Vm_map.prot_of a.Pd.map ~vpn))
        prots;
      List.iter
        (fun writable ->
          let what = Printf.sprintf "translation %d %b" frame writable in
          let w = Pmap.encode ~frame ~writable in
          check Alcotest.int (what ^ ": frame") frame (Pmap.frame w);
          check Alcotest.bool (what ^ ": writable") writable (Pmap.writable w);
          let pmap = Vm_map.pmap a.Pd.map in
          Pmap.enter pmap ~vpn ~frame ~writable;
          check Alcotest.int (what ^ ": entered") w (Pmap.word pmap ~vpn))
        bools)
    [ 0; 1; last ]

(* ------------------------------------------------------------------ *)
(* Basic mapping and access                                            *)
(* ------------------------------------------------------------------ *)

let test_zero_fill_roundtrip () =
  let m, a, _ = setup () in
  let vpn = Vm_map.reserve_private a.Pd.map ~npages:4 in
  Vm_map.map_zero_fill a.Pd.map ~vpn ~npages:4;
  let va = vpn * ps m in
  Access.write_word a ~vaddr:va 0xDEAD;
  check Alcotest.int "read back" 0xDEAD (Access.read_word a ~vaddr:va)

let test_zero_fill_is_zero () =
  let m, a, _ = setup () in
  (* Dirty a frame through domain a, free it, then check a fresh zero-fill
     mapping reads zeros even if it recycles that frame. *)
  let vpn = Vm_map.reserve_private a.Pd.map ~npages:1 in
  Vm_map.map_zero_fill a.Pd.map ~vpn ~npages:1;
  Access.write_word a ~vaddr:(vpn * ps m) 0xFFFF;
  Vm_map.unmap a.Pd.map ~vpn ~npages:1 ~free_frames:true;
  let vpn2 = Vm_map.reserve_private a.Pd.map ~npages:1 in
  Vm_map.map_zero_fill a.Pd.map ~vpn:vpn2 ~npages:1;
  check Alcotest.int "zeroed" 0 (Access.read_word a ~vaddr:(vpn2 * ps m))

let test_zero_fill_charges_page_zero () =
  let m, a, _ = setup () in
  let vpn = Vm_map.reserve_private a.Pd.map ~npages:1 in
  Vm_map.map_zero_fill a.Pd.map ~vpn ~npages:1;
  let before = Machine.now m in
  ignore (Access.read_word a ~vaddr:(vpn * ps m));
  let cost = Machine.now m -. before in
  Alcotest.(check bool)
    (Printf.sprintf "first touch costs >= 57us (got %.1f)" cost)
    true
    (cost >= m.cost.Cost_model.page_zero)

let test_unmapped_access_violates () =
  let _, a, _ = setup () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Access.read_word a ~vaddr:0x123000);
       false
     with Vm_map.Protection_violation _ -> true)

let test_read_only_write_violates () =
  let m, a, _ = setup () in
  let f = Phys_mem.alloc m.Machine.pmem in
  let vpn = Vm_map.reserve_private a.Pd.map ~npages:1 in
  Vm_map.map_frame a.Pd.map ~vpn ~frame:f ~prot:Prot.Read_only ~eager:true;
  ignore (Access.read_word a ~vaddr:(vpn * ps m));
  Alcotest.(check bool) "write raises" true
    (try
       Access.write_word a ~vaddr:(vpn * ps m) 1;
       false
     with Vm_map.Protection_violation v -> v.write)

let test_no_access_read_violates () =
  let m, a, _ = setup () in
  let f = Phys_mem.alloc m.Machine.pmem in
  let vpn = Vm_map.reserve_private a.Pd.map ~npages:1 in
  Vm_map.map_frame a.Pd.map ~vpn ~frame:f ~prot:Prot.No_access ~eager:false;
  Alcotest.(check bool) "read raises" true
    (try
       ignore (Access.read_word a ~vaddr:(vpn * ps m));
       false
     with Vm_map.Protection_violation _ -> true)

let test_bulk_rw_cross_page () =
  let m, a, _ = setup () in
  let vpn = Vm_map.reserve_private a.Pd.map ~npages:3 in
  Vm_map.map_zero_fill a.Pd.map ~vpn ~npages:3;
  let va = (vpn * ps m) + (ps m / 2) in
  let payload = Bytes.init 8192 (fun i -> Char.chr (i land 0xFF)) in
  Access.write_bytes a ~vaddr:va payload;
  let back = Access.read_bytes a ~vaddr:va ~len:8192 in
  check Alcotest.bytes "cross-page integrity" payload back

(* [read_into] fills a window of the caller's buffer with what
   [write_bytes] stored, charges one copy per byte, and counts the bytes
   in "mem.bytes_read"; a range that does not fit raises before any
   read. *)
let test_read_into_window () =
  let m, a, _ = setup () in
  let vpn = Vm_map.reserve_private a.Pd.map ~npages:3 in
  Vm_map.map_zero_fill a.Pd.map ~vpn ~npages:3;
  let va = (vpn * ps m) + (ps m / 2) in
  let payload = Bytes.init 6000 (fun i -> Char.chr ((i * 3) land 0xFF)) in
  Access.write_bytes a ~vaddr:va payload;
  let counted () = Stats.get m.Machine.stats "mem.bytes_read" in
  let out = Bytes.make 6010 '.' in
  let read0 = counted () and busy0 = Machine.busy_us m in
  Access.read_into a ~vaddr:va ~len:6000 out ~pos:5;
  check Alcotest.string "window filled, margins untouched"
    ("....." ^ Bytes.to_string payload ^ ".....")
    (Bytes.to_string out);
  check Alcotest.int "bytes counted" (read0 + 6000) (counted ());
  check (Alcotest.float 1e-9) "one copy charge per byte"
    (6000.0 *. m.Machine.cost.Cost_model.copy_per_byte)
    (Machine.busy_us m -. busy0);
  let now = Machine.now m in
  List.iter
    (fun (len, pos) ->
      Alcotest.(check bool)
        (Printf.sprintf "len %d at %d raises" len pos)
        true
        (try
           Access.read_into a ~vaddr:va ~len out ~pos;
           false
         with Invalid_argument _ -> true))
    [ (10, 6005); (1, -1); (-1, 0); (6011, 0) ];
  check (Alcotest.float 0.0) "rejected reads charge nothing" now (Machine.now m);
  check Alcotest.int "rejected reads count nothing" (read0 + 6000) (counted ())

let test_blit_between_domains () =
  let m, a, b = setup () in
  let vpn_a = Vm_map.reserve_private a.Pd.map ~npages:2 in
  Vm_map.map_zero_fill a.Pd.map ~vpn:vpn_a ~npages:2;
  let vpn_b = Vm_map.reserve_private b.Pd.map ~npages:2 in
  Vm_map.map_zero_fill b.Pd.map ~vpn:vpn_b ~npages:2;
  Access.write_string a ~vaddr:(vpn_a * ps m) "transfer me";
  Access.blit ~src:a ~src_vaddr:(vpn_a * ps m) ~dst:b
    ~dst_vaddr:(vpn_b * ps m) ~len:11;
  check Alcotest.string "copied across" "transfer me"
    (Bytes.to_string (Access.read_bytes b ~vaddr:(vpn_b * ps m) ~len:11))

let test_checksum_known_value () =
  let m, a, _ = setup () in
  let vpn = Vm_map.reserve_private a.Pd.map ~npages:1 in
  Vm_map.map_zero_fill a.Pd.map ~vpn ~npages:1;
  (* RFC 1071 example: bytes 00 01 f2 03 f4 f5 f6 f7 -> checksum 0x220d. *)
  Access.write_bytes a ~vaddr:(vpn * ps m)
    (Bytes.of_string "\x00\x01\xf2\x03\xf4\xf5\xf6\xf7");
  check Alcotest.int "rfc1071" 0x220d
    (Access.checksum a ~vaddr:(vpn * ps m) ~len:8)

let test_checksum_odd_length () =
  let m, a, _ = setup () in
  let vpn = Vm_map.reserve_private a.Pd.map ~npages:1 in
  Vm_map.map_zero_fill a.Pd.map ~vpn ~npages:1;
  Access.write_bytes a ~vaddr:(vpn * ps m) (Bytes.of_string "\x01\x02\x03");
  (* words: 0x0102 + 0x0300 = 0x0402 -> complement 0xfbfd *)
  check Alcotest.int "odd tail padded" 0xfbfd
    (Access.checksum a ~vaddr:(vpn * ps m) ~len:3)

(* ------------------------------------------------------------------ *)
(* TLB behaviour through the access path                               *)
(* ------------------------------------------------------------------ *)

let test_tlb_miss_once_then_hits () =
  let m, a, _ = setup () in
  let vpn = Vm_map.reserve_private a.Pd.map ~npages:1 in
  Vm_map.map_zero_fill a.Pd.map ~vpn ~npages:1;
  ignore (Access.read_word a ~vaddr:(vpn * ps m));
  let misses = Stats.get m.stats "tlb.miss" in
  for _ = 1 to 10 do
    ignore (Access.read_word a ~vaddr:(vpn * ps m))
  done;
  check Alcotest.int "no further misses" misses (Stats.get m.stats "tlb.miss")

let test_asid_isolation_same_vaddr () =
  let m, a, b = setup () in
  (* Same virtual page number in two domains backed by different frames. *)
  let vpn = 0x2000 in
  let fa = Phys_mem.alloc m.Machine.pmem and fb = Phys_mem.alloc m.Machine.pmem in
  Vm_map.map_frame a.Pd.map ~vpn ~frame:fa ~prot:Prot.Read_write ~eager:true;
  Vm_map.map_frame b.Pd.map ~vpn ~frame:fb ~prot:Prot.Read_write ~eager:true;
  Access.write_word a ~vaddr:(vpn * ps m) 111;
  Access.write_word b ~vaddr:(vpn * ps m) 222;
  check Alcotest.int "a sees its own" 111 (Access.read_word a ~vaddr:(vpn * ps m));
  check Alcotest.int "b sees its own" 222 (Access.read_word b ~vaddr:(vpn * ps m))

let test_protect_downgrade_shoots_down_tlb () =
  let m, a, _ = setup () in
  let vpn = Vm_map.reserve_private a.Pd.map ~npages:1 in
  Vm_map.map_zero_fill a.Pd.map ~vpn ~npages:1;
  Access.write_word a ~vaddr:(vpn * ps m) 1;
  (* Writable translation is now cached. Downgrade must shoot it down, or a
     subsequent write would silently succeed. *)
  Vm_map.protect a.Pd.map ~vpn ~npages:1 ~prot:Prot.Read_only;
  Alcotest.(check bool) "write now violates" true
    (try
       Access.write_word a ~vaddr:(vpn * ps m) 2;
       false
     with Vm_map.Protection_violation _ -> true);
  check Alcotest.int "data unchanged" 1 (Access.read_word a ~vaddr:(vpn * ps m))

let test_protect_upgrade_mod_fault_path () =
  let m, a, _ = setup () in
  let vpn = Vm_map.reserve_private a.Pd.map ~npages:1 in
  Vm_map.map_zero_fill a.Pd.map ~vpn ~npages:1;
  Access.write_word a ~vaddr:(vpn * ps m) 1;
  Vm_map.protect a.Pd.map ~vpn ~npages:1 ~prot:Prot.Read_only;
  ignore (Access.read_word a ~vaddr:(vpn * ps m));
  Vm_map.protect a.Pd.map ~vpn ~npages:1 ~prot:Prot.Read_write;
  (* The stale read-only TLB entry causes a modification fault that the
     refill path resolves against the now-writable pmap entry. *)
  let mods = Stats.get m.stats "tlb.mod_fault" in
  Access.write_word a ~vaddr:(vpn * ps m) 2;
  check Alcotest.int "one mod fault" (mods + 1)
    (Stats.get m.stats "tlb.mod_fault");
  check Alcotest.int "write landed" 2 (Access.read_word a ~vaddr:(vpn * ps m))

(* ------------------------------------------------------------------ *)
(* Deferred shootdowns and elision                                     *)
(* ------------------------------------------------------------------ *)

(* A remove whose translation is cached queues the shootdown instead of
   paying for it; re-entering the identical translation cancels the
   pending, keeps the TLB entry live, and skips the refill a baseline
   flush-on-remove would have forced. *)
let test_deferred_remove_reenter_elides () =
  let m, a, _ = setup () in
  let pmap = Vm_map.pmap a.Pd.map in
  let asid = Pd.asid a in
  let vpn = 0x3000 in
  let f = Phys_mem.alloc m.Machine.pmem in
  Vm_map.map_frame a.Pd.map ~vpn ~frame:f ~prot:Prot.Read_write ~eager:true;
  Access.write_word a ~vaddr:(vpn * ps m) 7;
  let shoots = Stats.get m.stats "tlb.shootdown" in
  Pmap.remove pmap ~vpn;
  check Alcotest.int "no immediate shootdown" shoots
    (Stats.get m.stats "tlb.shootdown");
  Alcotest.(check bool) "shootdown queued" true
    (Tlb.pending_covers m.Machine.tlb ~asid ~vpn);
  let misses = Stats.get m.stats "tlb.miss" in
  Pmap.enter pmap ~vpn ~frame:f ~writable:true;
  Alcotest.(check bool) "pending cancelled" false
    (Tlb.pending_covers m.Machine.tlb ~asid ~vpn);
  check Alcotest.int "still no shootdown paid" shoots
    (Stats.get m.stats "tlb.shootdown");
  check Alcotest.int "read hits without a refill" 7
    (Access.read_word a ~vaddr:(vpn * ps m));
  check Alcotest.int "no tlb miss" misses (Stats.get m.stats "tlb.miss")

(* The elision guard: if the re-entered translation differs (frame or
   writability), the stale entry must be shot down, never reused. *)
let test_changed_translation_shoots_down () =
  let m, a, _ = setup () in
  let pmap = Vm_map.pmap a.Pd.map in
  let asid = Pd.asid a in
  let vpn = 0x3000 in
  let f1 = Phys_mem.alloc m.Machine.pmem in
  let f2 = Phys_mem.alloc m.Machine.pmem in
  Vm_map.map_frame a.Pd.map ~vpn ~frame:f1 ~prot:Prot.Read_write ~eager:true;
  Access.write_word a ~vaddr:(vpn * ps m) 111;
  Pmap.remove pmap ~vpn;
  let shoots = Stats.get m.stats "tlb.shootdown" in
  (* Same vpn, different frame: the queued shootdown must fire now. *)
  Vm_map.map_frame a.Pd.map ~vpn ~frame:f2 ~prot:Prot.Read_write ~eager:true;
  check Alcotest.int "stale entry shot down" (shoots + 1)
    (Stats.get m.stats "tlb.shootdown");
  Alcotest.(check bool) "no pending left" false
    (Tlb.pending_covers m.Machine.tlb ~asid ~vpn);
  Access.write_word a ~vaddr:(vpn * ps m) 222;
  check Alcotest.int "write reached the new frame" 222
    (Access.read_word a ~vaddr:(vpn * ps m));
  check Alcotest.int "old frame untouched" 111
    (let b = Phys_mem.data m.Machine.pmem f1 in
     Char.code (Bytes.get b 0)
     lor (Char.code (Bytes.get b 1) lsl 8)
     lor (Char.code (Bytes.get b 2) lsl 16)
     lor (Char.code (Bytes.get b 3) lsl 24))

(* A pageout victim's translations are torn down with their shootdowns
   deferred; the cached realloc that reuses its address range must see
   fresh zero-filled pages, never the stale translations. *)
let test_pageout_victim_pending_shootdown () =
  let module Testbed = Fbufs_harness.Testbed in
  let module Allocator = Fbufs.Allocator in
  let module Fbuf = Fbufs.Fbuf in
  let tb = Testbed.create () in
  let a = Testbed.user_domain tb "a" in
  let alloc = Testbed.allocator tb ~domains:[ a ] Fbuf.cached_volatile in
  let m = tb.Testbed.m in
  let fb = Allocator.alloc alloc ~npages:2 in
  Access.touch_write a ~vaddr:(Fbuf.vaddr fb) ~npages:2;
  Fbufs.Transfer.free fb ~dom:a;
  check Alcotest.int "one victim" 1 (Allocator.reclaim alloc ~max_fbufs:1 ());
  let asid = Pd.asid a in
  for i = 0 to 1 do
    Alcotest.(check bool) "victim page shootdown deferred" true
      (Tlb.pending_covers m.Machine.tlb ~asid ~vpn:(fb.Fbuf.base_vpn + i))
  done;
  let fb2 = Allocator.alloc alloc ~npages:2 in
  check Alcotest.int "address range reused" fb.Fbuf.base_vpn fb2.Fbuf.base_vpn;
  let got = Access.read_bytes a ~vaddr:(Fbuf.vaddr fb2) ~len:(Fbuf.size fb2) in
  Alcotest.(check bool) "reads zeros, not stale bytes" true
    (Bytes.equal got (Bytes.make (Fbuf.size fb2) '\000'));
  Access.write_word a ~vaddr:(Fbuf.vaddr fb2) 0xBEEF;
  check Alcotest.int "write lands" 0xBEEF
    (Access.read_word a ~vaddr:(Fbuf.vaddr fb2))

(* ------------------------------------------------------------------ *)
(* Copy-on-write                                                       *)
(* ------------------------------------------------------------------ *)

let cow_setup () =
  let m, a, b = setup () in
  let vpn = Vm_map.reserve_private a.Pd.map ~npages:2 in
  Vm_map.map_zero_fill a.Pd.map ~vpn ~npages:2;
  Access.write_word a ~vaddr:(vpn * ps m) 0xAAAA;
  Access.write_word a ~vaddr:((vpn + 1) * ps m) 0xBBBB;
  Vm_map.copy_cow ~src:a.Pd.map ~dst:b.Pd.map ~vpn ~npages:2;
  (m, a, b, vpn)

let test_cow_receiver_sees_data () =
  let m, _, b, vpn = cow_setup () in
  check Alcotest.int "page 0" 0xAAAA (Access.read_word b ~vaddr:(vpn * ps m));
  check Alcotest.int "page 1" 0xBBBB
    (Access.read_word b ~vaddr:((vpn + 1) * ps m))

let test_cow_shares_frames_until_write () =
  let m, a, b, vpn = cow_setup () in
  ignore (Access.read_word b ~vaddr:(vpn * ps m));
  let fa = Vm_map.frame_of a.Pd.map ~vpn and fb = Vm_map.frame_of b.Pd.map ~vpn in
  check Alcotest.int "same frame" fa fb

let test_cow_write_isolates () =
  let m, a, b, vpn = cow_setup () in
  Access.write_word b ~vaddr:(vpn * ps m) 0xCCCC;
  check Alcotest.int "b sees new" 0xCCCC (Access.read_word b ~vaddr:(vpn * ps m));
  check Alcotest.int "a unchanged" 0xAAAA (Access.read_word a ~vaddr:(vpn * ps m));
  Alcotest.(check bool) "frames now differ" true
    (Vm_map.frame_of a.Pd.map ~vpn <> Vm_map.frame_of b.Pd.map ~vpn)

let test_cow_lazy_update_two_faults () =
  (* The paper: Mach's lazy pmap update causes two page faults per
     transferred page — one in the receiver on first access, one in the
     sender on its next write. *)
  let m, a, b, vpn = cow_setup () in
  let faults0 = Stats.get m.stats "vm.fault" in
  ignore (Access.read_word b ~vaddr:(vpn * ps m));
  Access.write_word a ~vaddr:(vpn * ps m) 0xDDDD;
  let faults = Stats.get m.stats "vm.fault" - faults0 in
  check Alcotest.int "two faults" 2 faults;
  check Alcotest.int "b keeps original" 0xAAAA
    (Access.read_word b ~vaddr:(vpn * ps m))

let test_cow_claim_when_not_shared () =
  (* If the receiver unmapped before the sender writes, the sender's write
     fault claims the frame without copying. *)
  let m, a, b, vpn = cow_setup () in
  ignore (Access.read_word b ~vaddr:(vpn * ps m));
  Vm_map.unmap b.Pd.map ~vpn ~npages:2 ~free_frames:true;
  let copies0 = Stats.get m.stats "vm.cow_copy" in
  Access.write_word a ~vaddr:(vpn * ps m) 0xEEEE;
  check Alcotest.int "no copy" copies0 (Stats.get m.stats "vm.cow_copy");
  Alcotest.(check bool) "claimed" true (Stats.get m.stats "vm.cow_claim" > 0)

(* ------------------------------------------------------------------ *)
(* Remap                                                               *)
(* ------------------------------------------------------------------ *)

let test_remap_move_semantics () =
  let m, a, b = setup () in
  let vpn = Remap.alloc_pages a ~npages:2 ~clear_fraction:0.0 in
  Access.write_word a ~vaddr:(vpn * ps m) 0x1234;
  let dst_vpn = Remap.move ~src:a ~dst:b ~src_vpn:vpn ~npages:2 () in
  check Alcotest.int "data arrived" 0x1234
    (Access.read_word b ~vaddr:(dst_vpn * ps m));
  Alcotest.(check bool) "source unmapped" false
    (Vm_map.mapped a.Pd.map ~vpn)

let test_remap_source_access_fails_after_move () =
  let m, a, b = setup () in
  let vpn = Remap.alloc_pages a ~npages:1 ~clear_fraction:0.0 in
  Access.write_word a ~vaddr:(vpn * ps m) 7;
  ignore (Remap.move ~src:a ~dst:b ~src_vpn:vpn ~npages:1 ());
  Alcotest.(check bool) "moved away" true
    (try
       ignore (Access.read_word a ~vaddr:(vpn * ps m));
       false
     with Vm_map.Protection_violation _ -> true)

let test_remap_clear_fraction_charges () =
  let m, a, _ = setup () in
  let t0 = Machine.now m in
  ignore (Remap.alloc_pages a ~npages:4 ~clear_fraction:1.0);
  let full = Machine.now m -. t0 in
  let t1 = Machine.now m in
  ignore (Remap.alloc_pages a ~npages:4 ~clear_fraction:0.0);
  let none = Machine.now m -. t1 in
  Alcotest.(check bool)
    (Printf.sprintf "clearing costs (%.1f vs %.1f)" full none)
    true
    (full -. none >= 4.0 *. m.cost.Cost_model.page_zero *. 0.99)

let test_remap_free_pages_releases_frames () =
  let m, a, _ = setup () in
  let before = Phys_mem.free_frames m.Machine.pmem in
  let vpn = Remap.alloc_pages a ~npages:3 ~clear_fraction:0.0 in
  Remap.free_pages a ~vpn ~npages:3;
  check Alcotest.int "frames back" before (Phys_mem.free_frames m.Machine.pmem)

(* ------------------------------------------------------------------ *)
(* convert_zero_fill (pageout support)                                 *)
(* ------------------------------------------------------------------ *)

let test_convert_zero_fill_discards_and_rezeroes () =
  let m, a, _ = setup () in
  let vpn = Vm_map.reserve_private a.Pd.map ~npages:1 in
  Vm_map.map_zero_fill a.Pd.map ~vpn ~npages:1;
  Access.write_word a ~vaddr:(vpn * ps m) 99;
  let free0 = Phys_mem.free_frames m.Machine.pmem in
  Vm_map.convert_zero_fill a.Pd.map ~vpn ~npages:1;
  check Alcotest.int "frame released" (free0 + 1)
    (Phys_mem.free_frames m.Machine.pmem);
  check Alcotest.int "reads zero afterwards" 0
    (Access.read_word a ~vaddr:(vpn * ps m))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_bulk_roundtrip =
  QCheck.Test.make ~name:"bulk write/read roundtrip at any offset" ~count:100
    QCheck.(pair (int_bound 8000) (string_of_size Gen.(1 -- 5000)))
    (fun (off, s) ->
      QCheck.assume (String.length s > 0);
      let m, a, _ = setup () in
      let npages = 4 in
      let vpn = Vm_map.reserve_private a.Pd.map ~npages in
      Vm_map.map_zero_fill a.Pd.map ~vpn ~npages;
      let off = off mod ((npages * ps m) - String.length s) in
      let off = max 0 off in
      let va = (vpn * ps m) + off in
      Access.write_string a ~vaddr:va s;
      Bytes.to_string (Access.read_bytes a ~vaddr:va ~len:(String.length s)) = s)

let prop_checksum_matches_reference =
  QCheck.Test.make ~name:"checksum equals reference implementation" ~count:100
    QCheck.(string_of_size Gen.(1 -- 2000))
    (fun s ->
      QCheck.assume (String.length s > 0);
      let m, a, _ = setup () in
      let vpn = Vm_map.reserve_private a.Pd.map ~npages:1 in
      Vm_map.map_zero_fill a.Pd.map ~vpn ~npages:1;
      QCheck.assume (String.length s <= ps m);
      Access.write_string a ~vaddr:(vpn * ps m) s;
      let reference =
        let sum = ref 0 in
        let n = String.length s in
        let i = ref 0 in
        while !i + 1 < n do
          sum := !sum + ((Char.code s.[!i] lsl 8) lor Char.code s.[!i + 1]);
          i := !i + 2
        done;
        if !i < n then sum := !sum + (Char.code s.[!i] lsl 8);
        let fold x = (x land 0xFFFF) + (x lsr 16) in
        lnot (fold (fold !sum)) land 0xFFFF
      in
      Access.checksum a ~vaddr:(vpn * ps m) ~len:(String.length s) = reference)

let prop_cow_preserves_reader_view =
  QCheck.Test.make ~name:"COW: receiver view immune to sender writes"
    ~count:50
    QCheck.(pair (int_bound 1000) (int_bound 1000))
    (fun (v1, v2) ->
      let m, a, b = setup () in
      let vpn = Vm_map.reserve_private a.Pd.map ~npages:1 in
      Vm_map.map_zero_fill a.Pd.map ~vpn ~npages:1;
      Access.write_word a ~vaddr:(vpn * ps m) v1;
      Vm_map.copy_cow ~src:a.Pd.map ~dst:b.Pd.map ~vpn ~npages:1;
      Access.write_word a ~vaddr:(vpn * ps m) v2;
      Access.read_word b ~vaddr:(vpn * ps m) = v1)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "vm"
    [
      ( "pte words",
        [
          tc "round trip through the accessors" `Quick
            test_pte_words_round_trip;
        ] );
      ( "mapping",
        [
          tc "zero-fill roundtrip" `Quick test_zero_fill_roundtrip;
          tc "zero-fill is zero" `Quick test_zero_fill_is_zero;
          tc "zero-fill charges page_zero" `Quick
            test_zero_fill_charges_page_zero;
          tc "unmapped access violates" `Quick test_unmapped_access_violates;
          tc "read-only write violates" `Quick test_read_only_write_violates;
          tc "no-access read violates" `Quick test_no_access_read_violates;
          tc "bulk rw cross page" `Quick test_bulk_rw_cross_page;
          tc "read_into window" `Quick test_read_into_window;
          tc "blit between domains" `Quick test_blit_between_domains;
          tc "checksum known value" `Quick test_checksum_known_value;
          tc "checksum odd length" `Quick test_checksum_odd_length;
        ] );
      ( "tlb-integration",
        [
          tc "miss once then hits" `Quick test_tlb_miss_once_then_hits;
          tc "asid isolation same vaddr" `Quick test_asid_isolation_same_vaddr;
          tc "downgrade shoots down" `Quick
            test_protect_downgrade_shoots_down_tlb;
          tc "upgrade via mod fault" `Quick test_protect_upgrade_mod_fault_path;
        ] );
      ( "deferred shootdowns",
        [
          tc "remove defers, identical re-enter elides" `Quick
            test_deferred_remove_reenter_elides;
          tc "changed translation shoots down" `Quick
            test_changed_translation_shoots_down;
          tc "pageout victim leaves pendings, realloc is clean" `Quick
            test_pageout_victim_pending_shootdown;
        ] );
      ( "cow",
        [
          tc "receiver sees data" `Quick test_cow_receiver_sees_data;
          tc "shares frames until write" `Quick test_cow_shares_frames_until_write;
          tc "write isolates" `Quick test_cow_write_isolates;
          tc "lazy update costs two faults" `Quick test_cow_lazy_update_two_faults;
          tc "claim when not shared" `Quick test_cow_claim_when_not_shared;
        ] );
      ( "remap",
        [
          tc "move semantics" `Quick test_remap_move_semantics;
          tc "source loses access" `Quick test_remap_source_access_fails_after_move;
          tc "clear fraction charges" `Quick test_remap_clear_fraction_charges;
          tc "free releases frames" `Quick test_remap_free_pages_releases_frames;
        ] );
      ( "pageout",
        [ tc "convert zero-fill" `Quick test_convert_zero_fill_discards_and_rezeroes ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_bulk_roundtrip;
          QCheck_alcotest.to_alcotest prop_checksum_matches_reference;
          QCheck_alcotest.to_alcotest prop_cow_preserves_reader_view;
        ] );
    ]
