(* Tests for the fbuf core: region, allocators, the four transfer variants,
   protection semantics, caching, reclamation and teardown. *)

open Fbufs_sim
open Fbufs_vm
open Fbufs
module Testbed = Fbufs_harness.Testbed

let check = Alcotest.check

let setup2 () =
  let tb = Testbed.create () in
  let app = Testbed.user_domain tb "app" in
  let recv = Testbed.user_domain tb "recv" in
  (tb, app, recv)

(* One paper-style round trip: allocate, write a word per page, send,
   receiver reads a word per page, both sides free. *)
let roundtrip alloc ~src ~dst ~npages =
  let fb = Allocator.alloc alloc ~npages in
  Fbuf_api.touch_write fb ~as_:src;
  Transfer.send fb ~src ~dst;
  Fbuf_api.touch_read fb ~as_:dst;
  Transfer.free fb ~dom:dst;
  Transfer.free fb ~dom:src

(* ------------------------------------------------------------------ *)
(* Data integrity                                                      *)
(* ------------------------------------------------------------------ *)

let test_transfer_data_integrity () =
  let tb, app, recv = setup2 () in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile in
  let fb = Allocator.alloc alloc ~npages:2 in
  Fbuf_api.write fb ~as_:app ~off:100 "hello fbufs";
  Transfer.send fb ~src:app ~dst:recv;
  check Alcotest.string "receiver reads what originator wrote" "hello fbufs"
    (Fbuf_api.read_string fb ~as_:recv ~off:100 ~len:11)

let test_same_vaddr_both_domains () =
  let tb, app, recv = setup2 () in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile in
  let fb = Allocator.alloc alloc ~npages:1 in
  Transfer.send fb ~src:app ~dst:recv;
  (* No receiver-side address allocation: the fbuf has one address. *)
  let va = Fbuf.vaddr fb in
  Fbuf_api.set_word fb ~as_:app ~off:0 42;
  check Alcotest.int "read at identical vaddr" 42
    (Access.read_word recv ~vaddr:va)

let test_receiver_cannot_write () =
  let tb, app, recv = setup2 () in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile in
  let fb = Allocator.alloc alloc ~npages:1 in
  Transfer.send fb ~src:app ~dst:recv;
  Alcotest.(check bool) "write violates" true
    (try
       Fbuf_api.set_word fb ~as_:recv ~off:0 1;
       false
     with Vm_map.Protection_violation _ -> true)

(* ------------------------------------------------------------------ *)
(* Volatile vs non-volatile                                            *)
(* ------------------------------------------------------------------ *)

let test_volatile_originator_keeps_write () =
  let tb, app, recv = setup2 () in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile in
  let fb = Allocator.alloc alloc ~npages:1 in
  Fbuf_api.set_word fb ~as_:app ~off:0 1;
  Transfer.send fb ~src:app ~dst:recv;
  (* Volatile: the receiver must assume contents can change under it. *)
  Fbuf_api.set_word fb ~as_:app ~off:0 2;
  check Alcotest.int "receiver observes the change" 2
    (Fbuf_api.word_at fb ~as_:recv ~off:0)

let test_secure_revokes_originator_write () =
  let tb, app, recv = setup2 () in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile in
  let fb = Allocator.alloc alloc ~npages:1 in
  Fbuf_api.set_word fb ~as_:app ~off:0 1;
  Transfer.send fb ~src:app ~dst:recv;
  Transfer.secure fb;
  Alcotest.(check bool) "secured" true (Transfer.is_secured fb);
  Alcotest.(check bool) "originator write violates" true
    (try
       Fbuf_api.set_word fb ~as_:app ~off:0 2;
       false
     with Vm_map.Protection_violation _ -> true);
  check Alcotest.int "contents stable" 1 (Fbuf_api.word_at fb ~as_:recv ~off:0)

let test_secure_kernel_originator_noop () =
  let tb = Testbed.create () in
  let recv = Testbed.user_domain tb "recv" in
  let alloc =
    Testbed.allocator tb ~domains:[ tb.Testbed.kernel; recv ]
      Fbuf.cached_volatile
  in
  let fb = Allocator.alloc alloc ~npages:1 in
  Fbuf_api.set_word fb ~as_:tb.Testbed.kernel ~off:0 1;
  Transfer.send fb ~src:tb.Testbed.kernel ~dst:recv;
  let t0 = Machine.now tb.Testbed.m in
  Transfer.secure fb;
  (* Trusted originator: securing performs no VM work. *)
  check (Alcotest.float 1e-9) "free of charge" 0.0 (Machine.now tb.Testbed.m -. t0);
  Fbuf_api.set_word fb ~as_:tb.Testbed.kernel ~off:0 2;
  check Alcotest.int "kernel keeps write access" 2
    (Fbuf_api.word_at fb ~as_:recv ~off:0)

let test_nonvolatile_send_enforces_immutability () =
  let tb, app, recv = setup2 () in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_only in
  let fb = Allocator.alloc alloc ~npages:1 in
  Fbuf_api.set_word fb ~as_:app ~off:0 1;
  Transfer.send fb ~src:app ~dst:recv;
  Alcotest.(check bool) "eagerly secured" true (Transfer.is_secured fb);
  Alcotest.(check bool) "originator write violates" true
    (try
       Fbuf_api.set_word fb ~as_:app ~off:0 2;
       false
     with Vm_map.Protection_violation _ -> true)

let test_nonvolatile_write_restored_after_free () =
  let tb, app, recv = setup2 () in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_only in
  let fb = Allocator.alloc alloc ~npages:1 in
  Fbuf_api.set_word fb ~as_:app ~off:0 1;
  Transfer.send fb ~src:app ~dst:recv;
  Transfer.free fb ~dom:recv;
  Transfer.free fb ~dom:app;
  (* Reuse from the path cache: write permission must be back. *)
  let fb2 = Allocator.alloc alloc ~npages:1 in
  check Alcotest.int "same buffer reused" (Fbuf.vaddr fb) (Fbuf.vaddr fb2);
  Fbuf_api.set_word fb2 ~as_:app ~off:0 7;
  check Alcotest.int "write works again" 7 (Fbuf_api.word_at fb2 ~as_:app ~off:0)

(* ------------------------------------------------------------------ *)
(* Caching                                                             *)
(* ------------------------------------------------------------------ *)

let test_cached_free_parks_on_lifo () =
  let tb, app, recv = setup2 () in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile in
  roundtrip alloc ~src:app ~dst:recv ~npages:2;
  check Alcotest.int "one parked" 1 (Allocator.free_list_length alloc);
  roundtrip alloc ~src:app ~dst:recv ~npages:2;
  check Alcotest.int "still one (reused)" 1 (Allocator.free_list_length alloc)

let test_cached_reuse_same_address () =
  let tb, app, recv = setup2 () in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile in
  let fb = Allocator.alloc alloc ~npages:2 in
  let va = Fbuf.vaddr fb in
  Transfer.send fb ~src:app ~dst:recv;
  Transfer.free fb ~dom:recv;
  Transfer.free fb ~dom:app;
  let fb2 = Allocator.alloc alloc ~npages:2 in
  check Alcotest.int "same address" va (Fbuf.vaddr fb2)

let test_cached_reuse_no_vm_work () =
  let tb, app, recv = setup2 () in
  let m = tb.Testbed.m in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile in
  roundtrip alloc ~src:app ~dst:recv ~npages:4 (* warm up *);
  let before = Stats.snapshot m.Machine.stats in
  roundtrip alloc ~src:app ~dst:recv ~npages:4;
  let delta = Stats.since m.Machine.stats before in
  check (Alcotest.float 0.0) "no pmap enters on reuse" 0.0
    (Stats.value delta "pmap.enter");
  check (Alcotest.float 0.0) "no page zeroing on reuse" 0.0
    (Stats.value delta "fbuf.page_zeroed")

let test_cached_lifo_order () =
  let tb, app, recv = setup2 () in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile in
  let a = Allocator.alloc alloc ~npages:1 in
  let b = Allocator.alloc alloc ~npages:1 in
  Transfer.free a ~dom:app;
  Transfer.free b ~dom:app;
  (* b freed last, so it is warmest and must come back first. *)
  let c = Allocator.alloc alloc ~npages:1 in
  check Alcotest.int "LIFO reuse" (Fbuf.vaddr b) (Fbuf.vaddr c)

let test_cached_size_mismatch_allocates_fresh () =
  let tb, app, recv = setup2 () in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile in
  roundtrip alloc ~src:app ~dst:recv ~npages:2;
  let fb = Allocator.alloc alloc ~npages:3 in
  Alcotest.(check bool) "fresh buffer" true (fb.Fbuf.npages = 3);
  check Alcotest.int "2-page buffer still parked" 1
    (Allocator.free_list_length alloc)

let test_uncached_teardown_frees_frames () =
  let tb, app, recv = setup2 () in
  let m = tb.Testbed.m in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.volatile_only in
  let free0 = Phys_mem.free_frames m.Machine.pmem in
  roundtrip alloc ~src:app ~dst:recv ~npages:4;
  check Alcotest.int "all frames returned" free0
    (Phys_mem.free_frames m.Machine.pmem);
  check Alcotest.int "nothing parked" 0 (Allocator.free_list_length alloc)

let test_uncached_address_reused_after_free () =
  let tb, app, recv = setup2 () in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.volatile_only in
  let fb = Allocator.alloc alloc ~npages:2 in
  let va = Fbuf.vaddr fb in
  Transfer.free fb ~dom:app;
  let fb2 = Allocator.alloc alloc ~npages:2 in
  check Alcotest.int "extent recycled" va (Fbuf.vaddr fb2)

(* Regression: a receiver holding several references (two overlapping
   sends) keeps its mapping until the *last* free. An early unmap used to
   drop the receiver from [mapped_in]; a later read lazily re-faulted the
   mapping without re-entering the list, and teardown then leaked the
   stale mapping onto the next fbuf allocated at these addresses. *)
let test_uncached_receiver_mapping_survives_partial_free () =
  let tb, app, recv = setup2 () in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.volatile_only in
  let fb = Allocator.alloc alloc ~npages:1 in
  let vpn = fb.Fbuf.base_vpn in
  Fbuf_api.write fb ~as_:app ~off:0 "twice";
  Transfer.send fb ~src:app ~dst:recv;
  Transfer.send fb ~src:app ~dst:recv;
  check Alcotest.string "receiver reads" "twice"
    (Fbuf_api.read_string fb ~as_:recv ~off:0 ~len:5);
  Transfer.free fb ~dom:recv;
  Alcotest.(check bool) "still mapped with a reference outstanding" true
    (Vm_map.mapped recv.Pd.map ~vpn);
  check Alcotest.string "still readable" "twice"
    (Fbuf_api.read_string fb ~as_:recv ~off:0 ~len:5);
  Transfer.free fb ~dom:recv;
  Alcotest.(check bool) "unmapped at last free" false
    (Vm_map.mapped recv.Pd.map ~vpn);
  Transfer.free fb ~dom:app;
  (* The recycled address must carry no mapping from the earlier life. *)
  let fb2 = Allocator.alloc alloc ~npages:1 in
  check Alcotest.int "address recycled" vpn fb2.Fbuf.base_vpn;
  Alcotest.(check bool) "no stale receiver mapping" false
    (Vm_map.mapped recv.Pd.map ~vpn)

(* ------------------------------------------------------------------ *)
(* Reference counting and errors                                       *)
(* ------------------------------------------------------------------ *)

let test_multi_receiver_pipeline () =
  let tb = Testbed.create () in
  let a = Testbed.user_domain tb "a" in
  let b = Testbed.user_domain tb "b" in
  let c = Testbed.user_domain tb "c" in
  let alloc = Testbed.allocator tb ~domains:[ a; b; c ] Fbuf.cached_volatile in
  let fb = Allocator.alloc alloc ~npages:1 in
  Fbuf_api.write fb ~as_:a ~off:0 "pipeline";
  Transfer.send fb ~src:a ~dst:b;
  Transfer.free fb ~dom:a;
  Transfer.send fb ~src:b ~dst:c;
  Transfer.free fb ~dom:b;
  check Alcotest.string "third domain reads" "pipeline"
    (Fbuf_api.read_string fb ~as_:c ~off:0 ~len:8);
  check Alcotest.int "one ref left" 1 (Fbuf.total_refs fb);
  Transfer.free fb ~dom:c;
  check Alcotest.int "parked after last free" 1
    (Allocator.free_list_length alloc)

let test_free_without_ref_rejected () =
  let tb, app, recv = setup2 () in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile in
  let fb = Allocator.alloc alloc ~npages:1 in
  Alcotest.(check bool) "raises" true
    (try
       Transfer.free fb ~dom:recv;
       false
     with Invalid_argument _ -> true)

let test_send_by_non_holder_rejected () =
  let tb = Testbed.create () in
  let a = Testbed.user_domain tb "a" in
  let b = Testbed.user_domain tb "b" in
  let c = Testbed.user_domain tb "c" in
  let alloc = Testbed.allocator tb ~domains:[ a; b; c ] Fbuf.cached_volatile in
  let fb = Allocator.alloc alloc ~npages:1 in
  Alcotest.(check bool) "raises" true
    (try
       Transfer.send fb ~src:b ~dst:c;
       false
     with Invalid_argument _ -> true)

let test_cached_send_off_path_rejected () =
  let tb, app, recv = setup2 () in
  let stranger = Testbed.user_domain tb "stranger" in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile in
  let fb = Allocator.alloc alloc ~npages:1 in
  Alcotest.(check bool) "raises" true
    (try
       Transfer.send fb ~src:app ~dst:stranger;
       false
     with Invalid_argument _ -> true)

let test_default_allocator_goes_anywhere () =
  let tb, app, recv = setup2 () in
  let stranger = Testbed.user_domain tb "stranger" in
  let alloc = Allocator.default tb.Testbed.region ~owner:app in
  let fb = Allocator.alloc alloc ~npages:1 in
  Fbuf_api.write fb ~as_:app ~off:0 "anywhere";
  Transfer.send fb ~src:app ~dst:recv;
  Transfer.send fb ~src:app ~dst:stranger;
  check Alcotest.string "recv" "anywhere"
    (Fbuf_api.read_string fb ~as_:recv ~off:0 ~len:8);
  check Alcotest.string "stranger" "anywhere"
    (Fbuf_api.read_string fb ~as_:stranger ~off:0 ~len:8)

let test_use_after_free_rejected () =
  let tb, app, recv = setup2 () in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.volatile_only in
  let fb = Allocator.alloc alloc ~npages:1 in
  Transfer.free fb ~dom:app;
  Alcotest.(check bool) "send after free raises" true
    (try
       Transfer.send fb ~src:app ~dst:recv;
       false
     with Transfer.Dead_fbuf _ -> true)

(* ------------------------------------------------------------------ *)
(* Region: chunks, limits, dead page                                   *)
(* ------------------------------------------------------------------ *)

let test_chunk_limit_enforced () =
  let config =
    { Region.default_config with Region.max_chunks_per_allocator = 2 }
  in
  let tb = Testbed.create ~config () in
  let app = Testbed.user_domain tb "app" in
  let recv = Testbed.user_domain tb "recv" in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile in
  let chunk_pages = config.Region.chunk_pages in
  let fb1 = Allocator.alloc alloc ~npages:chunk_pages in
  let fb2 = Allocator.alloc alloc ~npages:chunk_pages in
  Alcotest.(check bool) "third chunk refused" true
    (try
       let (_ : Fbuf.t) = Allocator.alloc alloc ~npages:chunk_pages in
       false
     with Region.Chunk_limit_exceeded _ -> true);
  Transfer.free fb1 ~dom:app;
  Transfer.free fb2 ~dom:app

let test_region_exhaustion () =
  let config =
    {
      Region.default_config with
      Region.region_pages = 64;
      chunk_pages = 16;
      max_chunks_per_allocator = 1000;
    }
  in
  let tb = Testbed.create ~config () in
  let app = Testbed.user_domain tb "app" in
  let alloc = Testbed.allocator tb ~domains:[ app ] Fbuf.volatile_only in
  let bufs = List.init 4 (fun _ -> Allocator.alloc alloc ~npages:16) in
  Alcotest.(check bool) "fifth chunk unavailable" true
    (try
       let (_ : Fbuf.t) = Allocator.alloc alloc ~npages:16 in
       false
     with Region.Region_exhausted -> true);
  List.iter (fun fb -> Transfer.free fb ~dom:app) bufs

let test_dead_page_read_inside_region () =
  let tb, app, _ = setup2 () in
  let config = Region.config tb.Testbed.region in
  (* Read a region address the domain has no mapping for: must read as an
     empty (zero) page rather than fault. *)
  let va = (config.Region.base_vpn + 100) * Testbed.page_size tb in
  check Alcotest.int "reads zero" 0 (Access.read_word app ~vaddr:va);
  check Alcotest.int "recorded" 1 (Region.dead_page_reads tb.Testbed.region)

let test_dead_page_write_still_violates () =
  let tb, app, _ = setup2 () in
  let config = Region.config tb.Testbed.region in
  let va = (config.Region.base_vpn + 101) * Testbed.page_size tb in
  Alcotest.(check bool) "write raises" true
    (try
       Access.write_word app ~vaddr:va 1;
       false
     with Vm_map.Protection_violation _ -> true)

let test_outside_region_read_still_violates () =
  let _tb, app, _ = setup2 () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Access.read_word app ~vaddr:0x7000);
       false
     with Vm_map.Protection_violation _ -> true)

let test_dead_page_replaced_by_real_transfer () =
  let tb, app, recv = setup2 () in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile in
  let fb = Allocator.alloc alloc ~npages:1 in
  (* Receiver reads before the buffer was ever sent: dead page. *)
  ignore (Access.read_word recv ~vaddr:(Fbuf.vaddr fb));
  Fbuf_api.set_word fb ~as_:app ~off:0 77;
  Transfer.send fb ~src:app ~dst:recv;
  check Alcotest.int "real data after transfer" 77
    (Fbuf_api.word_at fb ~as_:recv ~off:0)

(* ------------------------------------------------------------------ *)
(* Reclamation and teardown                                            *)
(* ------------------------------------------------------------------ *)

let test_reclaim_frees_memory_and_rezeroes () =
  let tb, app, recv = setup2 () in
  let m = tb.Testbed.m in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile in
  let fb = Allocator.alloc alloc ~npages:2 in
  Fbuf_api.write fb ~as_:app ~off:0 "secret";
  Transfer.send fb ~src:app ~dst:recv;
  Transfer.free fb ~dom:recv;
  Transfer.free fb ~dom:app;
  let free0 = Phys_mem.free_frames m.Machine.pmem in
  let n = Allocator.reclaim alloc ~max_fbufs:10 () in
  check Alcotest.int "one reclaimed" 1 n;
  check Alcotest.int "frames released" (free0 + 2)
    (Phys_mem.free_frames m.Machine.pmem);
  (* Reuse: contents were discarded; first touch reads zero (fresh frame). *)
  let fb2 = Allocator.alloc alloc ~npages:2 in
  check Alcotest.int "same buffer" (Fbuf.vaddr fb) (Fbuf.vaddr fb2);
  check Alcotest.string "no data leak"
    (String.make 6 '\000')
    (Fbuf_api.read_string fb2 ~as_:app ~off:0 ~len:6)

let test_reclaim_takes_coldest_first () =
  let tb, app, recv = setup2 () in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile in
  let a = Allocator.alloc alloc ~npages:1 in
  let b = Allocator.alloc alloc ~npages:1 in
  Transfer.free a ~dom:app;
  Transfer.free b ~dom:app;
  (* a is coldest. Reclaim one: a's frames go, b's stay. *)
  ignore (Allocator.reclaim alloc ~max_fbufs:1 ());
  Alcotest.(check bool) "warm buffer keeps frame" true
    (Vm_map.frame_of app.Pd.map ~vpn:b.Fbuf.base_vpn <> -1);
  Alcotest.(check bool) "cold buffer lost frame" true
    (Vm_map.frame_of app.Pd.map ~vpn:a.Fbuf.base_vpn = -1)

let test_teardown_releases_chunks () =
  let tb, app, recv = setup2 () in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile in
  roundtrip alloc ~src:app ~dst:recv ~npages:2;
  Alcotest.(check bool) "owns chunks" true
    (Region.chunks_owned tb.Testbed.region app > 0);
  Allocator.teardown alloc;
  check Alcotest.int "chunks returned" 0
    (Region.chunks_owned tb.Testbed.region app)

let test_teardown_defers_until_external_refs_drop () =
  (* A terminating originator's chunks are retained by the kernel until all
     external references are relinquished (paper section 3.3). *)
  let tb, app, recv = setup2 () in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile in
  let fb = Allocator.alloc alloc ~npages:1 in
  Fbuf_api.write fb ~as_:app ~off:0 "held";
  Transfer.send fb ~src:app ~dst:recv;
  Transfer.free fb ~dom:app;
  Allocator.teardown alloc;
  Alcotest.(check bool) "chunks retained while receiver holds ref" true
    (Region.chunks_owned tb.Testbed.region app > 0);
  check Alcotest.string "receiver can still read" "held"
    (Fbuf_api.read_string fb ~as_:recv ~off:0 ~len:4);
  Transfer.free fb ~dom:recv;
  check Alcotest.int "chunks returned after last free" 0
    (Region.chunks_owned tb.Testbed.region app)

(* ------------------------------------------------------------------ *)
(* Calibration anchors (Table 1 smoke tests)                           *)
(* ------------------------------------------------------------------ *)

(* Incremental per-page cost: slope of total time against page count,
   measured on warmed-up paths exactly like the paper's first experiment.
   Each stage boundary models the TLB pressure of the IPC crossing the real
   experiment performed (the transfers themselves need no kernel call). *)
let per_page_cost variant =
  let tb, app, recv = setup2 () in
  let m = tb.Testbed.m in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] variant in
  let entries = m.Machine.cost.Cost_model.ipc_tlb_footprint in
  let roundtrip npages =
    let fb = Allocator.alloc alloc ~npages in
    Fbuf_api.touch_write fb ~as_:app;
    Transfer.send fb ~src:app ~dst:recv;
    Machine.domain_crossing_tlb_pressure ~entries m;
    Fbuf_api.touch_read fb ~as_:recv;
    Transfer.free fb ~dom:recv;
    Machine.domain_crossing_tlb_pressure ~entries m;
    Transfer.free fb ~dom:app
  in
  let measure npages =
    (* Warm up: populate the cache for this size. *)
    roundtrip npages;
    roundtrip npages;
    let t0 = Machine.now m in
    for _ = 1 to 10 do
      roundtrip npages
    done;
    (Machine.now m -. t0) /. 10.0
  in
  let small = measure 8 and large = measure 40 in
  (large -. small) /. 32.0

let check_range what low high v =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.2f us/page in [%.1f, %.1f]" what v low high)
    true
    (v >= low && v <= high)

let test_anchor_cached_volatile () =
  check_range "cached/volatile" 2.0 4.5 (per_page_cost Fbuf.cached_volatile)

let test_anchor_volatile () =
  check_range "volatile (uncached)" 17.0 26.0 (per_page_cost Fbuf.volatile_only)

let test_anchor_cached () =
  check_range "cached (non-volatile)" 24.0 34.0 (per_page_cost Fbuf.cached_only)

let test_anchor_plain () =
  check_range "plain fbufs" 27.0 40.0 (per_page_cost Fbuf.plain)

let test_anchor_order_of_magnitude () =
  let cv = per_page_cost Fbuf.cached_volatile in
  let v = per_page_cost Fbuf.volatile_only in
  let c = per_page_cost Fbuf.cached_only in
  Alcotest.(check bool)
    (Printf.sprintf "cached/volatile (%.1f) ~10x better than %.1f and %.1f" cv
       v c)
    true
    (v /. cv > 5.0 && c /. cv > 5.0)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_roundtrip_any_payload =
  QCheck.Test.make ~name:"any payload survives a transfer" ~count:60
    QCheck.(string_of_size Gen.(1 -- 12000))
    (fun s ->
      QCheck.assume (String.length s > 0);
      let tb, app, recv = setup2 () in
      let ps = Testbed.page_size tb in
      let npages = ((String.length s + ps - 1) / ps) + 1 in
      let alloc =
        Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile
      in
      let fb = Allocator.alloc alloc ~npages in
      Fbuf_api.write fb ~as_:app ~off:0 s;
      Transfer.send fb ~src:app ~dst:recv;
      Fbuf_api.read_string fb ~as_:recv ~off:0 ~len:(String.length s) = s)

let prop_refcounts_balance =
  QCheck.Test.make ~name:"random send/free sequences leave no refs" ~count:40
    QCheck.(list_of_size Gen.(1 -- 20) (int_bound 2))
    (fun ops ->
      let tb = Testbed.create () in
      let a = Testbed.user_domain tb "a" in
      let b = Testbed.user_domain tb "b" in
      let c = Testbed.user_domain tb "c" in
      let doms = [| a; b; c |] in
      let alloc =
        Testbed.allocator tb ~domains:[ a; b; c ] Fbuf.cached_volatile
      in
      let fb = Allocator.alloc alloc ~npages:1 in
      (* Send to each domain mentioned in ops (a holds the buffer), then
         free everywhere. *)
      List.iter
        (fun i ->
          let d = doms.(i) in
          if (not (Fbufs_vm.Pd.equal d a)) && Fbuf.ref_count fb d = 0 then
            Transfer.send fb ~src:a ~dst:d)
        ops;
      let refs = Fbuf.total_refs fb in
      Array.iter
        (fun d ->
          for _ = 1 to Fbuf.ref_count fb d do
            Transfer.free fb ~dom:d
          done)
        doms;
      refs >= 1 && Fbuf.total_refs fb = 0
      && Allocator.free_list_length alloc = 1)

let prop_cached_reuse_is_stable =
  QCheck.Test.make ~name:"cached path reaches steady state (no leaks)"
    ~count:20
    QCheck.(int_range 1 6)
    (fun npages ->
      let tb, app, recv = setup2 () in
      let m = tb.Testbed.m in
      let alloc =
        Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile
      in
      roundtrip alloc ~src:app ~dst:recv ~npages;
      let frames = Phys_mem.free_frames m.Machine.pmem in
      for _ = 1 to 25 do
        roundtrip alloc ~src:app ~dst:recv ~npages
      done;
      Phys_mem.free_frames m.Machine.pmem = frames
      && Allocator.free_list_length alloc = 1)

(* ------------------------------------------------------------------ *)
(* Allocation fast-path data structures (size classes, extents,        *)
(* next-fit) — added with the O(1) allocator rework                    *)
(* ------------------------------------------------------------------ *)

let test_fifo_order_survives_interleaving () =
  let tb, app, _ = setup2 () in
  let alloc =
    Allocator.create tb.Testbed.region
      ~path:(Path.create [ app ])
      ~variant:Fbuf.cached_volatile ~policy:Allocator.Fifo ()
  in
  (* Three distinct live fbufs (allocated before any free, so none is a
     cache reuse of another). *)
  let a = Allocator.alloc alloc ~npages:2 in
  let b = Allocator.alloc alloc ~npages:2 in
  let c = Allocator.alloc alloc ~npages:2 in
  Transfer.free a ~dom:app;
  Transfer.free b ~dom:app;
  (* First re-allocation must give the *oldest* parked buffer (a), even
     with more frees and allocations interleaved around it. *)
  let got1 = Allocator.alloc alloc ~npages:2 in
  check Alcotest.int "oldest first" a.Fbuf.id got1.Fbuf.id;
  Transfer.free c ~dom:app;
  Transfer.free got1 ~dom:app;
  (* Parked order is now b, c, a. *)
  let got2 = Allocator.alloc alloc ~npages:2 in
  let got3 = Allocator.alloc alloc ~npages:2 in
  let got4 = Allocator.alloc alloc ~npages:2 in
  check Alcotest.(list int) "FIFO across interleaved alloc/free"
    [ b.Fbuf.id; c.Fbuf.id; a.Fbuf.id ]
    [ got2.Fbuf.id; got3.Fbuf.id; got4.Fbuf.id ]

let test_size_class_hit_and_miss () =
  let tb, app, _ = setup2 () in
  let m = Region.machine tb.Testbed.region in
  let alloc = Testbed.allocator tb ~domains:[ app ] Fbuf.cached_volatile in
  let one = Allocator.alloc alloc ~npages:1 in
  let four = Allocator.alloc alloc ~npages:4 in
  let eight = Allocator.alloc alloc ~npages:8 in
  List.iter (fun fb -> Transfer.free fb ~dom:app) [ one; four; eight ];
  check Alcotest.int "three parked" 3 (Allocator.free_list_length alloc);
  let hits () =
    int_of_float (Stats.get_float m.Machine.stats "fbuf.alloc_cached_hit")
  in
  let h0 = hits () in
  (* Exact-size requests hit their class regardless of park order... *)
  let got4 = Allocator.alloc alloc ~npages:4 in
  check Alcotest.int "4-page hit" four.Fbuf.id got4.Fbuf.id;
  let got1 = Allocator.alloc alloc ~npages:1 in
  check Alcotest.int "1-page hit" one.Fbuf.id got1.Fbuf.id;
  check Alcotest.int "two cache hits" (h0 + 2) (hits ());
  (* ...while a size with no parked buffer misses even though other
     classes are populated (no splitting of cached mappings). *)
  let got2 = Allocator.alloc alloc ~npages:2 in
  Alcotest.(check bool) "2-page request is a fresh fbuf" true
    (got2.Fbuf.id <> eight.Fbuf.id && got2.Fbuf.id > eight.Fbuf.id);
  check Alcotest.int "still two hits" (h0 + 2) (hits ());
  check Alcotest.int "eight still parked" 1 (Allocator.free_list_length alloc)

let test_extents_coalesce_after_free () =
  let tb, app, _ = setup2 () in
  let alloc = Testbed.allocator tb ~domains:[ app ] Fbuf.volatile_only in
  (* Four 4-page uncached fbufs fill one 16-page chunk exactly. *)
  let fbs = List.init 4 (fun _ -> Allocator.alloc alloc ~npages:4) in
  let bases = List.map (fun fb -> fb.Fbuf.base_vpn) fbs in
  let lo = List.fold_left min max_int bases in
  let owned = Region.chunks_owned tb.Testbed.region app in
  (* Free in a scrambled order: the freed extents must coalesce back into
     one 16-page run... *)
  List.iter
    (fun i -> Transfer.free (List.nth fbs i) ~dom:app)
    [ 2; 0; 3; 1 ];
  let big = Allocator.alloc alloc ~npages:16 in
  (* ...so a 16-page request is satisfied in place, with no chunk growth. *)
  check Alcotest.int "16-page alloc reuses the coalesced run" lo
    big.Fbuf.base_vpn;
  check Alcotest.int "no new chunks" owned
    (Region.chunks_owned tb.Testbed.region app)

(* The allocator's free extents against the list of (base, npages)
   pairs they replaced, kept here as the model: first fit, carving the
   fit's head, and insertion that coalesces with both neighbours. Random
   uncached allocations of 1-12 pages and frees in random order must
   take the model's first-fit base whenever an extent fits, and leave
   the model's extents after every step. When none fits, the allocator
   takes a fresh chunk, whose base the model reads from the fbuf. *)
let rec model_insert base n = function
  | [] -> [ (base, n) ]
  | ((b, m) as e) :: rest ->
      if b + m = base then model_insert b (m + n) rest
      else if base + n = b then model_insert base (n + m) rest
      else if b + m < base then e :: model_insert base n rest
      else (base, n) :: e :: rest

let rec model_carve ~npages = function
  | [] -> []
  | ((base, n) as e) :: rest ->
      if n > npages then (base + npages, n - npages) :: rest
      else if n = npages then rest
      else e :: model_carve ~npages rest

(* Free the [n]th live fbuf (modulo their count) and return its range
   to the model. *)
let free_nth ~dom live model n =
  match !live with
  | [] -> ()
  | l ->
      let fb = List.nth l (n mod List.length l) in
      live := List.filter (fun g -> g != fb) l;
      Transfer.free fb ~dom;
      model := model_insert fb.Fbuf.base_vpn fb.Fbuf.npages !model

let prop_extents_match_list_model =
  QCheck.Test.make ~name:"free extents match the list model" ~count:100
    QCheck.(list_of_size Gen.(1 -- 60) (pair bool (int_range 1 12)))
    (fun ops ->
      let tb, app, _ = setup2 () in
      let alloc = Testbed.allocator tb ~domains:[ app ] Fbuf.volatile_only in
      let chunk = (Region.config tb.Testbed.region).Region.chunk_pages in
      let live = ref [] and model = ref [] and diverged = ref [] in
      List.iteri
        (fun step (is_alloc, n) ->
          if is_alloc && List.length !live < 16 then begin
            let fb = Allocator.alloc alloc ~npages:n in
            live := !live @ [ fb ];
            let base = fb.Fbuf.base_vpn in
            match List.find_opt (fun (_, m) -> m >= n) !model with
            | Some (b, _) ->
                if b <> base then diverged := step :: !diverged;
                model := model_carve ~npages:n !model
            | None -> model := model_insert (base + n) (chunk - n) !model
          end
          else free_nth ~dom:app live model n;
          let extents = ref [] in
          Allocator.iter_extents alloc (fun ~base ~npages ->
              extents := (base, npages) :: !extents);
          if List.rev !extents <> !model then diverged := step :: !diverged)
        ops;
      match List.rev !diverged with
      | [] -> true
      | step :: _ ->
          QCheck.Test.fail_reportf
            "step %d: first fit or extents differ from the model" step)

let test_reclaim_lru_order () =
  let tb, app, _ = setup2 () in
  let alloc = Testbed.allocator tb ~domains:[ app ] Fbuf.cached_volatile in
  (* Allocate before freeing anything so a, b, c are distinct buffers with
     strictly increasing last-use times. *)
  let a = Allocator.alloc alloc ~npages:1 in
  let b = Allocator.alloc alloc ~npages:2 in
  let c = Allocator.alloc alloc ~npages:1 in
  Transfer.free a ~dom:app;
  Transfer.free b ~dom:app;
  Transfer.free c ~dom:app;
  let resident fb =
    Vm_map.frame_of app.Pd.map ~vpn:fb.Fbuf.base_vpn <> -1
  in
  check Alcotest.int "two reclaimed" 2
    (Allocator.reclaim alloc ~max_fbufs:2 ());
  (* a and b were allocated (hence last used) before c: LRU evicts them
     and leaves the youngest parked buffer resident. *)
  Alcotest.(check bool) "oldest lost memory" false (resident a);
  Alcotest.(check bool) "middle lost memory" false (resident b);
  Alcotest.(check bool) "youngest still resident" true (resident c)

let small_region_config =
  {
    Region.default_config with
    Region.region_pages = 64;
    chunk_pages = 16;
    max_chunks_per_allocator = 64;
  }

let test_next_fit_wraparound () =
  let tb = Testbed.create ~config:small_region_config () in
  let app = Testbed.user_domain tb "app" in
  let r = tb.Testbed.region in
  let base = small_region_config.Region.base_vpn in
  let chunk n = base + (n * 16) in
  (* 4 chunks total. Take three, then free the first. *)
  check Alcotest.int "chunk 0" (chunk 0) (Region.alloc_chunks r app ~nchunks:1);
  check Alcotest.int "chunk 1" (chunk 1) (Region.alloc_chunks r app ~nchunks:1);
  check Alcotest.int "chunk 2" (chunk 2) (Region.alloc_chunks r app ~nchunks:1);
  Region.free_chunks r app ~vpn:(chunk 0) ~nchunks:1;
  (* Next-fit: the cursor sits after chunk 2, so the next allocation takes
     chunk 3, not the lower free chunk 0 (first-fit would). *)
  check Alcotest.int "next-fit skips the low hole" (chunk 3)
    (Region.alloc_chunks r app ~nchunks:1);
  (* Now only chunk 0 is free and the cursor has wrapped past the end. *)
  check Alcotest.int "wraps around to chunk 0" (chunk 0)
    (Region.alloc_chunks r app ~nchunks:1);
  Alcotest.(check bool) "exhausted at the boundary" true
    (try
       ignore (Region.alloc_chunks r app ~nchunks:1);
       false
     with Region.Region_exhausted -> true)

let test_exhausted_when_free_but_fragmented () =
  let tb = Testbed.create ~config:small_region_config () in
  let app = Testbed.user_domain tb "app" in
  let r = tb.Testbed.region in
  let base = small_region_config.Region.base_vpn in
  let chunk n = base + (n * 16) in
  for i = 0 to 3 do
    ignore (Region.alloc_chunks r app ~nchunks:1);
    ignore i
  done;
  (* Free chunks 0 and 2: two chunks free, but no two *contiguous*. *)
  Region.free_chunks r app ~vpn:(chunk 0) ~nchunks:1;
  Region.free_chunks r app ~vpn:(chunk 2) ~nchunks:1;
  Alcotest.(check bool) "2-chunk request fails despite 2 free chunks" true
    (try
       ignore (Region.alloc_chunks r app ~nchunks:2);
       false
     with Region.Region_exhausted -> true);
  (* A single-chunk request still succeeds. *)
  ignore (Region.alloc_chunks r app ~nchunks:1)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "fbuf"
    [
      ( "integrity",
        [
          tc "transfer data integrity" `Quick test_transfer_data_integrity;
          tc "same vaddr in both domains" `Quick test_same_vaddr_both_domains;
          tc "receiver cannot write" `Quick test_receiver_cannot_write;
        ] );
      ( "volatility",
        [
          tc "volatile originator keeps write" `Quick
            test_volatile_originator_keeps_write;
          tc "secure revokes originator write" `Quick
            test_secure_revokes_originator_write;
          tc "secure on kernel originator is noop" `Quick
            test_secure_kernel_originator_noop;
          tc "non-volatile send enforces immutability" `Quick
            test_nonvolatile_send_enforces_immutability;
          tc "write restored after free" `Quick
            test_nonvolatile_write_restored_after_free;
        ] );
      ( "caching",
        [
          tc "free parks on LIFO" `Quick test_cached_free_parks_on_lifo;
          tc "reuse same address" `Quick test_cached_reuse_same_address;
          tc "reuse does no VM work" `Quick test_cached_reuse_no_vm_work;
          tc "LIFO order" `Quick test_cached_lifo_order;
          tc "size mismatch allocates fresh" `Quick
            test_cached_size_mismatch_allocates_fresh;
          tc "uncached teardown frees frames" `Quick
            test_uncached_teardown_frees_frames;
          tc "uncached address reuse" `Quick
            test_uncached_address_reused_after_free;
          tc "receiver mapping survives partial free" `Quick
            test_uncached_receiver_mapping_survives_partial_free;
        ] );
      ( "refcounts",
        [
          tc "multi-receiver pipeline" `Quick test_multi_receiver_pipeline;
          tc "free without ref rejected" `Quick test_free_without_ref_rejected;
          tc "send by non-holder rejected" `Quick
            test_send_by_non_holder_rejected;
          tc "cached send off-path rejected" `Quick
            test_cached_send_off_path_rejected;
          tc "default allocator goes anywhere" `Quick
            test_default_allocator_goes_anywhere;
          tc "use after free rejected" `Quick test_use_after_free_rejected;
        ] );
      ( "region",
        [
          tc "chunk limit enforced" `Quick test_chunk_limit_enforced;
          tc "region exhaustion" `Quick test_region_exhaustion;
          tc "dead page read" `Quick test_dead_page_read_inside_region;
          tc "dead page write violates" `Quick
            test_dead_page_write_still_violates;
          tc "outside region read violates" `Quick
            test_outside_region_read_still_violates;
          tc "dead page replaced by transfer" `Quick
            test_dead_page_replaced_by_real_transfer;
        ] );
      ( "fast path structures",
        [
          tc "FIFO survives interleaved alloc/free" `Quick
            test_fifo_order_survives_interleaving;
          tc "size-class hit and miss" `Quick test_size_class_hit_and_miss;
          tc "extents coalesce after free" `Quick
            test_extents_coalesce_after_free;
          tc "reclaim LRU order" `Quick test_reclaim_lru_order;
          tc "next-fit wraparound" `Quick test_next_fit_wraparound;
          tc "exhausted when fragmented" `Quick
            test_exhausted_when_free_but_fragmented;
        ] );
      ( "reclamation",
        [
          tc "reclaim frees and rezeroes" `Quick
            test_reclaim_frees_memory_and_rezeroes;
          tc "reclaim takes coldest" `Quick test_reclaim_takes_coldest_first;
          tc "teardown releases chunks" `Quick test_teardown_releases_chunks;
          tc "teardown defers for external refs" `Quick
            test_teardown_defers_until_external_refs_drop;
        ] );
      ( "calibration",
        [
          tc "anchor cached/volatile ~3us" `Quick test_anchor_cached_volatile;
          tc "anchor volatile ~21us" `Quick test_anchor_volatile;
          tc "anchor cached ~29us" `Quick test_anchor_cached;
          tc "anchor plain" `Quick test_anchor_plain;
          tc "order of magnitude" `Quick test_anchor_order_of_magnitude;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip_any_payload;
          QCheck_alcotest.to_alcotest prop_refcounts_balance;
          QCheck_alcotest.to_alcotest prop_cached_reuse_is_stable;
          QCheck_alcotest.to_alcotest prop_extents_match_list_model;
        ] );
    ]
