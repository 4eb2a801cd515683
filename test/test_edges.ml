(* Edge cases and small-API coverage across libraries: argument
   validation, printers, accessors and seldom-hit branches. *)

open Fbufs_sim
open Fbufs_vm
open Fbufs
module Msg = Fbufs_msg.Msg
module Ipc = Fbufs_ipc.Ipc
module Header = Fbufs_protocols.Header
module Testbed = Fbufs_harness.Testbed

let check = Alcotest.check

let raises_invalid f =
  try
    f ();
    false
  with Invalid_argument _ -> true

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Prot / Pd / Path printers and predicates                            *)
(* ------------------------------------------------------------------ *)

let test_prot_predicates () =
  Alcotest.(check bool) "none read" false (Prot.can_read Prot.No_access);
  Alcotest.(check bool) "ro read" true (Prot.can_read Prot.Read_only);
  Alcotest.(check bool) "ro write" false (Prot.can_write Prot.Read_only);
  Alcotest.(check bool) "rw write" true (Prot.can_write Prot.Read_write);
  check Alcotest.string "to_string" "r--" (Prot.to_string Prot.Read_only)

let test_pd_identity () =
  let m = Machine.create ~nframes:16 () in
  let a = Pd.create m "a" and b = Pd.create m "b" in
  Alcotest.(check bool) "distinct" false (Pd.equal a b);
  Alcotest.(check bool) "reflexive" true (Pd.equal a a);
  Alcotest.(check bool) "distinct asids" true (Pd.asid a <> Pd.asid b);
  check Alcotest.string "kernel marker" "k#1(k)"
    (Format.asprintf "%a" Pd.pp (Pd.create (Machine.create ~nframes:16 ()) ~kernel:true "k"))

let test_path_validation () =
  let m = Machine.create ~nframes:16 () in
  let a = Pd.create m "a" in
  Alcotest.(check bool) "empty rejected" true
    (raises_invalid (fun () -> ignore (Path.create [])));
  Alcotest.(check bool) "duplicate rejected" true
    (raises_invalid (fun () -> ignore (Path.create [ a; a ])));
  let p = Path.create [ a ] in
  check Alcotest.int "length" 1 (Path.length p);
  Alcotest.(check bool) "originator" true (Pd.equal (Path.originator p) a);
  check Alcotest.int "no receivers" 0 (List.length (Path.receivers p))

let test_fbuf_pp_states () =
  let tb = Testbed.create () in
  let app = Testbed.user_domain tb "app" in
  let alloc = Testbed.allocator tb ~domains:[ app ] Fbuf.cached_volatile in
  let fb = Allocator.alloc alloc ~npages:1 in
  let s = Format.asprintf "%a" Fbuf.pp fb in
  Alcotest.(check bool) "mentions variant" true (contains s "cached/volatile")

(* ------------------------------------------------------------------ *)
(* Machine / cost model accessors                                      *)
(* ------------------------------------------------------------------ *)

let test_machine_charge_n () =
  let m = Machine.create ~nframes:16 () in
  Machine.charge_n ~kind:Machine.untyped m 7 2.0;
  check (Alcotest.float 1e-9) "7 x 2us" 14.0 (Machine.now m)

let test_cost_model_pp_mentions_effective_rate () =
  let s =
    Format.asprintf "%a" Cost_model.pp Cost_model.decstation_5000_200
  in
  Alcotest.(check bool) "prints something substantial" true
    (String.length s > 200)

let test_tlb_pressure_bounded () =
  let m = Machine.create ~tlb_entries:8 ~nframes:16 () in
  Machine.domain_crossing_tlb_pressure
    ~entries:m.Machine.cost.Cost_model.ipc_tlb_footprint m;
  Alcotest.(check bool) "TLB stays bounded" true
    (Tlb.valid_entries m.Machine.tlb <= 8)

(* ------------------------------------------------------------------ *)
(* Access odds and ends                                                *)
(* ------------------------------------------------------------------ *)

let test_access_word_page_boundary_rejected () =
  let m = Machine.create ~nframes:16 () in
  let d = Pd.create m "d" in
  let vpn = Vm_map.reserve_private d.Pd.map ~npages:2 in
  Vm_map.map_zero_fill d.Pd.map ~vpn ~npages:2;
  let ps = m.Machine.cost.Cost_model.page_size in
  Alcotest.(check bool) "straddling word rejected" true
    (raises_invalid (fun () ->
         ignore (Access.read_word d ~vaddr:((vpn * ps) + ps - 2))))

let test_access_can_access () =
  let m = Machine.create ~nframes:16 () in
  let d = Pd.create m "d" in
  let vpn = Vm_map.reserve_private d.Pd.map ~npages:1 in
  Vm_map.map_zero_fill d.Pd.map ~vpn ~npages:1;
  let va = vpn * m.Machine.cost.Cost_model.page_size in
  Alcotest.(check bool) "rw" true (Access.can_access d ~vaddr:va ~write:true);
  Vm_map.protect d.Pd.map ~vpn ~npages:1 ~prot:Prot.Read_only;
  Alcotest.(check bool) "write denied" false
    (Access.can_access d ~vaddr:va ~write:true);
  Alcotest.(check bool) "read ok" true
    (Access.can_access d ~vaddr:va ~write:false);
  Alcotest.(check bool) "unmapped" false
    (Access.can_access d ~vaddr:0x123456 ~write:false)

let test_checksum_composability () =
  let m = Machine.create ~nframes:16 () in
  let d = Pd.create m "d" in
  let vpn = Vm_map.reserve_private d.Pd.map ~npages:1 in
  Vm_map.map_zero_fill d.Pd.map ~vpn ~npages:1;
  let va = vpn * m.Machine.cost.Cost_model.page_size in
  Access.write_string d ~vaddr:va "composable checksums!";
  let whole = Access.checksum d ~vaddr:va ~len:21 in
  let split_at k =
    Access.checksum_finish
      (Access.checksum_feed d ~vaddr:(va + k) ~len:(21 - k)
         (Access.checksum_feed d ~vaddr:va ~len:k Access.checksum_start))
  in
  check Alcotest.int "split at 1 (odd)" whole (split_at 1);
  check Alcotest.int "split at 10" whole (split_at 10);
  check Alcotest.int "split at 20" whole (split_at 20)

(* ------------------------------------------------------------------ *)
(* Msg / Header edges                                                  *)
(* ------------------------------------------------------------------ *)

let test_header_peek_short_message_rejected () =
  let tb = Testbed.create () in
  let d = Testbed.user_domain tb "d" in
  let alloc = Testbed.allocator tb ~domains:[ d ] Fbuf.cached_volatile in
  let fb = Allocator.alloc alloc ~npages:1 in
  let msg = Msg.of_fbuf fb ~off:0 ~len:3 in
  Alcotest.(check bool) "short peek rejected" true
    (raises_invalid (fun () -> ignore (Header.peek msg ~as_:d ~len:8)))

let test_msg_iter_units_bad_size () =
  Alcotest.(check bool) "zero unit rejected" true
    (raises_invalid (fun () ->
         let tb = Testbed.create () in
         let d = Testbed.user_domain tb "d" in
         ignore tb;
         Msg.iter_units Msg.empty ~as_:d ~unit_size:0 ignore))

let test_msg_depth_and_pp () =
  let tb = Testbed.create () in
  let d = Testbed.user_domain tb "d" in
  let alloc = Testbed.allocator tb ~domains:[ d ] Fbuf.cached_volatile in
  let leaf () =
    let fb = Allocator.alloc alloc ~npages:1 in
    Msg.of_fbuf fb ~off:0 ~len:16
  in
  let m = Msg.join (leaf ()) (Msg.join (leaf ()) (leaf ())) in
  check Alcotest.int "depth" 3 (Msg.depth m);
  Alcotest.(check bool) "pp shows length" true
    (contains (Format.asprintf "%a" Msg.pp m) "48B")

(* ------------------------------------------------------------------ *)
(* Ipc / allocator accessors                                           *)
(* ------------------------------------------------------------------ *)

let test_ipc_accessors () =
  let tb = Testbed.create () in
  let a = Testbed.user_domain tb "a" in
  let b = Testbed.user_domain tb "b" in
  let conn =
    Ipc.connect tb.Testbed.region ~src:a ~dst:b ~mode:Ipc.Integrated
      ~facility:Ipc.Urpc ()
  in
  Alcotest.(check bool) "src" true (Pd.equal (Ipc.src conn) a);
  Alcotest.(check bool) "dst" true (Pd.equal (Ipc.dst conn) b);
  Alcotest.(check bool) "mode" true (Ipc.mode conn = Ipc.Integrated);
  Alcotest.(check bool) "facility" true (Ipc.facility conn = Ipc.Urpc)

let test_allocator_accessors () =
  let tb = Testbed.create () in
  let a = Testbed.user_domain tb "a" in
  let alloc = Testbed.allocator tb ~domains:[ a ] Fbuf.cached_only in
  Alcotest.(check bool) "owner" true (Pd.equal (Allocator.owner alloc) a);
  Alcotest.(check bool) "variant" true
    (Allocator.variant alloc = Fbuf.cached_only);
  check Alcotest.int "nothing live" 0 (Allocator.live_fbufs alloc);
  let fb = Allocator.alloc alloc ~npages:1 in
  check Alcotest.int "one live" 1 (Allocator.live_fbufs alloc);
  Transfer.free fb ~dom:a;
  check Alcotest.int "parked not live" 0 (Allocator.live_fbufs alloc)

let test_allocator_zero_pages_rejected () =
  let tb = Testbed.create () in
  let a = Testbed.user_domain tb "a" in
  let alloc = Testbed.allocator tb ~domains:[ a ] Fbuf.cached_volatile in
  Alcotest.(check bool) "raises" true
    (raises_invalid (fun () ->
         let (_ : Fbuf.t) = Allocator.alloc alloc ~npages:0 in
         ()))

let test_double_teardown_rejected () =
  let tb = Testbed.create () in
  let a = Testbed.user_domain tb "a" in
  let alloc = Testbed.allocator tb ~domains:[ a ] Fbuf.cached_volatile in
  Allocator.teardown alloc;
  Alcotest.(check bool) "raises" true
    (raises_invalid (fun () -> Allocator.teardown alloc))

let test_transfer_to_self_rejected () =
  let tb = Testbed.create () in
  let a = Testbed.user_domain tb "a" in
  let alloc = Testbed.allocator tb ~domains:[ a ] Fbuf.cached_volatile in
  let fb = Allocator.alloc alloc ~npages:1 in
  Alcotest.(check bool) "raises" true
    (raises_invalid (fun () -> Transfer.send fb ~src:a ~dst:a))

let test_vm_release_range () =
  let m = Machine.create ~nframes:64 () in
  let d = Pd.create m "d" in
  let free0 = Phys_mem.free_frames m.Machine.pmem in
  let vpn = Remap.alloc_pages d ~npages:4 ~clear_fraction:0.0 in
  Vm_map.release_range d.Pd.map ~vpn ~npages:4;
  check Alcotest.int "frames back" free0 (Phys_mem.free_frames m.Machine.pmem);
  Alcotest.(check bool) "unmapped" false (Vm_map.mapped d.Pd.map ~vpn)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "edges"
    [
      ( "identities",
        [
          tc "prot predicates" `Quick test_prot_predicates;
          tc "pd identity" `Quick test_pd_identity;
          tc "path validation" `Quick test_path_validation;
          tc "fbuf pp" `Quick test_fbuf_pp_states;
        ] );
      ( "machine",
        [
          tc "charge_n" `Quick test_machine_charge_n;
          tc "cost model pp" `Quick test_cost_model_pp_mentions_effective_rate;
          tc "tlb pressure bounded" `Quick test_tlb_pressure_bounded;
        ] );
      ( "access",
        [
          tc "word boundary rejected" `Quick
            test_access_word_page_boundary_rejected;
          tc "can_access" `Quick test_access_can_access;
          tc "checksum composability" `Quick test_checksum_composability;
        ] );
      ( "msg-header",
        [
          tc "short peek rejected" `Quick test_header_peek_short_message_rejected;
          tc "bad unit size" `Quick test_msg_iter_units_bad_size;
          tc "depth and pp" `Quick test_msg_depth_and_pp;
        ] );
      ( "api-edges",
        [
          tc "ipc accessors" `Quick test_ipc_accessors;
          tc "allocator accessors" `Quick test_allocator_accessors;
          tc "zero pages rejected" `Quick test_allocator_zero_pages_rejected;
          tc "double teardown rejected" `Quick test_double_teardown_rejected;
          tc "send to self rejected" `Quick test_transfer_to_self_rejected;
          tc "vm release range" `Quick test_vm_release_range;
        ] );
    ]
