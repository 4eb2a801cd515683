(* Tests for cross-domain IPC: message hand-off, integrated mode, and the
   deallocation-notice machinery. *)

open Fbufs_sim
open Fbufs
module Msg = Fbufs_msg.Msg
module Ipc = Fbufs_ipc.Ipc
module Testbed = Fbufs_harness.Testbed
module Testproto = Fbufs_protocols.Testproto

let check = Alcotest.check

let setup ?mode ?auto_free_dst () =
  let tb = Testbed.create () in
  let app = Testbed.user_domain tb "app" in
  let recv = Testbed.user_domain tb "recv" in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile in
  let conn =
    Ipc.connect tb.Testbed.region ~src:app ~dst:recv ?mode ?auto_free_dst ()
  in
  (tb, app, recv, alloc, conn)

let make alloc app s =
  let fb = Allocator.alloc alloc ~npages:1 in
  Fbuf_api.write fb ~as_:app ~off:0 s;
  Msg.of_fbuf fb ~off:0 ~len:(String.length s)

(* ------------------------------------------------------------------ *)
(* Basic calls                                                         *)
(* ------------------------------------------------------------------ *)

let test_call_delivers_data () =
  let _, app, recv, alloc, conn = setup () in
  let msg = make alloc app "payload!" in
  let seen = ref "" in
  Ipc.call conn msg ~handler:(fun received ->
      seen := Msg.to_string received ~as_:recv;
      Ipc.free_deferred conn received);
  check Alcotest.string "handler read the data" "payload!" !seen

let test_call_charges_latency () =
  let tb, app, _, alloc, conn = setup () in
  let m = tb.Testbed.m in
  let msg = make alloc app "x" in
  let t0 = Machine.now m in
  Ipc.call conn msg ~handler:(fun received -> Ipc.free_deferred conn received);
  let elapsed = Machine.now m -. t0 in
  let cost = m.Machine.cost in
  Alcotest.(check bool)
    (Printf.sprintf "elapsed %.1f >= call+reply" elapsed)
    true
    (elapsed >= cost.Cost_model.ipc_call +. cost.Cost_model.ipc_reply)

let test_receiver_gains_reference () =
  let _, app, recv, alloc, conn = setup () in
  let fb = Allocator.alloc alloc ~npages:1 in
  let msg = Msg.of_fbuf fb ~off:0 ~len:8 in
  Ipc.call conn msg ~handler:(fun _ ->
      check Alcotest.int "receiver holds a ref" 1 (Fbuf.ref_count fb recv));
  ignore app

let test_multiple_fbufs_marshalled () =
  let tb, app, recv, alloc, conn = setup () in
  let m =
    Msg.join (make alloc app "one") (Msg.join (make alloc app "two") (make alloc app "three"))
  in
  let calls0 = Stats.get tb.Testbed.m.Machine.stats "ipc.call" in
  Ipc.call conn m ~handler:(fun received ->
      check Alcotest.string "gathered" "onetwothree"
        (Msg.to_string received ~as_:recv);
      Ipc.free_deferred conn received);
  check Alcotest.int "one control transfer" (calls0 + 1)
    (Stats.get tb.Testbed.m.Machine.stats "ipc.call")

let test_auto_free_dst () =
  let _, app, recv, alloc, conn = setup ~auto_free_dst:true () in
  let fb = Allocator.alloc alloc ~npages:1 in
  let msg = Msg.of_fbuf fb ~off:0 ~len:8 in
  Ipc.call conn msg ~handler:(fun _ -> ());
  check Alcotest.int "receiver's ref auto-released" 0 (Fbuf.ref_count fb recv);
  check Alcotest.int "sender still holds one" 1 (Fbuf.ref_count fb app)

(* ------------------------------------------------------------------ *)
(* Deallocation notices                                                *)
(* ------------------------------------------------------------------ *)

let test_dealloc_deferred_until_next_call () =
  let _, app, recv, alloc, conn = setup () in
  let fb = Allocator.alloc alloc ~npages:1 in
  let msg = Msg.of_fbuf fb ~off:0 ~len:8 in
  Ipc.call conn msg ~handler:(fun received -> Ipc.free_deferred conn received);
  (* The reply of the same call carries the notice. *)
  check Alcotest.int "processed on reply" 0 (Ipc.pending_deallocs conn);
  check Alcotest.int "receiver ref gone" 0 (Fbuf.ref_count fb recv);
  ignore app

let test_dealloc_piggyback_no_extra_message () =
  let tb, app, _, alloc, conn = setup () in
  let stats = tb.Testbed.m.Machine.stats in
  for _ = 1 to 5 do
    let msg = make alloc app "data" in
    Ipc.call conn msg ~handler:(fun received ->
        Ipc.free_deferred conn received);
    Msg.free_all msg ~dom:app
  done;
  check Alcotest.int "no explicit dealloc messages" 0
    (Stats.get stats "ipc.explicit_dealloc_msg");
  Alcotest.(check bool) "notices piggybacked" true
    (Stats.get stats "ipc.dealloc_piggybacked" >= 5)

let test_explicit_flush_charges_message () =
  let tb, app, recv, alloc, conn = setup () in
  ignore recv;
  let fb = Allocator.alloc alloc ~npages:1 in
  let msg = Msg.of_fbuf fb ~off:0 ~len:4 in
  (* Get the receiver a reference without letting the call's reply flush
     the notice queue: defer the free *after* the call. *)
  Ipc.call conn msg ~handler:(fun _ -> ());
  Ipc.free_deferred conn msg;
  check Alcotest.int "pending" 1 (Ipc.pending_deallocs conn);
  Ipc.flush_deallocs conn;
  check Alcotest.int "flushed" 0 (Ipc.pending_deallocs conn);
  check Alcotest.int "explicit message charged" 1
    (Stats.get tb.Testbed.m.Machine.stats "ipc.explicit_dealloc_msg");
  Transfer.free fb ~dom:app

let test_threshold_forces_explicit_flush () =
  let tb, app, recv, alloc, conn = setup () in
  ignore recv;
  let fbs = List.init Ipc.threshold (fun _ -> Allocator.alloc alloc ~npages:1) in
  List.iter
    (fun fb ->
      let msg = Msg.of_fbuf fb ~off:0 ~len:4 in
      Ipc.call conn msg ~handler:(fun _ -> ()))
    fbs;
  (* Now free them all receiver-side with no intervening traffic. *)
  List.iter
    (fun fb -> Ipc.free_deferred conn (Msg.of_fbuf fb ~off:0 ~len:4))
    fbs;
  Alcotest.(check bool) "explicit flush happened" true
    (Stats.get tb.Testbed.m.Machine.stats "ipc.explicit_dealloc_msg" > 0);
  check Alcotest.int "queue drained" 0 (Ipc.pending_deallocs conn);
  List.iter (fun fb -> Transfer.free fb ~dom:app) fbs

(* Notices are processed oldest first: A's last free parks it before
   B's, so the LIFO free list hands B out next. *)
let test_dealloc_notices_oldest_first () =
  let _, app, _, alloc, conn = setup () in
  let fa = Allocator.alloc alloc ~npages:1 in
  let fb = Allocator.alloc alloc ~npages:1 in
  let ma = Msg.of_fbuf fa ~off:0 ~len:4 in
  let mb = Msg.of_fbuf fb ~off:0 ~len:4 in
  Ipc.call conn ma ~handler:(fun _ -> ());
  Ipc.call conn mb ~handler:(fun _ -> ());
  Transfer.free fa ~dom:app;
  Transfer.free fb ~dom:app;
  Ipc.free_deferred conn ma;
  Ipc.free_deferred conn mb;
  check Alcotest.int "two notices pending" 2 (Ipc.pending_deallocs conn);
  Ipc.flush_deallocs conn;
  check Alcotest.int "next allocation reuses B" fb.Fbuf.id
    (Allocator.alloc alloc ~npages:1).Fbuf.id

(* ------------------------------------------------------------------ *)
(* Integrated mode                                                     *)
(* ------------------------------------------------------------------ *)

let test_integrated_call_roundtrip () =
  let _, app, recv, alloc, conn = setup ~mode:Ipc.Integrated () in
  let m =
    Msg.join (make alloc app "left+") (make alloc app "right")
  in
  let seen = ref "" in
  Ipc.call conn m ~handler:(fun received ->
      seen := Msg.to_string received ~as_:recv;
      Ipc.free_deferred conn received);
  check Alcotest.string "reconstructed across the boundary" "left+right" !seen;
  Msg.free_all m ~dom:app

let test_integrated_meta_buffer_recycled () =
  let tb, app, recv, alloc, conn = setup ~mode:Ipc.Integrated () in
  ignore recv;
  let stats = tb.Testbed.m.Machine.stats in
  let run () =
    let msg = make alloc app "again" in
    Ipc.call conn msg ~handler:(fun received ->
        Ipc.free_deferred conn received);
    Msg.free_all msg ~dom:app
  in
  run ();
  let fresh = Stats.get stats "fbuf.alloc_fresh" in
  for _ = 1 to 5 do
    run ()
  done;
  (* Steady state: neither data nor meta buffers are allocated fresh. *)
  check Alcotest.int "no fresh allocations" fresh
    (Stats.get stats "fbuf.alloc_fresh")

let test_integrated_single_descriptor_marshalled () =
  let tb, app, recv, alloc, conn = setup ~mode:Ipc.Integrated () in
  ignore recv;
  (* A 6-fragment message still marshals one root reference. *)
  let parts = List.init 6 (fun i -> make alloc app (string_of_int i)) in
  let m = List.fold_left Msg.join Msg.empty parts in
  let t0 = Machine.now tb.Testbed.m in
  Ipc.call conn m ~handler:(fun received -> Ipc.free_deferred conn received);
  Msg.free_all m ~dom:app;
  ignore t0;
  Alcotest.(check bool) "ran" true true

let test_integrated_volatile_corruption_is_safe () =
  (* The originator scribbles over the serialized DAG after sending; the
     receiver must see bounded, absent data — never crash. *)
  let tb, app, recv, alloc, _ = setup () in
  let meta_alloc =
    Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile
  in
  let m = make alloc app "victim" in
  let meta = Allocator.alloc meta_alloc ~npages:1 in
  let root = Fbufs_msg.Integrated.serialize m ~meta ~as_:app in
  List.iter (fun fb -> Transfer.send fb ~src:app ~dst:recv) (Msg.fbufs m);
  Transfer.send meta ~src:app ~dst:recv;
  (* Corrupt: turn the root into a cat node pointing at itself. *)
  Fbufs_vm.Access.write_word app ~vaddr:root 2;
  Fbufs_vm.Access.write_word app ~vaddr:(root + 4) root;
  Fbufs_vm.Access.write_word app ~vaddr:(root + 8) root;
  let got =
    Fbufs_msg.Integrated.deserialize tb.Testbed.region ~as_:recv
      ~root_vaddr:root
  in
  check Alcotest.int "degenerates to empty" 0 (Msg.length got)

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let prop_modes_agree =
  QCheck.Test.make ~name:"rebuild and integrated deliver identical bytes"
    ~count:40
    QCheck.(string_of_size Gen.(1 -- 2000))
    (fun s ->
      QCheck.assume (String.length s > 0);
      let run mode =
        let _, app, recv, alloc, conn = setup ~mode () in
        let msg = make alloc app s in
        let out = ref "" in
        Ipc.call conn msg ~handler:(fun received ->
            out := Msg.to_string received ~as_:recv;
            Ipc.free_deferred conn received);
        Msg.free_all msg ~dom:app;
        !out
      in
      run Ipc.Rebuild = s && run Ipc.Integrated = s)

let prop_no_leaks_across_calls =
  QCheck.Test.make ~name:"sustained traffic reaches buffer steady state"
    ~count:20
    QCheck.(int_range 1 4)
    (fun npages ->
      let tb, app, recv, alloc, conn = setup () in
      ignore recv;
      let m = tb.Testbed.m in
      let send () =
        let msg =
          Testproto.make_message ~alloc ~as_:app ~bytes:(npages * 4096) ()
        in
        Ipc.call conn msg ~handler:(fun received ->
            Ipc.free_deferred conn received);
        Msg.free_all msg ~dom:app
      in
      send ();
      let frames = Phys_mem.free_frames m.Machine.pmem in
      for _ = 1 to 30 do
        send ()
      done;
      Phys_mem.free_frames m.Machine.pmem = frames)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "ipc"
    [
      ( "calls",
        [
          tc "delivers data" `Quick test_call_delivers_data;
          tc "charges latency" `Quick test_call_charges_latency;
          tc "receiver gains reference" `Quick test_receiver_gains_reference;
          tc "multiple fbufs marshalled" `Quick test_multiple_fbufs_marshalled;
          tc "auto free dst" `Quick test_auto_free_dst;
        ] );
      ( "dealloc-notices",
        [
          tc "deferred until next call" `Quick
            test_dealloc_deferred_until_next_call;
          tc "piggyback avoids messages" `Quick
            test_dealloc_piggyback_no_extra_message;
          tc "explicit flush charges" `Quick test_explicit_flush_charges_message;
          tc "threshold forces flush" `Quick test_threshold_forces_explicit_flush;
          tc "oldest notice freed first" `Quick
            test_dealloc_notices_oldest_first;
        ] );
      ( "integrated",
        [
          tc "call roundtrip" `Quick test_integrated_call_roundtrip;
          tc "meta buffer recycled" `Quick test_integrated_meta_buffer_recycled;
          tc "single descriptor" `Quick
            test_integrated_single_descriptor_marshalled;
          tc "volatile corruption safe" `Quick
            test_integrated_volatile_corruption_is_safe;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_modes_agree;
          QCheck_alcotest.to_alcotest prop_no_leaks_across_calls;
        ] );
    ]
