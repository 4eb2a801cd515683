open Fbufs_sim
open Fbufs
module Msg = Fbufs_msg.Msg
module Ipc = Fbufs_ipc.Ipc
module Testproto = Fbufs_protocols.Testproto

(* Shared single-boundary measurement: throughput of [bytes]-sized messages
   over one IPC crossing with the given variant, on a custom machine. *)
let one_boundary_mbps ?cost ?tlb_entries ?policy variant bytes =
  let tb = Testbed.create ?cost ?tlb_entries () in
  let m = tb.Testbed.m in
  let app = Testbed.user_domain tb "app" in
  let recv = Testbed.user_domain tb "recv" in
  let alloc =
    Allocator.create tb.Testbed.region
      ~path:(Path.create [ app; recv ])
      ~variant ?policy ()
  in
  let conn = Ipc.connect tb.Testbed.region ~src:app ~dst:recv () in
  let roundtrip () =
    let msg = Testproto.make_message ~alloc ~as_:app ~bytes () in
    Ipc.call conn msg ~handler:(fun received ->
        Msg.touch_read received ~as_:recv;
        Ipc.free_deferred conn received);
    Msg.free_all msg ~dom:app
  in
  for _ = 1 to 3 do
    roundtrip ()
  done;
  let t0 = Machine.now m in
  let iters = 10 in
  for _ = 1 to iters do
    roundtrip ()
  done;
  Report.mbps ~bytes ~us:((Machine.now m -. t0) /. float_of_int iters)

let security_zeroing () =
  Report.print_title "Ablation: security clearing of uncached allocations";
  Report.print_columns [ "mechanism"; "us/page" ];
  let row name rows mech =
    let r = List.find (fun r -> r.Exp_table1.mechanism = mech) rows in
    Printf.printf "%s  %s\n"
      (Report.cell ~width:30 name)
      (Report.cell ~width:12 (Printf.sprintf "%.1f" r.Exp_table1.per_page_us))
  in
  let plain = Exp_table1.run ~zero_on_alloc:false () in
  let zeroed = Exp_table1.run ~zero_on_alloc:true () in
  row "volatile, no clearing" plain "fbufs, volatile";
  row "volatile, cleared (57us/page)" zeroed "fbufs, volatile";
  row "cached/volatile, no clearing" plain "fbufs, cached/volatile";
  row "cached/volatile, cleared" zeroed "fbufs, cached/volatile";
  print_endline
    "(cached buffers never need clearing: reuse stays on the same path)"

let tlb_size () =
  Report.print_title "Ablation: TLB size vs cached/volatile transfer cost";
  Report.print_columns [ "TLB entries"; "Mb/s @64K" ];
  List.iter
    (fun entries ->
      let v =
        one_boundary_mbps ~tlb_entries:entries Fbuf.cached_volatile 65536
      in
      Printf.printf "%s  %s\n"
        (Report.cell ~width:12 (string_of_int entries))
        (Report.cell ~width:12 (Printf.sprintf "%.0f" v)))
    [ 16; 32; 64; 128; 256; 512 ]

let ipc_latency () =
  Report.print_title "Ablation: IPC latency scaling (cached/volatile)";
  Report.print_columns [ "latency x"; "Mb/s @4K"; "Mb/s @64K" ];
  List.iter
    (fun scale ->
      let base = Cost_model.decstation_5000_200 in
      let cost =
        {
          base with
          Cost_model.ipc_call = base.Cost_model.ipc_call *. scale;
          ipc_reply = base.Cost_model.ipc_reply *. scale;
        }
      in
      let small = one_boundary_mbps ~cost Fbuf.cached_volatile 4096 in
      let large = one_boundary_mbps ~cost Fbuf.cached_volatile 65536 in
      Printf.printf "%s  %s  %s\n"
        (Report.cell ~width:12 (Printf.sprintf "%.2f" scale))
        (Report.cell ~width:12 (Printf.sprintf "%.0f" small))
        (Report.cell ~width:12 (Printf.sprintf "%.0f" large)))
    [ 0.25; 0.5; 1.0; 2.0; 4.0 ]

let free_list_policy () =
  Report.print_title
    "Ablation: LIFO vs FIFO free lists under memory pressure";
  Report.print_columns [ "policy"; "us/message"; "pages re-zeroed" ];
  let run policy =
    let tb = Testbed.create () in
    let m = tb.Testbed.m in
    let app = Testbed.user_domain tb "app" in
    let recv = Testbed.user_domain tb "recv" in
    let alloc =
      Allocator.create tb.Testbed.region
        ~path:(Path.create [ app; recv ])
        ~variant:Fbuf.cached_volatile ~policy ()
    in
    let conn = Ipc.connect tb.Testbed.region ~src:app ~dst:recv () in
    let burst n =
      let msgs =
        List.init n (fun _ ->
            Testproto.make_message ~alloc ~as_:app ~bytes:16384 ())
      in
      List.iter
        (fun msg ->
          Ipc.call conn msg ~handler:(fun received ->
              Msg.touch_read received ~as_:recv;
              Ipc.free_deferred conn received);
          Msg.free_all msg ~dom:app)
        msgs
    in
    (* Build a pool of 8 parked buffers, then run 4-deep bursts while the
       pageout daemon reclaims buffers that have been idle for more than
       one round. LIFO keeps allocating the warm head, so its working set
       never goes idle; FIFO rotates through all 8, parking each buffer
       long enough to be reclaimed — and pays the zero-fill refills. *)
    burst 8;
    let zeroed0 = Stats.get m.Machine.stats "vm.zero_fill" in
    let t0 = Machine.now m in
    let rounds = 20 in
    let round_us = ref 0.0 in
    for i = 1 to rounds do
      let t = Machine.now m in
      ignore
        (Allocator.reclaim alloc ~older_than_us:(1.5 *. !round_us)
           ~max_fbufs:8 ());
      burst 4;
      if i = 1 then round_us := Machine.now m -. t
    done;
    ( (Machine.now m -. t0) /. float_of_int (rounds * 4),
      Stats.get m.Machine.stats "vm.zero_fill" - zeroed0 )
  in
  List.iter
    (fun (name, policy) ->
      let us, zeroed = run policy in
      Printf.printf "%s  %s  %s\n"
        (Report.cell ~width:12 name)
        (Report.cell ~width:12 (Printf.sprintf "%.1f" us))
        (Report.cell ~width:12 (string_of_int zeroed)))
    [ ("LIFO", Allocator.Lifo); ("FIFO", Allocator.Fifo) ]

let window_size () =
  Report.print_title "Ablation: sliding-window size (user-user, 256K)";
  Report.print_columns [ "window"; "Mb/s" ];
  List.iter
    (fun w ->
      let p =
        Exp_fig5.run_one ~uncached:false ~config:Exp_fig5.User_user
          ~bytes:262144 ~window:w ()
      in
      Printf.printf "%s  %s\n"
        (Report.cell ~width:12 (string_of_int w))
        (Report.cell ~width:12 (Printf.sprintf "%.0f" p.Exp_fig5.mbps)))
    [ 1; 2; 4; 8; 16 ]

let chunk_size () =
  Report.print_title "Ablation: chunk granularity vs kernel involvement";
  Report.print_columns [ "chunk pages"; "kernel RPCs"; "us/message" ];
  List.iter
    (fun chunk_pages ->
      let config =
        {
          Region.default_config with
          Region.chunk_pages;
          max_chunks_per_allocator = 4096 / chunk_pages;
        }
      in
      let tb = Testbed.create ~config () in
      let m = tb.Testbed.m in
      let app = Testbed.user_domain tb "app" in
      let recv = Testbed.user_domain tb "recv" in
      let alloc =
        Allocator.create tb.Testbed.region
          ~path:(Path.create [ app; recv ])
          ~variant:Fbuf.volatile_only ()
      in
      let conn = Ipc.connect tb.Testbed.region ~src:app ~dst:recv () in
      let t0 = Machine.now m in
      let iters = 40 in
      for i = 1 to iters do
        (* Mixed sizes force address-space churn in the allocator. *)
        let bytes = 4096 * (1 + (i mod 5)) in
        let msg = Testproto.make_message ~alloc ~as_:app ~bytes () in
        Ipc.call conn msg ~handler:(fun received ->
            Msg.touch_read received ~as_:recv;
            Ipc.free_deferred conn received);
        Msg.free_all msg ~dom:app
      done;
      Printf.printf "%s  %s  %s\n"
        (Report.cell ~width:12 (string_of_int chunk_pages))
        (Report.cell ~width:12
           (string_of_int (Stats.get m.Machine.stats "region.chunk_rpc")))
        (Report.cell ~width:12
           (Printf.sprintf "%.1f" ((Machine.now m -. t0) /. float_of_int iters))))
    [ 4; 8; 16; 64 ]

let ipc_facility () =
  Report.print_title "Ablation: control-transfer facility (cached/volatile)";
  Report.print_columns [ "facility"; "Mb/s @4K"; "Mb/s @64K" ];
  let run facility bytes =
    let tb = Testbed.create () in
    let app = Testbed.user_domain tb "app" in
    let recv = Testbed.user_domain tb "recv" in
    let alloc =
      Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile
    in
    let conn = Ipc.connect tb.Testbed.region ~src:app ~dst:recv ~facility () in
    let roundtrip () =
      let msg = Testproto.make_message ~alloc ~as_:app ~bytes () in
      Ipc.call conn msg ~handler:(fun received ->
          Msg.touch_read received ~as_:recv;
          Ipc.free_deferred conn received);
      Msg.free_all msg ~dom:app
    in
    roundtrip ();
    let t0 = Machine.now tb.Testbed.m in
    for _ = 1 to 10 do
      roundtrip ()
    done;
    Report.mbps ~bytes ~us:((Machine.now tb.Testbed.m -. t0) /. 10.0)
  in
  List.iter
    (fun (name, facility) ->
      Printf.printf "%s  %s  %s\n"
        (Report.cell ~width:12 name)
        (Report.cell ~width:12 (Printf.sprintf "%.0f" (run facility 4096)))
        (Report.cell ~width:12 (Printf.sprintf "%.0f" (run facility 65536))))
    [ ("Mach RPC", Ipc.Mach); ("URPC", Ipc.Urpc) ]

let integrated_vs_rebuild () =
  Report.print_title
    "Ablation: integrated buffer management vs flatten/rebuild";
  Report.print_columns [ "fragments"; "rebuild us"; "integrated us" ];
  let run mode nfrags =
    let tb = Testbed.create () in
    let app = Testbed.user_domain tb "app" in
    let recv = Testbed.user_domain tb "recv" in
    let alloc =
      Testbed.allocator tb ~domains:[ app; recv ] Fbuf.cached_volatile
    in
    let conn = Ipc.connect tb.Testbed.region ~src:app ~dst:recv ~mode () in
    let send () =
      (* A reassembled ADU: nfrags PDU-sized buffers joined together. *)
      let msg =
        List.fold_left
          (fun acc _ ->
            Msg.join acc
              (Testproto.make_message ~alloc ~as_:app ~bytes:4096 ()))
          Msg.empty
          (List.init nfrags Fun.id)
      in
      Ipc.call conn msg ~handler:(fun received ->
          Msg.touch_read received ~as_:recv;
          Ipc.free_deferred conn received);
      Msg.free_all msg ~dom:app
    in
    send ();
    let t0 = Machine.now tb.Testbed.m in
    for _ = 1 to 10 do
      send ()
    done;
    (Machine.now tb.Testbed.m -. t0) /. 10.0
  in
  List.iter
    (fun nfrags ->
      Printf.printf "%s  %s  %s\n"
        (Report.cell ~width:12 (string_of_int nfrags))
        (Report.cell ~width:12
           (Printf.sprintf "%.0f" (run Ipc.Rebuild nfrags)))
        (Report.cell ~width:12
           (Printf.sprintf "%.0f" (run Ipc.Integrated nfrags))))
    [ 1; 4; 16; 64 ]

let securing_policy () =
  Report.print_title "Ablation: volatile (lazy secure) vs eager enforcement";
  Report.print_columns [ "policy"; "us/transfer @32K" ];
  let run ~variant ~secure_on_receive =
    let tb = Testbed.create () in
    let app = Testbed.user_domain tb "app" in
    let recv = Testbed.user_domain tb "recv" in
    let alloc = Testbed.allocator tb ~domains:[ app; recv ] variant in
    let conn = Ipc.connect tb.Testbed.region ~src:app ~dst:recv () in
    let roundtrip () =
      let msg = Testproto.make_message ~alloc ~as_:app ~bytes:32768 () in
      Ipc.call conn msg ~handler:(fun received ->
          if secure_on_receive then
            List.iter Transfer.secure (Msg.fbufs received);
          Msg.touch_read received ~as_:recv;
          Ipc.free_deferred conn received);
      Msg.free_all msg ~dom:app
    in
    roundtrip ();
    let t0 = Machine.now tb.Testbed.m in
    for _ = 1 to 10 do
      roundtrip ()
    done;
    (Machine.now tb.Testbed.m -. t0) /. 10.0
  in
  List.iter
    (fun (name, variant, secure_on_receive) ->
      Printf.printf "%s  %s\n"
        (Report.cell ~width:36 name)
        (Report.cell ~width:12
           (Printf.sprintf "%.0f" (run ~variant ~secure_on_receive))))
    [
      ("volatile, receiver trusts", Fbuf.cached_volatile, false);
      ("volatile, receiver secures", Fbuf.cached_volatile, true);
      ("eager (non-volatile)", Fbuf.cached_only, false);
    ]

let adapter_demux () =
  Report.print_title
    "Ablation: adapter demultiplexing capability (user-user, 256K)";
  Report.print_columns [ "adapter"; "Mb/s"; "rx CPU" ];
  List.iter
    (fun (name, hw_demux) ->
      let p =
        Exp_fig5.run_one ~uncached:false ~config:Exp_fig5.User_user
          ~bytes:262144 ~nmsgs:8 ~hw_demux ()
      in
      Printf.printf "%s  %s  %s\n"
        (Report.cell ~width:22 name)
        (Report.cell ~width:12 (Printf.sprintf "%.0f" p.Exp_fig5.mbps))
        (Report.cell ~width:12
           (Printf.sprintf "%.0f%%" (100.0 *. p.Exp_fig5.rx_cpu_load))))
    [ ("hw demux (Osiris)", true); ("fixed pool (Ethernet)", false) ]

let path_locality () =
  Report.print_title
    "Ablation: concurrent flows vs the 16-path cached-buffer table";
  Report.print_columns [ "flows"; "uncached %"; "evictions"; "us/PDU rx" ];
  let module Osiris = Fbufs_netdev.Osiris in
  List.iter
    (fun nflows ->
      let des = Des.create () in
      let tb1 = Testbed.create ~name:"tx" ~seed:5 () in
      let tb2 = Testbed.create ~name:"rx" ~seed:6 () in
      let k1 = tb1.Testbed.kernel and k2 = tb2.Testbed.kernel in
      let ad1 =
        Osiris.create ~m:tb1.Testbed.m ~des ~region:tb1.Testbed.region
          ~kernel:k1 ()
      in
      let ad2 =
        Osiris.create ~m:tb2.Testbed.m ~des ~region:tb2.Testbed.region
          ~kernel:k2 ()
      in
      Osiris.connect ad1 ad2;
      (* The driver (re)registers a path whenever traffic arrives on an
         unregistered VCI: most-recently-used replacement, as in the
         paper's driver. *)
      Osiris.set_rx_handler ad2 (fun ~vci msg ->
          if Osiris.rx_allocator ad2 ~vci = None then
            Osiris.register_path ad2 ~vci ~domains:[ k2 ];
          Msg.touch_read msg ~as_:k2;
          Msg.free_held msg ~dom:k2);
      let alloc = Testbed.allocator tb1 ~domains:[ k1 ] Fbuf.cached_volatile in
      let cp = Machine.checkpoint tb2.Testbed.m in
      let pdus = nflows * 8 in
      for i = 0 to pdus - 1 do
        (* Round-robin over the flows: the worst case for an LRU table. *)
        let vci = 100 + (i mod nflows) in
        let msg = Testproto.make_message ~alloc ~as_:k1 ~bytes:4096 () in
        Osiris.send_pdu ad1 ~vci msg;
        Msg.free_held msg ~dom:k1
      done;
      Des.run des;
      let _, busy0 = cp in
      let rx_us = (Machine.busy_us tb2.Testbed.m -. busy0) /. float_of_int pdus in
      Printf.printf "%s  %s  %s  %s\n"
        (Report.cell ~width:12 (string_of_int nflows))
        (Report.cell ~width:12
           (Printf.sprintf "%.0f%%"
              (100.0
              *. float_of_int (Osiris.uncached_rx_pdus ad2)
              /. float_of_int pdus)))
        (Report.cell ~width:12 (string_of_int (Osiris.evictions ad2)))
        (Report.cell ~width:12 (Printf.sprintf "%.0f" rx_us)))
    [ 4; 8; 16; 20; 32 ]

let pdu_size_cpu_load () =
  Report.print_title
    "Ablation: receiver CPU load at 1 MB messages (section 4)";
  Report.print_columns [ "PDU"; "mode"; "Mb/s"; "rx CPU load" ];
  List.iter
    (fun pdu_size ->
      List.iter
        (fun (mode, uncached) ->
          let p =
            Exp_fig5.run_one ~uncached ~config:Exp_fig5.User_user
              ~bytes:1048576 ~pdu_size ~nmsgs:8 ()
          in
          Printf.printf "%s  %s  %s  %s\n"
            (Report.cell ~width:12 (Report.fmt_size pdu_size))
            (Report.cell ~width:12 mode)
            (Report.cell ~width:12 (Printf.sprintf "%.0f" p.Exp_fig5.mbps))
            (Report.cell ~width:12
               (Printf.sprintf "%.0f%%" (100.0 *. p.Exp_fig5.rx_cpu_load))))
        [ ("cached", false); ("uncached", true) ])
    [ 16384; 32768 ]

let tlb_elision () =
  Report.print_title
    "Ablation: TLB shootdown deferral and elision (volatile, 64K)";
  Report.print_columns
    [ "mode"; "us/message"; "shootdowns"; "batch drains"; "elided" ];
  let run enabled =
    Fbufs_vm.Pmap.elision_enabled := enabled;
    Fun.protect ~finally:(fun () -> Fbufs_vm.Pmap.elision_enabled := true)
    @@ fun () ->
    (* A private registry on the machine so the elision counter is
       observable; everything else comes from the machine's own stats.
       Attached after creation so the run's other sinks stay on it. *)
    let mx = Fbufs_metrics.Metrics.create () in
    let tb = Testbed.create () in
    let m = tb.Testbed.m in
    Machine.set_obs m
      (Some
         { (Option.value m.Machine.obs ~default:Machine.no_obs) with
           metrics = Some mx });
    let app = Testbed.user_domain tb "app" in
    let recv = Testbed.user_domain tb "recv" in
    (* Volatile (uncached) buffers: every free unmaps, so this is the
       path where deferral has shootdowns to defer and same-range reuse
       has pending ones to cancel. Cached buffers stay mapped on free and
       never reach the queue. *)
    let alloc =
      Testbed.allocator tb ~domains:[ app; recv ] Fbuf.volatile_only
    in
    let conn = Ipc.connect tb.Testbed.region ~src:app ~dst:recv () in
    let roundtrip () =
      let msg = Testproto.make_message ~alloc ~as_:app ~bytes:65536 () in
      Ipc.call conn msg ~handler:(fun received ->
          Msg.touch_read received ~as_:recv;
          Ipc.free_deferred conn received);
      Msg.free_all msg ~dom:app
    in
    for _ = 1 to 3 do
      roundtrip ()
    done;
    let elided_total () =
      Fbufs_metrics.Metrics.total_by_name mx
        ~name:"fbufs_tlb_flushes_elided_total"
    in
    let before = Stats.snapshot m.Machine.stats in
    let el0 = elided_total () in
    let t0 = Machine.now m in
    let iters = 20 in
    for _ = 1 to iters do
      roundtrip ()
    done;
    let us = (Machine.now m -. t0) /. float_of_int iters in
    let d = Stats.since m.Machine.stats before in
    ( us,
      Stats.value d "tlb.shootdown",
      Stats.value d "tlb.shootdown_batch",
      elided_total () -. el0 )
  in
  let row name (us, shots, batches, elided) =
    Printf.printf "%s  %s  %s  %s  %s\n"
      (Report.cell ~width:14 name)
      (Report.cell ~width:12 (Printf.sprintf "%.1f" us))
      (Report.cell ~width:12 (Printf.sprintf "%.0f" shots))
      (Report.cell ~width:12 (Printf.sprintf "%.0f" batches))
      (Report.cell ~width:12 (Printf.sprintf "%.0f" elided))
  in
  row "elision on" (run true);
  row "elision off" (run false);
  print_endline
    "(on: warm reuse cancels the deferred shootdowns, so the steady state\n\
    \ neither flushes nor refills; off reproduces the PR 6 cost model)"

let run_all () =
  security_zeroing ();
  tlb_size ();
  tlb_elision ();
  ipc_latency ();
  ipc_facility ();
  integrated_vs_rebuild ();
  securing_policy ();
  free_list_policy ();
  window_size ();
  chunk_size ();
  adapter_demux ();
  path_locality ();
  pdu_size_cpu_load ()
