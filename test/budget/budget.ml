(* Exact allocation budgets.

   Prints one "row words" line per row: the minor words (Gc.minor_words)
   the row's code allocates. Minor words repeat exactly from run to run
   and host to host for one compiler (OCaml 5.1.1, no flambda, dune's
   default profile), where host time does not. The dune rule next to
   this file diffs the output against budget.txt, so any change in
   allocation, up or down, fails the diff and names the row; an intended
   change is accepted with [dune promote], which ratchets the table in
   the same diff as the code.

   Major rows ("major." and a row's name) print the words the same
   execution of that row allocates straight into the major heap: blocks
   too large for the minor heap, such as a PDU's wire copy. They are read
   with [Gc.quick_stat] as major minus promoted words, between two minor
   collections forced at the window's edges: without them the counts
   moved with the checkout's path and the environment's size. The minor
   heap is set to the runtime's default size before any row runs, so an
   [OCAMLRUNPARAM=s=...] in the environment does not move them either.
   Only fig5 and fig6, whose wire copies land there, have a major row:
   the counts are exact to some tens of words, and an operation row
   that allocates nothing there read slightly below 0.

   Run rows cover the computation behind each fbufs_cli experiment,
   without the printing; the buffer-sharing rows are what [ablation
   --only buffer-sharing] prints. Operation rows cover [window] ops of
   one operation on a fresh fixture, after [warmup] ops. Observed rows
   cover an experiment run with sinks attached, exports included.

   All rows run in one process in this fixed order: fig4 and fig5
   allocate a few words more on their first run in a process than on
   later ones, so a row's count depends on the rows before it. *)

open Fbufs
module H = Fbufs_harness
module Testbed = H.Testbed
module Msg = Fbufs_msg.Msg
module Ipc = Fbufs_ipc.Ipc
module Protocol = Fbufs_xkernel.Protocol
module Ip = Fbufs_protocols.Ip
module Udp = Fbufs_protocols.Udp
module Testproto = Fbufs_protocols.Testproto
module Osiris = Fbufs_netdev.Osiris
module Des = Fbufs_sim.Des
module Policy = Fbufs_policy.Policy
module Scenario = Fbufs_policy.Scenario
module Vm = Fbufs_vm
module Machine = Fbufs_sim.Machine
module Json = Fbufs_trace.Json
module Mx = Fbufs_metrics.Metrics
module Expo = Fbufs_metrics.Expo
module Span = Fbufs_span.Span
module Span_export = Fbufs_span.Span_export

let warmup = 20
let window = 1000

let words f =
  let before = Gc.minor_words () in
  f ();
  Float.to_int (Gc.minor_words () -. before)

let direct_major () =
  let s = Gc.quick_stat () in
  s.Gc.major_words -. s.Gc.promoted_words

(* The minor words of [f] and, read outside that window, its direct
   major words: the forced minor collections empty the minor heap
   before and promote what [f] left in it after, so what the counters
   hold does not depend on the rows before. *)
let words_and_major f =
  Gc.minor ();
  let before = direct_major () in
  let w = words f in
  Gc.minor ();
  (w, Float.to_int (direct_major () -. before))

let run_rows =
  [
    ("run.table1", fun () -> ignore (H.Exp_table1.run ()));
    ("run.remap", fun () -> ignore (H.Exp_remap.run ()));
    ("run.fig3", fun () -> ignore (H.Exp_fig3.run ()));
    ("run.fig4", fun () -> ignore (H.Exp_fig4.run ()));
    ("run.fig5", fun () -> ignore (H.Exp_fig5.run ~uncached:false ()));
    ("run.fig6", fun () -> ignore (H.Exp_fig5.run ~uncached:true ()));
  ]
  @ List.concat_map
      (fun name ->
        List.map
          (fun (policy, kind) ->
            ( Printf.sprintf "run.buffer-sharing.%s.%s" (Scenario.label name)
                policy,
              fun () -> ignore (Scenario.run ~kind name) ))
          [
            ("static", Policy.Static);
            ("fb-dynamic", Policy.Fb_dynamic { alpha = 0.5 });
          ])
      Scenario.all

(* ---------- operation fixtures: each returns one op ------------------ *)

(* Table 1's loop: the sender writes one word per page, the receiver
   reads one per page and frees; one op is one round trip. *)
let roundtrip variant ~bytes () =
  let tb = Testbed.create () in
  let app = Testbed.user_domain tb "app" in
  let recv = Testbed.user_domain tb "recv" in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] variant in
  let conn = Ipc.connect tb.Testbed.region ~src:app ~dst:recv () in
  let handler received =
    Msg.touch_read received ~as_:recv;
    Ipc.free_deferred conn received
  in
  fun () ->
    let msg = Testproto.make_message ~alloc ~as_:app ~bytes () in
    Ipc.call conn msg ~handler;
    Msg.free_all msg ~dom:app

(* One op moves 16 pages a -> b and back. *)
let remap_ping_pong () =
  let m = Fbufs_sim.Machine.create ~nframes:4096 () in
  let a = Vm.Pd.create m "a" and b = Vm.Pd.create m "b" in
  let npages = 16 in
  let vpn_a = Vm.Remap.alloc_pages a ~npages ~clear_fraction:0.0 in
  let vpn_b = Vm.Vm_map.reserve_private b.Vm.Pd.map ~npages in
  let move src dst src_vpn dst_vpn =
    ignore (Vm.Remap.move ~src ~dst ~src_vpn ~npages ~dst_vpn ())
  in
  move a b vpn_a vpn_b;
  fun () ->
    move b a vpn_b vpn_a;
    move a b vpn_a vpn_b

(* Figure 4's path: test protocol -> UDP/IP in the network server ->
   sink, two crossings. *)
let three_domains_send () =
  let stack = H.Stacks.three_domains () in
  fun () ->
    stack.H.Stacks.send
      (Testproto.make_message ~alloc:stack.H.Stacks.data_alloc
         ~as_:stack.H.Stacks.sender_dom ~bytes:16384 ())

(* Figure 5's kernel-kernel path: UDP/IP in 16 KB PDUs from one host's
   kernel over an Osiris null modem to a sink in the other's, cached
   receive buffers on the data vci. One op pushes one message and runs
   the scheduler until the sink has consumed it. *)
let two_hosts_udp ~bytes () =
  let des = Des.create () in
  let tb1 = Testbed.create ~name:"tx" ~seed:1 () in
  let tb2 = Testbed.create ~name:"rx" ~seed:2 () in
  let k1 = tb1.Testbed.kernel and k2 = tb2.Testbed.kernel in
  let ad1 =
    Osiris.create ~m:tb1.Testbed.m ~des ~region:tb1.Testbed.region ~kernel:k1
      ()
  in
  let ad2 =
    Osiris.create ~m:tb2.Testbed.m ~des ~region:tb2.Testbed.region ~kernel:k2
      ()
  in
  Osiris.connect ad1 ad2;
  let alloc tb k = Testbed.allocator tb ~domains:[ k ] Fbuf.cached_volatile in
  let driver =
    Protocol.create ~name:"osiris-tx" ~dom:k1
      ~push:(fun pdu -> Osiris.send_pdu ad1 ~vci:5 pdu)
      ()
  in
  let ip1 =
    Ip.create ~dom:k1 ~below:driver ~header_alloc:(alloc tb1 k1)
      ~pdu_size:16384 ()
  in
  let udp1 =
    Udp.create ~dom:k1 ~below:(Ip.proto ip1) ~header_alloc:(alloc tb1 k1)
      ~dst_port:2000 ()
  in
  Osiris.register_path ad2 ~vci:5 ~domains:[ k2 ];
  let ip2 =
    Ip.create ~dom:k2
      ~below:(Protocol.create ~name:"null" ~dom:k2 ())
      ~header_alloc:(alloc tb2 k2) ~pdu_size:16384 ()
  in
  let udp2 =
    Udp.create ~dom:k2
      ~below:(Protocol.create ~name:"null-up" ~dom:k2 ())
      ~header_alloc:(alloc tb2 k2) ()
  in
  Ip.set_up ip2 (Udp.proto udp2);
  let sink = Testproto.sink ~dom:k2 () in
  Udp.bind udp2 ~port:2000 (Testproto.sink_proto sink);
  Osiris.set_rx_handler ad2 (fun ~vci:_ msg -> (Ip.proto ip2).Protocol.pop msg);
  let data_alloc = alloc tb1 k1 in
  fun () ->
    let msg = Testproto.make_message ~alloc:data_alloc ~as_:k1 ~bytes () in
    (Udp.proto udp1).Protocol.push msg;
    Msg.free_held msg ~dom:k1;
    Des.run des

(* A mapped page whose translation is in the TLB. *)
let tlb_hit_page () =
  let m = Fbufs_sim.Machine.create ~nframes:64 () in
  let d = Vm.Pd.create m "access" in
  let vpn = Vm.Vm_map.reserve_private d.Vm.Pd.map ~npages:4 in
  Vm.Vm_map.map_zero_fill d.Vm.Pd.map ~vpn ~npages:4;
  let vaddr = vpn * 4096 in
  Vm.Access.write_word d ~vaddr 1;
  (d, vaddr)

let read_word () =
  let d, vaddr = tlb_hit_page () in
  fun () -> ignore (Vm.Access.read_word d ~vaddr)

(* One word per page, round robin over 128 mapped pages: twice the
   64-entry TLB, so nearly every read misses, refills and evicts. *)
let read_word_tlb_miss () =
  let m = Fbufs_sim.Machine.create ~nframes:256 () in
  let d = Vm.Pd.create m "access" in
  let npages = 128 in
  let vpn = Vm.Vm_map.reserve_private d.Vm.Pd.map ~npages in
  Vm.Vm_map.map_zero_fill d.Vm.Pd.map ~vpn ~npages;
  Vm.Access.touch_write d ~vaddr:(vpn * 4096) ~npages;
  let page = ref 0 in
  fun () ->
    ignore (Vm.Access.read_word d ~vaddr:((vpn + !page) * 4096));
    page := (!page + 1) mod npages

let write_word () =
  let d, vaddr = tlb_hit_page () in
  fun () -> Vm.Access.write_word d ~vaddr 1

let app_allocator () =
  let tb = Testbed.create () in
  let app = Testbed.user_domain tb "app" in
  (app, Testbed.allocator tb ~domains:[ app ] Fbuf.cached_volatile)

let split_join () =
  let _, alloc = app_allocator () in
  let msg = Msg.of_fbuf (Allocator.alloc alloc ~npages:4) ~off:0 ~len:16384 in
  fun () ->
    let a, b = Msg.split msg 4096 in
    ignore (Msg.join a b)

(* The shape IP reassembly delivers: 16 fragments of 16 KB joined left to
   right. One op reads 4 bytes at the start of each of its 64 pages, the
   benchmark's per-page check. *)
let sub_bytes () =
  let app, alloc = app_allocator () in
  let frag _ =
    let fb = Allocator.alloc alloc ~npages:4 in
    Fbuf_api.touch_write fb ~as_:app;
    Msg.of_fbuf fb ~off:0 ~len:16384
  in
  let msg = List.fold_left Msg.join Msg.empty (List.init 16 frag) in
  fun () ->
    for p = 0 to 63 do
      ignore (Msg.sub_bytes msg ~as_:app ~off:(p * 4096) ~len:4)
    done

(* One event through the scheduler: a closure built once. *)
let schedule_step () =
  let des = Des.create () in
  let fn () = () in
  fun () ->
    Des.schedule_after des 1.0 fn;
    ignore (Des.step des)

let serialize () =
  let app, alloc = app_allocator () in
  let leaf _ = Msg.of_fbuf (Allocator.alloc alloc ~npages:1) ~off:0 ~len:4096 in
  let msg = List.fold_left Msg.join Msg.empty (List.init 8 leaf) in
  let meta = Allocator.alloc alloc ~npages:1 in
  fun () -> ignore (Fbufs_msg.Integrated.serialize msg ~meta ~as_:app)

let op_rows =
  [
    ( "op.ipc-call.cached-volatile.1p",
      roundtrip Fbuf.cached_volatile ~bytes:4096 );
    ( "op.ipc-call.cached-volatile.8p",
      roundtrip Fbuf.cached_volatile ~bytes:32768 );
    ( "op.ipc-call.cached-volatile.64p",
      roundtrip Fbuf.cached_volatile ~bytes:262144 );
    ( "op.ipc-call.volatile-only.1p",
      roundtrip Fbuf.volatile_only ~bytes:4096 );
    ( "op.ipc-call.volatile-only.64k",
      roundtrip Fbuf.volatile_only ~bytes:65536 );
    ( "op.ipc-call.volatile-only.64p",
      roundtrip Fbuf.volatile_only ~bytes:262144 );
    ("op.remap-move.16p.ping-pong", remap_ping_pong);
    ("op.three-domains.send.16k", three_domains_send);
    ("op.two-hosts.udp.16k", two_hosts_udp ~bytes:16384);
    ("op.two-hosts.udp.256k", two_hosts_udp ~bytes:262144);
    ("op.access.read-word", read_word);
    ("op.access.read-word.tlb-miss", read_word_tlb_miss);
    ("op.access.write-word", write_word);
    ("op.msg.split-join.4k", split_join);
    ("op.msg.sub-bytes.64x4b", sub_bytes);
    ("op.integrated.serialize.8", serialize);
    ("op.des.schedule-step", schedule_step);
  ]

(* ---------- observed runs ------------------------------------------- *)

(* What [Run.with_outputs] does for [--metrics F.json] and [--spans
   F.jsonl], without its notes: one observer record installed for the
   run, then the transfer walls rolled into the registry and both
   exports written, to the null device. *)
let observed ~metrics ~spans run () =
  let mx = if metrics then Some (Mx.create ()) else None in
  let sink = if spans then Some (Span.create ()) else None in
  Machine.with_obs { Machine.no_obs with metrics = mx; spans = sink } run;
  Option.iter
    (fun s ->
      Option.iter (fun mx -> H.Run.roll_transfer_walls mx s) mx;
      Span_export.write_jsonl Filename.null s)
    sink;
  Option.iter
    (fun mx ->
      Json.write_file Filename.null (fun oc ->
          output_string oc (Expo.to_json_string mx)))
    mx

let observed_rows =
  [
    ( "run.table1.metrics",
      observed ~metrics:true ~spans:false (fun () ->
          ignore (H.Exp_table1.run ())) );
    ( "run.fig4.spans",
      observed ~metrics:false ~spans:true (fun () ->
          ignore (H.Exp_fig4.run ())) );
    ( "run.fig5.spans",
      observed ~metrics:false ~spans:true (fun () ->
          ignore (H.Exp_fig5.run ~uncached:false ())) );
    ( "run.fig6.observed",
      observed ~metrics:true ~spans:true (fun () ->
          ignore (H.Exp_fig5.run ~uncached:true ())) );
    ( "run.fig5.metrics",
      observed ~metrics:true ~spans:false (fun () ->
          ignore (H.Exp_fig5.run ~uncached:false ())) );
  ]

(* The rows that also print their direct major words. *)
let major_rows = [ "run.fig5"; "run.fig6" ]

let op_words fixture =
  let op = fixture () in
  for _ = 1 to warmup do
    op ()
  done;
  words (fun () ->
      for _ = 1 to window do
        op ()
      done)

let () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 262_144 };
  let print name words = Printf.printf "%-40s %d\n" name words in
  let majors = ref [] in
  let run_row (name, run) =
    let w, major = words_and_major run in
    print name w;
    if List.mem name major_rows then majors := (name, major) :: !majors
  in
  List.iter run_row run_rows;
  List.iter (fun (name, fixture) -> print name (op_words fixture)) op_rows;
  List.iter run_row observed_rows;
  List.iter (fun (name, major) -> print ("major." ^ name) major)
    (List.rev !majors)
