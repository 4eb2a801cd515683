open Fbufs_sim
open Fbufs
module Msg = Fbufs_msg.Msg
module Ipc = Fbufs_ipc.Ipc
module Testproto = Fbufs_protocols.Testproto

let sizes = List.init 11 (fun i -> 1024 lsl i)

let warmup = 3
let iters = 10

let fbuf_series name variant =
  let points =
    List.map
      (fun bytes ->
        let tb = Testbed.create () in
        let m = tb.Testbed.m in
        let app = Testbed.user_domain tb "app" in
        let recv = Testbed.user_domain tb "recv" in
        let alloc = Testbed.allocator tb ~domains:[ app; recv ] variant in
        let conn = Ipc.connect tb.Testbed.region ~src:app ~dst:recv () in
        let roundtrip () =
          let msg = Testproto.make_message ~alloc ~as_:app ~bytes () in
          Ipc.call conn msg ~handler:(fun received ->
              Msg.touch_read received ~as_:recv;
              Ipc.free_deferred conn received);
          Msg.free_all msg ~dom:app
        in
        for _ = 1 to warmup do
          roundtrip ()
        done;
        let t0 = Machine.now m in
        for _ = 1 to iters do
          roundtrip ()
        done;
        let us = (Machine.now m -. t0) /. float_of_int iters in
        (bytes, Report.mbps ~bytes ~us))
      sizes
  in
  { Report.name; points }

let mach_series () =
  let points =
    List.map
      (fun bytes ->
        let tb = Testbed.create () in
        let m = tb.Testbed.m in
        let src = Testbed.user_domain tb "src" in
        let dst = Testbed.user_domain tb "dst" in
        let mach =
          Fbufs_baseline.Mach_native.create ~src ~dst ~kernel:tb.Testbed.kernel
        in
        let entries = m.Machine.cost.Cost_model.ipc_tlb_footprint in
        let roundtrip () =
          Machine.charge ~kind:Machine.untyped
            ~comp:Fbufs_metrics.Component.Ipc m
            m.Machine.cost.Cost_model.ipc_call;
          Machine.domain_crossing_tlb_pressure ~entries m;
          Fbufs_baseline.Mach_native.transfer mach ~bytes;
          Machine.charge ~kind:Machine.untyped
            ~comp:Fbufs_metrics.Component.Ipc m
            m.Machine.cost.Cost_model.ipc_reply;
          Machine.domain_crossing_tlb_pressure ~entries m
        in
        for _ = 1 to warmup do
          roundtrip ()
        done;
        let t0 = Machine.now m in
        for _ = 1 to iters do
          roundtrip ()
        done;
        let us = (Machine.now m -. t0) /. float_of_int iters in
        (bytes, Report.mbps ~bytes ~us))
      sizes
  in
  { Report.name = "Mach native"; points }

let run () =
  [
    fbuf_series "cached/volatile" Fbuf.cached_volatile;
    fbuf_series "volatile" Fbuf.volatile_only;
    fbuf_series "cached" Fbuf.cached_only;
    fbuf_series "plain" Fbuf.plain;
    mach_series ();
  ]

let print series =
  Report.print_title
    "Figure 3: single-boundary throughput vs message size (Mb/s)";
  Report.print_series_table ~x_label:"msg size" series
