(* Shape regression tests: the paper's qualitative results, asserted.

   These do not pin absolute numbers (the cost model is calibrated, not
   identical hardware); they pin the claims the paper makes — who wins,
   by roughly what factor, and where the crossovers fall. *)

open Fbufs_harness

let check = Alcotest.check

let at series name bytes =
  match List.find_opt (fun s -> s.Report.name = name) series with
  | None -> Alcotest.fail (Printf.sprintf "series %s missing" name)
  | Some s -> (
      match List.assoc_opt bytes s.Report.points with
      | Some v -> v
      | None -> Alcotest.fail (Printf.sprintf "point %d missing" bytes))

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let test_mbps () =
  check (Alcotest.float 0.01) "1 KB in 8 us = 1024 Mb/s" 1024.0
    (Report.mbps ~bytes:1024 ~us:8.0)

let test_fmt_size () =
  check Alcotest.string "4K" "4K" (Report.fmt_size 4096);
  check Alcotest.string "1M" "1M" (Report.fmt_size 1048576);
  check Alcotest.string "odd" "1000" (Report.fmt_size 1000)

(* ------------------------------------------------------------------ *)
(* Table 1 shape                                                       *)
(* ------------------------------------------------------------------ *)

let table1 = lazy (Exp_table1.run ())

let t1 name =
  (List.find
     (fun r -> r.Exp_table1.mechanism = name)
     (Lazy.force table1))
    .Exp_table1.per_page_us

let test_table1_matches_paper_anchors () =
  let within pct paper v = Float.abs (v -. paper) /. paper <= pct in
  Alcotest.(check bool) "cached/volatile within 35% of 3us" true
    (within 0.35 3.0 (t1 "fbufs, cached/volatile"));
  Alcotest.(check bool) "volatile within 25% of 21us" true
    (within 0.25 21.0 (t1 "fbufs, volatile"));
  Alcotest.(check bool) "cached within 25% of 29us" true
    (within 0.25 29.0 (t1 "fbufs, cached"))

let test_table1_order_of_magnitude () =
  let cv = t1 "fbufs, cached/volatile" in
  Alcotest.(check bool) "10x better than uncached/non-volatile" true
    (t1 "fbufs, volatile" /. cv > 5.0
    && t1 "fbufs, cached" /. cv > 5.0
    && t1 "Mach COW" /. cv > 20.0)

let test_table1_copy_worst () =
  Alcotest.(check bool) "copy is the slowest mechanism" true
    (List.for_all
       (fun r ->
         r.Exp_table1.mechanism = "copy"
         || r.Exp_table1.per_page_us < t1 "copy")
       (Lazy.force table1))

(* ------------------------------------------------------------------ *)
(* Remap shape                                                         *)
(* ------------------------------------------------------------------ *)

let test_remap_uncached_fbufs_competitive () =
  (* "The performance of uncached fbufs is competitive with the fastest
     page remapping schemes." *)
  let rows = Exp_remap.run () in
  let pp =
    (List.find (fun r -> r.Exp_remap.scenario = "ping-pong (as published)") rows)
      .Exp_remap.per_page_us
  in
  let volatile = t1 "fbufs, volatile" in
  Alcotest.(check bool)
    (Printf.sprintf "volatile fbufs (%.1f) ~ remap ping-pong (%.1f)" volatile pp)
    true
    (volatile < pp *. 1.4)

(* ------------------------------------------------------------------ *)
(* Figure 3 shape                                                      *)
(* ------------------------------------------------------------------ *)

let fig3 = lazy (Exp_fig3.run ())

let test_fig3_cached_volatile_wins_everywhere () =
  let s = Lazy.force fig3 in
  List.iter
    (fun bytes ->
      let cv = at s "cached/volatile" bytes in
      List.iter
        (fun other ->
          Alcotest.(check bool)
            (Printf.sprintf "cv beats %s at %d" other bytes)
            true
            (cv > at s other bytes))
        [ "volatile"; "cached"; "plain"; "Mach native" ])
    [ 1024; 4096; 65536; 1048576 ]

let test_fig3_mach_beats_plain_only_below_2k () =
  let s = Lazy.force fig3 in
  Alcotest.(check bool) "at 1K Mach native is faster than plain fbufs" true
    (at s "Mach native" 1024 > at s "plain" 1024);
  Alcotest.(check bool) "at 4K it no longer is" true
    (at s "Mach native" 4096 < at s "plain" 4096)

let test_fig3_asymptotes_match_table1 () =
  let s = Lazy.force fig3 in
  (* At 1 MB the throughput approaches page_bits / per_page. *)
  let expect name mech =
    let asym = 4096.0 *. 8.0 /. t1 mech in
    let got = at s name 1048576 in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %.0f within 25%% of %.0f" name got asym)
      true
      (Float.abs (got -. asym) /. asym < 0.25)
  in
  expect "volatile" "fbufs, volatile";
  expect "cached" "fbufs, cached"

(* ------------------------------------------------------------------ *)
(* Figure 4 shape                                                      *)
(* ------------------------------------------------------------------ *)

let fig4 = lazy (Exp_fig4.run ())

let test_fig4_cached_approaches_single_domain () =
  let s = Lazy.force fig4 in
  let ratio b = at s "3 dom cached" b /. at s "single domain" b in
  Alcotest.(check bool)
    (Printf.sprintf "at 256K ratio %.2f >= 0.9" (ratio 262144))
    true
    (ratio 262144 >= 0.9);
  Alcotest.(check bool)
    (Printf.sprintf "at 1M ratio %.2f >= 0.95" (ratio 1048576))
    true
    (ratio 1048576 >= 0.95)

let test_fig4_cached_roughly_twice_uncached () =
  let s = Lazy.force fig4 in
  List.iter
    (fun b ->
      let r = at s "3 dom cached" b /. at s "3 dom uncached" b in
      Alcotest.(check bool)
        (Printf.sprintf "at %d cached/uncached = %.2f in [1.25, 2.6]" b r)
        true
        (r >= 1.25 && r <= 2.6))
    [ 4096; 65536; 1048576 ]

let test_fig4_fragmentation_knee_at_4k () =
  (* The single-domain curve loses its slope at the 4 KB PDU boundary. *)
  let s = Lazy.force fig4 in
  let v b = at s "single domain" b in
  let gain_below = v 2048 /. v 1024 in
  let gain_at = v 4096 /. v 2048 in
  Alcotest.(check bool)
    (Printf.sprintf "slope drops at 4K (%.2f -> %.2f)" gain_below gain_at)
    true
    (gain_at < gain_below -. 0.2)

(* ------------------------------------------------------------------ *)
(* Figures 5/6 shape                                                   *)
(* ------------------------------------------------------------------ *)

let test_fig5_crossings_free_for_large_messages () =
  let kk =
    Exp_fig5.run_one ~uncached:false ~config:Exp_fig5.Kernel_kernel
      ~bytes:262144 ~nmsgs:8 ()
  in
  let uu =
    Exp_fig5.run_one ~uncached:false ~config:Exp_fig5.User_user ~bytes:262144
      ~nmsgs:8 ()
  in
  let unu =
    Exp_fig5.run_one ~uncached:false ~config:Exp_fig5.User_netserver_user
      ~bytes:262144 ~nmsgs:8 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "uu %.0f within 3%% of kk %.0f" uu.Exp_fig5.mbps
       kk.Exp_fig5.mbps)
    true
    (uu.Exp_fig5.mbps > kk.Exp_fig5.mbps *. 0.97);
  Alcotest.(check bool) "unu too" true
    (unu.Exp_fig5.mbps > kk.Exp_fig5.mbps *. 0.95)

let test_fig5_medium_messages_pay_ipc () =
  let kk =
    Exp_fig5.run_one ~uncached:false ~config:Exp_fig5.Kernel_kernel
      ~bytes:16384 ~nmsgs:16 ()
  in
  let uu =
    Exp_fig5.run_one ~uncached:false ~config:Exp_fig5.User_user ~bytes:16384
      ~nmsgs:16 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "at 16K uu %.0f < kk %.0f" uu.Exp_fig5.mbps kk.Exp_fig5.mbps)
    true
    (uu.Exp_fig5.mbps < kk.Exp_fig5.mbps *. 0.92)

let test_fig5_max_at_io_bound () =
  let kk =
    Exp_fig5.run_one ~uncached:false ~config:Exp_fig5.Kernel_kernel
      ~bytes:524288 ~nmsgs:8 ()
  in
  (* The paper's 285 Mb/s TurboChannel ceiling. *)
  Alcotest.(check bool)
    (Printf.sprintf "max %.0f in [270, 290]" kk.Exp_fig5.mbps)
    true
    (kk.Exp_fig5.mbps > 270.0 && kk.Exp_fig5.mbps < 290.0)

let test_fig6_uncached_degrades_user_paths () =
  let cached =
    Exp_fig5.run_one ~uncached:false ~config:Exp_fig5.User_user ~bytes:524288
      ~nmsgs:8 ()
  in
  let uncached =
    Exp_fig5.run_one ~uncached:true ~config:Exp_fig5.User_user ~bytes:524288
      ~nmsgs:8 ()
  in
  let drop = 1.0 -. (uncached.Exp_fig5.mbps /. cached.Exp_fig5.mbps) in
  Alcotest.(check bool)
    (Printf.sprintf "degradation %.0f%% in [8%%, 30%%]" (100.0 *. drop))
    true
    (drop > 0.08 && drop < 0.30);
  Alcotest.(check bool) "receiver works harder uncached" true
    (uncached.Exp_fig5.rx_cpu_load > cached.Exp_fig5.rx_cpu_load)

let test_fig6_netserver_marginal () =
  (* UDP never touches the body, so the extra netserver crossing costs
     almost nothing even uncached (lazy mapping). *)
  let uu =
    Exp_fig5.run_one ~uncached:true ~config:Exp_fig5.User_user ~bytes:262144
      ~nmsgs:8 ()
  in
  let unu =
    Exp_fig5.run_one ~uncached:true ~config:Exp_fig5.User_netserver_user
      ~bytes:262144 ~nmsgs:8 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "unu %.0f within 6%% of uu %.0f" unu.Exp_fig5.mbps
       uu.Exp_fig5.mbps)
    true
    (unu.Exp_fig5.mbps > uu.Exp_fig5.mbps *. 0.94)

let test_fig5_data_integrity_under_load () =
  (* The end-to-end run asserts message counts internally; also check the
     rx CPU accounting is sane. *)
  let p =
    Exp_fig5.run_one ~uncached:false ~config:Exp_fig5.User_user ~bytes:65536
      ~nmsgs:12 ()
  in
  Alcotest.(check bool) "loads within [0,1]" true
    (p.Exp_fig5.rx_cpu_load >= 0.0
    && p.Exp_fig5.rx_cpu_load <= 1.0
    && p.Exp_fig5.tx_cpu_load >= 0.0
    && p.Exp_fig5.tx_cpu_load <= 1.0)

(* ------------------------------------------------------------------ *)
(* Testbed / stacks plumbing                                           *)
(* ------------------------------------------------------------------ *)

let test_testbed_domains_registered () =
  let tb = Testbed.create () in
  let d = Testbed.user_domain tb "x" in
  (* Registered domains resolve invalid region reads to the dead page. *)
  let config = Fbufs.Region.config tb.Testbed.region in
  let va = (config.Fbufs.Region.base_vpn + 7) * Testbed.page_size tb in
  check Alcotest.int "dead page read" 0 (Fbufs_vm.Access.read_word d ~vaddr:va)

(* Nothing process-global may keep a world alive: once a protocol graph
   is dropped, its machine (and with it region, frames and domains) is
   garbage. Built in its own function so no stack slot of the caller
   still holds the graph when the collector runs. *)
let[@inline never] weak_machine_of_dropped_stack () =
  let w = Weak.create 1 in
  Weak.set w 0 (Some (Stacks.three_domains ()).Stacks.tb.Testbed.m);
  w

let test_dropped_stack_collectable () =
  let w = weak_machine_of_dropped_stack () in
  Gc.full_major ();
  check Alcotest.bool "machine collected" false (Weak.check w 0)

let test_window_monotone () =
  let mbps w =
    (Exp_fig5.run_one ~uncached:false ~config:Exp_fig5.User_user ~bytes:131072
       ~window:w ~nmsgs:8 ())
      .Exp_fig5.mbps
  in
  let w1 = mbps 1 and w8 = mbps 8 in
  Alcotest.(check bool)
    (Printf.sprintf "window 8 (%.0f) >= window 1 (%.0f)" w8 w1)
    true (w8 >= w1)

(* A sink whose file cannot be written gets a "cannot write" note on
   stderr and the run still returns normally. /dev/full accepts the open
   and fails the write, at the flush that closing the channel does. *)
let cli_exe () =
  List.find_opt Sys.file_exists
    [ "../bin/fbufs_cli.exe"; "_build/default/bin/fbufs_cli.exe" ]

let count_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i acc =
    if i + m > n then acc
    else if String.sub s i m = sub then go (i + m) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_failed_write_reported () =
  match cli_exe () with
  | None -> Alcotest.skip ()
  | Some _ when not (Sys.file_exists "/dev/full") -> Alcotest.skip ()
  | Some exe ->
      let err = Filename.temp_file "sinks" ".err" in
      (* The recorder's first dump, every file a link to /dev/full. remap
         records no transfer, so its span file is empty, and an empty
         write succeeds: four notes. *)
      let dir = Filename.temp_dir "record" "" in
      let dump =
        List.map
          (fun name -> Filename.concat dir ("postmortem-1-" ^ name))
          [
            "events.jsonl"; "chrome.json"; "sampled.jsonl"; "spans.jsonl";
            "meta.json";
          ]
      in
      List.iter (Unix.symlink "/dev/full") dump;
      Fun.protect
        ~finally:(fun () ->
          List.iter Sys.remove (err :: dump);
          Sys.rmdir dir)
        (fun () ->
          List.iter
            (fun (args, target, notes) ->
              let code =
                Sys.command
                  (Printf.sprintf "%s %s > /dev/null 2> %s" exe args
                     (Filename.quote err))
              in
              check Alcotest.int (args ^ ": exit status") 0 code;
              let text = In_channel.with_open_bin err In_channel.input_all in
              List.iter
                (fun (sink, n) ->
                  check Alcotest.int
                    (Printf.sprintf "%s: %s notes" args sink)
                    n
                    (count_sub text (sink ^ ": cannot write " ^ target)))
                notes)
            [
              ( "trace --bytes 4096 --trace /dev/full --jsonl /dev/full \
                 --metrics /dev/full --spans /dev/full",
                "/dev/full",
                [ ("spans", 1); ("metrics", 1); ("trace", 2) ] );
              ( "spans --out /dev/full --chrome /dev/full",
                "/dev/full",
                [ ("spans", 2) ] );
              ( "stats remap --metrics /dev/full --folded /dev/full",
                "/dev/full",
                [ ("metrics", 2) ] );
              ( "remap --dump-on-exit --record " ^ Filename.quote dir,
                Filename.concat dir "postmortem-1-",
                [ ("record", 4) ] );
            ])

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "harness"
    [
      ( "report",
        [ tc "mbps" `Quick test_mbps; tc "fmt_size" `Quick test_fmt_size ] );
      ( "table1",
        [
          tc "matches paper anchors" `Slow test_table1_matches_paper_anchors;
          tc "order of magnitude" `Slow test_table1_order_of_magnitude;
          tc "copy worst" `Slow test_table1_copy_worst;
        ] );
      ( "remap",
        [ tc "uncached fbufs competitive" `Slow test_remap_uncached_fbufs_competitive ] );
      ( "fig3",
        [
          tc "cached/volatile wins everywhere" `Slow
            test_fig3_cached_volatile_wins_everywhere;
          tc "Mach beats plain only below 2K" `Slow
            test_fig3_mach_beats_plain_only_below_2k;
          tc "asymptotes match table1" `Slow test_fig3_asymptotes_match_table1;
        ] );
      ( "fig4",
        [
          tc "cached approaches single domain" `Slow
            test_fig4_cached_approaches_single_domain;
          tc "cached ~2x uncached" `Slow test_fig4_cached_roughly_twice_uncached;
          tc "fragmentation knee at 4K" `Slow test_fig4_fragmentation_knee_at_4k;
        ] );
      ( "fig5-fig6",
        [
          tc "crossings free for large messages" `Slow
            test_fig5_crossings_free_for_large_messages;
          tc "medium messages pay IPC" `Slow test_fig5_medium_messages_pay_ipc;
          tc "max at I/O bound" `Slow test_fig5_max_at_io_bound;
          tc "uncached degrades user paths" `Slow
            test_fig6_uncached_degrades_user_paths;
          tc "netserver marginal" `Slow test_fig6_netserver_marginal;
          tc "load accounting sane" `Slow test_fig5_data_integrity_under_load;
        ] );
      ( "plumbing",
        [
          tc "testbed registers domains" `Quick test_testbed_domains_registered;
          tc "dropped stack collectable" `Quick test_dropped_stack_collectable;
          tc "window monotone" `Slow test_window_monotone;
          tc "failed write reported" `Quick test_failed_write_reported;
        ] );
    ]
