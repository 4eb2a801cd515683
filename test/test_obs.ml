(* The flight recorder and online monitors.

   The recorder's stores are bounded and seeded: the ring keeps exactly
   the newest items, equal seeds over equal runs render byte-identical
   dumps, and the dump trigger honours the debounce window and lifetime
   cap. The planted admission bug (Policy.chaos_skip_threshold) must
   surface as an online gauge violation whose dump round-trips through
   the span parser — and the same fault must still fail the offline
   differential checker, so the monitors are a preview of the checker,
   not a replacement. *)

open Fbufs
module Machine = Fbufs_sim.Machine
module Trace = Fbufs_trace.Trace
module Mx = Fbufs_metrics.Metrics
module Span_export = Fbufs_span.Span_export
module Testbed = Fbufs_harness.Testbed
module Policy = Fbufs_policy.Policy
module Scenario = Fbufs_policy.Scenario
module Check = Fbufs_check
module Ring = Fbufs_obs.Ring
module Recorder = Fbufs_obs.Recorder
module Monitor = Fbufs_obs.Monitor

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* Dump dirs under the system temp dir, so running the test executable
   outside the dune sandbox cannot litter the working tree. *)
let tmp_dump_dir name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "fbufs-%s-%d" name (Unix.getpid ()))

(* Arm [r] over [base] (its own ring sinks where [base] has none) and run
   [f] under the resulting record, which it receives. *)
let armed ?(base = Machine.no_obs) r f =
  let o = Recorder.arm r base in
  Fun.protect
    ~finally:(fun () -> Recorder.disarm r)
    (fun () -> Machine.with_obs o (fun () -> f o))

(* -- ring --------------------------------------------------------------- *)

let test_ring_wraparound () =
  let r = Ring.create ~capacity:3 in
  Alcotest.(check (option int)) "push 1" None (Ring.push r 1);
  Alcotest.(check (option int)) "push 2" None (Ring.push r 2);
  Alcotest.(check (option int)) "push 3" None (Ring.push r 3);
  Alcotest.(check (option int)) "4 evicts 1" (Some 1) (Ring.push r 4);
  Alcotest.(check (option int)) "5 evicts 2" (Some 2) (Ring.push r 5);
  Alcotest.(check (list int)) "newest three, oldest first" [ 3; 4; 5 ]
    (Ring.to_list r);
  Alcotest.(check int) "length" 3 (Ring.length r);
  Alcotest.(check int) "pushed counts everything" 5 (Ring.pushed r)

let test_ring_trace_wraparound () =
  let t = Trace.create ~ring:true ~capacity:4 () in
  for i = 1 to 10 do
    Trace.instant t ~ts_us:(float_of_int i) ~machine:"m"
      (Printf.sprintf "e%d" i)
  done;
  let kinds = List.map (fun e -> e.Trace.kind) (Trace.events t) in
  Alcotest.(check (list string)) "newest four, oldest first"
    [ "e7"; "e8"; "e9"; "e10" ] kinds;
  Alcotest.(check int) "overwrites counted as drops" 6 (Trace.dropped t)

(* -- seeded sampling determinism ---------------------------------------- *)

(* Feed one fixed synthetic event stream — instants and completes with
   spread-out durations, so reservoir weights differ — through an armed
   recorder's own ring sink; return the dump it would write. Synthetic
   events carry no process-global ids, so dumps can be compared byte
   for byte within one process. *)
let synthetic_dump () =
  let r = Recorder.create ~dir:(tmp_dump_dir "obs-unused") in
  armed r (fun o ->
      let tr = Option.get o.Machine.trace in
      for i = 1 to 500 do
        let ts = float_of_int i *. 3.0 in
        if i mod 3 = 0 then
          Trace.complete tr ~ts_us:ts
            ~dur_us:(float_of_int (i mod 17) +. 0.5)
            ~machine:"syn"
            (Printf.sprintf "work%d" (i mod 5))
        else
          Trace.instant tr ~ts_us:ts ~machine:"syn"
            (Printf.sprintf "mark%d" (i mod 7))
      done;
      Alcotest.(check int) "all events tapped" 500 (Recorder.events_seen r);
      Recorder.render_dump r ~reason:"det")

let lines s = List.filter (( <> ) "") (String.split_on_char '\n' s)

let test_same_seed_identical_dump () =
  let a = synthetic_dump () and b = synthetic_dump () in
  List.iter2
    (fun (na, ca) (nb, cb) ->
      Alcotest.(check string) ("file name " ^ na) na nb;
      Alcotest.(check string) (na ^ " byte-identical") ca cb)
    a b;
  (* The 256-event weighted sample is a real sample of the 500-event
     stream (which the 4096-event ring holds whole), not its head or
     its tail. *)
  let stream = lines (List.assoc "events.jsonl" a) in
  let sample = lines (List.assoc "sampled.jsonl" a) in
  Alcotest.(check int) "whole stream in the ring" 500 (List.length stream);
  Alcotest.(check int) "reservoir full" 256 (List.length sample);
  Alcotest.(check bool) "sample is not the first 256 events" false
    (sample = List.filteri (fun i _ -> i < 256) stream);
  Alcotest.(check bool) "sample is not the last 256 events" false
    (sample = List.filteri (fun i _ -> i >= 500 - 256) stream)

(* The recorder taps a live machine run: events flow, transfer roots are
   seen and kept (counters, not byte comparisons — machine runs embed
   process-global path and span ids). *)
let test_recorder_taps_live_run () =
  let r = Recorder.create ~dir:(tmp_dump_dir "obs-unused") in
  armed r (fun _ ->
      let tb = Testbed.create ~name:"obs-det" () in
      let src = Testbed.user_domain tb "src" in
      let dst = Testbed.user_domain tb "dst" in
      let alloc =
        Testbed.allocator tb ~domains:[ src; dst ] Fbuf.cached_volatile
      in
      let m = tb.Testbed.m in
      for i = 1 to 8 do
        Machine.with_transfer m ~path_id:i "obs-xfer" (fun () ->
            let fb = Allocator.alloc alloc ~npages:2 in
            Fbufs_vm.Access.touch_write src ~vaddr:(Fbuf.vaddr fb) ~npages:2;
            Transfer.send fb ~src ~dst;
            Transfer.secure fb;
            Transfer.free fb ~dom:dst;
            Transfer.free fb ~dom:src)
      done;
      Alcotest.(check bool) "events observed" true (Recorder.events_seen r > 0);
      Alcotest.(check int) "all eight roots seen" 8 (Recorder.roots_seen r);
      let dump = Recorder.render_dump r ~reason:"live" in
      let kept = Span_export.parse_jsonl (List.assoc "spans.jsonl" dump) in
      Alcotest.(check int) "all eight round-trip" 8 (List.length kept))

(* -- dump trigger debounce ---------------------------------------------- *)

(* The recorder debounces dumps by 10 ms of simulated time and writes at
   most four. *)
let test_trigger_debounce_and_cap () =
  let r = Recorder.create ~dir:(tmp_dump_dir "obs-debounce-dump") in
  armed r (fun o ->
      let tr = Option.get o.Machine.trace in
      let at ts = Trace.instant tr ~ts_us:ts ~machine:"m" "tick" in
      at 0.0;
      Alcotest.(check bool) "first fires" true (Recorder.trigger r ~reason:"a");
      at 5_000.0;
      Alcotest.(check bool) "inside window suppressed" false
        (Recorder.trigger r ~reason:"b");
      List.iter
        (fun ts ->
          at ts;
          Alcotest.(check bool)
            (Printf.sprintf "past window fires at %.0f us" ts)
            true
            (Recorder.trigger r ~reason:"c"))
        [ 20_000.0; 40_000.0; 60_000.0 ];
      at 80_000.0;
      Alcotest.(check bool) "over cap suppressed" false
        (Recorder.trigger r ~reason:"d");
      Alcotest.(check bool) "force bypasses both" true
        (Recorder.trigger ~force:true r ~reason:"exit");
      Alcotest.(check int) "four capped dumps plus the forced one" 5
        (Recorder.dumps r))

(* A dump whose files cannot be written is reported on stderr and
   skipped: the trigger returns, the dump counts, and nothing escapes
   into the run that triggered it. *)
let test_failed_dump_write_reported () =
  if not (Sys.file_exists "/dev/full") then Alcotest.skip ();
  let dir = tmp_dump_dir "obs-full-dump" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let files =
    List.map
      (fun name -> Filename.concat dir ("postmortem-1-" ^ name))
      [
        "events.jsonl"; "chrome.json"; "sampled.jsonl"; "spans.jsonl";
        "meta.json";
      ]
  in
  let remove p = try Sys.remove p with Sys_error _ -> () in
  Fun.protect
    ~finally:(fun () ->
      List.iter remove files;
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
      List.iter
        (fun p ->
          remove p;
          Unix.symlink "/dev/full" p)
        files;
      let r = Recorder.create ~dir in
      armed r (fun _ ->
          Alcotest.(check bool) "dump triggered" true
            (Recorder.trigger ~force:true r ~reason:"exit"));
      Alcotest.(check int) "dump counted" 1 (Recorder.dumps r))

(* -- planted violation: monitors fire, dump round-trips ------------------ *)

let test_planted_violation_monitors_and_dump () =
  Fun.protect ~finally:(fun () -> Policy.chaos_skip_threshold := false)
  @@ fun () ->
  let mx = Mx.create () in
  let r = Recorder.create ~dir:(tmp_dump_dir "obs-violation-dump") in
  let mon = Monitor.create ~recorder:r () in
  armed r
    ~base:
      {
        Machine.no_obs with
        metrics = Some mx;
        seq_hook = Some (Monitor.hook mon);
      }
    (fun _ ->
      Policy.chaos_skip_threshold := true;
      (* Un-enforced admission leaks held pages until the arena is
         exhausted; the crash is the fault's endgame — the monitors must
         have flagged it (and dumped) well before. *)
      try
        ignore
          (Scenario.run ~kind:(Policy.Fb_dynamic { alpha = 0.5 }) Scenario.Incast)
      with Fbufs_sim.Phys_mem.Out_of_memory -> ());
  (* the gauge rule saw held pages over an un-enforced threshold *)
  Alcotest.(check bool) "violations recorded" true
    (Monitor.violation_count mon > 0);
  Alcotest.(check bool) "a gauge violation among them" true
    (List.exists (fun (rule, _) -> rule = "gauge") (Monitor.violations mon));
  Alcotest.(check bool) "violation metric exported" true
    (Mx.total_by_name mx ~name:"fbufs_monitor_violations_total" > 0.0);
  Alcotest.(check bool) "violation triggered a dump" true
    (Recorder.dumps r >= 1);
  (* the dump round-trips: span lines parse back, and the violation left
     its marker in the recorded event stream *)
  let dump = Recorder.render_dump r ~reason:"post" in
  let (_ : Fbufs_span.Span.transfer list) =
    Span_export.parse_jsonl (List.assoc "spans.jsonl" dump)
  in
  Alcotest.(check bool) "violation marker in events" true
    (contains (List.assoc "events.jsonl" dump) "monitor.violation");
  Alcotest.(check bool) "meta names the reason" true
    (contains (List.assoc "meta.json" dump) "post")

(* The monitors are a preview, not a replacement: the same planted fault
   must still fail the offline differential checker. *)
let test_planted_violation_still_fails_checker () =
  Fun.protect ~finally:(fun () -> Policy.chaos_skip_threshold := false)
  @@ fun () ->
  Policy.chaos_skip_threshold := true;
  let report, _ops = Check.Driver.run ~seed:1 ~ops:400 ~adversary:true () in
  Alcotest.(check bool) "offline checker catches the same fault" true
    (Check.Driver.failed report)

(* Monitors on a healthy metered run stay silent. *)
let test_monitors_silent_on_healthy_run () =
  let mx = Mx.create () in
  let mon = Monitor.create () in
  Machine.with_obs
    { Machine.no_obs with metrics = Some mx; seq_hook = Some (Monitor.hook mon) }
    (fun () ->
      ignore
        (Scenario.run ~kind:(Policy.Fb_dynamic { alpha = 0.5 }) Scenario.Incast));
  Alcotest.(check bool) "sequence points observed" true (Monitor.checks mon > 0);
  Alcotest.(check int) "no violations" 0 (Monitor.violation_count mon)

(* The setup [table1 --record DIR --metrics FILE] builds: a recorder
   dumping to a directory, the monitor on the sequence-point hook and a
   metrics registry. Table 1 builds several testbeds that all name their
   machine "host"; a healthy run must raise no violation and write no
   dump. *)
let test_table1_recorded_and_metered_is_silent () =
  let mx = Mx.create () in
  let r = Recorder.create ~dir:(tmp_dump_dir "obs-table1-dump") in
  let mon = Monitor.create ~recorder:r () in
  armed r
    ~base:
      {
        Machine.no_obs with
        metrics = Some mx;
        seq_hook = Some (Monitor.hook mon);
      }
    (fun _ -> ignore (Fbufs_harness.Exp_table1.run ()));
  Alcotest.(check bool) "sequence points observed" true (Monitor.checks mon > 0);
  Alcotest.(check int) "no violations" 0 (Monitor.violation_count mon);
  Alcotest.(check int) "no dumps" 0 (Recorder.dumps r)

let () =
  Alcotest.run "obs"
    [
      ( "ring",
        [
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "trace ring wraparound" `Quick
            test_ring_trace_wraparound;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "same seed, identical dump" `Quick
            test_same_seed_identical_dump;
          Alcotest.test_case "recorder taps a live run" `Quick
            test_recorder_taps_live_run;
        ] );
      ( "trigger",
        [
          Alcotest.test_case "debounce window and dump cap" `Quick
            test_trigger_debounce_and_cap;
          Alcotest.test_case "failed dump write reported, not raised" `Quick
            test_failed_dump_write_reported;
        ] );
      ( "monitors",
        [
          Alcotest.test_case "planted violation dumps and round-trips" `Quick
            test_planted_violation_monitors_and_dump;
          Alcotest.test_case "same fault fails the offline checker" `Quick
            test_planted_violation_still_fails_checker;
          Alcotest.test_case "silent on a healthy run" `Quick
            test_monitors_silent_on_healthy_run;
          Alcotest.test_case "silent on recorded, metered table1" `Quick
            test_table1_recorded_and_metered_is_silent;
        ] );
    ]
