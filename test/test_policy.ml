(* Buffer-sharing policies under memory pressure.

   The threshold arithmetic is pinned by direct unit checks; the priority
   contract (a higher class is never refused while a lower class still
   holds evictable over-threshold buffers) is a random property over real
   worlds; the incast scenario's exact drop counts pin the end-to-end
   behavior of both policies at equal pool size; attaching a Static
   policy must leave the simulated timeline bit-identical to running with
   no policy at all; the pageout daemon's cross-path victim selection is
   pinned buffer by buffer; and the planted admission bug
   (Policy.chaos_skip_threshold) must be caught by the differential
   checker and shrink to a handful of operations. *)

open Fbufs_sim
open Fbufs_vm
open Fbufs
module Policy = Fbufs_policy.Policy
module Scenario = Fbufs_policy.Scenario
module Check = Fbufs_check
module Testbed = Fbufs_harness.Testbed

(* -- threshold arithmetic ---------------------------------------------- *)

let classes = [ Policy.Control; Policy.Latency; Policy.Bulk ]

let test_threshold_static_unbounded () =
  List.iter
    (fun k ->
      List.iter
        (fun free ->
          Alcotest.(check int)
            (Printf.sprintf "static %s at %d free" (Policy.klass_label k) free)
            max_int
            (Policy.threshold Policy.Static k ~free_frames:free))
        [ 0; 1; 4096 ])
    classes

let test_threshold_weights_exact () =
  let kind = Policy.Fb_dynamic { alpha = 0.5 } in
  (* weight * alpha * free, truncated: 8/3/1 * 0.5 * 100. *)
  Alcotest.(check int) "control" 400
    (Policy.threshold kind Policy.Control ~free_frames:100);
  Alcotest.(check int) "latency" 150
    (Policy.threshold kind Policy.Latency ~free_frames:100);
  Alcotest.(check int) "bulk" 50
    (Policy.threshold kind Policy.Bulk ~free_frames:100)

let test_threshold_zero_free_zero_allowance () =
  let kind = Policy.Fb_dynamic { alpha = 0.5 } in
  List.iter
    (fun k ->
      Alcotest.(check int) (Policy.klass_label k) 0
        (Policy.threshold kind k ~free_frames:0))
    classes

let test_threshold_monotone_in_free () =
  let kind = Policy.Fb_dynamic { alpha = 0.31 } in
  List.iter
    (fun k ->
      for free = 0 to 299 do
        let lo = Policy.threshold kind k ~free_frames:free in
        let hi = Policy.threshold kind k ~free_frames:(free + 1) in
        if lo > hi then
          Alcotest.failf "%s allowance shrank as free grew: t(%d)=%d t(%d)=%d"
            (Policy.klass_label k) free lo (free + 1) hi
      done)
    classes

(* -- priority ordering (random worlds) --------------------------------- *)

(* Reclaim-before-drop is the priority guarantee: an allocation on a
   high class may only be Dropped when no strictly-lower-class path holds
   an evictable (parked, still-resident) buffer while over its threshold.
   Random pool sizes, random bulk fills, random control surges. *)
let prop_priority_never_starves_high_class =
  QCheck.Test.make
    ~name:"control never dropped while bulk holds evictable excess" ~count:25
    QCheck.(triple (int_bound 400) (int_bound 10) (int_bound 25))
    (fun (nf, bursts, surge) ->
      let nframes = 64 + nf in
      let tb = Testbed.create ~name:"prio" ~nframes () in
      let pol =
        Policy.create tb.Testbed.region (Policy.Fb_dynamic { alpha = 0.5 })
      in
      let sink = Testbed.user_domain tb "sink" in
      let mk name klass =
        let s = Testbed.user_domain tb name in
        let a =
          Testbed.allocator tb ~domains:[ s; sink ] Fbuf.cached_volatile
        in
        Policy.register pol a ~klass;
        (s, a)
      in
      let bulk_sender, bulk = mk "bulk" Policy.Bulk in
      let _ctl_sender, ctl = mk "ctl" Policy.Control in
      (* Bulk fill: park as many 4-page buffers as admission lets through. *)
      for _ = 1 to (1 + bursts) * 4 do
        try Transfer.free (Allocator.alloc bulk ~npages:4) ~dom:bulk_sender
        with
        | Policy.Dropped _
        | Region.Chunk_limit_exceeded _ | Region.Region_exhausted
        ->
          ()
      done;
      (* Control surge: buffers stay live, so pressure only mounts. *)
      let ok = ref true in
      for _ = 1 to 1 + surge do
        match Allocator.alloc ctl ~npages:1 with
        | _fb -> ()
        | exception Policy.Dropped _ ->
            (* A drop is only legal when no bulk victim was available:
               the refusal changed nothing, so the post-drop state is the
               decision-time state. *)
            if
              Policy.over_threshold pol bulk
              && List.exists Allocator.buffer_resident (Allocator.parked bulk)
            then ok := false
        | exception (Region.Chunk_limit_exceeded _ | Region.Region_exhausted)
          ->
            ()
      done;
      !ok)

(* -- incast end-to-end -------------------------------------------------- *)

(* The exact drop counts of the golden-pinned ablation, asserted as data:
   under incast at equal pool size the dynamic policy must deliver more,
   drop measurably less, and confine every drop to the bulk class. *)
let test_incast_exact_drops () =
  let s = Scenario.run ~kind:Policy.Static Scenario.Incast in
  let d =
    Scenario.run ~kind:(Policy.Fb_dynamic { alpha = 0.5 }) Scenario.Incast
  in
  Alcotest.(check int) "equal offered load" s.Scenario.attempts
    d.Scenario.attempts;
  Alcotest.(check int) "static attempts" 440 s.Scenario.attempts;
  Alcotest.(check int) "static drops" 134 s.Scenario.dropped;
  Alcotest.(check int) "dynamic drops" 8 d.Scenario.dropped;
  Alcotest.(check int) "dynamic reclaim-before-drop evictions" 14
    d.Scenario.evictions;
  Alcotest.(check bool) "dynamic drops fewer at equal pool" true
    (d.Scenario.dropped < s.Scenario.dropped);
  let dropped_of cls o =
    match
      List.find_opt (fun c -> c.Scenario.cls = cls) o.Scenario.by_class
    with
    | Some c -> c.Scenario.dropped
    | None -> Alcotest.failf "class %s missing from outcome" cls
  in
  Alcotest.(check int) "dynamic: control unharmed" 0 (dropped_of "control" d);
  Alcotest.(check int) "dynamic: latency unharmed" 0 (dropped_of "latency" d);
  Alcotest.(check int) "dynamic: bulk pays all drops" d.Scenario.dropped
    (dropped_of "bulk" d)

(* -- static policy is the identity -------------------------------------- *)

(* Attaching a Static policy must not perturb the simulated timeline: the
   hooks maintain an integer account and charge nothing. Same workload,
   with and without the policy attached — Machine.now must agree to the
   bit. *)
let equivalence_workload ~managed =
  let tb = Testbed.create ~name:"static-eq" ~nframes:256 () in
  let a = Testbed.user_domain tb "a" in
  let b = Testbed.user_domain tb "b" in
  let alloc = Testbed.allocator tb ~domains:[ a; b ] Fbuf.cached_volatile in
  if managed then begin
    let pol = Policy.create tb.Testbed.region Policy.Static in
    Policy.register pol alloc ~klass:Policy.Latency
  end;
  for _ = 1 to 50 do
    let fb = Allocator.alloc alloc ~npages:2 in
    Access.touch_write a ~vaddr:(Fbuf.vaddr fb) ~npages:2;
    Transfer.send fb ~src:a ~dst:b;
    Access.touch_read b ~vaddr:(Fbuf.vaddr fb) ~npages:2;
    Transfer.free fb ~dom:b;
    Transfer.free fb ~dom:a
  done;
  Machine.now tb.Testbed.m

let test_static_policy_identical_timeline () =
  Alcotest.(check (float 0.0))
    "simulated elapsed identical with Static attached"
    (equivalence_workload ~managed:false)
    (equivalence_workload ~managed:true)

(* -- deterministic cross-path victim selection --------------------------- *)

(* Five parked buffers interleaved across two paths, pool drained to
   zero by a live hog, then one daemon sweep. Which buffers lose their
   frames is part of the contract, pinned buffer by buffer. *)
let balance_world () =
  let tb = Testbed.create ~name:"balance" ~nframes:64 () in
  let sink = Testbed.user_domain tb "sink" in
  let ep name =
    let s = Testbed.user_domain tb name in
    (s, Testbed.allocator tb ~domains:[ s; sink ] Fbuf.cached_volatile)
  in
  let bs, bulk = ep "bulk" in
  let ls, lat = ep "lat" in
  (* All five allocated live first — LIFO reuse would otherwise hand the
     just-parked buffer straight back — so allocation order alone fixes
     the LRU order: b1 < l1 < b2 < l2 < b3. Then parked together. *)
  let b1 = Allocator.alloc bulk ~npages:4 in
  let l1 = Allocator.alloc lat ~npages:4 in
  let b2 = Allocator.alloc bulk ~npages:4 in
  let l2 = Allocator.alloc lat ~npages:4 in
  let b3 = Allocator.alloc bulk ~npages:4 in
  List.iter (fun fb -> Transfer.free fb ~dom:bs) [ b1; b2; b3 ];
  List.iter (fun fb -> Transfer.free fb ~dom:ls) [ l1; l2 ];
  (* A live hog takes 40 of the remaining 43 frames (one frame went to
     the host's shared dead page): free lands at 3, under both low-water
     marks used below. *)
  let hog_owner = Testbed.user_domain tb "hog" in
  let hog = Testbed.allocator tb ~domains:[ hog_owner ] Fbuf.volatile_only in
  for _ = 1 to 10 do
    (* Hog buffers stay live for the rest of the test by design. *)
    let _live : Fbuf.t = Allocator.alloc hog ~npages:4 in
    ()
  done;
  Alcotest.(check int) "pool drained to 3 free frames" 3
    (Phys_mem.free_frames tb.Testbed.m.Machine.pmem);
  (tb, bulk, lat, [ ("b1", b1); ("l1", l1); ("b2", b2); ("l2", l2); ("b3", b3) ])

let mk_daemon tb ~low_water_frames ~order allocs =
  let d = Pageout.create tb.Testbed.region ~low_water_frames ~order () in
  List.iter (Pageout.register d) allocs;
  d

let check_residency parked ~reclaimed =
  List.iter
    (fun (name, fb) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s %s" name
           (if List.mem name reclaimed then "reclaimed" else "survives"))
        (not (List.mem name reclaimed))
        (Allocator.buffer_resident fb))
    parked

(* Default order: global LRU across both paths — oldest first regardless
   of which allocator parks it, so b1 then l1. *)
let test_balance_global_lru_across_paths () =
  let tb, bulk, lat, parked = balance_world () in
  let daemon =
    mk_daemon tb ~low_water_frames:8 ~order:Pageout.lru_order [ bulk; lat ]
  in
  Alcotest.(check int) "two victims reach the low-water mark" 2
    (Pageout.balance daemon);
  check_residency parked ~reclaimed:[ "b1"; "l1" ]

(* Policy order: at sweep-start free = 3 both paths are over threshold
   (bulk holds 12 > 1 allowed, latency 8 > 4), so rank decides before
   LRU — every bulk buffer outranks latency, and one 4-page victim
   reaches the low-water mark. The policy attaches after the fill so
   admission control plays no part here. *)
let test_balance_policy_order_rank_first () =
  let tb, bulk, lat, parked = balance_world () in
  let pol =
    Policy.create tb.Testbed.region (Policy.Fb_dynamic { alpha = 0.5 })
  in
  Policy.register pol bulk ~klass:Policy.Bulk;
  Policy.register pol lat ~klass:Policy.Latency;
  let daemon =
    mk_daemon tb ~low_water_frames:4 ~order:(Policy.pageout_order pol)
      [ bulk; lat ]
  in
  Alcotest.(check int) "one victim reaches the low-water mark" 1
    (Pageout.balance daemon);
  check_residency parked ~reclaimed:[ "b1" ]

(* -- planted admission bug caught and shrunk ----------------------------- *)

(* Acceptance for the differential layer: skip the threshold comparison
   (admit unconditionally) and the event-log re-derivation must fail the
   run, and the counterexample must shrink to a handful of operations. *)
let test_policy_chaos_bug_caught_and_shrunk () =
  Fun.protect ~finally:(fun () -> Policy.chaos_skip_threshold := false)
  @@ fun () ->
  Policy.chaos_skip_threshold := true;
  let report, ops = Check.Driver.run ~seed:1 ~ops:400 ~adversary:true () in
  Alcotest.(check bool) "seeded bug detected" true (Check.Driver.failed report);
  let shrunk, shrunk_report = Check.Shrink.minimize ~seed:1 ops in
  Alcotest.(check bool) "shrunk sequence still fails" true
    (Check.Driver.failed shrunk_report);
  if List.length shrunk > 10 then
    Alcotest.failf "minimal reproducer has %d ops (> 10):@.%a"
      (List.length shrunk) Check.Op.pp_list shrunk;
  Policy.chaos_skip_threshold := false;
  Alcotest.(check bool) "shrunk sequence passes without the bug" false
    (Check.Driver.failed (Check.Driver.replay ~seed:1 shrunk))

let () =
  Alcotest.run "policy"
    [
      ( "thresholds",
        [
          Alcotest.test_case "static is unbounded" `Quick
            test_threshold_static_unbounded;
          Alcotest.test_case "weights exact" `Quick test_threshold_weights_exact;
          Alcotest.test_case "zero free, zero allowance" `Quick
            test_threshold_zero_free_zero_allowance;
          Alcotest.test_case "monotone in free" `Quick
            test_threshold_monotone_in_free;
        ] );
      ( "priority",
        [ QCheck_alcotest.to_alcotest prop_priority_never_starves_high_class ]
      );
      ( "incast",
        [ Alcotest.test_case "exact drop counts" `Quick test_incast_exact_drops ]
      );
      ( "static equivalence",
        [
          Alcotest.test_case "timeline identical" `Quick
            test_static_policy_identical_timeline;
        ] );
      ( "balance determinism",
        [
          Alcotest.test_case "global LRU across paths" `Quick
            test_balance_global_lru_across_paths;
          Alcotest.test_case "policy order ranks bulk first" `Quick
            test_balance_policy_order_rank_first;
        ] );
      ( "fault injection",
        [
          Alcotest.test_case "seeded admission bug caught, shrunk to <= 10"
            `Quick test_policy_chaos_bug_caught_and_shrunk;
        ] );
    ]
