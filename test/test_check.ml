(* The checker checked.

   Seeded differential runs must pass on the healthy stack in both modes;
   the structural audit must be clean over a live system; a deliberately
   seeded protection bug (Transfer.chaos_skip_protect) must be caught and
   shrink to a handful of operations; and the adversarial corners the
   checker leans on — malformed DAGs, pageout under caching — must behave
   as documented when driven directly. *)

open Fbufs_sim
open Fbufs_vm
open Fbufs
module Check = Fbufs_check
module Testbed = Fbufs_harness.Testbed
module Msg = Fbufs_msg.Msg
module Integrated = Fbufs_msg.Integrated

let check_seed ~adversary seed =
  let report, _ = Check.Driver.run ~seed ~ops:300 ~adversary () in
  match report.Check.Driver.failure with
  | None -> ()
  | Some (step, op, msg) ->
      Alcotest.failf "seed %d step %d (%a): %s" seed step Check.Op.pp op msg

let test_normal_seeds () = List.iter (check_seed ~adversary:false) [ 1; 2; 3 ]
let test_adversary_seeds () = List.iter (check_seed ~adversary:true) [ 1; 2; 3 ]

let test_replay_deterministic () =
  let ops = Check.Driver.gen_ops ~seed:5 ~n:200 ~adversary:true in
  let r1 = Check.Driver.replay ~seed:5 ops in
  let r2 = Check.Driver.replay ~seed:5 ops in
  Alcotest.(check bool) "no failure" false
    (Check.Driver.failed r1 || Check.Driver.failed r2);
  Alcotest.(check int) "same executed count" r1.Check.Driver.executed
    r2.Check.Driver.executed;
  Alcotest.(check int) "same skipped count" r1.Check.Driver.skipped
    r2.Check.Driver.skipped

(* The audit over a healthy hand-built system finds nothing. *)
let test_audit_clean () =
  let tb = Testbed.create () in
  let a = Testbed.user_domain tb "a" in
  let b = Testbed.user_domain tb "b" in
  let alloc = Testbed.allocator tb ~domains:[ a; b ] Fbuf.cached_volatile in
  let fb1 = Allocator.alloc alloc ~npages:2 in
  Transfer.send fb1 ~src:a ~dst:b;
  ignore (Access.read_bytes b ~vaddr:(Fbuf.vaddr fb1) ~len:(Fbuf.size fb1));
  let fb2 = Allocator.alloc alloc ~npages:1 in
  Transfer.free fb2 ~dom:a;
  let target =
    {
      Check.Audit.region = tb.Testbed.region;
      domains = [ tb.Testbed.kernel; a; b ];
      allocators = [ alloc ];
    }
  in
  Alcotest.(check (list string)) "no violations" [] (Check.audit target)

(* Acceptance test for the whole tentpole: seed a real bug — securing
   that skips the VM protection raise — and the checker must both catch
   it and shrink the counterexample to a handful of operations. *)
let test_chaos_bug_caught_and_shrunk () =
  Fun.protect ~finally:(fun () -> Transfer.chaos_skip_protect := false)
  @@ fun () ->
  Transfer.chaos_skip_protect := true;
  let report, ops = Check.Driver.run ~seed:1 ~ops:400 ~adversary:false () in
  Alcotest.(check bool) "seeded bug detected" true (Check.Driver.failed report);
  let shrunk, shrunk_report = Check.Shrink.minimize ~seed:1 ops in
  Alcotest.(check bool) "shrunk sequence still fails" true
    (Check.Driver.failed shrunk_report);
  if List.length shrunk > 10 then
    Alcotest.failf "minimal reproducer has %d ops (> 10):@.%a"
      (List.length shrunk) Check.Op.pp_list shrunk;
  Transfer.chaos_skip_protect := false;
  Alcotest.(check bool) "shrunk sequence passes without the bug" false
    (Check.Driver.failed (Check.Driver.replay ~seed:1 shrunk))

(* Same acceptance shape for the TLB deferral tentpole: seed the
   deferred-downgrade bug — protection downgrades queued like removals
   instead of shot down immediately — and the per-step TLB audit must
   catch it (a writable TLB entry surviving over a read-only translation,
   or a queued shootdown whose translation is still installed) and shrink
   the counterexample. *)
let test_tlb_chaos_bug_caught_and_shrunk () =
  Fun.protect ~finally:(fun () -> Pmap.chaos_defer_downgrade := false)
  @@ fun () ->
  Pmap.chaos_defer_downgrade := true;
  let report, ops = Check.Driver.run ~seed:1 ~ops:400 ~adversary:false () in
  Alcotest.(check bool) "seeded bug detected" true (Check.Driver.failed report);
  let shrunk, shrunk_report = Check.Shrink.minimize ~seed:1 ops in
  Alcotest.(check bool) "shrunk sequence still fails" true
    (Check.Driver.failed shrunk_report);
  if List.length shrunk > 10 then
    Alcotest.failf "minimal reproducer has %d ops (> 10):@.%a"
      (List.length shrunk) Check.Op.pp_list shrunk;
  Pmap.chaos_defer_downgrade := false;
  Alcotest.(check bool) "shrunk sequence passes without the bug" false
    (Check.Driver.failed (Check.Driver.replay ~seed:1 shrunk))

(* The deferral window attacked deterministically: a read-touched
   uncached buffer is freed and its old addresses touched in the same
   step. Both the zero-read and the faulting-write arms must hold. *)
let test_tlb_stale_direct () =
  let ops =
    Check.Op.
      [
        Alloc { alloc = 2; npages = 1 };
        Write { fbuf = 0 };
        Tlb_stale { fbuf = 0; write = false };
        Alloc { alloc = 2; npages = 1 };
        Write { fbuf = 0 };
        Tlb_stale { fbuf = 0; write = true };
      ]
  in
  let r = Check.Driver.replay ~seed:7 ops in
  match r.Check.Driver.failure with
  | None -> Alcotest.(check int) "all executed" 6 r.Check.Driver.executed
  | Some (step, op, msg) ->
      Alcotest.failf "step %d (%a): %s" step Check.Op.pp op msg

(* Malformed-DAG handling, driven directly: every bad structure yields an
   empty message plus an anomaly stat, never an escaping exception. *)
let test_integrated_bad_dags () =
  let tb = Testbed.create () in
  let a = Testbed.user_domain tb "a" in
  let b = Testbed.user_domain tb "b" in
  let region = tb.Testbed.region in
  let stats = tb.Testbed.m.Machine.stats in
  let alloc = Testbed.allocator tb ~domains:[ a ] Fbuf.volatile_only in
  let ps = Testbed.page_size tb in
  let cfg = Region.config region in
  let anomalies () =
    Stats.get stats "integrated.bad_node"
    + Stats.get stats "integrated.cycle"
    + Stats.get stats "integrated.bad_data_ref"
    + Stats.get stats "integrated.budget_exhausted"
  in
  let expect_empty name root =
    let before = anomalies () in
    match Integrated.deserialize region ~as_:b ~root_vaddr:root with
    | msg ->
        Alcotest.(check bool) (name ^ ": empty message") true (Msg.is_empty msg);
        Alcotest.(check bool)
          (name ^ ": anomaly counted")
          true
          (anomalies () > before)
    | exception e ->
        Alcotest.failf "%s: escaped as exception %s" name (Printexc.to_string e)
  in
  (* A node crafted by the (malicious) originator a, then sent to b so b
     reads the actual bytes rather than the dead page. *)
  let craft tag w1_of w2 =
    let fb = Allocator.alloc alloc ~npages:1 in
    let bts = Bytes.create Integrated.node_size in
    Bytes.set_int32_le bts 0 (Int32.of_int tag);
    Bytes.set_int32_le bts 4 (Int32.of_int (w1_of fb));
    Bytes.set_int32_le bts 8 (Int32.of_int w2);
    Bytes.set_int32_le bts 12 0l;
    Access.write_bytes a ~vaddr:(Fbuf.vaddr fb) bts;
    Transfer.send fb ~src:a ~dst:b;
    fb
  in
  expect_empty "root below the region" ((cfg.Region.base_vpn * ps) - ps);
  (* Regression: a record whose first byte is in the region but whose 16
     bytes straddle its end must be rejected, not read across. *)
  expect_empty "root straddling the region end"
    (((cfg.Region.base_vpn + cfg.Region.region_pages) * ps) - 8);
  let garbage = craft 9 (fun _ -> 0) 0 in
  expect_empty "garbage node tag" (Fbuf.vaddr garbage);
  let cycle = craft 2 Fbuf.vaddr 0 in
  (* Second child = own address too: a self-referential cat node. *)
  Access.write_word a ~vaddr:(Fbuf.vaddr cycle + 8) (Fbuf.vaddr cycle);
  expect_empty "self-referential cat node" (Fbuf.vaddr cycle);
  let overrun = craft 1 Fbuf.vaddr 0x1000000 in
  expect_empty "leaf length overruns its fbuf" (Fbuf.vaddr overrun);
  (* An in-region root b has no mapping for reads as the dead page. *)
  let hole = Allocator.alloc alloc ~npages:1 in
  expect_empty "unmapped in-region root" (Fbuf.vaddr hole)

(* Pageout of a parked cached buffer must not leave stale contents or
   stale receiver mappings behind when the buffer is reallocated. *)
let test_pageout_then_cached_realloc () =
  let tb = Testbed.create () in
  let a = Testbed.user_domain tb "a" in
  let b = Testbed.user_domain tb "b" in
  let alloc = Testbed.allocator tb ~domains:[ a; b ] Fbuf.cached_volatile in
  let fb = Allocator.alloc alloc ~npages:2 in
  let size = Fbuf.size fb in
  let vaddr = Fbuf.vaddr fb in
  let secret = Bytes.make size 's' in
  Access.write_bytes a ~vaddr secret;
  Transfer.send fb ~src:a ~dst:b;
  Alcotest.(check bool) "receiver sees the live bytes" true
    (Bytes.equal secret (Access.read_bytes b ~vaddr ~len:size));
  Transfer.free fb ~dom:b;
  Transfer.free fb ~dom:a;
  Alcotest.(check int) "parked buffer reclaimed" 1
    (Allocator.reclaim alloc ~max_fbufs:8 ());
  Alcotest.(check bool) "originator frames discarded" true
    (Vm_map.frame_of a.Pd.map ~vpn:fb.Fbuf.base_vpn = -1);
  Alcotest.(check bool) "receiver mapping removed" true
    (Vm_map.frame_of b.Pd.map ~vpn:fb.Fbuf.base_vpn = -1);
  let fb2 = Allocator.alloc alloc ~npages:2 in
  Alcotest.(check int) "cache reuses the same buffer" fb.Fbuf.id fb2.Fbuf.id;
  Alcotest.(check bool) "no stale secret after pageout + realloc" true
    (Bytes.equal
       (Bytes.make size '\000')
       (Access.read_bytes a ~vaddr ~len:size));
  let fresh = Bytes.make size 'f' in
  Access.write_bytes a ~vaddr fresh;
  Transfer.send fb2 ~src:a ~dst:b;
  Alcotest.(check bool) "receiver re-materializes the fresh contents" true
    (Bytes.equal fresh (Access.read_bytes b ~vaddr ~len:size))

(* Rng.fork: keyed substreams that do not perturb the parent. *)
let stream g n = List.init n (fun _ -> Rng.next g)

let test_fork_parent_unperturbed () =
  let forked = Rng.create 7 in
  ignore (Rng.fork forked 3);
  ignore (Rng.fork forked 4);
  let virgin = Rng.create 7 in
  Alcotest.(check (list int64)) "parent draws identical after forks"
    (stream virgin 32) (stream forked 32)

let test_fork_keys () =
  let p = Rng.create 7 in
  let s1 = stream (Rng.fork p 1) 8 in
  let s2 = stream (Rng.fork p 2) 8 in
  Alcotest.(check bool) "distinct keys give distinct streams" false (s1 = s2);
  Alcotest.(check (list int64)) "same key is deterministic" s1
    (stream (Rng.fork p 1) 8);
  let other_parent = Rng.create 8 in
  Alcotest.(check bool) "fork depends on parent state" false
    (s1 = stream (Rng.fork other_parent 1) 8)

let () =
  Alcotest.run "check"
    [
      ( "differential",
        [
          Alcotest.test_case "normal seeds 1-3" `Quick test_normal_seeds;
          Alcotest.test_case "adversary seeds 1-3" `Quick test_adversary_seeds;
          Alcotest.test_case "replay is deterministic" `Quick
            test_replay_deterministic;
        ] );
      ( "audit",
        [ Alcotest.test_case "clean live system" `Quick test_audit_clean ] );
      ( "fault injection",
        [
          Alcotest.test_case "seeded protection bug caught, shrunk to <= 10"
            `Quick test_chaos_bug_caught_and_shrunk;
          Alcotest.test_case "seeded deferred-downgrade bug caught, shrunk"
            `Quick test_tlb_chaos_bug_caught_and_shrunk;
          Alcotest.test_case "stale TLB window cannot reach freed frames"
            `Quick test_tlb_stale_direct;
        ] );
      ( "integrated edge cases",
        [
          Alcotest.test_case "bad DAGs are empty + counted, never raise"
            `Quick test_integrated_bad_dags;
        ] );
      ( "pageout x caching",
        [
          Alcotest.test_case "no stale state after pageout + realloc" `Quick
            test_pageout_then_cached_realloc;
        ] );
      ( "rng fork",
        [
          Alcotest.test_case "parent unperturbed" `Quick
            test_fork_parent_unperturbed;
          Alcotest.test_case "keyed substreams" `Quick test_fork_keys;
        ] );
    ]
