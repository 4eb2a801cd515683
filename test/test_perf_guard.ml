(* Loose wall-clock guard on the allocation fast path.

   The claim under test is structural, not a benchmark number: a cached
   allocation (pop from a size-class free list) must never cost more real
   time than a fresh allocation (address-range carve + per-page frame
   alloc + mapping). If the fast path regresses to scanning the parked
   population, the second scenario below pushes it past the fresh path
   and the test fails.

   Assertions compare the two measured paths against each other, never
   against an absolute time, so CI machine speed does not matter. To keep
   one unlucky scheduling quantum from deciding the verdict, each test
   interleaves five fresh/cached trial pairs — so drift (thermal, cache,
   competing load) hits both paths alike — and asserts on the medians.

   Each timing check has an exact twin next to it: the same structural
   property asserted on counts that repeat exactly on any host, namely
   the minor words of one cycle and the cycle's Stats delta. The timing
   checks can flake on a loaded host; the twins cannot. *)

open Fbufs
module Testbed = Fbufs_harness.Testbed

let trials = 5
let iters_per_trial = 1_000

let time_ns iters f =
  (* One warmup pass keeps first-touch effects out of the measurement. *)
  f ();
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    f ()
  done;
  (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int iters

let median samples =
  let a = List.sort compare samples in
  List.nth a (List.length a / 2)

(* Five (fresh, cached) pairs measured back to back; medians of each. *)
let interleaved_medians ~fresh ~cached =
  let fs = ref [] and cs = ref [] in
  for _ = 1 to trials do
    fs := time_ns iters_per_trial fresh :: !fs;
    cs := time_ns iters_per_trial cached :: !cs
  done;
  (median !fs, median !cs)

let alloc_free alloc dom npages () =
  let fb = Allocator.alloc alloc ~npages in
  Transfer.free fb ~dom

(* [tb] with a user domain and a cached/volatile allocator for it. *)
let cached_host tb =
  let app = Testbed.user_domain tb "app" in
  (tb, app, Testbed.allocator tb ~domains:[ app ] Fbuf.cached_volatile)

(* A cached host whose machine is created with [obs] installed. *)
let observed_host obs =
  cached_host (Fbufs_sim.Machine.with_obs obs Testbed.create)

(* Minor words of one 8-page cached alloc/free cycle on a bare host: the
   cached fast path allocates nothing. A side that pays nothing allocates
   exactly this much, so each exact twin below pins its operation at zero
   allocation. *)
let bare_cycle_words = 0

(* Minor words of one [cycle], after 20 warm-up cycles. *)
let words cycle =
  for _ = 1 to 20 do
    cycle ()
  done;
  let w0 = Gc.minor_words () in
  cycle ();
  Float.to_int (Gc.minor_words () -. w0)

(* The Stats delta of one [cycle] on [m]. *)
let stats_delta (m : Fbufs_sim.Machine.t) cycle =
  let before = Fbufs_sim.Stats.snapshot m.stats in
  cycle ();
  Fbufs_sim.Stats.since m.stats before

(* The pmap/vm counters a Stats delta moved. *)
let vm_work delta =
  List.filter_map
    (fun (name, _) ->
      if
        String.starts_with ~prefix:"pmap." name
        || String.starts_with ~prefix:"vm." name
      then Some name
      else None)
    delta

let check_pays_nothing what cycle =
  Alcotest.(check int)
    (what ^ ": minor words per cycle")
    bare_cycle_words (words cycle)

let check_does_more what ~quiet ~busy =
  let quiet = words quiet and busy = words busy in
  Alcotest.(check bool)
    (Printf.sprintf "%s (%d words) > quiet cycle (%d words)" what busy quiet)
    true (busy > quiet)

let check_cached_not_slower what ~fresh ~cached =
  let fresh_ns, cached_ns = interleaved_medians ~fresh ~cached in
  Alcotest.(check bool)
    (Printf.sprintf
       "%s: median cached alloc (%.0f ns) <= median fresh alloc (%.0f ns)"
       what cached_ns fresh_ns)
    true (cached_ns <= fresh_ns)

(* Fresh-path baseline: uncached fbufs re-map every page on each cycle. *)
let fresh_path tb app =
  let alloc = Testbed.allocator tb ~domains:[ app ] Fbuf.volatile_only in
  alloc_free alloc app 8

let test_cached_not_slower_than_fresh () =
  let tb, app, cached = cached_host (Testbed.create ()) in
  check_cached_not_slower "plain"
    ~fresh:(fresh_path tb app)
    ~cached:(alloc_free cached app 8)

(* The cached cycle does no VM work at all; the fresh one enters and
   removes every page. *)
let test_cached_cheaper_than_fresh_exact () =
  let tb, app, cached = cached_host (Testbed.create ()) in
  let cached = alloc_free cached app 8 and fresh = fresh_path tb app in
  check_pays_nothing "cached" cached;
  Alcotest.(check (list string)) "cached cycle does no VM work" []
    (vm_work (stats_delta tb.Testbed.m cached));
  check_does_more "fresh cycle" ~quiet:cached ~busy:fresh;
  let delta = stats_delta tb.Testbed.m fresh in
  let count name = Float.to_int (Fbufs_sim.Stats.value delta name) in
  Alcotest.(check int) "fresh pmap.enter" 8 (count "pmap.enter");
  Alcotest.(check int) "fresh pmap.remove" 8 (count "pmap.remove")

let parked_strangers () =
  let tb, app, cached = cached_host (Testbed.create ()) in
  (* Park ~900 one-page buffers in a *different* size class. An O(n) scan
     of the parked population would have to wade through all of them on
     every 8-page allocation; the size-class lookup never sees them. *)
  let parked = List.init 900 (fun _ -> Allocator.alloc cached ~npages:1) in
  List.iter (fun fb -> Transfer.free fb ~dom:app) parked;
  (tb, app, cached)

let test_cached_unaffected_by_large_mixed_free_list () =
  let tb, app, cached = parked_strangers () in
  check_cached_not_slower "900 parked strangers"
    ~fresh:(fresh_path tb app)
    ~cached:(alloc_free cached app 8)

let test_cached_unaffected_by_large_mixed_free_list_exact () =
  let tb, app, cached = parked_strangers () in
  let cached = alloc_free cached app 8 in
  check_pays_nothing "cached, 900 parked strangers" cached;
  Alcotest.(check (list string)) "no VM work" []
    (vm_work (stats_delta tb.Testbed.m cached))

(* Metrics are pay-for-play: every instrumentation site guards on the
   machine carrying a registry instance, so a run without one ("disabled")
   does no registry work at all. Structural claim, measured structurally:
   the same alloc/free cycle on an unmetered machine must not be slower
   than on a metered one (which does strictly more — hashtable cells,
   ledger adds) beyond scheduling noise. *)
let metered_pair () =
  let unmetered = cached_host (Testbed.create ()) in
  let mx = Fbufs_metrics.Metrics.create () in
  (unmetered, observed_host { Fbufs_sim.Machine.no_obs with metrics = Some mx })

let test_metrics_disabled_not_slower_than_enabled () =
  let (_, app_u, alloc_u), (_, app_m, alloc_m) = metered_pair () in
  let enabled_ns, disabled_ns =
    interleaved_medians
      ~fresh:(alloc_free alloc_m app_m 8)
      ~cached:(alloc_free alloc_u app_u 8)
  in
  Alcotest.(check bool)
    (Printf.sprintf
       "median disabled cycle (%.0f ns) <= 1.05 * median metered cycle \
        (%.0f ns)"
       disabled_ns enabled_ns)
    true
    (disabled_ns <= enabled_ns *. 1.05)

let test_metrics_disabled_exact () =
  let (_, app_u, alloc_u), (_, app_m, alloc_m) = metered_pair () in
  let unmetered = alloc_free alloc_u app_u 8 in
  check_pays_nothing "unmetered" unmetered;
  check_does_more "metered cycle" ~quiet:unmetered
    ~busy:(alloc_free alloc_m app_m 8)

(* Causal spans are pay-for-play the same way: every span entry point
   guards on the machine carrying a sink, so a run without one pays a
   single pointer comparison per site. The workload is identical on both
   sides — the transfer bracket is part of the cycle — and the recording
   side does strictly more (context stack, per-span charge cells). *)
let spanned_pair () =
  let module Machine = Fbufs_sim.Machine in
  let plain = cached_host (Testbed.create ()) in
  let spanned = Testbed.create () in
  Machine.set_obs spanned.Testbed.m
    (Some { Machine.no_obs with spans = Some (Fbufs_span.Span.create ()) });
  (plain, cached_host spanned)

let test_spans_disabled_not_slower_than_enabled () =
  let module Machine = Fbufs_sim.Machine in
  let (plain, app_p, alloc_p), (spanned, app_s, alloc_s) = spanned_pair () in
  let cycle tb alloc dom () =
    Machine.with_transfer tb.Testbed.m "cycle" (alloc_free alloc dom 8)
  in
  let enabled_ns, disabled_ns =
    interleaved_medians
      ~fresh:(cycle spanned alloc_s app_s)
      ~cached:(cycle plain alloc_p app_p)
  in
  Alcotest.(check bool)
    (Printf.sprintf
       "median unspanned cycle (%.0f ns) <= 1.05 * median recording cycle \
        (%.0f ns)"
       disabled_ns enabled_ns)
    true
    (disabled_ns <= enabled_ns *. 1.05)

let test_spans_disabled_exact () =
  let (plain, app_p, alloc_p), (spanned, app_s, alloc_s) = spanned_pair () in
  (* The bracketed thunk is built once, so the words counted are the
     bracket's own plus the cycle's. *)
  let cycle tb alloc dom =
    let f = alloc_free alloc dom 8 in
    fun () -> Fbufs_sim.Machine.with_transfer tb.Testbed.m "cycle" f
  in
  let unspanned = cycle plain alloc_p app_p in
  check_pays_nothing "unspanned with_transfer" unspanned;
  check_does_more "recording cycle" ~quiet:unspanned
    ~busy:(cycle spanned alloc_s app_s)

(* Same structural claim for the quantile sketch: observation sites guard
   on the machine carrying a registry, so with none installed a sketch
   observation site costs one match on [Machine.metrics]. *)
let guard_sketch =
  Fbufs_metrics.Metrics.sketch ~name:"fbufs_perf_guard_wall_us"
    ~help:"perf-guard fixture sketch" ()

(* The transfer-wall observation site, guarded exactly like the
   harness's: registry absent means no sketch work at all. *)
let sketch_cycle (tb, app, alloc) () =
  alloc_free alloc app 8 ();
  match Fbufs_sim.Machine.metrics tb.Testbed.m with
  | None -> ()
  | Some mx -> Fbufs_metrics.Metrics.observe mx guard_sketch 42.0

let test_sketch_disabled_not_slower_than_enabled () =
  let unmetered, metered = metered_pair () in
  let enabled_ns, disabled_ns =
    interleaved_medians ~fresh:(sketch_cycle metered)
      ~cached:(sketch_cycle unmetered)
  in
  Alcotest.(check bool)
    (Printf.sprintf
       "median sketchless cycle (%.0f ns) <= 1.05 * median sketching cycle \
        (%.0f ns)"
       disabled_ns enabled_ns)
    true
    (disabled_ns <= enabled_ns *. 1.05)

let test_sketch_disabled_exact () =
  let unmetered, metered = metered_pair () in
  check_pays_nothing "guarded sketch site" (sketch_cycle unmetered);
  check_does_more "sketching cycle" ~quiet:(sketch_cycle unmetered)
    ~busy:(sketch_cycle metered)

(* The TLB deferral rework keeps the PR 6 immediate-shootdown behaviour
   reachable behind [Pmap.elision_enabled]; its simulated costs in that
   mode are pinned byte-for-byte by the noelide goldens. This guards the
   real cost: the pending queue the rework added must not tax the
   legacy path — an elision-off alloc/touch/free cycle
   (which pays every shootdown eagerly and uses none of the machinery)
   stays within 1.05x of the elision-on cycle that benefits from it. *)
let elision_fixture () =
  let tb, app, cached = cached_host (Testbed.create ()) in
  let cycle flag () =
    Fbufs_vm.Pmap.elision_enabled := flag;
    let fb = Allocator.alloc cached ~npages:8 in
    Fbufs_vm.Access.touch_write app ~vaddr:(Fbuf.vaddr fb) ~npages:8;
    Transfer.free fb ~dom:app
  in
  (tb, cycle)

let test_elision_off_within_noise_of_on () =
  let _, cycle = elision_fixture () in
  let on_ns, off_ns =
    Fun.protect ~finally:(fun () -> Fbufs_vm.Pmap.elision_enabled := true)
    @@ fun () -> interleaved_medians ~fresh:(cycle true) ~cached:(cycle false)
  in
  Alcotest.(check bool)
    (Printf.sprintf
       "median elision-off cycle (%.0f ns) <= 1.05 * median elision-on \
        cycle (%.0f ns)"
       off_ns on_ns)
    true
    (off_ns <= on_ns *. 1.05)

(* Each mode on its own host, so the queue checked holds only what the
   elision-off cycles left in it. *)
let test_elision_off_exact () =
  let _, on_cycle = elision_fixture () in
  let off_tb, off_cycle = elision_fixture () in
  Fun.protect ~finally:(fun () -> Fbufs_vm.Pmap.elision_enabled := true)
  @@ fun () ->
  Alcotest.(check int) "elision-off cycle words = elision-on"
    (words (on_cycle true))
    (words (off_cycle false));
  Alcotest.(check int) "no shootdown queued with elision off" 0
    (Fbufs_sim.Tlb.pending_count off_tb.Testbed.m.tlb)

(* Buffer-sharing hooks are pay-for-play the same way: a Static policy's
   hooks maintain one integer account and never take the admission path
   ([sh_dynamic] is false), so a managed alloc/free cycle does strictly
   bounded extra work. The bare cycle must stay within noise of the
   managed one — and the managed one, doing more, must not be the faster
   side by more than noise either; one bound per direction. *)
let static_pair () =
  let bare = cached_host (Testbed.create ()) in
  let ((managed_tb, _, alloc_m) as managed) = cached_host (Testbed.create ()) in
  let pol =
    Fbufs_policy.Policy.create managed_tb.Testbed.region
      Fbufs_policy.Policy.Static
  in
  Fbufs_policy.Policy.register pol alloc_m ~klass:Fbufs_policy.Policy.Latency;
  (bare, managed)

let test_static_share_within_noise_of_bare () =
  let (_, app_b, alloc_b), (_, app_m, alloc_m) = static_pair () in
  let managed_ns, bare_ns =
    interleaved_medians
      ~fresh:(alloc_free alloc_m app_m 8)
      ~cached:(alloc_free alloc_b app_b 8)
  in
  Alcotest.(check bool)
    (Printf.sprintf
       "median bare cycle (%.0f ns) <= 1.05 * median static-managed cycle \
        (%.0f ns)"
       bare_ns managed_ns)
    true
    (bare_ns <= managed_ns *. 1.05)

let test_static_share_exact () =
  let (_, app_b, alloc_b), (_, app_m, alloc_m) = static_pair () in
  check_pays_nothing "bare" (alloc_free alloc_b app_b 8);
  check_pays_nothing "static-managed" (alloc_free alloc_m app_m 8)

(* The lint analyzer (PR 4) parses the whole tree with compiler-libs; it
   must never be linked into the benchmark executable or the harness it
   measures — an accidental dependency would drag parser tables and
   startup work into the hot path's process. The link lists are data, so
   check them as data: a dune file's text with its [;] comments removed
   (the benchmark's dune file names the libraries it leaves out in one). *)
let read_dune_file p =
  let ic = open_in_bin p in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))
  |> String.split_on_char '\n'
  |> List.map (fun line ->
         match String.index_opt line ';' with
         | Some i -> String.sub line 0 i
         | None -> line)
  |> String.concat "\n"

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let in_tree rel =
  (* cwd is test/ under dune runtest, the repo root under dune exec. *)
  if Sys.file_exists ("../" ^ rel) then "../" ^ rel else rel

let test_lint_not_linked_into_bench () =
  (* Layer C reads *sources* across the whole tree, which must never
     tempt anyone to link the analyzer library into what it analyzes:
     the benchmark, the harness it is built from, or the examples. *)
  List.iter
    (fun dune_file ->
      let src = read_dune_file (in_tree dune_file) in
      Alcotest.(check bool)
        (Printf.sprintf "%s does not link fbufs_lint" dune_file)
        false
        (contains src "fbufs_lint"))
    [ "bench/e2e/dune"; "lib/harness/dune"; "examples/dune" ]

(* Same isolation for the policy layer: the harness measures the bare
   mechanism, so the policy library (admission hooks, event log) must
   never be linked into it — attaching a policy is an explicit
   per-experiment act. The benchmark links it by design: its congestion
   workload runs under the dynamic policy. *)
let test_policy_not_linked_into_bench () =
  List.iter
    (fun dune_file ->
      let src = read_dune_file (in_tree dune_file) in
      Alcotest.(check bool)
        (Printf.sprintf "%s does not link fbufs_policy" dune_file)
        false
        (contains src "fbufs_policy"))
    [ "lib/harness/dune" ]

(* And for the observability layer: the recorder and monitors live
   outside the measured mechanism; arming them is an explicit per-run
   act, never a link-time default of the benchmark or harness. *)
let test_obs_not_linked_into_bench () =
  List.iter
    (fun dune_file ->
      let src = read_dune_file (in_tree dune_file) in
      Alcotest.(check bool)
        (Printf.sprintf "%s does not link fbufs_obs" dune_file)
        false
        (contains src "fbufs_obs"))
    [ "bench/e2e/dune"; "lib/harness/dune"; "examples/dune" ]

(* The observability layer rides the same record: with no recorder
   armed and no monitor installed, a cycle pays nothing beyond the
   existing pointer comparisons. The bare side must stay within noise of
   the armed side, which does strictly more (ring push, reservoir skip,
   the monitor hook per sequence point). *)
let seq_cycle (tb, app, alloc) () =
  alloc_free alloc app 8 ();
  Fbufs_sim.Machine.seq_point tb.Testbed.m "perf"

(* [f] over the [seq_cycle]s of two hosts: a bare one, and one built
   with the recorder armed and a monitor on every sequence point,
   disarmed when [f] returns. *)
let with_unarmed_and_armed f =
  let module R = Fbufs_obs.Recorder in
  let module Mon = Fbufs_obs.Monitor in
  let bare = cached_host (Testbed.create ()) in
  let r = R.create ~dir:"obs-perf-unused" in
  let mon = Mon.create ~recorder:r () in
  let o =
    { (R.arm r Fbufs_sim.Machine.no_obs) with seq_hook = Some (Mon.hook mon) }
  in
  Fun.protect ~finally:(fun () -> R.disarm r) @@ fun () ->
  f (seq_cycle bare) (seq_cycle (observed_host o))

let test_obs_unarmed_pays_nothing () =
  let armed_ns, bare_ns =
    with_unarmed_and_armed (fun bare armed ->
        interleaved_medians ~fresh:armed ~cached:bare)
  in
  Alcotest.(check bool)
    (Printf.sprintf
       "median unarmed cycle (%.0f ns) <= 1.05 * median armed cycle (%.0f ns)"
       bare_ns armed_ns)
    true
    (bare_ns <= armed_ns *. 1.05)

let test_obs_unarmed_exact () =
  with_unarmed_and_armed (fun bare armed ->
      check_pays_nothing "bare + unobserved seq_point" bare;
      check_does_more "armed cycle" ~quiet:bare ~busy:armed)

(* End-to-end bound on the armed cost: a Table 1 run with the recorder
   tapping every event at default sampling stays within 1.10x of the
   bare run. Whole runs are the unit of measurement here, so one run per
   trial, medians over five. *)
let test_recorder_armed_table1_overhead () =
  let module R = Fbufs_obs.Recorder in
  let time_once f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let bare () = ignore (Fbufs_harness.Exp_table1.run ()) in
  let armed () =
    let r = R.create ~dir:"obs-perf-unused" in
    let o = R.arm r Fbufs_sim.Machine.no_obs in
    Fun.protect
      ~finally:(fun () -> R.disarm r)
      (fun () -> Fbufs_sim.Machine.with_obs o bare)
  in
  let armed_s = ref [] and bare_s = ref [] in
  (* warmup one pair, then interleave *)
  bare ();
  armed ();
  for _ = 1 to trials do
    armed_s := time_once armed :: !armed_s;
    bare_s := time_once bare :: !bare_s
  done;
  let armed_m = median !armed_s and bare_m = median !bare_s in
  Alcotest.(check bool)
    (Printf.sprintf
       "median armed table1 (%.1f ms) <= 1.10 * median bare table1 (%.1f ms)"
       (armed_m *. 1e3) (bare_m *. 1e3))
    true
    (armed_m <= bare_m *. 1.10)

(* The interprocedural layer re-analyzes the whole tree on every lint
   run (parse, call graph, SCC fixpoint, abstract interpretation), so a
   quadratic blowup in the fixpoint or resolver would land here first.
   The bound is a deliberately generous absolute ceiling — the analysis
   currently finishes in well under a second — asserted on the median of
   five runs so one cold page cache cannot decide the verdict. *)
let lint_budget_s = 20.0

let test_whole_tree_lint_within_budget () =
  match Fbufs_lint.Driver.find_root () with
  | None -> Alcotest.skip ()
  | Some root ->
      let samples = ref [] in
      for _ = 1 to trials do
        let t0 = Unix.gettimeofday () in
        let (_ : Fbufs_lint.Finding.t list) = Fbufs_lint.Driver.run ~root in
        samples := (Unix.gettimeofday () -. t0) :: !samples
      done;
      let m = median !samples in
      Alcotest.(check bool)
        (Printf.sprintf "median whole-tree lint %.2fs within %.0fs budget" m
           lint_budget_s)
        true (m < lint_budget_s)

let () =
  Alcotest.run "perf_guard"
    [
      ( "allocation fast path",
        [
          Alcotest.test_case "cached <= fresh" `Quick
            test_cached_not_slower_than_fresh;
          Alcotest.test_case "cached < fresh, exact" `Quick
            test_cached_cheaper_than_fresh_exact;
          Alcotest.test_case "immune to free-list population" `Quick
            test_cached_unaffected_by_large_mixed_free_list;
          Alcotest.test_case "immune to free-list population, exact" `Quick
            test_cached_unaffected_by_large_mixed_free_list_exact;
        ] );
      ( "metrics overhead",
        [
          Alcotest.test_case "disabled pays nothing" `Quick
            test_metrics_disabled_not_slower_than_enabled;
          Alcotest.test_case "disabled pays nothing, exact" `Quick
            test_metrics_disabled_exact;
          Alcotest.test_case "disabled spans pay nothing" `Quick
            test_spans_disabled_not_slower_than_enabled;
          Alcotest.test_case "disabled spans pay nothing, exact" `Quick
            test_spans_disabled_exact;
          Alcotest.test_case "disabled sketch pays nothing" `Quick
            test_sketch_disabled_not_slower_than_enabled;
          Alcotest.test_case "disabled sketch pays nothing, exact" `Quick
            test_sketch_disabled_exact;
        ] );
      ( "tlb elision overhead",
        [
          Alcotest.test_case "elision-off path untaxed" `Quick
            test_elision_off_within_noise_of_on;
          Alcotest.test_case "elision-off path untaxed, exact" `Quick
            test_elision_off_exact;
        ] );
      ( "policy overhead",
        [
          Alcotest.test_case "static share within noise of bare" `Quick
            test_static_share_within_noise_of_bare;
          Alcotest.test_case "static share pays nothing, exact" `Quick
            test_static_share_exact;
        ] );
      ( "link isolation",
        [
          Alcotest.test_case "lint stays off the hot path" `Quick
            test_lint_not_linked_into_bench;
          Alcotest.test_case "policy stays off the hot path" `Quick
            test_policy_not_linked_into_bench;
          Alcotest.test_case "obs stays off the hot path" `Quick
            test_obs_not_linked_into_bench;
        ] );
      ( "obs overhead",
        [
          Alcotest.test_case "unarmed pays nothing" `Quick
            test_obs_unarmed_pays_nothing;
          Alcotest.test_case "unarmed pays nothing, exact" `Quick
            test_obs_unarmed_exact;
          Alcotest.test_case "armed table1 within 1.10x" `Slow
            test_recorder_armed_table1_overhead;
        ] );
      ( "lint runtime",
        [
          Alcotest.test_case "whole-tree lint within budget" `Slow
            test_whole_tree_lint_within_budget;
        ] );
    ]
