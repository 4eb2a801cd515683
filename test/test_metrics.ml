(* Fbufs_metrics: registration discipline, exposition round-trips, the
   exactness contracts of the cost ledger, metering transparency (a
   metered run computes the same simulated numbers as an unmetered one),
   and the registry-vs-model differential over a randomized op sequence.

   Definitions are global, so every name registered here is namespaced
   fbufs_test_* to stay clear of the production registrations that module
   initialization already performed. *)

open Fbufs_sim
open Fbufs
module Mx = Fbufs_metrics.Metrics
module Ledger = Fbufs_metrics.Ledger
module Component = Fbufs_metrics.Component
module Expo = Fbufs_metrics.Expo
module Testbed = Fbufs_harness.Testbed
module Table1 = Fbufs_harness.Exp_table1
module Check = Fbufs_check

let check = Alcotest.check

(* Run [f] with a fresh instance installed the way the harness installs
   one: through [Machine.with_obs], picked up by every machine created
   inside. *)
let metered f =
  let mx = Mx.create () in
  (Machine.with_obs { Machine.no_obs with metrics = Some mx } f, mx)

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

(* ------------------------------------------------------------------ *)
(* Registration discipline                                             *)

let test_duplicate_registration_rejected () =
  let _ = Mx.counter ~name:"fbufs_test_dup_total" ~help:"first" () in
  Alcotest.(check bool)
    "second registration of the same name raises" true
    (raises_invalid (fun () ->
         Mx.counter ~name:"fbufs_test_dup_total" ~help:"second" ()))

let test_bad_names_rejected () =
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" name)
        true
        (raises_invalid (fun () -> Mx.counter ~name ~help:"h" ())))
    [ "requests_total"; "fbufs_Upper"; "fbufs_dash-total"; "fbufs_"; "" ]

let test_label_arity_checked () =
  let d =
    Mx.counter ~name:"fbufs_test_arity_total" ~help:"h" ~labels:[ "a"; "b" ]
      ()
  in
  let mx = Mx.create () in
  Alcotest.(check bool)
    "update with wrong label count raises" true
    (raises_invalid (fun () -> Mx.incr mx d ~labels:[ "only-one" ] ()))

(* ------------------------------------------------------------------ *)
(* Exposition round-trips                                              *)

let rt_counter =
  Mx.counter ~name:"fbufs_test_rt_total" ~help:"round-trip counter"
    ~labels:[ "path" ] ()

let rt_gauge = Mx.gauge ~name:"fbufs_test_rt_depth" ~help:"round-trip gauge" ()

let rt_sketch =
  Mx.sketch ~name:"fbufs_test_rt_bytes" ~help:"round-trip sketch" ()

let populated () =
  let mx = Mx.create () in
  Mx.incr mx rt_counter ~labels:[ "7" ] ();
  Mx.incr mx rt_counter ~labels:[ "7" ] ();
  Mx.incr mx rt_counter ~labels:[ "9" ] ();
  Mx.set mx rt_gauge 42.0;
  List.iter (Mx.observe mx rt_sketch) [ 10.0; 20.0; 30.0 ];
  Ledger.charge (Mx.ledger mx) ~machine:"tb" ~comp:Component.Copy
    ~kind:"bcopy" 2.5;
  mx

let flat_value flats name labels =
  match
    List.find_opt
      (fun (f : Expo.flat) -> f.Expo.name = name && f.Expo.labels = labels)
      flats
  with
  | Some f -> f.Expo.value
  | None -> Alcotest.failf "sample %s%s missing" name (String.concat "," [])

let test_json_round_trip () =
  let mx = populated () in
  let flats = Expo.of_json_string (Expo.to_json_string mx) in
  check (Alcotest.float 0.0) "counter cell" 2.0
    (flat_value flats "fbufs_test_rt_total" [ ("path", "7") ]);
  check (Alcotest.float 0.0) "gauge cell" 42.0
    (flat_value flats "fbufs_test_rt_depth" []);
  check (Alcotest.float 0.0) "sketch sum" 60.0
    (flat_value flats "fbufs_test_rt_bytes" []);
  check (Alcotest.float 0.0) "ledger family" 2.5
    (flat_value flats "fbufs_cost_us_total"
       [ ("machine", "tb"); ("component", "copy"); ("kind", "bcopy") ])

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_prometheus_text () =
  let text = Expo.to_prometheus (populated ()) in
  List.iter
    (fun frag ->
      Alcotest.(check bool) (Printf.sprintf "exposition has %S" frag) true
        (contains text frag))
    [
      "# TYPE fbufs_test_rt_total counter";
      "fbufs_test_rt_total{path=\"7\"} 2";
      "# TYPE fbufs_test_rt_bytes summary";
      "fbufs_test_rt_bytes_count 3";
      "fbufs_cost_us_total{machine=\"tb\",component=\"copy\",kind=\"bcopy\"} \
       2.5";
    ]

(* ------------------------------------------------------------------ *)
(* Ledger exactness                                                    *)

(* The headline acceptance check: on a full Table 1 run, the per-component
   breakdown sums to the charged total *exactly* — zero float tolerance —
   because the total is defined as the fold of the component cells. *)
let test_table1_component_sum_exact () =
  let _, mx = metered (fun () -> Table1.run ()) in
  let l = Mx.ledger mx in
  let by_comp = Ledger.by_component l in
  let sum = List.fold_left (fun acc (_, us) -> acc +. us) 0.0 by_comp in
  check (Alcotest.float 0.0) "component sum = charged total" sum
    (Ledger.total_us l);
  Alcotest.(check bool) "a table1 run charges time" true
    (Ledger.total_us l > 0.0);
  (* The transfer experiment must attribute to the paper's components. *)
  List.iter
    (fun comp ->
      Alcotest.(check bool)
        (Printf.sprintf "component %s is charged" (Component.label comp))
        true
        (List.assoc comp by_comp > 0.0))
    [ Component.Alloc; Component.Map; Component.Zero; Component.Copy ];
  (* Per-machine arrival-order totals agree with the compensated total to
     float noise (machines named alike merge in the ledger, so bitwise
     equality is claimed only on single-machine runs below). *)
  let per_machine =
    List.fold_left
      (fun acc m -> acc +. Ledger.charged_us l ~machine:m)
      0.0 (Ledger.machines l)
  in
  Alcotest.(check bool) "per-machine totals match compensated total" true
    (abs_float (per_machine -. Ledger.total_us l)
    <= 1e-9 *. Ledger.total_us l)

(* On one machine the ledger's arrival-order accumulator replays exactly
   the additions [Machine.charge] makes to [busy_us]: bitwise equality,
   not approximate. *)
let test_single_machine_charged_is_busy () =
  let (m, _), mx =
    metered (fun () ->
        let tb = Testbed.create ~name:"mx-test" () in
        let app = Testbed.user_domain tb "app" in
        let dst = Testbed.user_domain tb "dst" in
        let alloc =
          Testbed.allocator tb ~domains:[ app; dst ] Fbuf.cached_volatile
        in
        for i = 1 to 50 do
          let fb = Allocator.alloc alloc ~npages:(1 + (i mod 3)) in
          Fbuf_api.touch_write fb ~as_:app;
          Transfer.send fb ~src:app ~dst;
          Transfer.free fb ~dom:dst;
          Transfer.free fb ~dom:app
        done;
        (tb.Testbed.m, ()))
  in
  let charged = Ledger.charged_us (Mx.ledger mx) ~machine:"mx-test" in
  Alcotest.(check bool)
    (Printf.sprintf "ledger %.17g us = busy %.17g us (bitwise)" charged
       (Machine.busy_us m))
    true
    (charged = Machine.busy_us m)

(* ------------------------------------------------------------------ *)
(* Metering transparency                                               *)

(* Metrics must observe the simulation, never steer it: a metered Table 1
   run computes numbers identical to an unmetered one. *)
let test_metered_run_simulated_identical () =
  let plain = Table1.run () in
  let metered_rows, _ = metered (fun () -> Table1.run ()) in
  Alcotest.(check bool) "same rows" true (plain = metered_rows)

let test_disabled_machine_carries_no_instance () =
  let tb = Testbed.create () in
  Alcotest.(check bool) "no instance installed" true
    (Machine.metrics tb.Testbed.m = None)

(* ------------------------------------------------------------------ *)
(* Differential against the reference model                            *)

(* A metered replay turns the registry into one more observable the
   checker diffs: Driver.verify_metrics compares fbufs_alloc_total
   hit/fresh per allocator, the free-list/live gauges, reclaim counts and
   the bitwise ledger-vs-busy identity against the model's own
   expectations at the end of the sequence. *)
let test_counters_match_model () =
  List.iter
    (fun (seed, adversary) ->
      let (report, _), _ =
        metered (fun () -> Check.Driver.run ~seed ~ops:300 ~adversary ())
      in
      if Check.Driver.failed report then
        Alcotest.failf "seed %d (adversary %b): %s" seed adversary
          (Format.asprintf "%a" Check.Driver.pp_report report))
    [ (1, false); (2, false); (3, true) ]

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "metrics"
    [
      ( "registration",
        [
          tc "duplicate rejected" `Quick test_duplicate_registration_rejected;
          tc "bad names rejected" `Quick test_bad_names_rejected;
          tc "label arity checked" `Quick test_label_arity_checked;
        ] );
      ( "exposition",
        [
          tc "JSON round-trip" `Quick test_json_round_trip;
          tc "Prometheus text" `Quick test_prometheus_text;
        ] );
      ( "exactness",
        [
          tc "table1 component sum" `Quick test_table1_component_sum_exact;
          tc "charged = busy (bitwise)" `Quick
            test_single_machine_charged_is_busy;
        ] );
      ( "transparency",
        [
          tc "metered run identical" `Quick
            test_metered_run_simulated_identical;
          tc "disabled = absent" `Quick
            test_disabled_machine_carries_no_instance;
        ] );
      ( "differential",
        [ tc "counters match model" `Quick test_counters_match_model ] );
    ]
