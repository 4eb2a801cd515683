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
    (raises_invalid (fun () -> Mx.incr1 mx d "only-one"))

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
  Mx.incr1 mx rt_counter "7";
  Mx.incr1 mx rt_counter "7";
  Mx.incr1 mx rt_counter "9";
  Mx.set mx rt_gauge 42.0;
  List.iter (Mx.observe mx rt_sketch) [ 10.0; 20.0; 30.0 ];
  Ledger.charge
    (Ledger.machine (Mx.ledger mx) "tb")
    ~comp:Component.Copy
    ~kind:(Fbufs_trace.Name.intern "bcopy")
    2.5;
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

(* ------------------------------------------------------------------ *)
(* Flat ledger and registry tables against their former shapes          *)

(* The tuple-keyed ledger the flat rows replaced, kept as the model: one
   cell per (machine, component index, kind), found through a tuple key,
   with the same Neumaier update and arrival-order machine totals. *)
module Model_ledger = struct
  type cell = { mutable sum : float; mutable err : float; mutable n : int }

  type t = {
    cells : (string * int * string, cell) Hashtbl.t;
    charged : (string, float ref) Hashtbl.t;
    mutable machine_order : string list;
  }

  let create () =
    {
      cells = Hashtbl.create 64;
      charged = Hashtbl.create 4;
      machine_order = [];
    }

  let cell_add c x =
    let s = c.sum +. x in
    c.err <-
      (c.err
      +.
      if Float.abs c.sum >= Float.abs x then c.sum -. s +. x
      else x -. s +. c.sum);
    c.sum <- s;
    c.n <- c.n + 1

  let charge t ~machine ~comp ~kind us =
    let key = (machine, Component.index comp, kind) in
    (match Hashtbl.find_opt t.cells key with
    | Some c -> cell_add c us
    | None ->
        let c = { sum = 0.0; err = 0.0; n = 0 } in
        Hashtbl.add t.cells key c;
        cell_add c us);
    match Hashtbl.find_opt t.charged machine with
    | Some r -> r := !r +. us
    | None ->
        Hashtbl.add t.charged machine (ref us);
        t.machine_order <- machine :: t.machine_order

  let charged_us t ~machine =
    match Hashtbl.find_opt t.charged machine with Some r -> !r | None -> 0.0

  let machines t = List.rev t.machine_order

  let rows t =
    Hashtbl.fold
      (fun (machine, ci, kind) c acc ->
        {
          Ledger.machine;
          comp = List.nth Component.all ci;
          kind;
          us = c.sum +. c.err;
          count = c.n;
        }
        :: acc)
      t.cells []
    |> List.sort (fun (a : Ledger.row) (b : Ledger.row) ->
           match compare a.machine b.machine with
           | 0 -> (
               match
                 compare (Component.index a.comp) (Component.index b.comp)
               with
               | 0 -> compare a.kind b.kind
               | c -> c)
           | c -> c)

  let by_component t =
    let r = rows t in
    List.map
      (fun comp ->
        ( comp,
          List.fold_left
            (fun acc (row : Ledger.row) ->
              if row.comp = comp then acc +. row.us else acc)
            0.0 r ))
      Component.all

  let total_us t =
    List.fold_left (fun acc (_, us) -> acc +. us) 0.0 (by_component t)

  let charge_count t = Hashtbl.fold (fun _ c acc -> acc + c.n) t.cells 0

  let collapsed t =
    let b = Buffer.create 1024 in
    List.iter
      (fun (r : Ledger.row) ->
        let kind = if r.kind = "" then "untyped" else r.kind in
        Buffer.add_string b
          (Printf.sprintf "%s;%s;%s %.0f\n" r.machine
             (Component.label r.comp) kind (r.us *. 1000.0)))
      (rows t);
    Buffer.contents b
end

let bits = Int64.bits_of_float

let row_key (r : Ledger.row) =
  (r.machine, Component.index r.comp, r.kind, bits r.us, r.count)

(* Amounts across magnitudes, so the compensation terms do work. *)
let random_us st =
  match Rng.int st 6 with
  | 0 -> 0.0
  | 1 -> Rng.float st 1e-6
  | 2 -> Rng.float st 1e6
  | 3 -> -.Rng.float st 10.0
  | _ -> Rng.float st 100.0

let test_ledger_matches_model () =
  (* Three machines, two of them sharing a name (a separate string of
     the same bytes), and 22 kinds, the untyped one included. Each
     machine keeps its rows the way [Machine] does: looked up on its
     first charge into this ledger, then reused. Two kinds per seed are
     declared only when first charged, after the rows exist. *)
  let machines = [| "alpha"; "beta"; String.concat "" [ "be"; "ta" ] |] in
  let comps = Array.of_list Component.all in
  for seed = 1 to 25 do
    let kinds =
      Array.init 22 (fun i ->
          if i = 0 then ""
          else if i >= 20 then Printf.sprintf "late%d.k%d" seed i
          else Printf.sprintf "k%d" i)
    in
    let ids = Array.make 22 None in
    let kind_id i =
      match ids.(i) with
      | Some k -> k
      | None ->
          let k = Fbufs_trace.Name.intern kinds.(i) in
          ids.(i) <- Some k;
          k
    in
    let st = Rng.create seed in
    let real = Ledger.create () and model = Model_ledger.create () in
    let rows = Array.make 3 None in
    for _ = 1 to 1 + Rng.int st 3000 do
      let mi = Rng.int st 3 in
      let machine = machines.(mi) in
      let comp = comps.(Rng.int st (Array.length comps)) in
      let ki = Rng.int st (Array.length kinds) in
      let kind = kinds.(ki) in
      let us = random_us st in
      let r =
        match rows.(mi) with
        | Some r -> r
        | None ->
            let r = Ledger.machine real machine in
            rows.(mi) <- Some r;
            r
      in
      Ledger.charge r ~comp ~kind:(kind_id ki) us;
      Model_ledger.charge model ~machine ~comp ~kind us
    done;
    let ctx what = Printf.sprintf "seed %d: %s" seed what in
    Alcotest.(check bool) (ctx "rows") true
      (List.map row_key (Ledger.rows real)
      = List.map row_key (Model_ledger.rows model));
    check Alcotest.string (ctx "collapsed") (Model_ledger.collapsed model)
      (Ledger.collapsed real);
    let comp_bits = List.map (fun (c, us) -> (c, bits us)) in
    Alcotest.(check bool) (ctx "by_component") true
      (comp_bits (Ledger.by_component real)
      = comp_bits (Model_ledger.by_component model));
    check Alcotest.int64 (ctx "total_us") (bits (Model_ledger.total_us model))
      (bits (Ledger.total_us real));
    check Alcotest.int (ctx "charge_count") (Model_ledger.charge_count model)
      (Ledger.charge_count real);
    check
      Alcotest.(list string)
      (ctx "machines") (Model_ledger.machines model) (Ledger.machines real);
    List.iter
      (fun machine ->
        check Alcotest.int64
          (ctx ("charged_us " ^ machine))
          (bits (Model_ledger.charged_us model ~machine))
          (bits (Ledger.charged_us real ~machine)))
      [ "alpha"; "beta"; "gamma" ]
  done

(* The list-keyed registry cells the per-definition tables replaced, kept
   as the model: one cell per (definition id, label values). *)
module Model_registry = struct
  type cell = {
    mutable v : float;
    mutable n : int;
    sk : Fbufs_metrics.Sketch.t option;
  }

  let create () : (int * string list, cell) Hashtbl.t = Hashtbl.create 64

  let cell t (d : Mx.def) labels =
    match Hashtbl.find_opt t (d.Mx.id, labels) with
    | Some c -> c
    | None ->
        let c =
          {
            v = 0.0;
            n = 0;
            sk =
              (match d.Mx.kind with
              | Mx.Sketch -> Some (Fbufs_metrics.Sketch.create ())
              | Mx.Counter | Mx.Gauge -> None);
          }
        in
        Hashtbl.add t (d.Mx.id, labels) c;
        c

  let add t d labels x =
    let c = cell t d labels in
    c.v <- c.v +. x;
    c.n <- c.n + 1

  let set t d labels x =
    let c = cell t d labels in
    c.v <- x;
    c.n <- c.n + 1

  let observe t d labels x =
    let c = cell t d labels in
    (match c.sk with
    | Some sk -> Fbufs_metrics.Sketch.add sk x
    | None -> c.v <- c.v +. x);
    c.n <- c.n + 1

  (* (id, labels, value bits, count, sketch) sorted as [Mx.samples]. *)
  let update t op d labels x =
    match op with
    | 0 -> add t d labels 1.0
    | 1 -> add t d labels x
    | 2 -> set t d labels x
    | _ -> observe t d labels x

  let samples t =
    Hashtbl.fold
      (fun (id, labels) c acc ->
        let value =
          match c.sk with Some sk -> Fbufs_metrics.Sketch.sum sk | None -> c.v
        in
        (id, labels, bits value, c.n, c.sk) :: acc)
      t []
    |> List.sort (fun (a, la, _, _, _) (b, lb, _, _, _) ->
           match compare a b with 0 -> compare la lb | c -> c)
end

(* Update [op] (0 incr, 1 add, 2 set, 3 observe) with label values [l],
   through the function for that update and label count. *)
let update mx op d l x =
  match (op, l) with
  | 0, [||] -> Mx.incr mx d
  | 0, [| a |] -> Mx.incr1 mx d a
  | 0, [| a; b |] -> Mx.incr2 mx d a b
  | 0, [| a; b; c |] -> Mx.incr3 mx d a b c
  | 1, [||] -> Mx.add mx d x
  | 1, [| a |] -> Mx.add1 mx d a x
  | 1, [| a; b |] -> Mx.add2 mx d a b x
  | 1, [| a; b; c |] -> Mx.add3 mx d a b c x
  | 2, [||] -> Mx.set mx d x
  | 2, [| a |] -> Mx.set1 mx d a x
  | 2, [| a; b |] -> Mx.set2 mx d a b x
  | 2, [| a; b; c |] -> Mx.set3 mx d a b c x
  | _, [||] -> Mx.observe mx d x
  | _, [| a |] -> Mx.observe1 mx d a x
  | _, [| a; b |] -> Mx.observe2 mx d a b x
  | _, [| a; b; c |] -> Mx.observe3 mx d a b c x
  | _ -> invalid_arg "update: more than 3 labels"

(* One definition per kind and label count, 0 to 3. *)
let model_defs =
  List.concat_map
    (fun arity ->
      let labels = List.init arity (fun i -> Printf.sprintf "l%d" i) in
      [
        Mx.counter ~name:(Printf.sprintf "fbufs_test_model_c%d_total" arity)
          ~help:"model counter" ~labels ();
        Mx.gauge ~name:(Printf.sprintf "fbufs_test_model_g%d" arity)
          ~help:"model gauge" ~labels ();
        Mx.sketch ~name:(Printf.sprintf "fbufs_test_model_s%d" arity)
          ~help:"model sketch" ~labels ();
      ])
    [ 0; 1; 2; 3 ]
  |> Array.of_list

let test_registry_matches_model () =
  let values = [| "a"; "b"; ""; "c d"; "7"; "a" ^ "" |] in
  for seed = 1 to 25 do
    let st = Rng.create seed in
    let mx = Mx.create () and model = Model_registry.create () in
    for _ = 1 to 1 + Rng.int st 1500 do
      let d = model_defs.(Rng.int st (Array.length model_defs)) in
      let l =
        Array.init (List.length d.Mx.labels) (fun _ ->
            values.(Rng.int st (Array.length values)))
      in
      let x = random_us st in
      let op = Rng.int st 4 in
      update mx op d l x;
      Model_registry.update model op d (Array.to_list l) x
    done;
    let want = Model_registry.samples model in
    let got = Mx.samples mx in
    check Alcotest.int (Printf.sprintf "seed %d: sample count" seed)
      (List.length want) (List.length got);
    List.iter2
      (fun (id, labels, value, count, sk) (s : Mx.sample) ->
        let ctx what =
          Printf.sprintf "seed %d: %s{%s} %s" seed s.Mx.def.Mx.name
            (String.concat "," s.Mx.labels) what
        in
        check Alcotest.int (ctx "def") id s.Mx.def.Mx.id;
        check Alcotest.(list string) (ctx "labels") labels s.Mx.labels;
        check Alcotest.int64 (ctx "value") value (bits s.Mx.value);
        check Alcotest.int (ctx "count") count s.Mx.count;
        Alcotest.(check bool) (ctx "sketch") true
          (match (sk, s.Mx.sketch) with
          | None, None -> true
          | Some a, Some b -> Fbufs_metrics.Sketch.equal a b
          | _ -> false);
        check Alcotest.(option int64) (ctx "value read by labels")
          (Some value)
          (Option.map bits (Mx.value mx s.Mx.def ~labels:s.Mx.labels)))
      want got
  done

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
        [
          tc "counters match model" `Quick test_counters_match_model;
          tc "ledger rows match tuple-keyed model" `Quick
            test_ledger_matches_model;
          tc "registry samples match list-keyed model" `Quick
            test_registry_matches_model;
        ] );
    ]
