(* Fbufs_span: the causal span sink's well-formedness and exactness
   invariants on crafted trees, the critical-path extractor on a chain
   with known slack, exporter round-trips, the DDSketch-style quantile
   sketch (relative-error bound, exact merge algebra, serialization),
   the gauge time-series rings, and an end-to-end Figure 5 run whose
   per-transfer span charges must partition the ledger exactly. *)

module Span = Fbufs_span.Span
module Critical = Fbufs_span.Critical
module Export = Fbufs_span.Span_export
module Comp = Fbufs_metrics.Component
module Sketch = Fbufs_metrics.Sketch
module Mx = Fbufs_metrics.Metrics
module Machine = Fbufs_sim.Machine
module Json = Fbufs_trace.Json

let check = Alcotest.check

let no_violations what t =
  check Alcotest.(list string) (what ^ ": well-formed") [] (Span.check t)

(* One tx-side transfer with a nested push, a wire flight and an rx-side
   adopted delivery — the crafted fixture most tests share. Charges are
   chosen so every per-component cell is distinct. *)
let crafted () =
  let t = Span.create () in
  let tid = Span.transfer_begin t ~machine:"tx" ~ts_us:0.0 ~domain:"app" "msg" in
  Span.on_charge t ~machine:"tx" ~comp:Comp.Alloc 1.0;
  let a = Span.enter t ~machine:"tx" ~ts_us:1.0 ~domain:"kernel" "push" in
  Span.on_charge t ~machine:"tx" ~comp:Comp.Proto 3.0;
  let c = Span.enter t ~machine:"tx" ~ts_us:2.0 "stray" in
  Span.on_charge t ~machine:"tx" ~comp:Comp.Copy 0.5;
  Span.finish t ~machine:"tx" ~ts_us:3.0 c;
  Span.finish t ~machine:"tx" ~ts_us:4.0 a;
  let f = Span.flight t ~transfer:tid ~follows:a ~start_us:4.0 ~end_us:5.0 "pdu" in
  let b = Span.adopt t ~machine:"rx" ~ts_us:5.0 ~transfer:tid ~follows:f "rx" in
  Span.on_charge t ~machine:"rx" ~comp:Comp.Net 2.0;
  Span.transfer_end t ~machine:"tx" ~ts_us:6.0 tid;
  Span.finish t ~machine:"rx" ~ts_us:9.0 b;
  (t, tid, (a, c, f, b))

(* ------------------------------------------------------------------ *)
(* Sink structure and exactness                                        *)

let test_tree_structure () =
  let t, tid, (a, c, f, b) = crafted () in
  no_violations "crafted" t;
  let tr = Option.get (Span.find_transfer t tid) in
  let spans = Span.spans_of tr in
  check Alcotest.int "five spans" 5 (List.length spans);
  let span id = Option.get (Span.find_span t id) in
  check Alcotest.int "push is a child of the root" tr.Span.root
    (span a).Span.parent;
  check Alcotest.int "stray is a child of push" a (span c).Span.parent;
  check Alcotest.int "flight follows push" a (span f).Span.follows;
  check Alcotest.string "flight runs on the wire" Span.wire
    (span f).Span.machine;
  check Alcotest.int "delivery is parentless" 0 (span b).Span.parent;
  check Alcotest.int "delivery follows the flight" f (span b).Span.follows;
  Alcotest.(check bool) "all spans closed" true (List.for_all Span.is_closed spans)

let test_charge_partition_is_exact () =
  let t, tid, _ = crafted () in
  let tr = Option.get (Span.find_transfer t tid) in
  (* 1 + 3 + 0.5 + 2 us of CPU charges plus the 1 us flight on the wire. *)
  check Alcotest.int "transfer total" 7_500 (Span.total_ns tr);
  check Alcotest.int "Proto cell" 3_000 tr.Span.cells_ns.(Comp.index Comp.Proto);
  check Alcotest.int "Net cell (flight included)" 3_000
    tr.Span.cells_ns.(Comp.index Comp.Net);
  let sum =
    List.fold_left (fun acc sp -> acc + Span.span_total_ns sp) 0
      (Span.spans_of tr)
  in
  check Alcotest.int "span charges partition the transfer" (Span.total_ns tr) sum

let test_fractional_charges_still_sum () =
  (* Thirds and tenths are not representable in binary floating point;
     single-point rounding means the integer cells still agree exactly. *)
  let t = Span.create () in
  let tid = Span.transfer_begin t ~machine:"m" ~ts_us:0.0 "frac" in
  for i = 1 to 1000 do
    let sp = Span.enter t ~machine:"m" ~ts_us:(float_of_int i) "w" in
    Span.on_charge t ~machine:"m" ~comp:Comp.Ipc (1.0 /. 3.0);
    Span.on_charge t ~machine:"m" ~comp:Comp.Touch 0.1;
    Span.finish t ~machine:"m" ~ts_us:(float_of_int i +. 0.5) sp
  done;
  Span.transfer_end t ~machine:"m" ~ts_us:2000.0 tid;
  no_violations "fractional charges" t

let test_unfinished_span_is_reported () =
  let t = Span.create () in
  let tid = Span.transfer_begin t ~machine:"m" ~ts_us:0.0 "leak" in
  let (_ : int) = Span.enter t ~machine:"m" ~ts_us:1.0 "open" in
  Span.transfer_end t ~machine:"m" ~ts_us:2.0 tid;
  Alcotest.(check bool)
    "draining an open span is a violation" false
    (Span.check t = [])

let test_mismatched_finish_is_reported () =
  let t = Span.create () in
  let tid = Span.transfer_begin t ~machine:"m" ~ts_us:0.0 "bad" in
  Span.finish t ~machine:"m" ~ts_us:1.0 424242;
  Span.transfer_end t ~machine:"m" ~ts_us:2.0 tid;
  Alcotest.(check bool)
    "finishing an unknown id is a violation" false
    (Span.violations t = [])

let test_untracked_charges () =
  let t = Span.create () in
  Span.on_charge t ~machine:"m" ~comp:Comp.Map 4.0;
  let u = Span.untracked_ns t ~machine:"m" in
  check Alcotest.int "no-context charge lands untracked" 4_000
    u.(Comp.index Comp.Map);
  check Alcotest.int "arrival total covers it" 4_000
    (Span.charged_ns t ~machine:"m");
  no_violations "untracked only" t

let test_enter_without_transfer_is_id_zero () =
  let t = Span.create () in
  check Alcotest.int "no context, no span" 0
    (Span.enter t ~machine:"m" ~ts_us:1.0 "w");
  Span.finish t ~machine:"m" ~ts_us:2.0 0;
  no_violations "id 0 ignored" t

let test_cross_transfer_follows () =
  (* A transfer opened while another span is on the CPU (the ack handler
     pumping the next message) records a follows-from edge to it. *)
  let t = Span.create () in
  let t1 = Span.transfer_begin t ~machine:"m" ~ts_us:0.0 "first" in
  let h = Span.enter t ~machine:"m" ~ts_us:1.0 "ack" in
  let t2 = Span.transfer_begin t ~machine:"m" ~ts_us:2.0 "second" in
  Span.transfer_end t ~machine:"m" ~ts_us:3.0 t2;
  Span.finish t ~machine:"m" ~ts_us:4.0 h;
  Span.transfer_end t ~machine:"m" ~ts_us:5.0 t1;
  no_violations "pipelined transfers" t;
  let tr2 = Option.get (Span.find_transfer t t2) in
  let root2 = Option.get (Span.find_span t tr2.Span.root) in
  check Alcotest.int "second root follows the ack handler" h root2.Span.follows

(* ------------------------------------------------------------------ *)
(* Critical path                                                       *)

let test_critical_path_and_slack () =
  let t, tid, (a, _c, f, b) = crafted () in
  let tr = Option.get (Span.find_transfer t tid) in
  let s = Critical.analyze t tr in
  check (Alcotest.float 1e-9) "wall is first start to last end" 9.0 s.Critical.wall_us;
  check
    Alcotest.(list int)
    "path follows the causal chain back from the delivery"
    [ tr.Span.root; a; f; b ]
    (List.map (fun sp -> sp.Span.id) s.Critical.path);
  (match s.Critical.off with
  | [ (sp, slack) ] ->
      check Alcotest.string "stray is off-path" "stray" sp.Span.kind;
      (* It ends at 3; the next on-path start is the flight at 4. *)
      check (Alcotest.float 1e-9) "slack to the next on-path start" 1.0 slack
  | off -> Alcotest.failf "expected one off-path span, got %d" (List.length off));
  Array.iteri
    (fun i on ->
      check Alcotest.int
        (Printf.sprintf "component %d on+off = ledger" i)
        tr.Span.cells_ns.(i)
        (on + s.Critical.off_ns.(i)))
    s.Critical.on_ns

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)

let test_jsonl_round_trip () =
  let t, _, _ = crafted () in
  let parsed = Export.parse_jsonl (Export.jsonl t) in
  let original = Span.transfers t in
  check Alcotest.int "transfer count" (List.length original) (List.length parsed);
  List.iter2
    (fun (o : Span.transfer) (p : Span.transfer) ->
      check Alcotest.int "tid" o.Span.tid p.Span.tid;
      check Alcotest.string "label" o.Span.label p.Span.label;
      check Alcotest.int "root" o.Span.root p.Span.root;
      check
        Alcotest.(array int)
        "ledger cells" o.Span.cells_ns p.Span.cells_ns;
      List.iter2
        (fun (os : Span.span) (ps : Span.span) ->
          check Alcotest.int "id" os.Span.id ps.Span.id;
          check Alcotest.int "parent" os.Span.parent ps.Span.parent;
          check Alcotest.int "follows" os.Span.follows ps.Span.follows;
          check Alcotest.string "kind" os.Span.kind ps.Span.kind;
          check Alcotest.string "machine" os.Span.machine ps.Span.machine;
          check (Alcotest.float 1e-9) "start" os.Span.start_us ps.Span.start_us;
          check (Alcotest.float 1e-9) "end" os.Span.end_us ps.Span.end_us;
          check
            Alcotest.(array int)
            "charges" os.Span.charges_ns ps.Span.charges_ns)
        (Span.spans_of o) (Span.spans_of p))
    original parsed

let test_jsonl_rejects_orphan_span () =
  let zeros =
    String.concat "," (List.init (Array.length Comp.(Array.of_list all)) (fun _ -> "0"))
  in
  let bad =
    Printf.sprintf
      {|{"type":"span","id":7,"transfer":99,"parent":0,"follows":0,"kind":"w","machine":"m","domain":"","path_id":0,"start_us":0,"end_us":1,"charges_ns":[%s]}|}
      zeros
  in
  Alcotest.check_raises "orphan span"
    (Export.Parse_error "line 1: span #7 references unknown transfer #99")
    (fun () -> ignore (Export.parse_jsonl bad))

let test_chrome_export_shape () =
  let t, _, _ = crafted () in
  let j = Json.parse (Json.to_string (Export.chrome t)) in
  match Json.member "traceEvents" j with
  | Some (Json.List evs) ->
      Alcotest.(check bool) "has events" true (List.length evs > 5);
      let phases =
        List.filter_map
          (fun e ->
            match Json.member "ph" e with
            | Some (Json.String p) -> Some p
            | _ -> None)
          evs
      in
      List.iter
        (fun ph ->
          Alcotest.(check bool)
            (Printf.sprintf "phase %S present" ph)
            true (List.mem ph phases))
        [ "X"; "M"; "s"; "f" ]
  | _ -> Alcotest.fail "no traceEvents array"

(* Every lane an X or flow event uses is named by process_name /
   thread_name metadata, every flow start has its finish, and spans
   without a domain sit on their machine's lane (tid 1, "machine"). *)
let test_chrome_lanes_named_and_flows_paired () =
  let t, _, _ = crafted () in
  let doc = Json.parse (Json.to_string (Export.chrome t)) in
  let evs =
    match Json.member "traceEvents" doc with
    | Some (Json.List evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let str k e =
    match Json.member k e with Some (Json.String s) -> s | _ -> ""
  in
  let int k e = match Json.member k e with Some (Json.Int i) -> i | _ -> -1 in
  let meta what =
    List.filter (fun e -> str "ph" e = "M" && str "name" e = what) evs
  in
  let arg_name e =
    match Json.member "args" e with Some a -> str "name" a | None -> ""
  in
  let procs =
    List.map (fun e -> (int "pid" e, arg_name e)) (meta "process_name")
  in
  let threads =
    List.map
      (fun e -> ((int "pid" e, int "tid" e), arg_name e))
      (meta "thread_name")
  in
  let used =
    List.filter (fun e -> List.mem (str "ph" e) [ "X"; "s"; "f" ]) evs
  in
  Alcotest.(check bool) "X and flow events present" true (used <> []);
  List.iter
    (fun e ->
      let pid = int "pid" e and tid = int "tid" e in
      Alcotest.(check bool)
        (Printf.sprintf "%s event: pid %d named" (str "ph" e) pid)
        true (List.mem_assoc pid procs);
      Alcotest.(check bool)
        (Printf.sprintf "%s event: tid %d of pid %d named" (str "ph" e) tid pid)
        true
        (List.mem_assoc (pid, tid) threads))
    used;
  let ids ph =
    List.filter (fun e -> str "ph" e = ph) used
    |> List.map (int "id")
    |> List.sort compare
  in
  Alcotest.(check bool) "flows present" true (ids "s" <> []);
  Alcotest.(check (list int)) "every s has its f" (ids "s") (ids "f");
  let stray =
    List.find (fun e -> str "ph" e = "X" && str "name" e = "stray") used
  in
  check Alcotest.int "domain-less span on tid 1" 1 (int "tid" stray);
  check Alcotest.string "tid 1 is the machine lane" "machine"
    (List.assoc (int "pid" stray, 1) threads);
  check Alcotest.string "its process is the machine" "tx"
    (List.assoc (int "pid" stray) procs)

(* ------------------------------------------------------------------ *)
(* Quantile sketch                                                     *)

let positive_floats =
  QCheck.(
    list_of_size
      Gen.(10 -- 300)
      (map (fun x -> Float.abs x +. 0.001) (float_bound_inclusive 10_000.0)))

let exact_quantile xs p =
  let a = Array.of_list (List.sort compare xs) in
  let n = Array.length a in
  let rank = max 1 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n))) in
  a.(rank - 1)

let sketch_of xs =
  let sk = Sketch.create ~alpha:0.01 () in
  List.iter (Sketch.add sk) xs;
  sk

let prop_quantile_relative_error =
  QCheck.Test.make ~name:"sketch quantile within the relative-error bound"
    ~count:200 positive_floats (fun xs ->
      let sk = sketch_of xs in
      List.for_all
        (fun p ->
          let want = exact_quantile xs p in
          let got = Sketch.quantile sk p in
          Float.abs (got -. want) <= (0.01 *. want) +. 1e-9)
        [ 0.0; 25.0; 50.0; 90.0; 99.0; 100.0 ])

let prop_merge_commutes =
  QCheck.Test.make ~name:"sketch merge is commutative" ~count:100
    QCheck.(pair positive_floats positive_floats)
    (fun (xs, ys) ->
      let a = sketch_of xs and b = sketch_of ys in
      Sketch.equal (Sketch.merge a b) (Sketch.merge b a))

let prop_merge_associates =
  QCheck.Test.make ~name:"sketch merge is associative" ~count:100
    QCheck.(triple positive_floats positive_floats positive_floats)
    (fun (xs, ys, zs) ->
      let a = sketch_of xs and b = sketch_of ys and c = sketch_of zs in
      Sketch.equal
        (Sketch.merge (Sketch.merge a b) c)
        (Sketch.merge a (Sketch.merge b c)))

let prop_merge_is_union =
  QCheck.Test.make ~name:"merged sketch equals the sketch of the union"
    ~count:100
    QCheck.(pair positive_floats positive_floats)
    (fun (xs, ys) ->
      Sketch.equal
        (Sketch.merge (sketch_of xs) (sketch_of ys))
        (sketch_of (xs @ ys)))

let prop_serialization_round_trips =
  QCheck.Test.make ~name:"sketch JSON round-trip preserves equality"
    ~count:100 positive_floats (fun xs ->
      let sk = sketch_of xs in
      Sketch.equal sk (Sketch.of_json_string (Sketch.to_json_string sk)))

let test_sketch_negative_and_zero () =
  let sk = Sketch.create ~alpha:0.01 () in
  List.iter (Sketch.add sk) [ -100.0; -1.0; 0.0; 1.0; 100.0 ];
  check Alcotest.int "count" 5 (Sketch.count sk);
  check (Alcotest.float 1e-9) "min" (-100.0) (Sketch.min_value sk);
  check (Alcotest.float 1e-9) "max" 100.0 (Sketch.max_value sk);
  let med = Sketch.quantile sk 50.0 in
  Alcotest.(check bool)
    (Printf.sprintf "median %g ~ 0" med)
    true
    (Float.abs med <= 0.01);
  Alcotest.(check bool)
    "p100 hits the max" true
    (Float.abs (Sketch.quantile sk 100.0 -. 100.0) <= 1.0)

let test_sketch_alpha_mismatch_rejected () =
  let a = Sketch.create ~alpha:0.01 () and b = Sketch.create ~alpha:0.02 () in
  Alcotest.check_raises "mismatched alpha"
    (Invalid_argument "Sketch.merge: sketches have different alpha")
    (fun () -> ignore (Sketch.merge a b))

let test_sketch_metric_kind () =
  (* A sketch-backed metric observes through the registry and renders in
     both expositions. *)
  let def =
    Mx.sketch ~name:"fbufs_test_span_wall_us" ~help:"test sketch"
      ~labels:[ "label" ] ()
  in
  let mx = Mx.create () in
  List.iter
    (fun v -> Mx.observe1 mx def "a" v)
    [ 10.0; 20.0; 30.0 ];
  check (Alcotest.float 1e-9) "value is the sum" 60.0
    (Option.get (Mx.value mx def ~labels:[ "a" ]));
  let prom = Fbufs_metrics.Expo.to_prometheus mx in
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  Alcotest.(check bool) "count row" true
    (contains prom "fbufs_test_span_wall_us_count");
  Alcotest.(check bool) "quantile row" true
    (contains prom "quantile=\"0.99\"")

(* ------------------------------------------------------------------ *)
(* End to end                                                          *)

let test_fig5_run_is_well_formed_and_exact () =
  let sink = Span.create () in
  Machine.with_obs { Machine.no_obs with spans = Some sink } (fun () ->
      ignore
        (Fbufs_harness.Exp_fig5.run_one ~uncached:false
           ~config:Fbufs_harness.Exp_fig5.User_user ~bytes:16384 ~window:4
           ~nmsgs:4 ()));
  no_violations "fig5 run" sink;
  let trs = Span.transfers sink in
  check Alcotest.int "one transfer per message" 4 (List.length trs);
  List.iter
    (fun (tr : Span.transfer) ->
      Alcotest.(check bool)
        "the transfer crossed both machines and the wire" true
        (List.sort_uniq compare
           (List.map (fun sp -> sp.Span.machine) (Span.spans_of tr))
        = [ "rx"; "tx"; Span.wire ]);
      let s = Critical.analyze sink tr in
      Alcotest.(check bool) "path is non-trivial" true
        (List.length s.Critical.path > 3);
      let on = Array.fold_left ( + ) 0 s.Critical.on_ns in
      let off = Array.fold_left ( + ) 0 s.Critical.off_ns in
      check Alcotest.int "critical path + slack = ledger charge"
        (Span.total_ns tr) (on + off))
    trs

let test_fig5_spans_follow_across_transfers () =
  (* With a window, later transfers are pumped from ack handlers: their
     roots must carry cross-transfer follows edges. *)
  let sink = Span.create () in
  Machine.with_obs { Machine.no_obs with spans = Some sink } (fun () ->
      ignore
        (Fbufs_harness.Exp_fig5.run_one ~uncached:false
           ~config:Fbufs_harness.Exp_fig5.User_user ~bytes:16384 ~window:2
           ~nmsgs:6 ()));
  let trs = Span.transfers sink in
  let follows_of (tr : Span.transfer) =
    (Option.get (Span.find_span sink tr.Span.root)).Span.follows
  in
  let linked = List.filter (fun tr -> follows_of tr <> 0) trs in
  Alcotest.(check bool)
    (Printf.sprintf "%d of %d roots follow earlier work" (List.length linked)
       (List.length trs))
    true
    (List.length linked >= List.length trs - 2)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "span"
    [
      ( "sink",
        [
          tc "tree structure" `Quick test_tree_structure;
          tc "exact charge partition" `Quick test_charge_partition_is_exact;
          tc "fractional charges" `Quick test_fractional_charges_still_sum;
          tc "unfinished span reported" `Quick test_unfinished_span_is_reported;
          tc "mismatched finish reported" `Quick
            test_mismatched_finish_is_reported;
          tc "untracked charges" `Quick test_untracked_charges;
          tc "no context, id 0" `Quick test_enter_without_transfer_is_id_zero;
          tc "cross-transfer follows" `Quick test_cross_transfer_follows;
        ] );
      ( "critical path",
        [ tc "path and slack" `Quick test_critical_path_and_slack ] );
      ( "export",
        [
          tc "JSONL round-trip" `Quick test_jsonl_round_trip;
          tc "orphan span rejected" `Quick test_jsonl_rejects_orphan_span;
          tc "chrome shape" `Quick test_chrome_export_shape;
          tc "chrome lanes named, flows paired" `Quick
            test_chrome_lanes_named_and_flows_paired;
        ] );
      ( "sketch",
        [
          QCheck_alcotest.to_alcotest prop_quantile_relative_error;
          QCheck_alcotest.to_alcotest prop_merge_commutes;
          QCheck_alcotest.to_alcotest prop_merge_associates;
          QCheck_alcotest.to_alcotest prop_merge_is_union;
          QCheck_alcotest.to_alcotest prop_serialization_round_trips;
          tc "negatives and zero" `Quick test_sketch_negative_and_zero;
          tc "alpha mismatch" `Quick test_sketch_alpha_mismatch_rejected;
          tc "registry kind" `Quick test_sketch_metric_kind;
        ] );
      ( "end-to-end",
        [
          tc "fig5 exact partition" `Quick
            test_fig5_run_is_well_formed_and_exact;
          tc "fig5 pipelining edges" `Quick
            test_fig5_spans_follow_across_transfers;
        ] );
    ]
