(* fbufs_bench: the repository's end-to-end benchmark (README.md).

     fbufs_bench run [--seed S] [--seconds T] [--json FILE]
     fbufs_bench trace [--seed S] [--seconds T] [--out DIR]
     fbufs_bench stability [--seed S] [--seconds T]
     fbufs_bench one --workload W [--seed S] [--seconds T] [--trace 0|1]

   [run] measures every workload, each in its own child process, one
   after another, prints every end-to-end metric by name with its unit,
   and exits non-zero if any output was wrong. [trace] is the separate
   traced run that yields the per-layer numbers. [stability] runs two
   full sets and prints each metric's spread next to its bound. [one]
   measures a single workload in this process and prints, as its last
   line, one JSON object {correct, attempted, failed, metrics}: the
   end-to-end metrics, or with --trace 1 the per-layer ones. *)

open Harness

let workloads =
  [
    Rpc.cached;
    Rpc.uncached;
    Net.workload;
    Congestion.workload;
    Modelcheck.workload;
    Repro.workload;
  ]

(* ------------------------------------------------------------------ *)
(* Metric definitions; BENCHMARK.json lists the same names             *)

type spec = {
  name : string;
  unit_ : string;
  bound : float;  (** share of the median a metric may worsen by *)
  det : bool;  (** bit-identical across repeats of a seed *)
  contract : bool;  (** in BENCHMARK.json's end_to_end list *)
}

let spec ?(det = false) ?(contract = true) name unit_ bound =
  { name; unit_; bound; det; contract }

let end_to_end =
  [
    spec "setup_s" "s" 0.25;
    spec "ops_per_s" "1/s" 0.25;
    spec "op_us_p50" "us" 0.25;
    spec "op_us_p90" "us" 0.25;
    spec ~det:true "alloc_words_per_op" "words" 0.05;
    spec "heap_mb" "MB" 0.10;
    spec ~det:true ~contract:false "sim_us_per_op" "sim_us" 0.0;
    spec ~det:true ~contract:false "paper_err_pct" "%" 0.0;
    spec ~det:true ~contract:false "fail_ratio" "ratio" 0.0;
  ]

let per_layer =
  List.concat_map
    (fun l -> [ (l ^ ".self_ns", "ns"); (l ^ ".sim_us", "sim_us") ])
    (Array.to_list Span.names)
  @ [
      ("core.alloc_hit_ratio", "ratio");
      ("vm.tlb_miss_per_op", "count");
      ("vm.pmap_ops_per_op", "count");
      ("vm.shootdowns_per_op", "count");
      ("vm.fault_per_op", "count");
      ("netdev.cells_per_op", "count");
      ("netdev.uncached_rx_ratio", "ratio");
      ("core.pageout.reclaimed_per_tick", "count");
      ("policy.evictions_per_kop", "count");
      ("policy.refused_ratio", "ratio");
      ("check.executed_ratio", "ratio");
    ]
  @ List.concat_map
      (fun e ->
        [
          ("cli." ^ e ^ ".bare_ms", "ms"); ("cli." ^ e ^ ".observed_ms", "ms");
        ])
      Repro.experiments
  @ [
      ("cli.observed_overhead_ratio", "ratio");
      ("gc.minor_words_per_op", "words");
      ("bench.harness_ns_per_op", "ns");
      ("bench.gap_ns", "ns");
      ("bench.gap_sim_us", "sim_us");
      ("bench.sim_us_per_op", "sim_us");
      ("bench.trace_overhead_pct", "%");
      ("bench.op_us_p99", "us");
      ("bench.op_us_p999", "us");
    ]

(* ------------------------------------------------------------------ *)
(* Output helpers                                                      *)

let num v = Printf.sprintf "%.17g" v

let json_value = function
  | Some v when Float.is_finite v -> num v
  | Some _ | None -> "null"

let show = function
  | Some v when Float.is_finite v -> Printf.sprintf "%.6g" v
  | Some _ | None -> "null"

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, unit_, v) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_value v)
           unit_)
       metrics)

type opts = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float option;  (** default: 10, or 2 for [trace] *)
  mutable trace : bool;
  mutable smoke : bool;
  mutable self_test : bool;
  mutable out : string option;
  mutable json : string option;
  mutable cli : string;
  mutable golden : string;
  mutable tmp : string;
  mutable manifest : string option;
}

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

(* ------------------------------------------------------------------ *)
(* One workload, in this process                                       *)

(* Set-up: build the world and warm it up. *)
let build ctx o wl tr =
  let warm =
    if o.smoke then min wl.warmup (max 1 (wl.warmup / 10)) else wl.warmup
  in
  let inst = wl.make ctx tr in
  for i = 0 to warm - 1 do
    inst.step i
  done;
  inst

(* Set-up time: the median of at least [reps] set-ups, repeated until they
   add up to a second (at most 50), each from a collected heap so none
   pays for the garbage of the one before. Set-up time is bimodal on a
   shared host — in some runs every set-up takes twice as long — and
   runs showed that mode less often after the timed phase than at
   process start, so that is where they are made. *)
let setup_time ctx o wl ~reps =
  let rec go n total times =
    Gc.full_major ();
    let t0 = now_ns () in
    let (_ : instance) = build ctx o wl (Span.create ()) in
    let dt = float_of_int (now_ns () - t0) /. 1e9 in
    if n + 1 < reps || (reps > 1 && total +. dt < 1.0 && n + 1 < 50) then
      go (n + 1) (total +. dt) (dt :: times)
    else median_floats (Array.of_list (dt :: times))
  in
  go 0 0.0 []

(* A counter a workload does not report is 0: the layer did no such
   work there. *)
let count counts name = Option.value (List.assoc_opt name counts) ~default:0.0
let ratio a b = if b = 0.0 then 0.0 else a /. b

type measured = {
  wl : workload;
  ctx : ctx;
  tr : Span.t;
  inst : instance;
  setup_s : float;
  phase : phase;  (** the untraced phase, or with --trace the traced one *)
  live_words : int;
      (** heap words live after a full collection once the world drained *)
  attempted : int;
  overhead_pct : float;  (** traced vs untraced rate; 0 when untraced *)
  untraced_words : float;  (** minor words per op with tracing off *)
  harness_ns : float;
  harness_words : float;  (** minor words in the whole calibration loop *)
}

let measure o wl =
  mkdir_p o.tmp;
  let ctx =
    {
      seed = o.seed;
      smoke = o.smoke;
      self_test = o.self_test;
      cli = o.cli;
      golden = o.golden;
      tmp = o.tmp;
      plant = 0;
      errors = 0;
      first_error = "";
      layer = Hashtbl.create 16;
    }
  in
  (* Allocated first, so the collector has settled its account of the
     buffer before anything is timed; pages are touched only as ops land. *)
  let buf = samples (if o.smoke then 4096 else 8_000_000) in
  let calib_ops = if o.smoke then 1000 else 200_000 in
  let harness_ns, words = calibrate ctx ~ops:calib_ops in
  let tr = Span.create () in
  let inst = build ctx o wl tr in
  tr.Span.machines <- inst.machines;
  let det_ops = if o.smoke then max 1 (wl.det_ops / 1000) else wl.det_ops in
  let seconds =
    if o.smoke then 0.0
    else Float.min (Option.value o.seconds ~default:10.0) 150.0
  in
  Gc.full_major ();
  let phase, attempted, overhead_pct, untraced_words =
    if not o.trace then begin
      let p = timed ctx inst buf ~seconds ~det_ops ~limit:max_int in
      (p, p.ops, 0.0, p.words_per_op)
    end
    else begin
      (* Untraced first, then the same number of ops traced: the ratio of
         their steady rates is the tracing overhead. *)
      let u =
        timed ctx inst buf ~seconds:(seconds /. 2.0) ~det_ops:0 ~limit:max_int
      in
      let untraced_rate = snd (steady_half u.gaps u.ops) in
      let n = max 1 u.ops in
      Span.reset tr;
      tr.Span.on <- true;
      if o.out <> None then Span.with_log tr 100_000;
      let t = timed ctx inst ~tr buf ~seconds:0.0 ~det_ops:n ~limit:n in
      tr.Span.on <- false;
      let traced_rate = snd (steady_half t.gaps t.ops) in
      ( t,
        u.ops + t.ops,
        100.0 *. ((untraced_rate /. traced_rate) -. 1.0),
        u.words_per_op )
    end
  in
  inst.finish ();
  Gc.full_major ();
  let live_words = (Gc.stat ()).Gc.live_words in
  let setup_s =
    if o.trace then nan
    else setup_time ctx o wl ~reps:(if o.smoke then 1 else 5)
  in
  {
    wl;
    ctx;
    tr;
    inst;
    setup_s;
    phase;
    live_words;
    attempted;
    overhead_pct;
    untraced_words;
    harness_ns;
    harness_words = words *. float_of_int calib_ops;
  }

let values m =
  let tbl = Hashtbl.create 96 in
  let set k v = Hashtbl.replace tbl k v in
  let p = m.phase and tr = m.tr in
  let ops = float_of_int (max 1 p.ops) in
  let c = count p.counts in
  let sum names = List.fold_left (fun acc n -> acc +. c n) 0.0 names in
  let per_op v = v /. ops in
  let words, heap_words =
    match m.inst.child_gc with
    | Some f -> f ()
    | None -> (p.words_per_op, float_of_int m.live_words)
  in
  let steady_ns, steady_rate = steady_half p.gaps p.ops in
  let sim = if Float.is_nan p.sim_per_op then None else Some p.sim_per_op in
  (* end to end *)
  set "setup_s" (Some m.setup_s);
  set "ops_per_s" (Some steady_rate);
  set "op_us_p50" (Some (percentile steady_ns 0.5 /. 1e3));
  set "op_us_p90" (Some (percentile steady_ns 0.9 /. 1e3));
  set "alloc_words_per_op" (Some words);
  set "heap_mb" (Some (mb_of_words heap_words));
  set "sim_us_per_op" sim;
  set "paper_err_pct" (Option.bind m.wl.paper_row Rpc.paper_err_pct);
  set "fail_ratio"
    (Some
       ((count p.det_counts "refused" +. float_of_int m.ctx.errors)
       /. float_of_int (max 1 p.det_ops)));
  (* per layer *)
  Array.iteri
    (fun l name ->
      set (name ^ ".self_ns") (Some (float_of_int tr.Span.self_ns.(l) /. ops));
      set (name ^ ".sim_us") (Some (tr.Span.self_sim.(l) /. ops)))
    Span.names;
  let counted k v = set k (Some v) in
  counted "core.alloc_hit_ratio"
    (ratio (c "fbuf.alloc_cached_hit")
       (sum [ "fbuf.alloc_cached_hit"; "fbuf.alloc_fresh" ]));
  counted "vm.tlb_miss_per_op" (per_op (c "tlb.miss"));
  counted "vm.pmap_ops_per_op"
    (per_op (sum [ "pmap.enter"; "pmap.remove"; "pmap.protect" ]));
  counted "vm.shootdowns_per_op" (per_op (c "tlb.shootdown"));
  counted "vm.fault_per_op" (per_op (c "vm.fault"));
  counted "netdev.cells_per_op" (per_op (c "cells"));
  counted "netdev.uncached_rx_ratio" (ratio (c "rx_uncached") (c "rx_pdus"));
  counted "core.pageout.reclaimed_per_tick"
    (ratio (c "pageout_reclaimed") (c "pageout_ticks"));
  counted "policy.evictions_per_kop" (per_op (1000.0 *. c "evictions"));
  counted "policy.refused_ratio" (per_op (c "refused"));
  counted "check.executed_ratio" (ratio (c "check_executed") (c "check_total"));
  List.iter
    (fun (name, _) ->
      if String.starts_with ~prefix:"cli." name then
        set name
          (Some
             (Option.value (Hashtbl.find_opt m.ctx.layer name) ~default:0.0)))
    per_layer;
  let sim = Option.value sim ~default:0.0 in
  set "gc.minor_words_per_op" (Some m.untraced_words);
  set "bench.harness_ns_per_op" (Some m.harness_ns);
  set "bench.gap_ns" (Some (float_of_int (p.wall_ns - tr.Span.top_ns) /. ops));
  set "bench.gap_sim_us" (Some (sim -. (tr.Span.top_sim /. ops)));
  set "bench.sim_us_per_op" (Some sim);
  set "bench.trace_overhead_pct" (Some m.overhead_pct);
  set "bench.op_us_p99" (Some (percentile steady_ns 0.99 /. 1e3));
  set "bench.op_us_p999" (Some (percentile steady_ns 0.999 /. 1e3));
  set "bench.steady_ops" (Some (float_of_int (Array.length steady_ns)));
  fun k -> Option.join (Hashtbl.find_opt tbl k)

let print_layers m get =
  let tr = m.tr and ops = float_of_int (max 1 m.phase.ops) in
  Printf.printf "%-24s %10s %12s %12s %14s\n" "layer" "calls/op" "self ns/op"
    "ns/call" "sim us/op";
  Array.iteri
    (fun l name ->
      let calls = tr.Span.calls.(l) in
      if calls > 0 then begin
        let self = float_of_int tr.Span.self_ns.(l) in
        let per_call = self /. float_of_int calls in
        Printf.printf "%-24s %10.3f %12.1f %12.1f %14.4f%s\n" name
          (float_of_int calls /. ops) (self /. ops) per_call
          (tr.Span.self_sim.(l) /. ops)
          (if per_call < m.harness_ns then "  (below the harness floor)"
           else "")
      end)
    Span.names;
  let gap_sim = Option.get (get "bench.gap_sim_us") in
  Printf.printf "%-24s %10s %12.1f %12s %14.4f\n" "(bench gap)" ""
    (Option.get (get "bench.gap_ns")) "" gap_sim;
  let layers_sim = Array.fold_left ( +. ) 0.0 tr.Span.self_sim /. ops in
  Printf.printf "sim us/op: layers %.6f + gap %.6f = %.6f (measured %.6f)\n"
    layers_sim gap_sim (layers_sim +. gap_sim)
    (Option.get (get "bench.sim_us_per_op"));
  List.iter
    (fun (name, unit_) ->
      if
        not
          (String.ends_with ~suffix:".self_ns" name
          || String.ends_with ~suffix:".sim_us" name)
      then Printf.printf "%-36s %14s  %s\n" name (show (get name)) unit_)
    per_layer

let run_one o =
  let wl =
    match
      List.find_opt (fun (w : workload) -> w.name = o.workload) workloads
    with
    | Some w -> w
    | None ->
        Printf.eprintf "fbufs_bench: unknown workload %S\n" o.workload;
        exit 2
  in
  let m = measure o wl in
  let get = values m in
  Printf.printf "== %s (seed %d, %s) ==\n" wl.name o.seed
    (if o.trace then "traced" else "untraced");
  Printf.printf "%-36s %14.1f  ns\n" "harness_ns_per_op (zero-op row)"
    m.harness_ns;
  (* a few words per phase are the det snapshot's; more scale with ops *)
  if m.harness_words > 64.0 then
    Printf.printf "warning: the timing loop allocated %.0f words\n"
      m.harness_words;
  if o.trace then print_layers m get
  else
    List.iter
      (fun s ->
        let n =
          if String.starts_with ~prefix:"op_us" s.name then
            Printf.sprintf "  (n=%.0f of %d)"
              (Option.get (get "bench.steady_ops"))
              m.phase.ops
          else ""
        in
        Printf.printf "%-36s %14s  %s%s\n" s.name (show (get s.name)) s.unit_ n;
        Printf.printf "@metric %s %s %s\n" s.name (json_value (get s.name))
          s.unit_)
      end_to_end;
  if m.ctx.errors > 0 then
    Printf.printf "errors: %d, first: %s\n" m.ctx.errors m.ctx.first_error;
  (match o.out with
  | Some dir when o.trace ->
      mkdir_p dir;
      Span.write_jsonl m.tr (Filename.concat dir (wl.name ^ ".spans.jsonl"))
  | Some _ | None -> ());
  let metrics =
    if o.trace then List.map (fun (n, u) -> (n, u, get n)) per_layer
    else
      List.filter_map
        (fun s ->
          if s.contract then Some (s.name, s.unit_, get s.name) else None)
        end_to_end
  in
  let complete =
    o.trace
    || List.for_all
         (fun (_, _, v) -> Option.fold ~none:false ~some:Float.is_finite v)
         metrics
  in
  let correct = m.ctx.errors = 0 && complete in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n%!"
    correct m.attempted m.ctx.errors (json_metrics metrics);
  if not correct then exit 1

(* ------------------------------------------------------------------ *)
(* Whole sets, one child process per workload                          *)

let child_args o ~workload ~trace =
  let seconds = Option.value o.seconds ~default:(if trace then 2.0 else 10.0) in
  [
    "one"; "--workload"; workload; "--seed"; string_of_int o.seed; "--seconds";
    num seconds; "--trace"; (if trace then "1" else "0"); "--cli"; o.cli;
    "--golden"; o.golden; "--tmp"; o.tmp;
  ]
  @ (if o.smoke then [ "--smoke" ] else [])
  @ (if o.self_test then [ "--self-test" ] else [])
  @ match o.out with Some d when trace -> [ "--out"; d ] | Some _ | None -> []

let spawn args ~stdout =
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin stdout
      Unix.stderr
  in
  Repro.wait pid = Unix.WEXITED 0

type outcome = { label : string; ok : bool; got : (string * float option) list }

(* Each workload in a child process; its report is relayed without the
   final JSON line, and its end-to-end metrics are collected. *)
let run_set o ~trace =
  mkdir_p o.tmp;
  List.map
    (fun (wl : workload) ->
      let file = Filename.concat o.tmp (wl.name ^ ".out") in
      let fd =
        Unix.openfile file Unix.[ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] 0o644
      in
      let ok =
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            spawn (child_args o ~workload:wl.name ~trace) ~stdout:fd)
      in
      let lines = String.split_on_char '\n' (Repro.read_file file) in
      let got =
        List.filter_map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ "@metric"; name; v; _ ] -> Some (name, float_of_string_opt v)
            | _ ->
                if l <> "" && l.[0] <> '{' then print_endline l;
                None)
          lines
      in
      { label = wl.name; ok; got })
    workloads

let value r (s : spec) = Option.join (List.assoc_opt s.name r.got)

let print_set outcomes =
  Printf.printf "\n%-28s" "metric";
  List.iter (fun r -> Printf.printf " %13s" r.label) outcomes;
  print_newline ();
  List.iter
    (fun (s : spec) ->
      Printf.printf "%-28s" (s.name ^ " (" ^ s.unit_ ^ ")");
      List.iter (fun r -> Printf.printf " %13s" (show (value r s))) outcomes;
      print_newline ())
    end_to_end;
  List.iter
    (fun r -> if not r.ok then Printf.printf "FAILED: %s\n" r.label)
    outcomes

let write_json o file outcomes =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      Printf.fprintf oc "{\"seed\": %d, \"workloads\": {\n" o.seed;
      List.iteri
        (fun i r ->
          Printf.fprintf oc "  %S: {\"correct\": %b, \"metrics\": {%s}}%s\n"
            r.label r.ok
            (json_metrics
               (List.map (fun s -> (s.name, s.unit_, value r s)) end_to_end))
            (if i = List.length outcomes - 1 then "" else ","))
        outcomes;
      output_string oc "}}\n")

(* BENCHMARK.json must list every workload and metric this program
   reports under the contract. *)
let check_manifest file =
  let text = Repro.read_file file in
  let listed name =
    let needle = Printf.sprintf "\"name\": %S" name in
    let n = String.length needle in
    let rec go i =
      i + n <= String.length text
      && (String.sub text i n = needle || go (i + 1))
    in
    go 0
  in
  let names =
    List.map (fun (w : workload) -> w.name) workloads
    @ List.filter_map
        (fun s -> if s.contract then Some s.name else None)
        end_to_end
    @ List.map fst per_layer
  in
  match List.filter (fun n -> not (listed n)) names with
  | [] -> true
  | missing ->
      Printf.eprintf "fbufs_bench: %s does not list %s\n" file
        (String.concat ", " missing);
      false

let cmd_run o =
  let manifest_ok = Option.fold ~none:true ~some:check_manifest o.manifest in
  let outcomes = run_set o ~trace:false in
  print_set outcomes;
  Option.iter (fun f -> write_json o f outcomes) o.json;
  if not (manifest_ok && List.for_all (fun r -> r.ok) outcomes) then exit 1

let cmd_trace o =
  if o.out = None then o.out <- Some (Filename.concat o.tmp "trace");
  if not (List.for_all (fun r -> r.ok) (run_set o ~trace:true)) then exit 1

(* Two full sets; for each workload and metric, the relative difference
   of the two next to the metric's bound. Deterministic metrics must be
   bit-identical. Set-up time is printed but not held to its bound: its
   bound is for the median over many runs, and one pair of runs is
   noisier than that. *)
let cmd_stability o =
  let a = run_set o ~trace:false in
  let b = run_set o ~trace:false in
  Printf.printf "\n%-13s %-20s %14s %14s %8s %6s\n" "workload" "metric" "set 1"
    "set 2" "spread" "bound";
  let bad = ref 0 in
  List.iter2
    (fun ra rb ->
      List.iter
        (fun s ->
          match (value ra s, value rb s) with
          | Some x, Some y ->
              let spread =
                if x = 0.0 then Float.abs y
                else Float.abs (y -. x) /. Float.abs x
              in
              let ok =
                if s.det then x = y
                else s.name = "setup_s" || spread <= s.bound
              in
              if not ok then incr bad;
              Printf.printf "%-13s %-20s %14.6g %14.6g %7.2f%% %5.0f%%%s\n"
                ra.label s.name x y (100.0 *. spread) (100.0 *. s.bound)
                (if ok then "" else if s.det then "  NOT IDENTICAL"
                 else "  OVER BOUND")
          | _ -> ())
        end_to_end)
    a b;
  Printf.printf "%d metric(s) outside their bound\n" !bad;
  if !bad > 0 || not (List.for_all (fun r -> r.ok) (a @ b)) then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let usage =
  "usage: fbufs_bench (run|trace|stability|one) [--workload W] [--seed S] \
   [--seconds T] [--trace 0|1] [--json FILE] [--out DIR] [--smoke] \
   [--self-test] [--cli PATH] [--golden DIR] [--tmp DIR] [--manifest FILE]"

let () =
  let o =
    {
      workload = "";
      seed = 1;
      seconds = None;
      trace = false;
      smoke = false;
      self_test = false;
      out = None;
      json = None;
      cli = "_build/default/bin/fbufs_cli.exe";
      golden = "test/golden";
      tmp = "_build/fbufs_bench";
      manifest = None;
    }
  in
  let specs =
    [
      ("--workload", Arg.String (fun s -> o.workload <- s), "W");
      ("--seed", Arg.Int (fun s -> o.seed <- s), "S");
      ("--seconds", Arg.Float (fun s -> o.seconds <- Some s), "T");
      ("--trace", Arg.Int (fun t -> o.trace <- t = 1), "0|1");
      ("--json", Arg.String (fun f -> o.json <- Some f), "FILE");
      ("--out", Arg.String (fun d -> o.out <- Some d), "DIR");
      ("--smoke", Arg.Unit (fun () -> o.smoke <- true), "");
      ("--self-test", Arg.Unit (fun () -> o.self_test <- true), "");
      ("--cli", Arg.String (fun p -> o.cli <- p), "PATH");
      ("--golden", Arg.String (fun d -> o.golden <- d), "DIR");
      ("--tmp", Arg.String (fun d -> o.tmp <- d), "DIR");
      ("--manifest", Arg.String (fun f -> o.manifest <- Some f), "FILE");
    ]
  in
  let command = if Array.length Sys.argv < 2 then "" else Sys.argv.(1) in
  (try
     Arg.parse_argv ~current:(ref 1) Sys.argv specs
       (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
       usage
   with Arg.Bad msg | Arg.Help msg ->
     prerr_endline msg;
     exit 2);
  match command with
  | "one" -> run_one o
  | "run" -> cmd_run o
  | "trace" -> cmd_trace o
  | "stability" -> cmd_stability o
  | _ ->
      prerr_endline usage;
      exit 2
