(* Benchmark harness.

   Two things happen here:

   1. Bechamel micro/meso-benchmarks — one Test.make per paper artefact
      (Table 1, the remap table, Figures 3-6) measuring the real execution
      cost of the code paths that regenerate it, plus a few core-operation
      microbenchmarks. These quantify the *simulator*.

   2. The full reproduction printout: every table and figure of the paper,
      simulated-time results next to the paper's numbers. These quantify
      the *reproduction*.
*)

open Bechamel
open Fbufs_sim
open Fbufs
module Msg = Fbufs_msg.Msg
module Ipc = Fbufs_ipc.Ipc
module H = Fbufs_harness
module Testbed = H.Testbed
module Testproto = Fbufs_protocols.Testproto

(* ---------- steady-state fixtures reused across benchmark runs -------- *)

let roundtrip_fixture variant =
  let tb = Testbed.create () in
  let app = Testbed.user_domain tb "app" in
  let recv = Testbed.user_domain tb "recv" in
  let alloc = Testbed.allocator tb ~domains:[ app; recv ] variant in
  let conn = Ipc.connect tb.Testbed.region ~src:app ~dst:recv () in
  fun bytes ->
    let msg = Testproto.make_message ~alloc ~as_:app ~bytes () in
    Ipc.call conn msg ~handler:(fun received ->
        Msg.touch_read received ~as_:recv;
        Ipc.free_deferred conn received);
    Msg.free_all msg ~dom:app

let bench_table1 =
  let rt = roundtrip_fixture Fbuf.cached_volatile in
  Test.make ~name:"table1: cached/volatile 8-page roundtrip"
    (Staged.stage (fun () -> rt (8 * 4096)))

let bench_remap =
  let open Fbufs_vm in
  let m = Machine.create ~nframes:4096 () in
  let a = Pd.create m "a" and b = Pd.create m "b" in
  let npages = 16 in
  let vpn_a = Remap.alloc_pages a ~npages ~clear_fraction:0.0 in
  let vpn_b = Vm_map.reserve_private b.Pd.map ~npages in
  ignore (Remap.move ~src:a ~dst:b ~src_vpn:vpn_a ~npages ~dst_vpn:vpn_b ());
  Test.make ~name:"remap: 16-page ping-pong round"
    (Staged.stage (fun () ->
         ignore
           (Remap.move ~src:b ~dst:a ~src_vpn:vpn_b ~npages ~dst_vpn:vpn_a ());
         ignore
           (Remap.move ~src:a ~dst:b ~src_vpn:vpn_a ~npages ~dst_vpn:vpn_b ())))

let bench_fig3 =
  let rt = roundtrip_fixture Fbuf.volatile_only in
  Test.make ~name:"fig3: 64K volatile transfer"
    (Staged.stage (fun () -> rt 65536))

let bench_fig4 =
  let stack = H.Stacks.three_domains () in
  Test.make ~name:"fig4: 16K message through 3-domain loopback stack"
    (Staged.stage (fun () ->
         let msg =
           Testproto.make_message ~alloc:stack.H.Stacks.data_alloc
             ~as_:stack.H.Stacks.sender_dom ~bytes:16384 ()
         in
         stack.H.Stacks.send msg))

let bench_fig5 =
  Test.make ~name:"fig5: end-to-end user-user 64K run (4 msgs)"
    (Staged.stage (fun () ->
         ignore
           (H.Exp_fig5.run_one ~uncached:false ~config:H.Exp_fig5.User_user
              ~bytes:65536 ~nmsgs:4 ())))

let bench_fig6 =
  Test.make ~name:"fig6: end-to-end user-user 64K run, uncached (4 msgs)"
    (Staged.stage (fun () ->
         ignore
           (H.Exp_fig5.run_one ~uncached:true ~config:H.Exp_fig5.User_user
              ~bytes:65536 ~nmsgs:4 ())))

let bench_access =
  let m = Machine.create ~nframes:64 () in
  let d = Fbufs_vm.Pd.create m "bench" in
  let vpn = Fbufs_vm.Vm_map.reserve_private d.Fbufs_vm.Pd.map ~npages:4 in
  Fbufs_vm.Vm_map.map_zero_fill d.Fbufs_vm.Pd.map ~vpn ~npages:4;
  let va = vpn * 4096 in
  Fbufs_vm.Access.write_word d ~vaddr:va 1;
  Test.make ~name:"micro: charged word access (TLB hit)"
    (Staged.stage (fun () -> ignore (Fbufs_vm.Access.read_word d ~vaddr:va)))

let bench_msg_ops =
  let tb = Testbed.create () in
  let app = Testbed.user_domain tb "app" in
  let alloc = Testbed.allocator tb ~domains:[ app ] Fbuf.cached_volatile in
  let fb = Allocator.alloc alloc ~npages:4 in
  let msg = Msg.of_fbuf fb ~off:0 ~len:16384 in
  Test.make ~name:"micro: message split+join at 4K"
    (Staged.stage (fun () ->
         let a, b = Msg.split msg 4096 in
         ignore (Msg.join a b)))

let bench_integrated =
  let tb = Testbed.create () in
  let app = Testbed.user_domain tb "app" in
  let alloc = Testbed.allocator tb ~domains:[ app ] Fbuf.cached_volatile in
  let fbs = List.init 8 (fun _ -> Allocator.alloc alloc ~npages:1) in
  let msg =
    List.fold_left
      (fun acc fb -> Msg.join acc (Msg.of_fbuf fb ~off:0 ~len:4096))
      Msg.empty fbs
  in
  let meta = Allocator.alloc alloc ~npages:1 in
  Test.make ~name:"micro: integrated DAG serialize (8 leaves)"
    (Staged.stage (fun () ->
         ignore (Fbufs_msg.Integrated.serialize msg ~meta ~as_:app)))

(* ---------- run + report ---------------------------------------------- *)

type row = { name : string; ns_per_run : float; r_square : float option }

let run_benchmarks ~quick =
  (* Per-test measurement budgets. The end-to-end figure-5/6 runs cost
     ~15 ms per iteration: under the light quota barely thirty samples
     land and allocator/GC noise dominates the OLS fit (r^2 of 0.58 and
     0.43 in the PR4 snapshot). They get a 6x quota and a stabilized
     heap; everything else keeps the cheap config. Benchmark names are
     the bench-trend join key, so they never change. *)
  let light =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if quick then 0.05 else 0.5))
      ~stabilize:false ()
  in
  let heavy =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if quick then 0.3 else 3.0))
      ~stabilize:true ()
  in
  (* The table1/fig3 roundtrips sit between the micros and the end-to-end
     runs (a few microseconds per iteration): under the light quota their
     OLS fits topped out around r^2 0.86-0.94 (PR6 snapshot). Two changes
     push both past 0.95: a stabilized heap with a 6x quota, and samples
     that start at 50 runs with a 5% geometric ramp — under the default
     start-at-1 sampling, most samples execute a handful of ~6 us
     iterations and fixed per-sample noise (timer, scheduler) swamps the
     signal the OLS fit needs. *)
  let steady =
    Benchmark.cfg ~limit:3000
      ~quota:(Time.second (if quick then 0.2 else 3.0))
      ~stabilize:true ~start:50 ~sampling:(`Geometric 1.05) ()
  in
  let tests =
    [
      (bench_table1, steady);
      (bench_remap, light);
      (bench_fig3, steady);
      (bench_fig4, light);
      (bench_fig5, heavy);
      (bench_fig6, heavy);
      (bench_access, light);
      (bench_msg_ops, light);
      (bench_integrated, light);
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let rows = ref [] in
  List.iter
    (fun (test, cfg) ->
      let results = Benchmark.all cfg [ instance ] test in
      let analyzed = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (e :: _) -> e
            | Some [] | None -> nan
          in
          rows :=
            { name; ns_per_run = ns; r_square = Analyze.OLS.r_square ols_result }
            :: !rows)
        analyzed)
    tests;
  (* Hashtbl.iter order is arbitrary; sort so the report (and the JSON
     artifact) is stable run to run. *)
  List.sort (fun a b -> compare a.name b.name) !rows

let print_rows rows =
  print_endline "== Bechamel: real execution cost of the harness ==";
  Printf.printf "%-52s  %14s\n" "benchmark" "ns/run";
  print_endline (String.make 70 '-');
  List.iter
    (fun r ->
      let est =
        if Float.is_nan r.ns_per_run then "             -"
        else Printf.sprintf "%14.1f" r.ns_per_run
      in
      Printf.printf "%-52s  %s\n" r.name est)
    rows;
  print_newline ()

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* One JSON object per benchmark: name, ns_per_run, r_square, date
   (ISO 8601, UTC). NaN is not valid JSON, so a failed estimate or a
   missing r^2 is emitted as null. *)
let write_json ~file rows =
  let tm = Unix.gmtime (Unix.time ()) in
  let date =
    Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900)
      (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
  in
  let oc = open_out file in
  let fnum v =
    if Float.is_nan v then "null" else Printf.sprintf "%.1f" v
  in
  output_string oc "[\n";
  List.iteri
    (fun i r ->
      let r2 =
        match r.r_square with
        | Some v when not (Float.is_nan v) -> Printf.sprintf "%.6f" v
        | Some _ | None -> "null"
      in
      Printf.fprintf oc
        "  {\"name\": \"%s\", \"ns_per_run\": %s, \"r_square\": %s, \"date\": \"%s\"}%s\n"
        (json_escape r.name) (fnum r.ns_per_run) r2 date
        (if i = List.length rows - 1 then "" else ",");)
    rows;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "wrote %s (%d benchmarks)\n\n" file (List.length rows)

(* ---------- full reproduction ----------------------------------------- *)

let reproduce () =
  H.Exp_table1.print (H.Exp_table1.run ());
  H.Exp_remap.print (H.Exp_remap.run ());
  H.Exp_fig3.print (H.Exp_fig3.run ());
  H.Exp_fig4.print (H.Exp_fig4.run ());
  print_endline "\n-- Figure 5 (cached/volatile fbufs) --";
  H.Exp_fig5.print (H.Exp_fig5.run ~uncached:false ());
  print_endline "\n-- Figure 6 (uncached, non-volatile fbufs) --";
  H.Exp_fig5.print (H.Exp_fig5.run ~uncached:true ())

let usage () =
  prerr_endline
    "usage: main.exe [--quick] [--json FILE]\n\
     \  --quick      reduced measurement quota; skips the paper\n\
     \               reproduction printout (CI smoke mode)\n\
     \  --json FILE  also write the benchmark rows to FILE as JSON";
  exit 2

let () =
  let quick = ref false and json = ref None in
  let rec parse = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        parse rest
    | "--json" :: file :: rest ->
        json := Some file;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let rows = run_benchmarks ~quick:!quick in
  print_rows rows;
  (match !json with Some file -> write_json ~file rows | None -> ());
  if not !quick then reproduce ()
