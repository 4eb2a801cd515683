(* Command-line driver: regenerate any of the paper's tables and figures,
   run ablations, or dump the cost model. Every experiment accepts
   [--trace FILE] (Chrome trace_event JSON), [--jsonl FILE],
   [--metrics FILE] (Prometheus text, or JSON for .json paths) and
   [--spans FILE] (causal span trees as JSONL); with none of them,
   instrumentation stays disabled and output is identical to an
   uninstrumented build. *)

open Cmdliner
module H = Fbufs_harness

let table1 zero = H.Exp_table1.print (H.Exp_table1.run ~zero_on_alloc:zero ())

let remap () = H.Exp_remap.print (H.Exp_remap.run ())
let fig3 () = H.Exp_fig3.print (H.Exp_fig3.run ())
let fig4 () = H.Exp_fig4.print (H.Exp_fig4.run ())
let fig5 () = H.Exp_fig5.print (H.Exp_fig5.run ~uncached:false ())
let fig6 () = H.Exp_fig5.print (H.Exp_fig5.run ~uncached:true ())

(* Keep the table's names aligned with DESIGN.md section 6; [--only] is
   what lets Makefile targets (ablation-tlb) and CI run one ablation
   without paying for the whole suite. *)
let ablation_table =
  [
    ("security-zeroing", H.Ablation.security_zeroing);
    ("tlb-size", H.Ablation.tlb_size);
    ("tlb-elision", H.Ablation.tlb_elision);
    ("ipc-latency", H.Ablation.ipc_latency);
    ("ipc-facility", H.Ablation.ipc_facility);
    ("integrated-vs-rebuild", H.Ablation.integrated_vs_rebuild);
    ("securing-policy", H.Ablation.securing_policy);
    ("free-list-policy", H.Ablation.free_list_policy);
    ("window-size", H.Ablation.window_size);
    ("chunk-size", H.Ablation.chunk_size);
    ("adapter-demux", H.Ablation.adapter_demux);
    ("path-locality", H.Ablation.path_locality);
    ("pdu-size-cpu-load", H.Ablation.pdu_size_cpu_load);
    ("buffer-sharing", Fbufs_policy.Scenario.ablation);
  ]

let ablations only =
  match only with
  | None ->
      H.Ablation.run_all ();
      Fbufs_policy.Scenario.ablation ()
  | Some name -> (
      match List.assoc_opt name ablation_table with
      | Some f -> f ()
      | None ->
          Format.eprintf "ablation: unknown name %S; valid names:@.%a@." name
            (Format.pp_print_list ~pp_sep:Format.pp_print_newline
               (fun ppf (n, _) -> Format.fprintf ppf "  %s" n))
            ablation_table;
          exit 2)

let info_cmd () =
  Format.printf "DecStation 5000/200 cost model:@.%a@."
    Fbufs_sim.Cost_model.pp Fbufs_sim.Cost_model.decstation_5000_200

let all zero =
  table1 zero;
  remap ();
  fig3 ();
  fig4 ();
  fig5 ();
  fig6 ()

let zero_flag =
  let doc =
    "Enable security clearing (57us/page) of uncached allocations; the \
     paper's Table 1 excludes this cost."
  in
  Arg.(value & flag & info [ "zero-on-alloc" ] ~doc)

let no_elision_flag =
  let doc =
    "Disable TLB shootdown deferral and elision: every \
     protection downgrade and unmap pays the immediate per-page \
     shootdown, reproducing the pre-elision cost model exactly."
  in
  Arg.(value & flag & info [ "no-tlb-elision" ] ~doc)

let with_elision no_elision f =
  Fbufs_vm.Pmap.elision_enabled := not no_elision;
  Fun.protect
    ~finally:(fun () -> Fbufs_vm.Pmap.elision_enabled := true)
    f

let trace_file =
  let doc =
    "Write a Chrome trace_event JSON of every simulated mechanism (pmap \
     updates, TLB refills, fbuf cache hits/misses, IPC crossings, DMA) to \
     $(docv); load it in chrome://tracing or Perfetto."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")

let jsonl_file =
  let doc = "Write the raw event stream as one JSON object per line to $(docv)." in
  Arg.(value & opt (some string) None & info [ "jsonl" ] ~doc ~docv:"FILE")

let metrics_file =
  let doc =
    "Write the metrics exposition (live counters plus the per-component \
     cost ledger) to $(docv): JSON when the name ends in .json, Prometheus \
     text otherwise. Combines freely with $(b,--trace), $(b,--jsonl) and \
     $(b,--spans): one execution produces every requested output."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~doc ~docv:"FILE")

let spans_file =
  let doc =
    "Write causal span trees (one JSON object per line; transfers, \
     parent/child and follows-from edges, per-span Table 1 component \
     charges) to $(docv). With $(b,--metrics) also given, per-transfer \
     wall times land in the fbufs_transfer_wall_us quantile sketch of \
     that exposition — the run is executed once either way."
  in
  Arg.(value & opt (some string) None & info [ "spans" ] ~doc ~docv:"FILE")

let record_dir =
  let doc =
    "Arm the flight recorder: bounded rings over recent trace events and \
     completed transfers, a seeded weighted event reservoir, and the \
     online invariant monitor at sequence points (it reads the metrics \
     registry, so it checks runs given $(b,--metrics)). Anomalies \
     (monitor violations, policy drop spikes) write a post-mortem dump \
     (JSONL, Chrome trace, span JSONL, meta) under $(docv)."
  in
  Arg.(
    value
    & opt ~vopt:(Some "postmortem") (some string) None
    & info [ "record" ] ~doc ~docv:"DIR")

let dump_on_exit_flag =
  let doc =
    "With the recorder armed, always write a final post-mortem dump when \
     the run ends, bypassing the debounce and dump cap (implies \
     $(b,--record) with its default directory)."
  in
  Arg.(value & flag & info [ "dump-on-exit" ] ~doc)

(* The flight recorder and its monitors join the run's record: the
   recorder taps the sinks the run requested (adding its own ring where
   one is absent) and the monitors take the sequence-point hook. Returns
   the record extension and the run to execute under it. *)
let recorder ?dir ~dump_on_exit f =
  match (dir, dump_on_exit) with
  | None, false -> (None, f)
  | _ ->
      let module O = Fbufs_obs in
      let r = O.Recorder.create ~dir:(Option.value dir ~default:"postmortem") in
      let mon = O.Monitor.create ~recorder:r () in
      let extend o =
        { (O.Recorder.arm r o) with seq_hook = Some (O.Monitor.hook mon) }
      in
      ( Some extend,
        fun () ->
          Fun.protect
            ~finally:(fun () -> O.Recorder.disarm r)
            (fun () ->
              let x = f () in
              if dump_on_exit then
                ignore (O.Recorder.trigger ~force:true r ~reason:"exit");
              x) )

(* Wrap an experiment term so tracing, metering, span recording and the
   flight recorder cover exactly its run. *)
let traced term =
  let wrap chrome jsonl metrics spans record dump_on_exit f =
    let extend, f = recorder ?dir:record ~dump_on_exit f in
    H.Run.with_outputs ?chrome ?jsonl ?metrics ?spans ?extend f
  in
  Term.(
    const wrap $ trace_file $ jsonl_file $ metrics_file $ spans_file
    $ record_dir $ dump_on_exit_flag $ term)

let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

let thunk1 f =
  Term.(
    const (fun zero no_elision () -> with_elision no_elision (fun () -> f zero))
    $ zero_flag $ no_elision_flag)

let thunk0 f =
  Term.(
    const (fun no_elision () -> with_elision no_elision (fun () -> f ()))
    $ no_elision_flag)

let config_conv =
  let parse s =
    match s with
    | "kernel-kernel" -> Ok H.Exp_fig5.Kernel_kernel
    | "user-user" -> Ok H.Exp_fig5.User_user
    | "user-netserver-user" -> Ok H.Exp_fig5.User_netserver_user
    | _ ->
        Error
          (`Msg
            "expected kernel-kernel, user-user or user-netserver-user")
  in
  let print ppf c = Format.pp_print_string ppf (H.Exp_fig5.config_name c) in
  Arg.conv (parse, print)

let trace_cmd =
  let config =
    let doc = "Topology: kernel-kernel, user-user or user-netserver-user." in
    Arg.(
      value
      & opt config_conv H.Exp_fig5.User_user
      & info [ "config" ] ~doc ~docv:"CONFIG")
  in
  let bytes =
    let doc = "Message size in bytes." in
    Arg.(value & opt int 65536 & info [ "bytes" ] ~doc ~docv:"N")
  in
  let uncached =
    let doc = "Use uncached, non-volatile fbufs (the Figure 6 regime)." in
    Arg.(value & flag & info [ "uncached" ] ~doc)
  in
  let window =
    let doc = "Sliding-window size (messages in flight)." in
    Arg.(value & opt (some int) None & info [ "window" ] ~doc ~docv:"N")
  in
  let pdu_size =
    let doc = "IP PDU size in bytes." in
    Arg.(value & opt (some int) None & info [ "pdu-size" ] ~doc ~docv:"N")
  in
  let nmsgs =
    let doc = "Number of messages (default scales with size)." in
    Arg.(value & opt (some int) None & info [ "nmsgs" ] ~doc ~docv:"N")
  in
  let out =
    let doc =
      "Chrome trace output file (mechanism-level events; independent of \
       the causal span outputs, any combination may be requested)."
    in
    Arg.(
      value & opt string "fbufs_trace.json" & info [ "trace" ] ~doc ~docv:"FILE")
  in
  let run config bytes uncached window pdu_size nmsgs out jsonl metrics spans =
    H.Run.with_outputs ~chrome:out ?jsonl ?metrics ?spans
      (H.Run.workload ~config ~bytes ~uncached ?window ?pdu_size ?nmsgs)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run one fully traced end-to-end transfer and dump the event \
          timeline plus a per-path latency histogram summary; combine \
          with --metrics and --spans to meter the same single run")
    Term.(
      const run $ config $ bytes $ uncached $ window $ pdu_size $ nmsgs $ out
      $ jsonl_file $ metrics_file $ spans_file)

let spans_cmd =
  let config =
    let doc = "Topology: kernel-kernel, user-user or user-netserver-user." in
    Arg.(
      value
      & opt config_conv H.Exp_fig5.User_user
      & info [ "config" ] ~doc ~docv:"CONFIG")
  in
  (* Defaults kept small and fixed so the report is deterministic and
     readable: 4 messages of 16 KB with a window of 4 exercises
     pipelining (follows-from edges between transfers) without drowning
     the per-transfer breakdown. *)
  let bytes =
    let doc = "Message size in bytes." in
    Arg.(value & opt int 16384 & info [ "bytes" ] ~doc ~docv:"N")
  in
  let uncached =
    let doc = "Use uncached, non-volatile fbufs (the Figure 6 regime)." in
    Arg.(value & flag & info [ "uncached" ] ~doc)
  in
  let window =
    let doc = "Sliding-window size (messages in flight)." in
    Arg.(value & opt int 4 & info [ "window" ] ~doc ~docv:"N")
  in
  let pdu_size =
    let doc = "IP PDU size in bytes." in
    Arg.(value & opt (some int) None & info [ "pdu-size" ] ~doc ~docv:"N")
  in
  let nmsgs =
    let doc = "Number of messages." in
    Arg.(value & opt int 4 & info [ "nmsgs" ] ~doc ~docv:"N")
  in
  let out =
    let doc = "Also write the span trees as JSONL to $(docv)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~doc ~docv:"FILE")
  in
  let chrome =
    let doc =
      "Also write the span trees as a Chrome trace_event file (complete \
       events plus flow arrows for follows-from edges) to $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "chrome" ] ~doc ~docv:"FILE")
  in
  let top =
    let doc = "Limit the per-transfer breakdown to the first $(docv) transfers." in
    Arg.(value & opt (some int) None & info [ "top" ] ~doc ~docv:"N")
  in
  let run config bytes uncached window pdu_size nmsgs out chrome metrics top =
    H.Run.with_outputs ?spans:out ?spans_chrome:chrome ?metrics ~critical:true
      ?top
      (H.Run.workload ~config ~bytes ~uncached ~window ?pdu_size ~nmsgs)
  in
  Cmd.v
    (Cmd.info "spans"
       ~doc:
         "Run one end-to-end transfer with causal span recording and print \
          the critical-path report: per transfer, which Table 1 components \
          bound end-to-end latency (their costs sum exactly to the ledger \
          charge) and the slack of off-path work; --metrics additionally \
          feeds per-transfer walls into a mergeable quantile sketch")
    Term.(
      const run $ config $ bytes $ uncached $ window $ pdu_size $ nmsgs $ out
      $ chrome $ metrics_file $ top)

let check_cmd =
  let seeds =
    let doc = "Seed to check (repeatable). Default 1 (1, 2, 3 with --quick)." in
    Arg.(value & opt_all int [] & info [ "seed" ] ~doc ~docv:"N")
  in
  let ops =
    let doc = "Operations per run." in
    Arg.(value & opt int 2000 & info [ "ops" ] ~doc ~docv:"K")
  in
  let adversary =
    let doc =
      "Include adversarial operations (unauthorized access, use after \
       free, malformed DAGs, domain crashes, exhaustion)."
    in
    Arg.(value & flag & info [ "adversary" ] ~doc)
  in
  let quick =
    let doc = "CI preset: each seed in both normal and adversary mode, at most 500 ops." in
    Arg.(value & flag & info [ "quick" ] ~doc)
  in
  let out =
    let doc = "On failure, also write the shrunk counterexample to $(docv)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~doc ~docv:"FILE")
  in
  let record =
    let doc =
      "Arm the flight recorder for the checked runs: documented refusals \
       (and any divergence raised while expecting one) trigger debounced \
       post-mortem dumps under $(docv), and a final dump is always \
       written when the runs finish."
    in
    Arg.(value & opt (some string) None & info [ "record" ] ~doc ~docv:"DIR")
  in
  let run seeds ops adversary quick out record =
    let seeds =
      match seeds with [] -> if quick then [ 1; 2; 3 ] else [ 1 ] | l -> l
    in
    let ops = if quick then min ops 500 else ops in
    let jobs =
      if quick then List.concat_map (fun s -> [ (s, false); (s, true) ]) seeds
      else List.map (fun s -> (s, adversary)) seeds
    in
    let run_jobs ?on_refusal () =
      List.filter_map
        (fun (seed, adversary) ->
          let o = Fbufs_check.run_seed ?on_refusal ~seed ~ops ~adversary () in
          Format.printf "%a@." Fbufs_check.pp_outcome o;
          if Fbufs_check.Driver.failed o.Fbufs_check.report then Some o
          else None)
        jobs
    in
    let failures =
      match record with
      | None -> run_jobs ()
      | Some dir ->
          let module O = Fbufs_obs in
          let r = O.Recorder.create ~dir in
          let on_refusal what =
            O.Recorder.note r ~kind:"check.refusal"
              ~args:[ ("op", Fbufs_trace.Trace.Str what) ]
              ();
            ignore (O.Recorder.trigger r ~reason:("refusal:" ^ what))
          in
          Fun.protect
            ~finally:(fun () -> O.Recorder.disarm r)
            (fun () ->
              H.Run.with_outputs ~extend:(O.Recorder.arm r) (fun () ->
                  let failures = run_jobs ~on_refusal () in
                  ignore (O.Recorder.trigger ~force:true r ~reason:"exit");
                  failures))
    in
    match failures with
    | [] -> ()
    | o :: _ ->
        (match out with
        | None -> ()
        | Some file ->
            let oc = open_out file in
            let ppf = Format.formatter_of_out_channel oc in
            Format.fprintf ppf "%a@." Fbufs_check.pp_outcome o;
            close_out oc);
        exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Differential check of the fbuf stack against its reference model \
          (randomized operation sequences; failures shrink to a minimal \
          replayable sequence)")
    Term.(const run $ seeds $ ops $ adversary $ quick $ out $ record)

let lint_cmd =
  let format =
    let doc = "Output format: text, json or sarif." in
    let fmt_conv =
      Arg.conv
        ( (function
          | "text" -> Ok `Text
          | "json" -> Ok `Json
          | "sarif" -> Ok `Sarif
          | _ -> Error (`Msg "expected text, json or sarif")),
          fun ppf f ->
            Format.pp_print_string ppf
              (match f with
              | `Text -> "text"
              | `Json -> "json"
              | `Sarif -> "sarif") )
    in
    Arg.(value & opt fmt_conv `Text & info [ "format" ] ~doc ~docv:"FMT")
  in
  let baseline =
    let doc =
      "Accepted-findings file (JSON array, normally lint_baseline.json). \
       Only findings absent from it fail the run; matching ignores line \
       numbers so entries survive unrelated edits."
    in
    Arg.(value & opt (some string) None & info [ "baseline" ] ~doc ~docv:"FILE")
  in
  let out =
    let doc = "Also write every finding as JSON to $(docv) (CI artifact)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~doc ~docv:"FILE")
  in
  let root =
    let doc =
      "Repository root to lint (default: nearest ancestor with a \
       dune-project)."
    in
    Arg.(value & opt (some string) None & info [ "root" ] ~doc ~docv:"DIR")
  in
  let run format baseline out root =
    let module L = Fbufs_lint in
    let root =
      match root with
      | Some r -> r
      | None -> (
          match L.Driver.find_root () with
          | Some r -> r
          | None ->
              Format.eprintf "lint: no dune-project above the working directory@.";
              exit 2)
    in
    let findings = L.Driver.run ~root in
    (match out with
    | None -> ()
    | Some file ->
        let oc = open_out file in
        let ppf = Format.formatter_of_out_channel oc in
        L.Driver.render_json ppf findings;
        Format.pp_print_flush ppf ();
        close_out oc);
    let baseline =
      match baseline with
      | None -> []
      | Some file -> (
          try L.Driver.load_baseline file
          with Sys_error e | Invalid_argument e ->
            Format.eprintf "lint: bad baseline: %s@." e;
            exit 2)
    in
    let fresh = L.Driver.unbaselined ~baseline findings in
    (match format with
    | `Text -> L.Driver.render_text Format.std_formatter fresh
    | `Json -> L.Driver.render_json Format.std_formatter fresh
    | `Sarif -> L.Sarif.render Format.std_formatter fresh);
    if fresh <> [] then exit 1;
    (* Staleness gate: a baseline entry nothing matches any more is dead
       debt that would silently excuse a future regression. Fresh
       findings dominate (exit 1 above); staleness alone exits 3. *)
    let stale = L.Driver.stale_entries ~baseline findings in
    if stale <> [] then begin
      Format.eprintf
        "lint: %d stale baseline entr%s (no current finding matches) — \
         delete from the baseline:@."
        (List.length stale)
        (if List.length stale = 1 then "y" else "ies");
      List.iter
        (fun (f : L.Finding.t) ->
          Format.eprintf "  %s %s: %s@." f.rule f.file f.msg)
        stale;
      exit 3
    end
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static fbuf-discipline analysis: parsetree lint of the repo's \
          sources (immutability, determinism, documented raises, \
          reference pairing, no handle laundering, metric registration, \
          span open/close balance) plus interprocedural typestate \
          analysis of fbuf handles (use-after-free, leaks, \
          write-after-send, read-before-secure)")
    Term.(const run $ format $ baseline $ out $ root)

let exp_conv =
  Arg.conv
    ( (function
      | "table1" -> Ok `Table1
      | "remap" -> Ok `Remap
      | "fig3" -> Ok `Fig3
      | "fig4" -> Ok `Fig4
      | "fig5" -> Ok `Fig5
      | "fig6" -> Ok `Fig6
      | "all" -> Ok `All
      | _ ->
          Error
            (`Msg "expected table1, remap, fig3, fig4, fig5, fig6 or all")),
      fun ppf e ->
        Format.pp_print_string ppf
          (match e with
          | `Table1 -> "table1"
          | `Remap -> "remap"
          | `Fig3 -> "fig3"
          | `Fig4 -> "fig4"
          | `Fig5 -> "fig5"
          | `Fig6 -> "fig6"
          | `All -> "all") )

let experiment_arg =
  let doc = "Experiment to meter (table1, remap, fig3..fig6, all)." in
  Arg.(value & pos 0 exp_conv `Table1 & info [] ~doc ~docv:"EXPERIMENT")

let run_experiment experiment zero =
  match experiment with
  | `Table1 -> table1 zero
  | `Remap -> remap ()
  | `Fig3 -> fig3 ()
  | `Fig4 -> fig4 ()
  | `Fig5 -> fig5 ()
  | `Fig6 -> fig6 ()
  | `All -> all zero

(* [stats --watch]: a Top renderer on the tick callback, framing at
   fixed simulated intervals, with a span sink of its own whose transfer
   walls feed the closing frame's quantiles. *)
let watch_top ~interval_us f =
  let top = Fbufs_obs.Top.create ~interval_us () in
  let sink = Fbufs_span.Span.create () in
  ( Some
      (fun (o : Fbufs_sim.Machine.obs) ->
        Fbufs_obs.Top.attach top { o with spans = Some sink }),
    fun () ->
      let x = f () in
      H.Run.roll_transfer_walls (Fbufs_obs.Top.metrics top) sink;
      Fbufs_obs.Top.final top;
      x )

let stats_cmd =
  let folded =
    let doc =
      "Write collapsed flamegraph stacks (machine;component;kind ns) to \
       $(docv); feed to flamegraph.pl or speedscope."
    in
    Arg.(value & opt (some string) None & info [ "folded" ] ~doc ~docv:"FILE")
  in
  let watch =
    let doc =
      "Re-emit a snapshot frame (counters with deltas, gauges, cost \
       shares) every $(docv) simulated microseconds while the experiment \
       runs, plus a closing frame — periodic observation on the simulated \
       clock, deterministic run to run."
    in
    Arg.(value & opt (some float) None & info [ "watch" ] ~doc ~docv:"US")
  in
  let run experiment zero no_elision metrics folded watch =
    let f () = run_experiment experiment zero in
    let extend, f =
      match watch with
      | Some interval_us -> watch_top ~interval_us f
      | None -> (None, f)
    in
    with_elision no_elision (fun () ->
        H.Run.with_outputs ?metrics ?folded ~breakdown:true ?extend f)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run an experiment with the metrics registry attached and print \
          the per-component cost-attribution breakdown (the component \
          column sums exactly to the run's total charged simulated time)")
    Term.(
      const run $ experiment_arg $ zero_flag $ no_elision_flag $ metrics_file
      $ folded $ watch)

let cmds =
  [
    cmd "table1" "Table 1: per-page transfer costs" (traced (thunk1 table1));
    cmd "remap" "Section 2.2.1: DASH-style remap measurements"
      (traced (thunk0 remap));
    cmd "fig3" "Figure 3: single-boundary throughput vs message size"
      (traced (thunk0 fig3));
    cmd "fig4" "Figure 4: UDP/IP loopback throughput" (traced (thunk0 fig4));
    cmd "fig5" "Figure 5: end-to-end throughput, cached/volatile fbufs"
      (traced (thunk0 fig5));
    cmd "fig6" "Figure 6: end-to-end throughput, uncached fbufs"
      (traced (thunk0 fig6));
    (let only =
       let doc =
         "Run a single ablation by name (e.g. tlb-elision) instead of the \
          whole suite."
       in
       Arg.(value & opt (some string) None & info [ "only" ] ~doc ~docv:"NAME")
     in
     cmd "ablation" "Design-choice ablations (DESIGN.md section 6)"
       (traced
          Term.(
            const (fun only no_elision () ->
                with_elision no_elision (fun () -> ablations only))
            $ only $ no_elision_flag)));
    cmd "info" "Print the calibrated cost model" Term.(const info_cmd $ const ());
    cmd "all" "Run every experiment" (traced (thunk1 all));
    stats_cmd;
    trace_cmd;
    spans_cmd;
    check_cmd;
    lint_cmd;
  ]

let () =
  let doc = "fbufs (SOSP '93) reproduction: experiments and ablations" in
  exit (Cmd.eval (Cmd.group (Cmd.info "fbufs_cli" ~doc) cmds))
