(* repro: what reproduction users run. One op is one cycle through the
   paper's experiments with the fbufs_cli binary, each run once bare and
   once with --metrics and --spans attached. Bare output must match the
   golden report byte for byte, and observed output must match it too
   once the sink notes are set aside; fig6 has no golden, so its first
   bare output is the reference. Each run is its own process, so the
   allocation and heap figures are the CLI's own, read from the OCaml
   runtime's exit statistics. *)

open Harness

let experiments = [ "table1"; "remap"; "fig3"; "fig4"; "fig5"; "fig6" ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The notes a sink prints after the report ("spans: ...", "metrics: ...")
   name the output files; everything before them is the report. *)
let report_of output =
  String.split_on_char '\n' output
  |> List.filter (fun l ->
         not
           (String.starts_with ~prefix:"spans: " l
           || String.starts_with ~prefix:"metrics: " l))
  |> String.concat "\n"

let gc_field text name =
  let prefix = name ^ ": " in
  String.split_on_char '\n' text
  |> List.find_map (fun l ->
         if String.starts_with ~prefix l then
           float_of_string_opt
             (String.sub l (String.length prefix)
                (String.length l - String.length prefix))
         else None)

let child_env () =
  Unix.environment () |> Array.to_list
  |> List.filter (fun e ->
         not
           (String.starts_with ~prefix:"OCAMLRUNPARAM=" e
           || String.starts_with ~prefix:"CAMLRUNPARAM=" e))
  |> List.cons "OCAMLRUNPARAM=v=0x400"
  |> Array.of_list

let rec wait pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid

type run = { out : string; ns : int; words : float; heap_words : float }

(* One CLI process: its stdout, wall time, and the runtime's count of
   minor words and largest major heap. *)
let run_cli ctx args =
  let out = Filename.concat ctx.tmp "cli.out" in
  let err = Filename.concat ctx.tmp "cli.err" in
  let flags = Unix.[ O_WRONLY; O_CREAT; O_TRUNC; O_CLOEXEC ] in
  let fd_out = Unix.openfile out flags 0o644 in
  let fd_err = Unix.openfile err flags 0o644 in
  let t0 = now_ns () in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close fd_out;
        Unix.close fd_err)
      (fun () ->
        Unix.create_process_env ctx.cli
          (Array.of_list (ctx.cli :: args))
          (child_env ()) Unix.stdin fd_out fd_err)
  in
  let status = wait pid in
  let ns = now_ns () - t0 in
  let stats = read_file err in
  if status <> Unix.WEXITED 0 then
    error ctx
      (Printf.sprintf "%s %s failed: %s" ctx.cli (String.concat " " args)
         (String.trim stats));
  {
    out = read_file out;
    ns;
    words = Option.value (gc_field stats "minor_words") ~default:nan;
    heap_words = Option.value (gc_field stats "top_heap_words") ~default:nan;
  }

let make ctx (_ : Span.t) =
  let exps = if ctx.smoke then [ "table1" ] else experiments in
  (* Each experiment's reference output: its golden report, or for one
     without a golden, its first bare output. *)
  let reference = Hashtbl.create 8 in
  List.iter
    (fun exp ->
      let golden = Filename.concat ctx.golden (exp ^ ".golden") in
      if Sys.file_exists golden then
        Hashtbl.replace reference exp (read_file golden))
    exps;
  let check exp ~observed output =
    let got = if observed then report_of output else output in
    match Hashtbl.find_opt reference exp with
    | None -> Hashtbl.replace reference exp got
    | Some want ->
        let want = if ctx.plant = 1 then want ^ "planted" else want in
        if got <> want then
          error ctx
            (Printf.sprintf "%s%s output differs from its reference" exp
               (if observed then " (observed)" else ""))
  in
  let times = Hashtbl.create 16 in
  let ms exp observed =
    Option.value (Hashtbl.find_opt times (exp, observed)) ~default:[]
  in
  let cycle_words = ref [] and heap_words = ref 0.0 in
  let run exp ~observed =
    let stem = Filename.concat ctx.tmp exp in
    let sinks = [ "--metrics"; stem ^ ".json"; "--spans"; stem ^ ".jsonl" ] in
    let r = run_cli ctx (exp :: (if observed then sinks else [])) in
    check exp ~observed r.out;
    Hashtbl.replace times (exp, observed)
      ((float_of_int r.ns /. 1e6) :: ms exp observed);
    heap_words := Float.max !heap_words r.heap_words;
    r.words
  in
  let step _ =
    cycle_words :=
      List.fold_left
        (fun acc exp ->
          acc +. run exp ~observed:false +. run exp ~observed:true)
        0.0 exps
      :: !cycle_words
  in
  let finish () =
    let total observed =
      List.fold_left
        (fun acc exp -> List.fold_left ( +. ) acc (ms exp observed))
        0.0 exps
    in
    List.iter
      (fun exp ->
        let median observed = median_floats (Array.of_list (ms exp observed)) in
        Hashtbl.replace ctx.layer ("cli." ^ exp ^ ".bare_ms") (median false);
        Hashtbl.replace ctx.layer ("cli." ^ exp ^ ".observed_ms") (median true))
      exps;
    Hashtbl.replace ctx.layer "cli.observed_overhead_ratio"
      (total true /. total false)
  in
  (* Set-up: the cheapest golden run, which also proves the binary and the
     goldens are where they should be. *)
  check "table1" ~observed:false (run_cli ctx [ "table1" ]).out;
  let child_gc () =
    (* the first cycle is the first timed op: the det prefix *)
    match List.rev !cycle_words with
    | first :: _ -> (first, !heap_words)
    | [] -> (nan, nan)
  in
  {
    step;
    finish;
    counters = (fun () -> []);
    machines = [||];
    child_gc = Some child_gc;
  }

let workload =
  {
    name = "repro";
    why =
      "what reproduction users run, and the only workload with observability \
       sinks attached";
    warmup = 0;
    det_ops = 1;
    paper_row = None;
    make;
  }
