(* modelcheck: one op is one 100-op differential sequence — generate it,
   then replay it against both the real stack and the reference model
   under memory pressure, with the adversary on for every odd sequence.
   A sequence that diverges is an error. *)

open Harness
module Driver = Fbufs_check.Driver

let sequence_ops = 100

let make ctx (tr : Span.t) =
  let n = ref 0 and executed = ref 0 and total = ref 0 in
  let step _ =
    let k = !n in
    incr n;
    let seed = Gen.mix ((ctx.seed * 1_000_003) + k) land 0x3FFF_FFFF in
    let adversary = k land 1 = 1 in
    Span.enter tr Span.check_gen;
    let ops = Driver.gen_ops ~seed ~n:sequence_ops ~adversary in
    Span.leave tr;
    Span.enter tr Span.check_replay;
    let report = Driver.replay ~seed ops in
    Span.leave tr;
    executed := !executed + report.Driver.executed;
    total := !total + report.Driver.total;
    if Driver.failed report <> (ctx.plant = 1) then
      error ctx
        (Format.asprintf "sequence %d (seed %d): %a" k seed Driver.pp_report
           report)
  in
  let counters () =
    [
      ("check_executed", float_of_int !executed);
      ("check_total", float_of_int !total);
    ]
  in
  { step; finish = ignore; counters; machines = [||]; child_gc = None }

let workload =
  {
    name = "modelcheck";
    why =
      "the checker (model, audit, driver) over the whole stack under memory \
       pressure";
    warmup = 20;
    det_ops = 1000;
    paper_row = None;
    make;
  }
