(* Fbufs_check: the reference-model differential checker.

   A pure model of fbuf semantics (Model), a randomized operation driver
   that runs every sequence against both the model and the real stack
   (Driver), a structural invariant auditor (Audit), and ddmin shrinking
   of failing sequences to minimal replayable reproducers (Shrink). *)

module Op = Op
module Model = Model
module Audit = Audit
module Driver = Driver
module Shrink = Shrink

let audit = Audit.run
(* The invariant sweep, usable over any live system; the invariants it
   enforces are listed in DESIGN.md section 7. *)

type outcome = {
  seed : int;
  adversary : bool;
  report : Driver.report;
  shrunk : Op.t list option;  (* minimal reproducer, failures only *)
}

let run_seed ?on_refusal ~seed ~ops ~adversary () =
  let report, sequence = Driver.run ?on_refusal ~seed ~ops ~adversary () in
  let shrunk =
    if Driver.failed report then
      Some (fst (Shrink.minimize ?on_refusal ~seed sequence))
    else None
  in
  { seed; adversary; report; shrunk }

let pp_outcome ppf o =
  Fmt.pf ppf "@[<v>seed %d %s: %a@]" o.seed
    (if o.adversary then "(adversary)" else "(normal)")
    Driver.pp_report o.report;
  match o.shrunk with
  | None -> ()
  | Some ops ->
      Fmt.pf ppf "@,@[<v>minimal reproducer (%d ops, replay with seed %d):@,%a@]"
        (List.length ops) o.seed Op.pp_list ops
