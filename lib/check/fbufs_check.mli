(** Fbufs_check: reference-model differential checking of the fbuf stack.

    A randomized operation sequence is executed simultaneously against a
    pure {!Model} of the paper's semantics and the real
    allocator/VM/transfer/IPC stack; any divergence in observable state —
    contents, protection, reference counts, free lists, cache reuse
    order, documented refusals — is a failure, which {!Shrink} reduces to
    a minimal replayable sequence. {!Audit} independently cross-checks
    the real structures against each other and can sweep any live
    system. *)

module Op = Op
module Model = Model
module Audit = Audit
module Driver = Driver
module Shrink = Shrink

val audit : Audit.target -> string list
(** Run the structural invariant sweep; [[]] means clean. The invariants
    are documented in DESIGN.md section 7. *)

type outcome = {
  seed : int;
  adversary : bool;
  report : Driver.report;
  shrunk : Op.t list option;
      (** minimal reproducer, present exactly when the run failed *)
}

val run_seed :
  ?on_refusal:(string -> unit) ->
  seed:int ->
  ops:int ->
  adversary:bool ->
  unit ->
  outcome
(** Generate, replay, and (on failure) shrink one seeded run; every
    replay passes [on_refusal] to {!Driver.replay}. *)

val pp_outcome : Format.formatter -> outcome -> unit
