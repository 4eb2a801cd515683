(** The differential driver: one world, one model, one op sequence.

    Each replay builds a deterministic world from the seed (a small
    machine under genuine memory pressure, three user domains, four
    allocators covering the variant cross product, Rebuild and Integrated
    IPC connections, a pageout daemon), then executes the operation
    sequence against both the real stack and the {!Model}, diffing
    observable state after every step and running the structural
    {!Audit} periodically. All candidate resolution is a deterministic
    function of the sequence prefix, which is what makes {!Shrink}
    sound. *)

exception Check_failed of string

type report = {
  total : int;
  executed : int;
  skipped : int;  (** ops whose candidate list was empty (deterministic) *)
  failure : (int * Op.t * string) option;
      (** failing step index, the op at that step, and the divergence *)
}

val failed : report -> bool
val pp_report : Format.formatter -> report -> unit

val replay : ?on_refusal:(string -> unit) -> seed:int -> Op.t list -> report
(** Build a fresh world from [seed] and run the sequence. Never raises:
    divergences are reported in [failure]. [on_refusal] (default
    [ignore]) is called with the op description whenever a documented
    refusal fires (an expected [Dead_fbuf]/[Invalid_argument] observed,
    or a divergence raised while expecting one); [check --record] passes
    the flight recorder's trigger so adversary-mode refusals can fire a
    post-mortem dump. *)

val gen_ops : seed:int -> n:int -> adversary:bool -> Op.t list
(** The operation sequence for a seed, via a non-perturbing
    {!Fbufs_sim.Rng.fork} of the machine seed. *)

val run :
  ?on_refusal:(string -> unit) ->
  seed:int ->
  ops:int ->
  adversary:bool ->
  unit ->
  report * Op.t list
(** [gen_ops] + [replay]; returns the sequence for shrinking. *)
