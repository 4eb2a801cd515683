(** Named event counters and accumulators for a simulated machine.

    Subsystems record what happened (TLB misses, pmap updates, pages zeroed,
    faults, IPC calls, ...) so experiments and tests can assert on mechanism
    behaviour rather than only on elapsed time.

    A counter is declared once, at module initialization
    ([let tlb_miss = Stats.counter "tlb.miss"]), and bumped by its id: a
    bump writes one int slot of the machine's table and hashes nothing.
    Reads stay by name. *)

type counter
(** A declared counter name. *)

val counter : string -> counter
(** Declare a counter; declaring a name twice yields the same counter. *)

type t

val create : unit -> t
val reset : t -> unit

val incr : t -> counter -> unit
(** Add one to a counter, creating it at zero if needed. *)

val add : t -> counter -> int -> unit
(** Add [n] to a counter; [add t c 0] still marks it touched, so it
    appears in {!to_list}. *)

val get : t -> string -> int
(** Current value of a counter; 0 when never touched. *)

val get_float : t -> string -> float

val to_list : t -> (string * float) list
(** Every counter touched since {!create} or {!reset}, sorted by name.
    Values appear as floats. *)

val snapshot : t -> (string * float) list
(** Alias of {!to_list}: a point-in-time copy for later {!diff}/{!since},
    so experiments assert on what an operation did rather than on absolute
    totals that depend on setup history. *)

val value : (string * float) list -> string -> float
(** Counter value in a snapshot or delta; 0 when absent. *)

val diff :
  before:(string * float) list ->
  after:(string * float) list ->
  (string * float) list
(** Per-counter [after - before], sorted by name, zero deltas omitted. *)

val since : t -> (string * float) list -> (string * float) list
(** [since t before = diff ~before ~after:(snapshot t)]. *)
