(** Causal span sink: per-transfer span trees on the simulated timeline.

    A {e transfer} is one end-to-end movement of application data — a
    message pushed into the stack, its PDUs on the wire, their delivery,
    the acknowledgement. Within one machine spans nest (parent/child);
    across machines and asynchrony boundaries they link with follows-from
    edges ({!adopt}, {!flight}). Every {!Fbufs_sim.Machine.charge} that
    arrives while a span is open on the charging machine lands in that
    innermost span, attributed to its Table 1 component, so the spans of
    a transfer partition its cost by construction.

    Accounting is integer nanoseconds: each charge is rounded exactly
    once and the same integer feeds the span cell, the transfer cell and
    the machine arrival counter, so the exactness invariants verified by
    {!check} (and relied on by the critical-path report) hold with zero
    tolerance. The sink never charges, draws randomness or reads clocks —
    callers supply timestamps — so attaching it perturbs nothing. *)

val ncomp : int
(** Number of cost components; charge arrays are indexed by
    {!Fbufs_metrics.Component.index}. *)

val ns_of_us : float -> int
(** Round a simulated-microsecond amount to integer nanoseconds — the
    single rounding point of the whole accounting scheme. *)

val us_of_ns : int -> float

val wire : string
(** Pseudo-machine charged with wire occupancy ({!flight} spans):
    serialization and propagation consume link time, not any CPU. *)

type span = {
  id : int;
  transfer : int;
  parent : int;  (** 0 = none (root or adopted) *)
  follows : int;  (** 0 = none; may cross transfers at a root *)
  kind : string;
  machine : string;
  domain : string;
  path_id : int;
  start_us : float;
  mutable end_us : float;  (** nan while open *)
  charges_ns : int array;  (** per-component, {!Fbufs_metrics.Component.index} *)
}

type transfer = {
  tid : int;
  label : string;
  root : int;  (** root span id *)
  t_start_us : float;
  cells_ns : int array;  (** per-component total of every charge in context *)
  mutable spans : span list;  (** newest first; use {!spans_of} *)
}

type t

val create : unit -> t

(** {1 Recording} — driven by {!Fbufs_sim.Machine}; timestamps are the
    charging machine's simulated clock. Span/transfer id 0 means "none"
    and is ignored everywhere, so call sites need no guards. *)

val transfer_begin :
  t ->
  machine:string ->
  ts_us:float ->
  ?domain:string ->
  ?path_id:int ->
  string ->
  int
(** Open a transfer (and its root span) on [machine]; returns the
    transfer id. If another span is already open on the machine, the new
    root records a follows-from edge to it (cross-transfer causality:
    e.g. the ack handler pumping the next message). *)

val transfer_end : t -> machine:string -> ts_us:float -> int -> unit
(** Close the transfer's root span and restore the previous context.
    Spans left open inside it are force-closed and reported by
    {!check}. *)

val enter :
  t ->
  machine:string ->
  ts_us:float ->
  ?domain:string ->
  ?path_id:int ->
  string ->
  int
(** Open a child of the innermost open span. Returns 0 (records
    nothing) when the machine has no transfer context — span coverage is
    transfer-scoped by design. *)

val finish : t -> machine:string -> ts_us:float -> int -> unit
(** Close an open span (id 0 ignored). Closing out of stack order
    force-closes the intermediates and reports them via {!check}. *)

val adopt :
  t ->
  machine:string ->
  ts_us:float ->
  transfer:int ->
  ?follows:int ->
  ?domain:string ->
  ?path_id:int ->
  string ->
  int
(** Continue a transfer on this machine (parentless span with a
    follows-from edge, default the transfer's root): the receive side of
    a cross-machine delivery. Saves and restores the machine's previous
    context like any other span. *)

val flight :
  t ->
  transfer:int ->
  follows:int ->
  start_us:float ->
  end_us:float ->
  ?path_id:int ->
  string ->
  int
(** Record an already-closed wire-occupancy span on the {!wire}
    pseudo-machine, charged to [Net] for its full duration
    (serialization + propagation). Returns its id for the delivery side
    to follow. *)

val on_charge : t -> machine:string -> comp:Fbufs_metrics.Component.t -> float -> unit
(** Attribute one charge (microseconds) to the innermost open span of
    [machine] — or to the machine's untracked cells when no span is
    open. *)

val current : t -> machine:string -> int
(** The machine's current transfer id (0 when none). *)

val set_tap : t -> (transfer -> unit) option -> unit
(** Install (or clear) a callback fired by {!transfer_end} with the
    completed transfer, after its root span closes. Late adoptions (an
    ack continuing the transfer after the root closed) are not yet in
    [spans] when the tap fires. Used by the flight recorder's ring of
    recent transfers; [None] by default, costing one pointer compare per
    close. *)

val forget : t -> int -> unit
(** Evict a transfer and its spans from the sink, bounding memory for
    long recording runs. The tid is remembered so late operations on it
    ({!adopt}, {!flight}, {!transfer_end}) silently return 0 instead of
    recording a violation. Machine arrival counters are untouched, so
    {!check}'s charge-partition invariants are no longer meaningful on a
    sink that has forgotten transfers (a recorder sink is lossy by
    design). Unknown tids are ignored. *)

(** {1 Queries} *)

val transfers : t -> transfer list
(** In creation order. *)

val find_transfer : t -> int -> transfer option
val find_span : t -> int -> span option

val spans_of : transfer -> span list
(** In creation (id) order. *)

val machines : t -> string list
(** Every machine that charged or opened spans, in first-seen order;
    includes {!wire} when flights were recorded. *)

val untracked_ns : t -> machine:string -> int array
(** Per-component charges that arrived with no span open (a fresh
    copy). *)

val charged_ns : t -> machine:string -> int
(** Every nanosecond that arrived on the machine, in arrival order. *)

val charge_count : t -> machine:string -> int
(** Number of charges the machine delivered — bounds the accumulated
    rounding distance to the float ledger (half a nanosecond each). *)

val total_ns : transfer -> int
val span_total_ns : span -> int
val is_closed : span -> bool

val violations : t -> string list
(** Discipline breaches observed while recording (mismatched finish,
    unknown ids), oldest first. *)

val check : t -> string list
(** Well-formedness: every span finished; exactly one causal root per
    transfer; parents and follows edges resolve (parents within the
    transfer, children's intervals inside the parent's); per component,
    span charges sum {e exactly} to the transfer cells; per machine,
    span charges plus untracked charges equal the arrival total. Empty
    list = well-formed. Includes {!violations}. *)
