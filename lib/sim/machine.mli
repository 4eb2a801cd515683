(** A simulated host: clock, cost model, physical memory, TLB, statistics.

    Every other subsystem (VM, fbufs, IPC, protocols, drivers) operates on a
    [Machine.t] and accounts simulated time through {!charge} (CPU work) or
    {!elapse} (idle waiting, e.g. for the network), which keeps CPU-load
    accounting honest for the paper's section-4 load measurements. *)

type kind
(** A declared charge kind: the name a charge carries into the trace
    and the cost ledger (["pmap.enter"], ...). *)

val kind : string -> kind
(** Declare a charge kind, once, at module initialization; declaring a
    name twice yields the same kind. Kinds and {!Stats.counter} names
    share one interning table ({!Fbufs_trace.Name}). *)

val untyped : kind
(** The kind of a charge that names none ([""]): it emits no trace
    slice and lands in the ledger's untyped row. *)

type busy = { mutable busy_us : float }
(** Single-field all-float record: the busy accumulator lives in flat
    (unboxed) storage so {!charge} does not allocate. *)

(** Everything that observes a machine, in one immutable record: the
    trace sink, the metrics registry and cost ledger, the causal span
    sink, the {!seq_point} callback the online monitors hang off, and
    the clock-advance callback (called with the new simulated time after
    every {!charge} and {!elapse_to}) that drives periodic reports. *)
type obs = {
  trace : Fbufs_trace.Trace.t option;
  metrics : Fbufs_metrics.Metrics.t option;
  spans : Fbufs_span.Span.t option;
  seq_hook : (t -> string -> unit) option;
  on_tick : (float -> unit) option;
}

and t = private {
  name : string;
  clock : Clock.t;
  cost : Cost_model.t;
  pmem : Phys_mem.t;
  tlb : Tlb.t;
  stats : Stats.t;
  rng : Rng.t;
  busy : busy;
  stamp : float array;
      (** one slot: a traced charge's start time, handed to the trace in
          place so that it is not boxed *)
  word_us : float;
      (** one word access, [word_touch +. cache_miss], summed once here:
          passing a freshly computed float to {!charge} boxes it *)
  mutable next_asid : int;
  mutable next_id : int;
  mutable obs : obs option;
      (** [None] (the default) means unobserved: every instrumentation
          site, {!charge} included, costs one pointer comparison. *)
  mutable comp_ctx : Fbufs_metrics.Component.t option;
  mutable lrows : Fbufs_metrics.Ledger.machine option;
      (** this machine's rows in the ledger it last charged, so a
          charge finds its cells without a lookup *)
}

val no_obs : obs
(** Every field [None]; the base to extend with [{ no_obs with ... }]. *)

val with_obs : obs -> (unit -> 'a) -> 'a
(** [with_obs o f] runs [f] with [o] as the record attached to every
    machine {!create}d inside — how a harness observes machines it does
    not construct itself (the experiment drivers build their own
    testbeds). A nested scope replaces the outer record for its
    duration; the previous one is restored on exit, exceptions
    included. Outside any scope machines are unobserved. *)

val create :
  ?name:string ->
  ?cost:Cost_model.t ->
  ?nframes:int ->
  ?tlb_entries:int ->
  ?seed:int ->
  unit ->
  t
(** Defaults: DecStation 5000/200 cost model, 4096 frames (16 MB), 64 TLB
    entries, seed 42, observed by the record of the enclosing
    {!with_obs} (unobserved outside one). *)

val set_obs : t -> obs option -> unit
(** Replace one existing machine's record. *)

val tracing : t -> bool
(** Whether a trace sink is attached. Instrumentation sites that build
    argument lists must test this first so a disabled trace costs one
    pointer comparison and no allocation. *)

val metrics : t -> Fbufs_metrics.Metrics.t option
(** The attached registry; instrumentation matches on it so an
    unmetered machine pays one pointer comparison. *)

val spanning : t -> bool
(** Whether a causal span sink is attached — the counterpart of
    {!tracing} for the span instrumentation. *)

val spans : t -> Fbufs_span.Span.t option

val seq_point : t -> string -> unit
(** Declare a sequence point — a site (named like ["ipc.reply"],
    ["transfer.secure"], ["pageout.balance"]) where the system's
    invariants are expected to hold. Dispatches to the record's
    [seq_hook]; unobserved, the cost is one pointer comparison,
    preserving pay-for-play. *)

val with_comp : t -> Fbufs_metrics.Component.t -> (unit -> 'a) -> 'a
(** Run [f] with every {!charge} attributed to the given component,
    overriding the call sites' own tags — used where a whole activity
    (e.g. aggregate-object deserialization) belongs to one Table 1 row
    even though it exercises allocator and VM charge sites. Restores the
    previous context on exit, exceptions included. On an unobserved
    machine the context is never read, and this is just [f ()]. *)

val charge : kind:kind -> ?comp:Fbufs_metrics.Component.t -> t -> float -> unit
(** Consume [us] microseconds of CPU time: advances the clock and the busy
    accumulator. With a typed [kind] and a trace attached, additionally
    emits a [Complete] slice of that duration — this is how every
    individual cost in the model becomes visible on the timeline. With a
    metrics instance attached, the charge also lands in the cost ledger
    under [kind] and [?comp] (or the surrounding {!with_comp} context;
    [Other] if neither). Tracing and metering never alter the charge
    itself; an unobserved charge makes one comparison before it advances
    the clock. [kind] is a required argument so that passing a declared
    kind builds no [Some]. *)

val charge_n :
  kind:kind -> ?comp:Fbufs_metrics.Component.t -> t -> int -> float -> unit
(** [charge_n m n us] charges [n] repetitions of a per-item cost: the same
    as [charge m (float_of_int n *. us)], but on an unobserved machine it
    allocates nothing (the product is not boxed). *)

val elapse_to : kind:kind -> t -> float -> unit
(** Wait (idle) until an absolute simulated time; no busy time accrues.
    With a typed [kind], the idle interval is emitted as a [Complete]
    slice. *)

(** {1 Causal spans}

    Wrappers over {!Fbufs_span.Span} stamped with this machine's clock
    and name. With no sink attached every call is a pointer comparison;
    begin/enter return 0 and end/exit ignore 0, so call sites need no
    guards. {!span_enter} and {!span_adopt} take their domain and
    follows-from edge as required arguments, so an unspanned call builds
    no [Some] either; only {!span_flight}'s floats are boxed when the
    call is made. Every {!charge} made while a span is open on the
    machine is attributed to it (innermost wins) under its Table 1
    component. *)

val transfer_begin : t -> ?domain:string -> ?path_id:int -> string -> int
(** Open a transfer (one end-to-end data movement) rooted on this
    machine; returns the transfer id to carry across domains and
    machines (0 when disabled). *)

val transfer_end : t -> int -> unit

val with_transfer : t -> ?domain:string -> ?path_id:int -> string -> (unit -> 'a) -> 'a
(** Bracket [f] in a transfer. The transfer's spans may keep arriving
    after [f] returns (deliveries {!span_adopt} into it); only the root
    span closes here. *)

val span_enter : t -> domain:string -> ?path_id:int -> string -> int
(** Child span of the innermost open span, run in protection domain
    [domain] ([""] for none, a device's span); 0 when disabled or when
    the machine has no open transfer context. *)

val span_exit : t -> int -> unit

val span_adopt :
  t -> transfer:int -> follows:int -> domain:string -> ?path_id:int -> string -> int
(** Continue transfer [transfer] on this machine (the receive side of a
    cross-machine delivery), linked by a follows-from edge to span
    [follows] (0: the transfer's root), run in [domain] (as for
    {!span_enter}). Ignores transfer id 0. *)

val span_flight :
  t ->
  transfer:int ->
  follows:int ->
  start_us:float ->
  end_us:float ->
  ?path_id:int ->
  string ->
  int
(** Record a wire-occupancy span (serialization + propagation) on the
    {!Fbufs_span.Span.wire} pseudo-machine. *)

val current_transfer : t -> int
(** The machine's current transfer context (0 when none or disabled) —
    what {!Fbufs.Allocator.alloc} stamps into new fbufs. *)

val trace_instant :
  t ->
  ?domain:string ->
  ?path_id:int ->
  ?args:(string * Fbufs_trace.Trace.arg) list ->
  string ->
  unit
(** Emit an instant event stamped with the machine's current simulated
    time. No-op without a sink (guard arg construction with {!tracing}). *)

val span_begin :
  t ->
  ?domain:string ->
  ?path_id:int ->
  ?args:(string * Fbufs_trace.Trace.arg) list ->
  string ->
  int
(** Open a nested span; returns 0 (and does nothing) without a sink, and
    {!span_end} ignores id 0, so begin/end pairs are safe unguarded. *)

val span_end :
  t -> ?args:(string * Fbufs_trace.Trace.arg) list -> int -> unit

val async_begin :
  t ->
  ?domain:string ->
  ?path_id:int ->
  ?args:(string * Fbufs_trace.Trace.arg) list ->
  id:int ->
  string ->
  unit
(** Open/close async spans correlated by [(kind, id)] — they may cross
    domains and machines (fbuf lifetime, PDU flight). *)

val async_end :
  t ->
  ?domain:string ->
  ?path_id:int ->
  ?args:(string * Fbufs_trace.Trace.arg) list ->
  id:int ->
  string ->
  unit

val now : t -> float

val busy_us : t -> float
(** Accumulated CPU (non-idle) simulated time. *)

val fresh_asid : t -> int
val fresh_id : t -> int

val checkpoint : t -> float * float
(** [(now, busy)] snapshot, for differential load measurement with
    {!load_since}. *)

val load_since : t -> float * float -> float
(** CPU load between a {!checkpoint} and now, in [0, 1]. *)

val domain_crossing_tlb_pressure : entries:int -> t -> unit
(** Displace [entries] TLB entries (a Mach crossing's footprint is the
    cost model's [ipc_tlb_footprint]) with kernel-path translations,
    modelling the cache/TLB pollution of one IPC crossing. Costless in
    time (the control-transfer latency is charged separately by the IPC
    layer); its effect is the refill work later accesses must redo. *)
