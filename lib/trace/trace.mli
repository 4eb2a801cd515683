(** Structured event tracing for the simulated data path.

    A [Trace.t] is a sink that subsystems stamp typed events into as the
    simulation runs: instants (a pmap update, an fbuf cache hit), complete
    slices (a cost charge with a known duration), nested spans (an IPC
    call from entry to reply) and async spans (the life of one fbuf from
    allocation to last free, or one PDU from DMA-gather to delivery,
    causally linking events that belong to the same logical transfer).

    Timestamps are simulated microseconds supplied by the caller (the
    machine's clock); the sink itself never reads wall-clock time and
    never charges simulated time, so enabling tracing cannot perturb any
    measurement.

    Latency histograms keyed by [(kind, path_id)] are maintained online as
    spans close, so percentile summaries survive even when a bounded
    buffer drops raw events. *)

type arg = Str of string | Int of int | Float of float

type phase =
  | Instant
  | Complete of float  (** duration in simulated us *)
  | Span_begin
  | Span_end
  | Async_begin
  | Async_end

type event = {
  ts_us : float;
  machine : string;
  domain : string;  (** "" when the event is machine-level *)
  path_id : int;  (** -1 when the event is not bound to an I/O path *)
  kind : string;
  phase : phase;
  span : int;  (** span/async correlation id; 0 = none *)
  args : (string * arg) list;
}

type t

val create : ?ring:bool -> ?latency:bool -> ?capacity:int -> unit -> t
(** Every trace keeps its events in one columnar store that grows
    geometrically up to [capacity] (unbounded by default). Once a
    bounded trace is full, further events are counted in {!dropped} but
    not stored (histograms still update). With [~ring:true] the trace
    becomes a flight-recorder ring instead: when full, each new event
    overwrites the {e oldest} retained one (the overwritten event counts
    in {!dropped}), so the store always holds the most recent
    [capacity] events. [~latency:false] skips the per-[(kind, path)]
    latency histograms entirely — the log-bucketing is the most
    expensive part of accepting an event, and an always-armed recorder
    ring has no use for it. Raises [Invalid_argument] when [capacity]
    is not positive, or when [ring] is set without a [capacity]. *)

type sampler = {
  skip : float array;
      (** Length-1 cell holding the weight budget until the next
          acceptance. The trace decrements it by each event's sampling
          weight (the duration for completes, 1.0 otherwise) inline —
          an unboxed float-array store, no call, no allocation. *)
  accept : event -> float -> float;
      (** Called with the event and its weight when the budget reaches
          zero; returns the next budget. Only now is the event record
          materialized from the columns, so a sampler whose
          steady-state accept rate is low (a full weighted reservoir
          skipping in weight units) costs a float subtract and compare
          per event. *)
}

val set_sampler : t -> sampler option -> unit
(** Install (or clear) the sampler. It sees every event, including the
    ones a full bounded trace drops. *)

val complete_comp :
  t ->
  at:float array ->
  dur_us:float ->
  machine:string ->
  comp:Name.t ->
  Name.t ->
  unit
(** [complete] specialized to the per-charge slice, its kind and
    component given as interned names: at most one [("comp", Str comp)]
    argument (the name [""] for none), no domain, no path, and the start
    time read from [at.(0)], a cell the caller keeps (a float argument
    would be boxed on every charge). Stores the ids and no pointer, and
    allocates nothing; the event read back equals what [complete] would
    store. *)

val last_ts : t -> float
(** Largest timestamp pushed so far (0.0 when none). *)

val event_count : t -> int
val dropped : t -> int

val events : ?last:int -> t -> event list
(** Buffered events in emission order (oldest retained first, including
    across ring wraparound); with [last], only the newest [last] of
    them. *)

val iter : t -> (event -> unit) -> unit
(** [iter t f] applies [f] to each of {!events} in turn, materializing
    one event record at a time — how the exporters walk large traces. *)

val instant :
  t ->
  ts_us:float ->
  machine:string ->
  ?domain:string ->
  ?path_id:int ->
  ?args:(string * arg) list ->
  string ->
  unit

val complete :
  t ->
  ts_us:float ->
  dur_us:float ->
  machine:string ->
  ?domain:string ->
  ?path_id:int ->
  ?args:(string * arg) list ->
  string ->
  unit
(** A slice of known duration starting at [ts_us]; feeds the histogram for
    its [(kind, path_id)]. *)

val begin_span :
  t ->
  ts_us:float ->
  machine:string ->
  ?domain:string ->
  ?path_id:int ->
  ?args:(string * arg) list ->
  string ->
  int
(** Open a synchronous (strictly nested) span; returns its correlation id
    (always > 0). *)

val end_span : t -> ts_us:float -> ?args:(string * arg) list -> int -> unit
(** Close a span by id, feeding its duration to the histogram. Unknown
    ids (including 0, the "tracing disabled" id) are ignored. *)

val async_begin :
  t ->
  ts_us:float ->
  machine:string ->
  ?domain:string ->
  ?path_id:int ->
  ?args:(string * arg) list ->
  id:int ->
  string ->
  unit
(** Open an async span: correlation by [(kind, id)] rather than nesting,
    so it may cross domains and machines (fbuf lifetime, PDU flight). *)

val async_end :
  t ->
  ts_us:float ->
  machine:string ->
  ?domain:string ->
  ?path_id:int ->
  ?args:(string * arg) list ->
  id:int ->
  string ->
  unit
(** Close an async span. If no matching [async_begin] was seen the event
    is still recorded but no latency sample is taken. The histogram key
    uses the [path_id] of the [async_begin] side. *)

val summary : t -> ((string * int) * Histogram.t) list
(** Latency histograms keyed by [(kind, path_id)], sorted by kind then
    path id. Populated by [complete], [end_span] and [async_end]. *)
