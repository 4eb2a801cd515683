(** Cost-attribution ledger.

    Every simulated-microsecond charge is recorded in the row of its
    (machine, charge kind), in that row's cell for its component; the
    per-component breakdown and the collapsed-stack export are read out
    of these cells. A charging machine looks its rows up once
    ({!machine}); a charge then indexes a flat array by kind id and
    component, and allocates nothing. The ledger never reads wall-clock
    time and never advances simulated time: it only observes the charges
    the machines make.

    Exactness contract: {!total_us} is defined as the plain left fold of
    the {!by_component} values in [Component.all] order, so a caller that
    sums {!by_component} reproduces {!total_us} exactly (no epsilon). And
    {!charged_us} accumulates charges per machine in arrival order with
    the same float additions the machine's busy counter performs, so it
    is bitwise equal to [Machine.busy_us] for machines that carried the
    ledger for their whole life — proving the attribution is complete. *)

type t

val create : unit -> t

type machine
(** One machine name's rows in one ledger. *)

val machine : t -> string -> machine
(** The rows of a machine name, created on first lookup. Machines with
    equal names share them. *)

val owner : machine -> t
(** The ledger the rows belong to: a machine that keeps its rows checks
    it against the ledger it is charging now. *)

val charge :
  machine -> comp:Component.t -> kind:Fbufs_trace.Name.t -> float -> unit
(** Record [us] simulated microseconds. [kind] is the charge's trace kind
    (["pmap.enter"], ...) as an interned id; the untyped kind is [""]. *)

val charged_us : t -> machine:string -> float
(** Arrival-ordered total for one machine name; 0 if never charged.
    Machines created with equal names share one accumulator. *)

val machines : t -> string list
(** Machine names in first-lookup order ({!machine}). *)

type row = {
  machine : string;
  comp : Component.t;
  kind : string;
  us : float;
  count : int;
}

val rows : t -> row list
(** Every cell, sorted by machine, component order, then kind. *)

val by_component : t -> (Component.t * float) list
(** One entry per component of [Component.all] (zeros included),
    aggregated over machines and kinds. *)

val total_us : t -> float
(** Left fold of {!by_component} — the breakdown's printed total. *)

val charge_count : t -> int
(** Number of individual charges recorded. *)

val collapsed : t -> string
(** Flamegraph-compatible collapsed stacks:
    ["machine;component;kind <ns>\n"] per cell (integer simulated
    nanoseconds, so stack tools that expect integral counts keep
    sub-microsecond resolution). *)
