(** Typed metrics registry.

    Metric {e definitions} (name, help, label names, kind) are global and
    registered once at module-initialization time; {e values} live in
    per-run instances ({!t}). Instrumented code guards every update on the
    machine carrying an instance, so a run without one pays nothing —
    "disabled" is the absence of the instance, not a branch per sample.

    Definition names must match [fbufs_[a-z0-9_]+] and be unique; the
    lint rule L6 additionally checks, statically, that registrations use
    literal names at module init. *)

type kind = Counter | Gauge | Sketch

type def = {
  id : int;  (** dense registration index *)
  name : string;
  help : string;
  labels : string list;  (** label {e names}; values are per-cell *)
  kind : kind;
}

val counter : name:string -> help:string -> ?labels:string list -> unit -> def
(** Register a monotone counter. Raises [Invalid_argument] if [name] does
    not match [fbufs_[a-z0-9_]+] or is already registered. *)

val gauge : name:string -> help:string -> ?labels:string list -> unit -> def
(** Register a gauge (set to current level). Raises [Invalid_argument] on
    a bad or duplicate name, as {!counter}. *)

val sketch : name:string -> help:string -> ?labels:string list -> unit -> def
(** Register a distribution metric backed by a mergeable quantile
    {!Sketch} (default relative-error bound). Raises [Invalid_argument]
    on a bad or duplicate name, as {!counter}. *)

val definitions : unit -> def list
(** All registered definitions in registration order. *)

val find_def : string -> def option

(** {1 Instances} *)

type t

val create : unit -> t
(** Fresh instance: all cells zero, empty ledger. *)

val ledger : t -> Ledger.t
(** The cost-attribution ledger carried alongside the counters. *)

val incr : t -> def -> ?labels:string list -> unit -> unit
val add : t -> def -> ?labels:string list -> float -> unit

val set : t -> def -> ?labels:string list -> float -> unit
(** Gauge write (overwrites the cell). *)

val observe : t -> def -> ?labels:string list -> float -> unit
(** Distribution sample into a sketch def's cell; on a scalar def
    behaves like {!add}. *)

val value : t -> def -> labels:string list -> float option
(** Current value of one cell ([None] if never touched). Sketches
    report their sample sum. All three accessors raise
    [Invalid_argument] when the label-value count does not match the
    definition. *)

val value_by_name : t -> name:string -> labels:string list -> float option

val total_by_name : t -> name:string -> float
(** Sum over every label combination; 0 for untouched or unknown names. *)

type sample = {
  def : def;
  labels : string list;
  value : float;
  count : int;  (** number of updates that hit this cell *)
  sketch : Sketch.t option;  (** populated for [Sketch] cells *)
}

val samples : t -> sample list
(** Every touched cell, sorted by definition id then labels. *)
