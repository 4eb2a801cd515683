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

(** {2 Updates}

    One function per update and label count: [incr2 t d a b] bumps the
    cell of label values [a], [b]. The label values are arguments, not a
    list, so an update builds no key and, once its cell exists, allocates
    nothing. Each raises [Invalid_argument] when the definition declares
    a different number of labels. *)

val incr : t -> def -> unit
val incr1 : t -> def -> string -> unit
val incr2 : t -> def -> string -> string -> unit
val incr3 : t -> def -> string -> string -> string -> unit
val add : t -> def -> float -> unit
val add1 : t -> def -> string -> float -> unit
val add2 : t -> def -> string -> string -> float -> unit
val add3 : t -> def -> string -> string -> string -> float -> unit

val set : t -> def -> float -> unit
(** Gauge write (overwrites the cell); [set1]..[set3] likewise. *)

val set1 : t -> def -> string -> float -> unit
val set2 : t -> def -> string -> string -> float -> unit
val set3 : t -> def -> string -> string -> string -> float -> unit

val observe : t -> def -> float -> unit
(** Distribution sample into a sketch def's cell; on a scalar def
    behaves like {!add}. [observe1]..[observe3] likewise. *)

val observe1 : t -> def -> string -> float -> unit
val observe2 : t -> def -> string -> string -> float -> unit
val observe3 : t -> def -> string -> string -> string -> float -> unit

val int_label : t -> int -> string
(** The label value of an int (a path id, a size class), made once per
    instance: [string_of_int i], without a fresh string per update. *)

(** {2 Reads} *)

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

val samples_of : t -> def -> sample list
(** The touched cells of one definition, sorted by labels: its slice of
    {!samples}, without visiting any other definition. *)
