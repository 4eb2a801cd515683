(** Simulated time source.

    All simulated time in this code base is expressed in microseconds as a
    [float]. Each simulated host owns one clock; device models advance it via
    {!advance_to} when an event is delivered, CPU work advances it via
    {!advance}. *)

type t = private { mutable now : float }
(** Readable in place: [c.now] is a load from flat float storage, where
    the float {!now} returns to another module is boxed (no flambda, and
    dune's dev profile compiles with [-opaque], so nothing is inlined
    across modules). Only this module advances it. *)

val create : unit -> t
(** A clock starting at time 0. *)

val now : t -> float
(** Current simulated time, microseconds. *)

val advance : t -> float -> unit
(** [advance c us] moves the clock forward by [us] microseconds. Negative
    increments are a programming error and raise [Invalid_argument]. *)

val advance_n : t -> int -> float -> unit
(** [advance_n c n us] is [advance c (float_of_int n *. us)], bit for bit,
    without boxing the product. Raises [Invalid_argument] when the product
    is negative. *)

val advance_to : t -> float -> unit
(** [advance_to c t] sets the clock to [max (now c) t]; used when an event
    with absolute timestamp [t] is delivered to a host whose CPU was idle. *)

val reset : t -> unit
(** Rewind to time 0 (used between experiment runs). *)
