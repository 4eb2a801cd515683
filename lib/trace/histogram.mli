(** Log-bucketed latency histogram.

    Values (simulated microseconds) are binned into geometric buckets —
    successive bucket boundaries grow by a factor of [2^(1/8)] (~9%), so
    any reported quantile is within one bucket width (< 9% relative error)
    of the true order statistic while the whole structure stays a handful
    of integer counters regardless of sample count. [min]/[max]/[sum] are
    tracked exactly. *)

type t

val create : unit -> t

val add : t -> float -> unit
(** Record one sample. Negative samples are clamped to zero; zero lands in
    the dedicated underflow bucket. *)

val count : t -> int
val sum : t -> float
val mean : t -> float
(** 0 when empty. *)

val min_value : t -> float
val max_value : t -> float
(** 0 when empty. *)

val percentile : t -> float -> float
(** [percentile h p] for [p] in [0, 100]: an upper bound for the value at
    rank [ceil(p/100 * count)], clamped to the exact observed [min]/[max];
    the first and last ranks return [min] and [max] exactly. 0 when empty.
    Deterministic for a given sample multiset. *)
