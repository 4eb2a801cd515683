(** DDSketch-style mergeable quantile sketch.

    O(1) per sample, O(log_gamma range) space, and a relative-error
    guarantee: for any quantile, the reported value is within relative
    error [alpha] of the exact order statistic (gamma = (1+alpha)/(1-alpha)
    log-spaced buckets; zeros and negatives handled separately). All
    distribution state is integer bucket counts, so {!merge} is exact —
    associative and commutative under {!equal} — which is what makes
    per-path sketches roll up across machines without error growth,
    unlike the unbounded per-path histograms they replace. *)

type t

val create : ?alpha:float -> unit -> t
(** Fresh sketch with relative-error bound [alpha] (default 0.01).
    Raises [Invalid_argument] unless [0 < alpha < 1]. *)

val alpha : t -> float
val add : t -> float -> unit
(** O(1), and allocation-free once the sample's bucket exists. Raises
    [Invalid_argument] on nan. *)

val count : t -> int
val sum : t -> float
(** Running sum of samples — reporting only; not part of {!equal}. *)

val min_value : t -> float
val max_value : t -> float
(** Exact extremes; nan while empty. *)

val quantile : t -> float -> float
(** [quantile t p] for [p] in percent (0–100): within relative error
    [alpha] of the exact p-th percentile of the samples, clamped into
    [[min_value, max_value]]. nan while empty. *)

val merge : t -> t -> t
(** Pure merge; the result distributes as if every sample of both inputs
    had been {!add}ed to one sketch. Raises [Invalid_argument] when the
    alphas differ. *)

val equal : t -> t -> bool
(** Equality of distribution state (alpha, counts, extremes); ignores
    the float {!sum}. [merge] is associative and commutative under this
    equality. *)

(** {1 Serialization} *)

exception Bad_sketch of string

val to_json : t -> Fbufs_trace.Json.t
val of_json : Fbufs_trace.Json.t -> t
(** Raises {!Bad_sketch} on malformed input. Round-trips: restores state
    {!equal} to (and with the same {!sum} as) the original. *)

val to_json_string : t -> string
val of_json_string : string -> t
