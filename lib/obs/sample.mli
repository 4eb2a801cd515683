(** Seeded, deterministic sampling for the flight recorder.

    The reservoir draws exclusively from a {!Fbufs_sim.Rng} stream of
    its seed, so two runs over the same deterministic event stream make
    identical keep/drop decisions — the property the recorder's
    byte-identical-dump tests pin. *)

module Reservoir : sig
  (** Weighted reservoir of size [k]: each offered item gets priority
      [u^(1/w)] with [u] drawn from the sampler's own seeded stream;
      the [k] largest priorities are retained. Heavier items (longer
      slices) are proportionally more likely to survive, giving a
      duration-biased long-horizon sample to complement the recent
      ring. Implemented as A-ExpJ over a min-heap: once full, skipped
      items cost the caller one subtraction — no RNG draw — which is
      cheap enough for an always-armed recorder. *)

  type 'a t

  val create : seed:int -> k:int -> 'a t
  (** Raises [Invalid_argument] unless [k] is positive. *)

  val accept_weighted : 'a t -> weight:float -> 'a -> float
  (** The caller owns the skip budget: it decrements the budget by each
      item's weight inline and calls this only when it reaches zero —
      the item is retained and the next budget is returned (0.0 while
      the reservoir is still filling, so every item is an acceptance
      until it is full). Weights [<= 0] are clamped to a small positive
      minimum. *)

  val items : 'a t -> 'a list
  (** Retained items in offer order. *)

  val offered : 'a t -> int
  (** Items accepted into the reservoir so far (monotone; exceeds [k]
      once replacements begin). Skip-eliminated items are not counted —
      the trace's own event counters cover those. *)
end
