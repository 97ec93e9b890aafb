(** Deterministic pseudo-random number generation.

    All randomness in the simulator flows through this module so that every
    experiment is reproducible bit-for-bit from a seed.  The generator is
    SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): tiny state, excellent
    statistical quality for simulation purposes, and trivially splittable.
    The state is kept unboxed: {!int}, {!int_in}, {!bool} and {!chance}
    allocate nothing. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] returns a fresh generator. Distinct seeds give
    independent-looking streams. *)

val copy : t -> t
(** [copy t] duplicates the state so two consumers can evolve
    independently. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. Requires
    [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin. *)

val chance : t -> float -> bool
(** [chance t p] is true with probability [p] (clamped to [\[0,1\]]). *)

val exponential : t -> mean:float -> float
(** Exponentially distributed sample with the given mean; used by latency
    models. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
