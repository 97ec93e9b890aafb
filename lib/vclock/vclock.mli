(** Vector clocks: the writestamps of the owner protocol.

    Section 3.1 of the paper: "A simple vector timestamp protocol may be used
    to capture precisely the evolving partial ordering of events in a
    distributed system".  A clock over [n] processes is a vector of [n]
    non-negative counters.  Process [i] increments component [i] on every
    write attempt; merging ([update]) takes the component-wise maximum; the
    comparison is the usual product partial order.

    Values are immutable; all operations return fresh clocks.  Clocks of
    different dimensions never compare and may not be merged. *)

type t

val zero : int -> t
(** [zero n] is the all-zero clock over [n] processes.  [n >= 1]. *)

val dim : t -> int

val get : t -> int -> int
(** Component accessor; raises [Invalid_argument] out of range. *)

val increment : t -> int -> t
(** [increment vt i] bumps component [i]: the paper's
    [VT_i := increment(VT_i)]. *)

val update : t -> t -> t
(** Component-wise maximum: the paper's [update(VT, VT')].  Raises
    [Invalid_argument] on dimension mismatch. *)

val of_array : int array -> t
(** Copies its argument. *)

val to_array : t -> int array
(** Fresh array. *)

type order = Before | After | Equal | Concurrent

val compare_vt : t -> t -> order
(** Partial-order comparison.  [Before] means strictly less on the product
    order ([VT < VT'] in the paper: less-or-equal everywhere and strictly less
    somewhere). *)

val lt : t -> t -> bool
(** [lt a b] iff [compare_vt a b = Before]. *)

val leq : t -> t -> bool
(** [lt a b || equal a b]. *)

val equal : t -> t -> bool

val concurrent : t -> t -> bool

val sum : t -> int
(** Total of all components: a cheap measure of "how much history" a stamp
    carries; used by statistics and tests. *)

val pp : Format.formatter -> t -> unit
(** Renders as [\[a;b;c\]]. *)

val to_string : t -> string

val total_compare : t -> t -> int
(** An arbitrary total order extending the partial order (lexicographic);
    usable as a [Map]/[Set] comparator and for deterministic tie-breaking
    between concurrent stamps. *)

(** Allocation-free operations over clocks stored as [dim]-wide windows of
    a caller-owned flat [int array] (an arena of many clocks side by side).
    The hot path ({!Dsm_protocol.Flat}) preallocates its arenas once per
    run and reuses them across steps; nothing here allocates — the property
    tests pin each operation to a product-order reference, and the
    microbench ALLOC=0 gate pins the no-allocation claim.  The copying API
    above is these kernels at offset 0, after its dimension check. *)
module Flat : sig
  val merge_into : dst:int array -> dst_off:int -> src:int array -> src_off:int -> dim:int -> unit
  (** In-place component-wise maximum: [dst := update(dst, src)]. *)

  val blit : src:int array -> src_off:int -> dst:int array -> dst_off:int -> dim:int -> unit
  (** [Array.blit src src_off dst dst_off dim], overlapping windows of one
      arena included, as a word loop: no [caml_modify] per word when the
      arena lives in the major heap. *)

  val bump : int array -> off:int -> int -> unit
  (** [bump a ~off i] increments component [i] of the window at [off]. *)

  val fill_zero : int array -> off:int -> dim:int -> unit

  val compare_vt : int array -> a_off:int -> int array -> b_off:int -> dim:int -> order
  (** The product-order verdict of {!Vclock.compare_vt}; stops scanning once
      both directions have differed. *)

  val lt : int array -> a_off:int -> int array -> b_off:int -> dim:int -> bool
  (** Strictly before on the product order — agrees with {!Vclock.lt}. *)

  val leq : int array -> a_off:int -> int array -> b_off:int -> dim:int -> bool
end
