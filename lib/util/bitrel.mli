(** Dense binary relations over [0 .. n-1] backed by bitsets.

    The causal-memory checker represents the happens-before relation over the
    operations of an execution as an [n x n] bit matrix and closes it
    transitively.  Rows are [Bytes]-backed bitsets so closure is a cheap
    word-wise OR. *)

type t

val create : int -> t
(** [create n] is the empty relation over a universe of size [n]. *)

val size : t -> int

val add : t -> int -> int -> unit
(** [add t i j] records the pair (i, j), i.e. "i relates to j". *)

val mem : t -> int -> int -> bool

val copy : t -> t

val union_row_into : t -> src:int -> dst:int -> unit
(** [union_row_into t ~src ~dst] ORs row [src] into row [dst]:
    everything reachable from [src] becomes reachable from [dst]. *)

val diff_row_into : t -> src:int -> dst:int -> unit
(** [diff_row_into t ~src ~dst] removes from row [dst] every [j] in row
    [src]. *)

val clear_row : t -> int -> unit
(** [clear_row t i] removes every pair [(i, j)]. *)

val iter_row : t -> int -> (int -> unit) -> unit
(** [iter_row t i f] applies [f j] to each [j] with [mem t i j], ascending;
    skips empty bytes, so sparse rows cost O(size/8). *)

val transitive_closure : t -> unit
(** Close the relation in place.  Uses a reverse-topological propagation when
    the relation is acyclic and falls back to an iterate-to-fixpoint pass
    otherwise; either way the result is the full transitive closure. *)

val successors : t -> int -> int list
(** Ascending list of [j] with [mem t i j]. *)

val count_pairs : t -> int
(** Total number of related pairs; used by tests. *)

val equal : t -> t -> bool
