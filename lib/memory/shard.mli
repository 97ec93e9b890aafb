(** Interest-based sharding: shards, owner rings and share-sets.

    A sharding partitions the cluster's nodes into [count] {e owner rings}
    and assigns every location to exactly one shard.  A shard's
    {e share-set} is the set of nodes replicating its locations: the ring
    members (permanent) plus any runtime subscribers.  The protocol routes
    invalidation metadata, shadow replication, takeover broadcasts and
    FRONTIER reconciliation only to the share-set, has a node watch only
    the rings of the shards it subscribes to, and computes takeover
    quorum as a majority of the {e ring} (not of the cluster) — see
    PROTOCOL.md, "Partial replication & sharding".

    The value is shared by every node of a simulation, like the {!Owner}
    map: the ring layout is static configuration, and the mutable
    subscriber sets model the interest directory.  [full ~nodes] (one
    shard ringing everyone) reproduces full replication exactly. *)

type t

val make : nodes:int -> shards:int -> t
(** Contiguous near-equal rings: shard [s] rings nodes
    [⌊s·nodes/shards⌋, ⌊(s+1)·nodes/shards⌋).  Requires
    [1 <= shards <= nodes]. *)

val full : nodes:int -> t
(** [make ~nodes ~shards:1]: the legacy full-replication layout. *)

val nodes : t -> int

val count : t -> int
(** Number of shards. *)

val of_loc : t -> Loc.t -> int
(** The shard a location belongs to: indexed families stripe by index
    modulo [count], named scalars hash. *)

val of_base : t -> int -> int
(** The shard whose ring contains a base owner — every base a node can
    serve lives in its own shard. *)

val ring : t -> int -> int list
(** A shard's owner-ring members, ascending. *)

val ring_size : t -> int -> int

val in_ring : t -> shard:int -> node:int -> bool

val ring_successor : t -> node:int -> int option
(** The designated backup under sharding: the next ring member of the
    node's own shard; [None] in a singleton ring. *)

val subscribed : t -> shard:int -> node:int -> bool

val subscribe : t -> shard:int -> node:int -> unit
(** Add a runtime subscriber to the shard's share-set; idempotent. *)

val unsubscribe : t -> shard:int -> node:int -> unit
(** Remove a runtime subscriber.  Ring members are the shard's replication
    floor and cannot leave; for them this is a no-op. *)

val subscribers : t -> int -> int list
(** The share-set, ascending; always a superset of the ring.  Cached:
    only a {!subscribe} or {!unsubscribe} that changes the set makes the
    next call rebuild it. *)

val membership : t -> int -> Membership.t
(** The share-set as a {!Membership}: the index map and width that price
    this shard's wire metadata. *)

val width : t -> int -> int
(** [Membership.width (membership t shard)], without the allocation. *)

val subscriptions : t -> (int * int list) list
(** Every shard's share-set, [(shard, subscribers)] ascending — the
    canonical form model-checker fingerprints fold in. *)

val owner : t -> Owner.t
(** The induced owner map: each location's base owner is a ring member of
    its shard, so per-base epochs, votes and takeovers stay inside one
    ring. *)

val pp : Format.formatter -> t -> unit
