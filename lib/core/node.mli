(** Per-node protocol state of Figure 4, minus the messaging.

    A node holds the local memory [M_i] (owned locations plus the cache
    [C_i]), the vector clock [VT_i], and the statistics counters.  All the
    state transitions of the algorithm — install, invalidate-older, discard,
    write certification — live here as atomic in-memory operations; the
    cluster layer (see {!Cluster}) drives them from message handlers and the
    blocking application operations.

    Invariants maintained:
    - locations owned by this node are always present and never invalidated
      (lazily initialised from the configured initial value on first touch);
    - a cached (non-owned) location is either absent (the paper's ⊥) or holds
      the last entry introduced for it;
    - [VT_i] only grows. *)

type t

val create :
  id:int -> owner:Dsm_memory.Owner.t -> config:Config.t -> t
(** [owner] also fixes the number of processes (clock dimension). *)

val id : t -> int

val processes : t -> int

val vt : t -> Vclock.t

val set_vt : t -> Vclock.t -> unit
(** Replace the clock (used by the update steps); must not shrink it. *)

val stats : t -> Node_stats.t

val set_tracing : t -> bool -> unit
(** Enable or disable the internal trace queue.  Off by default: an
    untraced node never allocates for tracing. *)

val drain_trace : t -> Trace.body list
(** Pop the trace bodies queued since the last drain, oldest first.  The
    node is pure, so it cannot stamp or publish events itself; the caller
    (the protocol step function) drains this queue after each transition
    and turns the bodies into [Emit] actions. *)

val config : t -> Config.t

val owns : t -> Dsm_memory.Loc.t -> bool
(** Whether this node currently {e serves} [loc] — its base owner per the
    static assignment, or a backup that promoted itself over that base
    (see the failover section below). *)

val owner_of : t -> Dsm_memory.Loc.t -> int
(** The node currently serving [loc] per this node's ownership view. *)

val base_owner_of : t -> Dsm_memory.Loc.t -> int
(** The paper's static assignment, independent of any takeover. *)

val lookup : t -> Dsm_memory.Loc.t -> Stamped.t option
(** Current entry: owned locations always yield [Some] (lazily initialised);
    non-owned yield [None] when invalid (⊥).  Counts as a cache touch for
    LRU purposes. *)

val fresh_wid : t -> Dsm_memory.Wid.t
(** Next write identity for this node. *)

val next_req : t -> int
(** Next request tag for matching replies. *)

val local_write : t -> Dsm_memory.Loc.t -> Dsm_memory.Value.t -> Stamped.t
(** The owner-write path of [w_i(x)v]: increment [VT_i], store, return the
    stored entry.  Requires [owns t loc]. *)

val certify_write :
  t -> Dsm_memory.Loc.t -> Stamped.t -> accepted:bool ref -> Stamped.t
(** The owner's [WRITE] handler: merge the incoming stamp into [VT_i],
    consult the resolution policy, store the certified entry (or keep the
    current one on rejection), invalidate older cached entries, and return
    the entry now stored.  Certifying the write currently stored again (an
    RPC retry after a lost [W_REPLY]) is idempotent and reports accepted.
    Requires [owns t loc]. *)

val adopt_write_reply : t -> Dsm_memory.Loc.t -> Stamped.t -> unit
(** The writer's tail of [w_i(x)v] after [W_REPLY]: merge the owner's clock
    and cache the entry the owner now stores.  Figure 4 performs {e no}
    invalidation on this path — a write certification establishes no
    reads-from edge.  Requires [not (owns t loc)]. *)

val install_remote : t -> Dsm_memory.Loc.t -> Stamped.t -> unit
(** Introduce an entry received from the owner (the [R_REPLY]/[W_REPLY]
    paths): merge the stamp into [VT_i], store the entry, and invalidate all
    cached values older than the entry's stamp.  Requires [not (owns t loc)]. *)

val install_transient : t -> (Dsm_memory.Loc.t * Stamped.t) list -> unit
(** Like {!install_batch} but does {e not} retain the entries in the cache:
    the clocks are merged and older cached values invalidated (the entries
    still carry knowledge), while the fetched values themselves are used
    once and dropped.  This is the stale-install guard: when the node's
    clock grew while the READ request was in flight (it certified writes
    meanwhile), the reply may be older than what the node now causally
    knows, and caching it would let a later read return an overwritten
    value — the violation the literal Figure 4 pseudocode admits (see
    DESIGN.md, "Findings", and the model checker's
    [Figure4_literal] variant). *)

val install_batch : t -> (Dsm_memory.Loc.t * Stamped.t) list -> unit
(** Install all entries of one owner reply (the requested location plus any
    co-paged entries) as a unit: merge every stamp into [VT_i], store each
    entry (skipping locations owned locally or already cached at least as
    new), then invalidate cached values older than any installed stamp —
    {e sparing the batch itself}.  The exemption is sound because every
    batch entry is the owner's current (most recently certified) value of a
    location that owner serialises, so none of them can be an overwritten
    value.  [install_batch t [(loc, e)]] coincides with
    [install_remote t loc e] unless [t] already caches [loc] at least as
    new as [e]: then the batch skips the entry and runs no pass, where
    [install_remote] stores it again and runs the pass, which may
    invalidate entries cached since then that are strictly older than
    [e]. *)

val page_entries : t -> Dsm_memory.Loc.t -> (Dsm_memory.Loc.t * Stamped.t) list
(** Owner side of page granularity: the other entries of [loc]'s page this
    node owns and currently stores.  Empty under word granularity. *)

val discard_all : t -> int
(** Drop every cached entry; returns how many were dropped. *)

val discard_one : t -> Dsm_memory.Loc.t -> bool
(** Drop one cached entry if present ([false] if absent or owned). *)

val cache_size : t -> int

val cached_locs : t -> Dsm_memory.Loc.t list
(** The set [C_i], in unspecified order. *)

val entries : t -> (Dsm_memory.Loc.t * Stamped.t) list
(** Every entry in [M_i] — served and cached — ascending by location name.
    Read-only (no LRU touch); the model checker fingerprints with it. *)

val reset_volatile : t -> unit
(** Crash-stop restart: drop everything volatile — the cache, the
    invalidation bookkeeping, the digest, the vector clock, the ownership
    view and the shadow copies.  Owner nodes are accepted: the cluster
    layer replays the node's write-ahead log via {!apply_record} right
    after the reset, restoring certified writes, view changes and shadows
    from stable storage.  The write and request counters keep growing so
    recycled writestamps or request tags never collide with pre-crash
    traffic. *)

val enforce_capacity : t -> unit
(** Evict least-recently-used cached entries until within the configured
    capacity (no-op for other discard policies). *)

(** {1 Precise-invalidation support (Config.Precise)} *)

val digest_export : t -> (Dsm_memory.Loc.t * Write_digest.entry) list
(** This node's newest-known-write table, for piggybacking on replies;
    empty under coarse invalidation, so coarse messages stay small. *)

val digest_merge : t -> (Dsm_memory.Loc.t * Write_digest.entry) list -> unit
(** Fold a peer's digest in; no-op under coarse invalidation. *)

(** {1 Owner failover: ownership view, shadow replication, durable log}

    Each node holds a {e view} mapping every base owner to the node
    currently serving its locations, with an epoch number that grows on
    each takeover (epoch 0 = the static assignment).  Backups additionally
    hold {e shadow} copies of an owner's certified writes, keyed by base
    owner, which a promotion installs as served state. *)

val epoch_of : t -> base:int -> int

val serving_of : t -> base:int -> int

val view : t -> (int * int * int) list
(** Non-default view entries [(base, epoch, serving)], ascending by base —
    the payload heartbeats gossip. *)

type view_outcome = View_ignored | View_adopted | View_demoted

val adopt_view : t -> base:int -> epoch:int -> serving:int -> view_outcome
(** Fold in a view entry learned from a takeover broadcast, gossip or a
    [Stale_epoch] fencing reply.  Entries at or below the known epoch are
    ignored.  A node that learns it was deposed drops its copies of the
    base's locations ([View_demoted]) — they are no longer authoritative. *)

val promote : t -> base:int -> epoch:int -> (Dsm_memory.Loc.t * Stamped.t) list
(** Take over [base]'s locations at [epoch]: install this node's shadow
    copies as served state (keeping any newer local copy), merge their
    stamps into the clock, run the conservative invalidation pass, and
    return the full served state for [base] (for re-shadowing to the next
    backup).  Raises [Invalid_argument] unless [epoch] exceeds the view's
    current epoch for [base]. *)

val shadow_store : t -> base:int -> Dsm_memory.Loc.t -> Stamped.t -> unit
(** Accept a shadow copy from [base]'s owner; an incoming entry strictly
    older than the held one is ignored (snapshots racing per-write
    shadows must not regress the backup). *)

val shadow_lookup : t -> base:int -> Dsm_memory.Loc.t -> Stamped.t option

val shadow_entries : t -> base:int -> (Dsm_memory.Loc.t * Stamped.t) list
(** Held shadow copies for [base], ascending by location name. *)

val shadow_size : t -> base:int -> int

val served_entries : t -> base:int -> (Dsm_memory.Loc.t * Stamped.t) list
(** The entries this node currently serves whose base owner is [base]. *)

val reconcile_served : t -> Dsm_memory.Loc.t -> Stamped.t -> bool
(** Merge one entry shipped by a demoted server (a [FRONTIER] message on
    partition heal) into served memory, newest-wins — the rule {!promote}
    applies to inherited shadows.  The entry's stamp is merged into the
    clock either way; returns whether the shipped copy won.  [false]
    without side effects when this node does not serve the location. *)

val snapshot : t -> Log_record.snapshot
(** Full durable state for a checkpoint: clock, view, every served entry,
    every shadow. *)

val apply_record : t -> Log_record.t -> unit
(** Replay one log record after {!reset_volatile}, in log order: restore a
    served entry, merge a logged clock, reinstate a view change or shadow,
    or load a whole checkpoint snapshot. *)
