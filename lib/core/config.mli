(** Protocol configuration: the §3.2 enhancement knobs.

    The basic algorithm of Figure 4 is [default].  The enhancements the
    paper defers to its tech report are exposed as configuration:
    page-granularity sharing, cache replacement ([discard]) policies, and
    the concurrent-write resolution policy of Section 4.2. *)

type granularity =
  | Word  (** the basic algorithm: one location per transfer *)
  | Page of int
      (** a read miss returns every co-paged location the owner holds;
          pages group [Page of k] consecutive indices of the same array *)

type discard =
  | No_discard  (** cache grows without bound; the basic algorithm *)
  | Periodic of float
      (** every period (simulated time), drop all cached copies — the
          paper's liveness device ("occasional execution of discard can ...
          ensure eventual communication") *)
  | Capacity of int  (** LRU eviction beyond this many cached locations *)

type invalidation =
  | Coarse
      (** Figure 4's rule: invalidate every cached value older than the
          incoming writestamp — cheap, over-approximate *)
  | Precise
      (** the [3]-style bookkeeping the paper declines: piggyback a
          per-location newest-write digest on replies and invalidate a
          cached copy only when a newer write of that location is actually
          known; costs digest bytes on every reply (see {!Write_digest}) *)

type mutation =
  | No_mutation  (** the faithful protocol *)
  | Skip_invalidation
      (** skip the Figure-4 invalidation rule entirely: stale cached
          copies survive the arrival of causally newer state *)
  | Skip_writestamp_merge
      (** the owner certifies a write without merging the writer's
          writestamp into its own clock, so the stored stamp no longer
          dominates the writer's causal history *)
  | Reorder_apply_ack
      (** acknowledge a certified write before the backup has applied the
          shadow copy (asynchronous replication): an acked write can be
          lost by a takeover *)
  | Ignore_epoch_fence
      (** serve READ requests without the epoch fence: a deposed or
          restarted owner answers for locations it no longer serves,
          fabricating initial values *)
  | Skip_shadow_replication
      (** never replicate certified writes to the backup at all; every
          takeover silently loses the victim's certified writes *)
  | Truncate_wal_early
      (** WAL compaction truncates one record past the stable-checkpoint
          boundary (an off-by-one in the retention cut): recovery silently
          loses one durable record, so a post-rollback read can contradict
          an acknowledged write *)
  | Takeover_without_quorum
      (** a suspecting backup promotes itself immediately, skipping the
          ⌊n/2⌋+1 OWNER_VOTE round: a network partition yields two
          simultaneous owners for the same base (split-brain) *)
  | Prune_share_set_wrongly
      (** under sharding, reply digests are filtered as if runtime
          subscribers were not in the share-set (only ring members keep
          their entries): a genuine subscriber's cached copy misses the
          invalidation a causally newer write should have forced, so it
          re-reads stale state after observing the newer write *)
  | Merge_drops_op
      (** the {e client-side} object merge silently drops the causally
          greatest observed update before folding a query's return value
          (a lost-op bug in the [Causal_object] merge): every individual
          probe read stays register-legal, so only the generalized object
          checker — spec-legal returns over causal-past linearizations —
          can flag it *)
  | Figure4_literal
      (** the read-reply handler as Figure 4 literally states it: cache the
          fetched entries even when this node's clock grew while the READ
          was in flight, dropping the stale-install guard (DESIGN.md,
          "Findings") — a later read can then return a value the node
          already knew to be overwritten *)

val mutations : (string * mutation) list
(** CLI names for every breaking variant (excludes [No_mutation]). *)

val mutation_name : mutation -> string

type t = {
  granularity : granularity;
  discard : discard;
  invalidation : invalidation;
  policy : Policy.t;
  init : Dsm_memory.Loc.t -> Dsm_memory.Value.t;
      (** initial value of owned locations (default: [Value.initial]) *)
  read_request_size : int;
  entry_size : int -> int;
      (** wire size of a stamped entry as a function of the vector-clock
          dimension; used only for byte accounting *)
  mutation : mutation;
      (** {b Test-only fault injection — never enable in real use.}
          Selectively breaks one Figure-4 rule (see {!mutation}) so the
          checkers can prove they catch genuine protocol bugs, not just
          synthetic histories.  [No_mutation] in {!default}. *)
}

val default : t
(** Word granularity, no discard, last-writer-wins, all-zero initial
    values. *)

val with_policy : Policy.t -> t -> t

val with_granularity : granularity -> t -> t

val with_discard : discard -> t -> t

val with_invalidation : invalidation -> t -> t

val with_init : (Dsm_memory.Loc.t -> Dsm_memory.Value.t) -> t -> t

val with_mutation : mutation -> t -> t

val page_of : granularity -> Dsm_memory.Loc.t -> (string * int) option
(** The page a location belongs to under the given granularity; [None] for
    word granularity or unpageable (named scalar) locations. *)

val validate : t -> unit
(** Raises [Invalid_argument] on nonsensical settings (page size < 2,
    capacity < 1, period <= 0). *)
