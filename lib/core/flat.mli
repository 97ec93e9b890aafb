(** The flattened Figure-4 data path: the owner-write / certify /
    install-remote / adopt services of the causal-memory protocol over
    flat [int] arenas.  Each entry a node holds is one slot of that node's
    pool: a four-word header (location, value, writer node, writer seq)
    followed by the entry's writestamp, [nodes] words.  A pool grows to
    its node's peak occupancy; after that no operation allocates.

    This is the data plane twin of {!Node} under the default configuration
    (Coarse invalidation, no mutation, last writer wins): same clock-merge
    order, same certification verdicts, same invalidate-older rule —
    property tests pin the agreement step for step.  Locations are dense
    ids from a {!Dsm_memory.Loc.Interner}; values are plain ints (the data
    plane carries machine words, the structured {!Dsm_memory.Value} stays
    in the control plane).  A service's result is the entry it leaves
    behind, read through {!entry_value}, {!entry_wid_node},
    {!entry_wid_seq} and {!entry_off}.

    Every mutable cell is indexed by the acting node, so shards that
    partition the nodes (see {!Dsm_sim.Par_engine}) may run services
    concurrently from several domains with no synchronisation beyond their
    own message barriers — provided no two domains act as the same node
    and stamp windows passed in are domain-local.  A node's pool is
    touched only when that node acts.

    Control-plane machinery (failover epochs, quorum fencing, shadows,
    checkpoints, sharding, tracing) is deliberately absent — that traffic
    runs at failure timescales through {!Protocol.step}. *)

type t

val create : nodes:int -> locs:int -> owner:int array -> unit -> t
(** [owner.(loc)] is the owning node of each interned location id.  Each
    node's pool starts with a slot per owned location, which holds that
    entry for good, plus a few spare ones.  Owned locations start present
    holding 0 under a zero stamp and the virtual initial wid, as
    {!Node.lookup} materialises them.  Later, an install or adopt that
    brings a node to more entries than it ever held doubles that node's
    pool; nothing else allocates. *)

val nodes : t -> int

val locations : t -> int

val owner_of : t -> int -> int

(** {1 The Figure-4 services}

    [stamp]/[stamp_off] arguments are windows of [nodes t] ints in any
    arena (a message buffer, another node's clock row, a node's
    {!stamp_arena}).  For {!certify} the window must not alias the
    certifying node's own clock row — the merge runs first and would
    corrupt the comparison. *)

val owner_write : t -> node:int -> loc:int -> value:int -> unit
(** {!Node.local_write}: bump own clock component, store under the updated
    clock with a fresh wid.  No invalidation pass. *)

val certify :
  t ->
  node:int ->
  loc:int ->
  value:int ->
  wid_node:int ->
  wid_seq:int ->
  stamp:int array ->
  stamp_off:int ->
  unit
(** {!Node.certify_write}: merge the incoming writestamp into the owner's
    clock, resolve against the current entry (After and Concurrent accept
    — last writer wins — Before/Equal rejects), store accepted writes
    under the merged clock, and run the invalidate-older pass against it.
    A duplicate wid (RPC retry) is idempotently accepted.  The write was
    accepted exactly when [node]'s entry for [loc] now carries its wid
    (wids are unique: see {!fresh_seq}); the entry is the W_REPLY either
    way. *)

val install_remote :
  t ->
  node:int ->
  loc:int ->
  value:int ->
  wid_node:int ->
  wid_seq:int ->
  stamp:int array ->
  stamp_off:int ->
  unit
(** {!Node.install_remote}: R_REPLY at the client — merge the entry's
    stamp, cache the copy, invalidate cached entries strictly older than
    it.  [loc] must not be owned by [node]. *)

val adopt_write_reply :
  t ->
  node:int ->
  loc:int ->
  value:int ->
  wid_node:int ->
  wid_seq:int ->
  stamp:int array ->
  stamp_off:int ->
  unit
(** {!Node.adopt_write_reply}: W_REPLY at the client — merge and cache the
    certified entry; no invalidation pass.  [loc] must not be owned by
    [node]. *)

val read : t -> node:int -> loc:int -> unit
(** Local read: counts a hit or a miss ({!cached_hit}).  A hit reads the
    entry, through the [entry_*] accessors; a miss changes nothing else. *)

val cached_hit : t -> node:int -> loc:int -> bool

val fresh_seq : t -> node:int -> int
(** Next write sequence number for wids minted outside {!owner_write} (the
    remote-write path); shares the counter with {!owner_write} so a node's
    wids stay unique. *)

val entry_value : t -> node:int -> loc:int -> int
(** Raw entry fields, allocation-free; the entry must be present
    ({!cached_hit}). *)

val entry_wid_node : t -> node:int -> loc:int -> int
(** [-1] is the virtual initial write, as {!Dsm_memory.Wid.initial}. *)

val entry_wid_seq : t -> node:int -> loc:int -> int

(** {1 Observers} — setup/verification-time; these may allocate. *)

val clock_of : t -> int -> int array
(** Copy of a node's vector clock. *)

val clock_arena : t -> int array
(** The live clock arena; node [i]'s clock is the window at
    [clock_off t i].  Exposed so workloads can pass a writer's own clock
    row as the [stamp] of a {!certify} without copying. *)

val clock_off : t -> int -> int

val stamp_arena : t -> node:int -> int array
(** [node]'s live pool: slot [s] is the [nodes t + 4] words from
    [s * (nodes t + 4)], a four-word header and then the entry's stamp,
    whose window starts at {!entry_off}.  The node's next
    {!install_remote} or {!adopt_write_reply} may replace the pool with a
    bigger copy, so fetch it again after either. *)

val entry_off : t -> node:int -> loc:int -> int
(** Offset of a present entry's stamp in its node's {!stamp_arena}. *)

val entry_view : t -> node:int -> loc:int -> (int * int array * int * int) option
(** [(value, stamp copy, wid_node, wid_seq)] of a present entry. *)

val cached_count : t -> int -> int
(** How many non-owned locations the node currently caches. *)

val digest : t -> int
(** Structural fingerprint of clocks plus every present entry; equal
    digests mean equal memories.  The determinism tests compare runs
    (notably across domain counts) through this. *)

type counters = {
  writes_owned : int;
  writes_certified : int;
  writes_rejected : int;
  invalidations : int;
  installs : int;
  read_hits : int;
  read_misses : int;
}

val counters : t -> counters
