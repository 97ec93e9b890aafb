(** The flattened Figure-4 data path: the owner-write / certify /
    install-remote / adopt services of the causal-memory protocol over
    flat [int] arenas.  Each node keeps the writestamps of the entries it
    holds in its own pool, which grows to the node's peak occupancy; after
    that no operation allocates.

    This is the data plane twin of {!Node} under the default configuration
    (Coarse invalidation, no mutation): same clock-merge order, same
    certification verdicts, same invalidate-older rule — property tests pin
    the agreement step for step.  Locations are dense ids from a
    {!Dsm_memory.Loc.Interner}; values are plain ints (the data plane
    carries machine words, the structured {!Dsm_memory.Value} stays in the
    control plane).  Results of each operation are exposed through [last_*]
    out-fields indexed by the acting node instead of returned records; read
    them before that node's next step.

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

type policy = Lww  (** {!Policy.Last_writer_wins} *) | Owner_favored

val create :
  ?policy:policy -> ?init_value:int -> nodes:int -> locs:int -> owner:int array -> unit -> t
(** [owner.(loc)] is the owning node of each interned location id.  Every
    per-entry array is sized here; each node's stamp pool starts with a
    slot per owned location plus a few spare ones.  Owned locations start
    present with [init_value], a zero stamp, and the virtual initial wid,
    as {!Node.lookup} materialises them.  Later, an install or adopt that
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
    clock, resolve against the current entry (After accepts, Before/Equal
    rejects, Concurrent goes to policy), store accepted writes under the
    merged clock, and run the invalidate-older pass against it.  A
    duplicate wid (RPC retry) is idempotently accepted.  [last_accepted t]
    is the W_REPLY verdict; the [last_*] fields carry the surviving entry
    either way. *)

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
    it. *)

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
    certified entry; no invalidation pass. *)

val read : t -> node:int -> loc:int -> unit
(** Local read into the [last_*] fields: [last_accepted] is the hit flag; a
    miss reports [init_value] under the initial wid and changes nothing. *)

val cached_hit : t -> node:int -> loc:int -> bool

val fresh_seq : t -> node:int -> int
(** Next write sequence number for wids minted outside {!owner_write} (the
    remote-write path); shares the counter with {!owner_write} so a node's
    wids stay unique. *)

val entry_value : t -> node:int -> loc:int -> int
(** Raw entry fields, allocation-free; meaningful only when the entry is
    present ({!cached_hit}). *)

val entry_wid_node : t -> node:int -> loc:int -> int

val entry_wid_seq : t -> node:int -> loc:int -> int

(** {1 Completion out-fields} — per acting node. *)

val last_accepted : t -> node:int -> bool

val last_value : t -> node:int -> int

val last_wid_node : t -> node:int -> int
(** [-1] is the virtual initial write, as {!Dsm_memory.Wid.initial}. *)

val last_wid_seq : t -> node:int -> int

(** {1 Observers} — setup/verification-time; these may allocate. *)

val clock_of : t -> int -> int array
(** Copy of a node's vector clock. *)

val clock_arena : t -> int array
(** The live clock arena; node [i]'s clock is the window at
    [clock_off t i].  Exposed so workloads can pass a writer's own clock
    row as the [stamp] of a {!certify} without copying. *)

val clock_off : t -> int -> int

val stamp_arena : t -> node:int -> int array
(** [node]'s live writestamp pool: the stamp of each entry the node holds
    is the window at {!entry_off}.  The node's next {!install_remote} or
    {!adopt_write_reply} may replace the pool with a bigger copy, so fetch
    it again after either. *)

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
