(** A causal DSM: the owner protocol of Figure 4 over the simulated network.

    [create] builds one protocol node per process, installs the message
    handlers (the [READ]/[WRITE] services of Figure 4), and returns a
    cluster.  Application processes obtain a per-process {!handle} and
    issue blocking [read]/[write] operations; every operation is recorded in
    an execution history for the checker.

    Message handlers run atomically at delivery time even while the node's
    application process is blocked, which is the paper's requirement that
    owners "fairly alternate between issuing reads and writes and responding
    to READ and WRITE messages".

    {b Transports.}  By default messages travel directly over the network —
    the paper's assumption of reliable exactly-once FIFO links.  Passing
    [?reliability] interposes the {!Dsm_net.Reliable} sliding-window layer,
    which restores that contract over a network configured (via [?fault])
    to drop and duplicate packets.

    {b Timeouts.}  Passing [?rpc] bounds every remote operation: a request
    whose reply does not arrive within [timeout] is reissued with a fresh
    request tag (up to [retries] times), and exhausting the budget raises
    {!Timed_out} instead of blocking the process forever.  Late replies to
    abandoned tags are discarded and counted in {!stale_replies}.

    {b Crash-stop failures.}  {!crash} silences a node (deliveries are
    dropped while it is down); {!restart} revives it by resetting volatile
    state and replaying the node's write-ahead log, so owner nodes recover
    their certified writes, view changes and shadow copies to the exact
    pre-crash durable frontier.  Cache-only nodes have empty logs and
    degenerate to cache-discard recovery.

    {b Owner failover.}  Passing [?detector] enables the failure-detection
    and handoff machinery: nodes exchange seeded heartbeats, a timeout
    detector suspects silent peers, and when a serving owner is suspected
    its designated backup (ring successor) — which shadows every
    acknowledged write synchronously — promotes itself under the next epoch
    and broadcasts a takeover.  Requests carry the client's epoch; a node
    that is not the current server (or sees a newer epoch) answers with a
    fencing reply that re-routes the client.  Reads addressed to a
    suspected owner degrade to the backup's shadow copy — the most recent
    acknowledged value, live under Definition 2 (see docs/PROTOCOL.md,
    "Owner failover"). *)

type t

type handle

(** Timeout/retry policy for the remote operations. *)
type rpc = {
  timeout : float;  (** simulated time to wait for each attempt's reply *)
  retries : int;  (** re-sends after the first attempt; total tries = retries + 1 *)
}

type timeout_info = {
  op : [ `Read | `Write ];
  loc : Dsm_memory.Loc.t;
  requester : int;
  owner_node : int;
  attempts : int;  (** sends of the request, including the first, redirects aside *)
}

exception Timed_out of timeout_info
(** Raised by {!read}/{!write} (and friends) when every RPC attempt timed
    out; only possible when [?rpc] was given. *)

(** Why a crash/restart request made no sense: the typed refusal reasons of
    {!crash_result}/{!restart_result}. *)
type node_state_error =
  | Already_crashed of int  (** {!crash} of a node that is already down *)
  | Not_crashed of int  (** {!restart} of a node that is up *)

exception Node_state of node_state_error
(** Raised by the non-[_result] {!crash}/{!restart} wrappers. *)

val pp_node_state_error : Format.formatter -> node_state_error -> unit

val create :
  sched:Dsm_runtime.Proc.sched ->
  owner:Dsm_memory.Owner.t ->
  ?config:Dsm_protocol.Config.t ->
  ?latency:Dsm_net.Latency.t ->
  ?fault:Dsm_net.Network.fault ->
  ?reliability:Dsm_net.Reliable.config ->
  ?rpc:rpc ->
  ?detector:Dsm_protocol.Detector.config ->
  ?sharding:Dsm_memory.Shard.t ->
  ?disk:Wal.Disk.t ->
  ?checkpoint_every:float ->
  ?unsubscribe_idle:float ->
  ?trace:Dsm_protocol.Trace.t ->
  ?seed:int64 ->
  unit ->
  t
(** [?detector] enables heartbeats, failure detection and ownership handoff
    (ignored on a single-node cluster — there is nobody to fail over to).
    [?disk] supplies the stable storage backing every node's write-ahead
    log; by default each cluster gets a private in-memory disk.  Passing it
    explicitly lets tests inject sync faults ({!Wal.Disk.fail_next_syncs})
    or inspect logs after the cluster is gone.  [?checkpoint_every] starts a
    per-node periodic snapshot checkpoint that compacts the log behind the
    snapshot (must be positive); without it logs grow without bound and
    {!checkpoint_now}/{!begin_checkpoint} are the only truncation.
    [?trace] attaches the structured event bus: the
    wire is tapped, the core's trace actions are stamped and published, and
    every application operation is emitted — consumers (the online checker,
    the [dsm trace] dump) subscribe to the same bus.  Without it, tracing
    costs nothing.  [?sharding] (which must agree with [owner] on the
    cluster size) switches the core to partial replication (PROTOCOL.md,
    "Partial replication & sharding"); omitted, behavior is bit-identical
    to the unsharded cluster.  [?unsubscribe_idle] (sharded clusters only,
    must be positive) garbage-collects share-sets: a periodic sweep
    unsubscribes any {e runtime} subscriber — never a ring member — whose
    last client access to the shard is at least this much sim time old,
    dropping its cached copies of the shard; the next access resubscribes
    it through the usual subscribe-on-access catch-up transfer, which is
    causally safe.  Without it share-sets only ever grow. *)

val handle : t -> int -> handle
(** The memory handle of process [pid]. *)

val handles : t -> handle array

val processes : t -> int

val sched : t -> Dsm_runtime.Proc.sched

val trace : t -> Dsm_protocol.Trace.t option
(** The event bus passed at creation, if any. *)

val net : t -> Dsm_protocol.Message.t Dsm_net.Network.t
(** The raw network of a cluster created {e without} [?reliability].
    Raises [Invalid_argument] on a reliable cluster (its network carries
    framed messages); use {!reliable} and the uniform accessors below. *)

val reliable : t -> Dsm_protocol.Message.t Dsm_net.Reliable.t option
(** The reliable transport, when the cluster was created with
    [?reliability]. *)

(** {1 Uniform wire accessors (work for both transports)} *)

val messages_total : t -> int
(** Lifetime messages accepted by the underlying network (for the reliable
    transport this includes acks and retransmissions). *)

val logical_messages : t -> int
(** Protocol payloads handed to the transport — the paper's accounting
    unit (the [2n+6] message tables), invariant under frame batching and
    ack coalescing.  Equals {!messages_total} on a direct cluster. *)

val physical_frames : t -> int
(** Frames the wire actually carried (data/batch frames, explicit acks,
    retransmissions) — what batching reduces.  Alias of
    {!messages_total}, named for the logical/physical split. *)

val wire_counters : t -> Dsm_net.Network.counters

val wire_dropped : t -> int
(** Messages lost to down links and the fault model. *)

val wire_duplicated : t -> int
(** Extra copies injected by the duplication fault. *)

val set_link_down : t -> src:int -> dst:int -> bool -> unit

val set_link_fault : t -> src:int -> dst:int -> Dsm_net.Network.fault -> unit

(** {2 Partitions}

    Link-state wrappers over {!Dsm_net.Network.partition} and friends,
    working on whichever network backs the transport.  Healing fires the
    network's heal hooks, so on a reliable (framed) transport every revived
    link is resynchronised automatically ({!Dsm_net.Reliable.resync_link})
    — including links where {e both} directions had given up. *)

val partition : t -> int list -> int list -> unit
(** Symmetric partition: fail every link between the two groups, both
    directions. *)

val partition_oneway : t -> int list -> int list -> unit
(** Asymmetric partition: fail only the links {e from} the first group
    {e to} the second; replies still flow the other way. *)

val heal_partition : t -> int list -> int list -> unit
(** Restore every link between the two groups, both directions. *)

val heal_all_links : t -> unit
(** Restore every downed link in the cluster. *)

val retransmissions : t -> int
(** Data packets re-sent by the reliable layer; [0] for a direct cluster. *)

val stale_replies : t -> int
(** Replies that arrived for abandoned request tags (timed-out attempts or
    pre-crash requests) and were discarded. *)

val rpc_timeouts : t -> int
(** Individual RPC attempts that timed out (whether or not a retry later
    succeeded). *)

(** {1 Crash-stop failures} *)

val crash_result : t -> int -> (unit, node_state_error) result
(** Take node [pid] down: incoming messages are dropped and its pending
    replies forgotten.  Operations on its handle fail until restarted.
    [Error (Already_crashed pid)] if it is already down (nothing is
    touched). *)

val restart_result : t -> int -> (unit, node_state_error) result
(** Bring a crashed node back: volatile state is reset (cache discarded,
    clock zeroed, view forgotten), the reliable transport's links are
    reset, and the node's recovery stream ({!Wal.replay}: the newest
    complete snapshot plus the records appended since) is replayed,
    restoring certified writes, adopted view changes and shadow copies to
    the durable frontier.  [Error (Not_crashed pid)] if the node is up. *)

val crash : t -> int -> unit
(** {!crash_result}, raising {!Node_state} on [Error]. *)

val restart : t -> int -> unit
(** {!restart_result}, raising {!Node_state} on [Error]. *)

val is_crashed : t -> int -> bool

val dropped_at_crashed : t -> int
(** Deliveries dropped because the destination was crashed. *)

(** {1 Durability and failover observability} *)

val disk : t -> Wal.Disk.t
(** The stable storage backing all nodes' write-ahead logs. *)

val wal : t -> int -> Wal.t
(** Node [pid]'s write-ahead log. *)

val checkpoint_now : t -> int -> unit
(** Snapshot node [pid]'s durable state onto its log, then compact away
    everything the new checkpoint covers (a failed sync is counted, not
    raised, and skips the compaction). *)

val begin_checkpoint : t -> int -> unit
(** Have node [pid] initiate a coordinated checkpoint round: it snapshots
    itself and floods [Cp_marker]s; every node snapshots on first marker
    receipt and acks the initiator, which records a stable recovery line
    once all acks are in ({!recovery_lines}).  See PROTOCOL.md,
    "Checkpointing & recovery". *)

val recovery_lines : t -> int
(** Coordinated rounds whose initiator collected every ack. *)

val checkpoint_round : t -> int -> int
(** The highest coordinated round node [pid] has snapshotted (0 before
    any). *)

val recoveries : t -> int
(** Restarts that replayed a log. *)

val replayed_records : t -> int
(** Records replayed across all restarts — bounded by
    records-since-checkpoint per node, not log lifetime. *)

val recovery_seconds : t -> float
(** Cumulative host (wall-clock) time spent replaying logs in
    {!restart}; what [dsm bench recovery] measures. *)

val takeovers : t -> int
(** Ownership promotions performed by backups. *)

val shadow_degraded : t -> int
(** Certified writes acknowledged without backup replication (no live
    backup, or the shadow ack missed the grace window). *)

val shadow_reads : t -> int
(** Reads served from a shadow copy while the owner was suspected. *)

val redirects : t -> int
(** Requests re-routed after an epoch-fencing [Stale_epoch] reply. *)

val wal_sync_failures : t -> int
(** Log appends/checkpoints whose injected sync fault fired; the entry
    stayed volatile until the next successful checkpoint. *)

val partition_degraded : t -> int -> bool
(** Whether node [pid] is currently in read-only degraded mode: it serves
    locations but can reach fewer than {!quorum} nodes, so it refuses
    writes (local writes raise {!Timed_out} with [attempts = 0]; remote
    [WRITE]s are silently dropped) while still serving reads. *)

val partition_heals : t -> int
(** Times a degraded node regained quorum contact and resumed serving
    writes (the [Partition_healed] trace milestone). *)

val votes_granted : t -> int
(** [OWNER_VOTE] grants sent cluster-wide — the currency of quorum-gated
    takeover. *)

val degraded_refusals : t -> int
(** Remote write requests silently refused by partition-degraded owners
    (the requester's RPC times out). *)

val quorum : t -> int
(** ⌊n/2⌋+1 over the whole cluster — the legacy electorate. *)

val quorum_for : t -> base:int -> int
(** The grants a takeover of [base] needs and the reachability its owner
    needs to keep accepting writes: a majority of [base]'s shard ring under
    sharding, {!quorum} otherwise. *)

val sharding : t -> Dsm_memory.Shard.t option

val subscribe : t -> node:int -> shard:int -> unit
(** Join [shard]'s share-set at runtime: [node] starts receiving the
    shard's invalidation digests and fetches a causally safe catch-up
    transfer from each of the shard's serving nodes ([SUB_REQ] /
    [SUB_REPLY]).  No-op without sharding, at a crashed node, or if
    already subscribed. *)

val unsubscribe : t -> node:int -> shard:int -> unit
(** Leave [shard]'s share-set and drop cached copies of its locations.
    Ring members cannot leave; no-op without sharding. *)

val resyncs : t -> int
(** Heal-time link resynchronisations performed by the reliable transport;
    [0] for a direct cluster. *)

val suspect_events : t -> int
(** Suspicion transitions across all detectors ([0] without [?detector]). *)

val unsuspect_events : t -> int
(** Recoveries from suspicion across all detectors. *)

val suspected_by : t -> int -> int list
(** Peers node [pid] currently suspects, ascending. *)

val view : t -> (int * int * int) list
(** The cluster-wide ownership view: for each base owner with a takeover,
    [(base, epoch, serving)] under the highest epoch any node has adopted;
    bases still under their static owner (epoch 0) are omitted. *)

val epoch_of : t -> base:int -> int
(** The highest adopted epoch for [base] ([0] = static assignment). *)

val serving_of : t -> base:int -> int
(** The node serving [base]'s locations under {!epoch_of}. *)

val node : t -> int -> Dsm_protocol.Node.t
(** Direct access to protocol state, for tests and ablations. *)

val history : t -> Dsm_memory.History.t
(** Everything recorded so far. *)

val timed_history : t -> (Dsm_memory.Op.t * float * float) list
(** Every application operation with its (start, end) simulated times —
    input to the linearizability checker; causal memory's weak executions
    show up here as non-linearizable interval sets. *)

val stats : t -> Dsm_protocol.Node_stats.t list
(** Per-node counters, pid order. *)

val total_stats : t -> Dsm_protocol.Node_stats.t

val cluster_stats : t -> Dsm_protocol.Node_stats.cluster
(** Every counter the cluster keeps — protocol, wire, RPC, crash and
    failover — in one record (see {!Dsm_protocol.Node_stats.cluster}); what the chaos
    health line prints. *)

val shutdown : t -> unit
(** Stop periodic discard timers so the engine can quiesce. *)

(** {1 Operations (must run inside a spawned process)} *)

val pid : handle -> int

val read : handle -> Dsm_memory.Loc.t -> Dsm_memory.Value.t

val write : handle -> Dsm_memory.Loc.t -> Dsm_memory.Value.t -> unit

val write_resolved :
  handle -> Dsm_memory.Loc.t -> Dsm_memory.Value.t -> [ `Accepted | `Rejected ]
(** Like [write] but reports whether the owner's resolution policy kept the
    write; the dictionary's delete path cares. *)

val read_stamped : handle -> Dsm_memory.Loc.t -> Dsm_protocol.Stamped.t
(** [read] exposing the writestamp; recorded as an ordinary read. *)

val read_result : handle -> Dsm_memory.Loc.t -> (Dsm_memory.Value.t, timeout_info) result
(** {!read} with {!Timed_out} reified into [Error] instead of raised. *)

val write_result :
  handle ->
  Dsm_memory.Loc.t ->
  Dsm_memory.Value.t ->
  ([ `Accepted | `Rejected ], timeout_info) result
(** {!write_resolved} with {!Timed_out} reified into [Error]. *)

val discard : handle -> unit
(** Voluntarily drop this node's whole cache (the paper's [discard]). *)

(** The {!Dsm_memory.Memory_intf.MEMORY} instance applications are
    functorised over. *)
module Mem : Dsm_memory.Memory_intf.MEMORY with type handle = handle
