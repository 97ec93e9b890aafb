(** The pure protocol core: every decision of the causal DSM — the owner's
    service and the client's operations — with no effects.

    [step state event] consumes one input — a message delivery, a
    heartbeat tick, a grace-timer expiry, a client operation or its reply,
    a crash or a restart — mutates the protocol state in place, and
    returns the list of {!action}s the caller must perform, in order.  The
    core never touches the network, the scheduler, the clock or the disk:
    it does not know they exist.  Everything observable it wants done
    comes back as data, so the same state and the same event sequence
    always produce the same action sequences — the determinism the replay
    test and the golden traces rely on (see test/test_protocol.ml).

    Two shells drive it.  {!Cluster} feeds deliveries from the transport
    handlers and timer expiries from the simulation engine, and interprets
    actions as [Network]/[Reliable] sends, [Wal] appends, engine-scheduled
    grace timers and [Proc] ivar fills.  [Dsm_mc.System] feeds the same
    events from an explicit choice enumeration.  What each shell keeps is
    its own: the per-request ivars or blocked flags, the RPC timers and
    retry count, and how an operation is recorded and what a give-up does
    to its process.

    What lives here (Figure 4 plus the failover machinery):
    - the client half, [r_i(x)v] and [w_i(x)v] ({!event.Issue_read},
      {!event.Issue_write}): read hits, READ on a miss, the stale-install
      guard, degraded shadow reads while the owner is suspected, owner
      writes in place, stamped WRITEs to the owner, following
      [Stale_epoch] redirects within a [2n] budget, and RPC retries that a
      crashed node never sends;
    - READ/WRITE service with epoch fencing ([Stale_epoch]);
    - write certification, invalidation and the digest bookkeeping (via
      {!Node});
    - shadow replication of certified writes to the ring-successor backup,
      with the grace-timer degrade;
    - heartbeat gossip, failure suspicion ({!Detector}) and ownership
      takeover, quorum-gated: a suspecting backup canvasses for ⌊n/2⌋+1
      OWNER_VOTE grants (its own included) before promoting, so a
      minority-side backup can never take over during a partition;
    - partition degradation: an owner that can reach fewer than ⌊n/2⌋+1
      nodes drops to read-only degraded mode (writes refused, reads still
      Definition-2 safe) until quorum contact returns
      ([Partition_healed]); on demotion it ships its served frontier to
      the new server ([FRONTIER]), which merges it newest-wins;
    - crash-stop semantics (a down node drops deliveries) and restart by
      log replay;
    - partial replication (see PROTOCOL.md, "Partial replication &
      sharding"): when created with a {!Dsm_memory.Shard} layout,
      invalidation digests ship only to each location's subscribers, wire
      writestamps are priced at share-set width, takeover/vote/heartbeat
      traffic and the quorum arithmetic scope to the shard's ring, and
      {!event.Subscribe}/{!event.Unsubscribe} grow and shrink share-sets at
      runtime with a causally safe catch-up transfer ([SUB_REQ] /
      [SUB_REPLY]).  Without a layout every fan-out below is cluster-wide
      and behavior is bit-identical to the unsharded protocol. *)

(** What a certified write's shadow acknowledgement (or its grace-timer
    degrade) completes: a deferred [W_REPLY] for a remote writer, or the
    token of a blocked owner writer. *)
type completion =
  | Reply of { dst : int; kind : string; size : int; msg : Message.t }
  | Writer of int

type event =
  | Deliver of { dst : int; src : int; now : float; msg : Message.t }
      (** the transport delivered [msg] from [src] at node [dst] *)
  | Hb_tick of { node : int; now : float }
      (** [node]'s heartbeat timer fired: gossip the view, re-evaluate the
          failure detector, hand off ownership from newly suspected peers *)
  | Grace_expired of { node : int; seq : int }
      (** the shadow-replication grace timer for [seq] fired *)
  | Issue_read of { node : int; loc : Dsm_memory.Loc.t }
      (** [node]'s process reads [loc]: [Read_done] on a hit, else [Park]
          on a READ to the serving node — or, while it is suspected, a
          shadow read: [Read_done] from this node's own shadow if it is the
          backup, else [Park] on a SH_READ to the backup *)
  | Issue_write of { node : int; loc : Dsm_memory.Loc.t; value : Dsm_memory.Value.t }
      (** [node]'s process writes [loc]: at the serving node {!Owner_write}
          under a core-allocated token, elsewhere [Write_stamped] then
          [Park] on a WRITE to the owner *)
  | Owner_write of { node : int; loc : Dsm_memory.Loc.t; value : Dsm_memory.Value.t; writer : int }
      (** [node] writes a location it serves, [writer] naming the blocked
          process: [Write_stamped], then [Wake_writer] once the backup has
          the entry.  A partition-degraded owner gives up (0 attempts). *)
  | Reply_taken of { node : int; req : int; msg : Message.t }
      (** the process parked on [req] took the reply a [Client_reply]
          handed it: [Read_done], [Write_done], or on [Stale_epoch] the
          view is learned and the request re-sent ([Park]; [Gave_up] past
          [2n] redirects or at a crashed node) *)
  | Rpc_timeout of { node : int; req : int; retry : bool }
      (** the shell's RPC timer for [req] fired: re-send ([Park]) if
          [retry] and the node is up, else [Gave_up] *)
  | Learn_view of { node : int; base : int; epoch : int; serving : int }
      (** [node] learned a view entry outside a delivery (the model
          checker's view synchronisation on restart) *)
  | Crash of { node : int }
      (** [node] stops delivering, wakes its writers parked on a shadow ack
          (ascending seq: the writes are logged) and forgets its volatile
          state; parked client operations wait for their RPC timeout *)
  | Restart of { node : int; now : float; records : Log_record.t list }
      (** [records] is the node's replayed write-ahead log, in log order *)
  | Begin_checkpoint of { node : int }
      (** [node] initiates a coordinated checkpoint round: it snapshots
          itself ([Take_checkpoint]) and floods [Cp_marker]s; each first
          marker receipt snapshots the receiver before any later traffic on
          the same FIFO link, so the per-node snapshots form a consistent
          recovery line (PROTOCOL.md, "Checkpointing & recovery").  Ignored
          at a crashed node. *)
  | Subscribe of { node : int; shard : int }
      (** [node] joins [shard]'s share-set: it starts receiving the shard's
          invalidation digests and asks each of the shard's serving nodes
          for a catch-up transfer ([SUB_REQ]) so its clock covers every
          write it could be told about indirectly.  No-op without sharding,
          at a crashed node, for an out-of-range shard, or if already
          subscribed (ring members are born subscribed). *)
  | Unsubscribe of { node : int; shard : int }
      (** [node] leaves [shard]'s share-set and drops its cached copies of
          the shard's locations (their invalidation metadata will no longer
          arrive).  Ring members cannot leave — the shard's quorum
          arithmetic depends on them. *)

type action =
  | Send of { src : int; dst : int; kind : string; size : int; msg : Message.t }
  | Client_reply of { node : int; req : int; msg : Message.t }
      (** hand a reply to the process of [node] waiting on request tag
          [req], which feeds it back as {!Reply_taken}; if nobody is
          waiting the shell counts it stale *)
  | Park of { node : int; req : int }
      (** the issuing process waits for the reply to [req] (the request is
          the [Send] that follows) *)
  | Read_done of { node : int; loc : Dsm_memory.Loc.t; entry : Stamped.t }
      (** the read of [loc] returns [entry] *)
  | Write_stamped of {
      node : int;
      loc : Dsm_memory.Loc.t;
      entry : Stamped.t;
      writer : int option;
    }
      (** the write of [loc] is [entry]: certified and logged by the owner,
          whose blocked [writer] ends at [Wake_writer], or stamped and
          about to ship ([None]), ending at [Write_done] or [Gave_up] *)
  | Write_done of { node : int; wid : Dsm_memory.Wid.t; accepted : bool }
      (** the owner certified ([accepted]) or rejected the shipped write
          [wid]; its [W_REPLY] is adopted *)
  | Gave_up of { node : int; dst : int; attempts : int }
      (** the operation ends unanswered (redirects spent, timeout without
          retry, crashed node, refused owner write): its request last went
          to [dst] and was sent [attempts] times, redirects aside *)
  | Wake_writer of { node : int; writer : int }
      (** unblock the local writer identified by [writer] (idempotent) *)
  | Append of { node : int; record : Log_record.t }
      (** append to [node]'s write-ahead log {e before} performing any
          action that follows in the list — durability orders the reply *)
  | Arm_grace of { node : int; seq : int }
      (** start the shadow grace timer; feed {!Grace_expired} when it fires *)
  | Take_checkpoint of { node : int; round : int }
      (** snapshot [node]'s state onto stable storage {e now}, before any
          later event runs at it — the shell checkpoints the node's WAL and
          may then compact it *)
  | Emit of Trace.body
      (** publish on the event bus (only produced while tracing is on) *)

type state

val create :
  owner:Dsm_memory.Owner.t ->
  config:Config.t ->
  ?detector:Detector.config ->
  ?sharding:Dsm_memory.Shard.t ->
  now:float ->
  unit ->
  state
(** Fresh protocol state.  A detector config enables failover when the
    cluster has at least two nodes (a lone node has nobody to fail over
    to); [now] seeds the detectors' heard-from times.  A [sharding] layout
    (which must agree with [owner] on the cluster size) switches on partial
    replication; omitting it keeps the legacy full-replication behavior
    bit-identical. *)

val step : state -> event -> state * action list
(** The transition function.  The returned state is physically the input
    state (mutated in place); it is returned so consumers can thread it
    functionally.  Actions must be performed in list order. *)

val set_tracing : state -> bool -> unit
(** Toggle [Emit] production.  Off (the default) costs nothing. *)

(** {1 Read-only accessors the shell and tests use} *)

val processes : state -> int

val node : state -> int -> Node.t

val is_crashed : state -> int -> bool

val failover_on : state -> bool

val quorum : state -> int
(** ⌊n/2⌋+1 over the whole cluster — the legacy electorate. *)

val quorum_for : state -> base:int -> int
(** The grants a takeover of [base] needs and the reachability its owner
    needs to keep serving writes: a majority of [base]'s shard ring under
    sharding, {!quorum} otherwise. *)

val sharding : state -> Dsm_memory.Shard.t option

val subscriptions : state -> (int * int list) list
(** Per shard, the current subscribers ascending — [[]] without sharding.
    Exposed so the model checker can fingerprint the share-set state. *)

val watched : state -> me:int -> peer:int -> bool
(** Whether [me]'s failure detector watches [peer] — and so whether
    [peer] heartbeats [me].  Under sharding the relation is directed:
    [me] watches [peer <> me] iff [peer] is a ring member of some shard
    [me] subscribes to, and [peer] beats exactly its own shard's
    share-set.  Without sharding every peer is watched.  [false] without
    failover. *)

val backup_of : state -> serving:int -> int option
(** The designated backup of whatever [serving] certifies: its ring
    successor; [None] in a single-node cluster. *)

val view : state -> (int * int * int) list
(** Cluster-wide view: per base with any takeover, the highest epoch any
    node has adopted, as [(base, epoch, serving)] ascending by base. *)

val dropped_at_crashed : state -> int

val takeovers : state -> int

val shadow_degraded : state -> int

val redirects : state -> int
(** Client requests re-sent after an epoch-fencing [Stale_epoch] reply. *)

val shadow_reads : state -> int
(** Client reads served from a backup's shadow copy while the owner was
    suspected. *)

val partition_degraded : state -> int -> bool
(** Whether one node is currently in read-only degraded mode. *)

val votes_granted : state -> int
(** OWNER_VOTE grants sent, cluster-wide. *)

val degraded_refusals : state -> int
(** Write requests silently refused by degraded owners. *)

val partition_heals : state -> int
(** Degraded owners that regained quorum contact ([Partition_healed]). *)

val candidacies : state -> int -> (int * int * int list) list
(** One node's open takeover canvasses as [(base, epoch, granting peers
    ascending)], ascending by base; exposed so the model checker can
    fingerprint the full protocol state. *)

val vote_promises : state -> int -> (int * int * int) list
(** One node's outstanding vote promises as [(base, epoch, candidate)],
    ascending by base; exposed for model-checker fingerprinting. *)

val suspect_events : state -> int

val unsuspect_events : state -> int

val suspected_by : state -> int -> int list
(** Peers currently suspected by one node, ascending. *)

val shadow_pending_list : state -> int -> (int * completion) list
(** One node's in-flight shadow replications awaiting acknowledgement, as
    [(seq, completion)] ascending by seq.  Exposed so the model checker can
    fingerprint the full protocol state. *)

val shadow_seqno : state -> int
(** The next shadow sequence number to be allocated (cluster-global). *)

type client
(** A client operation parked on a request (what was asked, of whom, its
    redirects and attempts). *)

val parked : state -> int -> (int * client) list
(** One node's parked client operations as [(req, operation)] ascending by
    request tag.  Exposed so the model checker can fingerprint the full
    protocol state. *)

val checkpoint_round : state -> int -> int
(** The highest coordinated round one node has snapshotted; 0 before any.
    Monotone, and deliberately not reset by crash/restart — the snapshot it
    names is on stable storage. *)

val checkpoint_rounds_started : state -> int
(** Coordinated rounds initiated ({!event.Begin_checkpoint} at a live
    node). *)

val checkpoint_rounds_completed : state -> int
(** Rounds whose initiator collected every participant's [Cp_ack] — stable
    recovery lines.  A round with a crashed participant never completes
    (and blocks nothing). *)

val checkpoint_acks_pending : state -> int -> (int * int) list
(** One node's open initiated rounds as [(round, acks received)] ascending
    by round; exposed so the model checker can fingerprint the full
    protocol state. *)
