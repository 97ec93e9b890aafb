(** Seeded fault-injection ("chaos") harness for the causal DSM.

    Each scenario builds a cluster over a lossy, duplicating network with
    the {!Dsm_net.Reliable} sliding-window transport and RPC timeouts
    interposed, runs a workload to quiescence, and reports what happened:
    whether the recorded history is still causally correct, how hard the
    reliability machinery worked (retransmissions, duplicate suppression,
    RPC timeouts), and whether any process was left blocked forever.

    Everything is driven by the seeded simulation PRNG, so a given
    [(scenario, knobs, seed)] triple reproduces bit-identically — the same
    history, the same retransmission count.  The [chaos] subcommand of
    [dsm_cli] is a thin wrapper over {!run}. *)

type knobs = {
  drop : float;  (** per-message loss probability, both directions *)
  duplicate : float;  (** per-message duplication probability *)
  latency : Dsm_net.Latency.t;
  reliability : Dsm_net.Reliable.config;
  rpc : Dsm_causal.Cluster.rpc option;  (** [None] = unbounded blocking *)
  detector : Dsm_causal.Detector.config option;
      (** [None] = no heartbeats or failover; the owner-crash scenarios
          substitute a fast detector (period 5.0, suspect_after 3) when
          this is [None] *)
  checkpoint_every : float option;
      (** start periodic uncoordinated checkpoints at this sim-time period
          (each snapshot compacts the log behind it); [None] = never.  The
          power-failure scenario substitutes a 4.0 period when [None]. *)
  online_check : bool;
      (** run {!Dsm_checker.Online} against the event bus while the
          scenario executes; the first illegal read fails the run
          ({!healthy}) even if the post-hoc check would be cut off by the
          history-size cap *)
  online_window : int option;
      (** bound the online checker's memory to O(window^2)
          ({!Dsm_checker.Online.create}); [None] = unbounded.  Only
          meaningful with [online_check = true]. *)
  mutation : Dsm_causal.Config.mutation;
      (** fault injection: break one Figure-4 rule (see
          {!Dsm_causal.Config.mutation}), deliberately compromising causal
          consistency — exists so tests can prove the checkers catch real
          protocol bugs *)
  trace : Dsm_causal.Trace.t option;
      (** attach this event bus to the cluster (the [dsm trace] subcommand
          passes a recording bus and dumps it afterwards).  [None] with
          [online_check = true] creates a private non-recording bus. *)
}

val default_knobs : knobs
(** 5% loss, 1% duplication, LAN latency, {!Dsm_net.Reliable.default_config},
    RPC timeout 100.0 with 5 retries, no failure detector, no online
    checking, no fault injection, no trace bus. *)

type report = {
  scenario : string;
  processes : int;
  ops : int;  (** operations in the recorded history *)
  causal_ok : bool;  (** {!Dsm_checker.Causal_check} verdict (histories over
                         6000 ops are assumed correct, as in {!Harness}) *)
  sim_time : float;
  messages : int;  (** physical frames on the wire, including acks and
                       retransmissions *)
  logical_messages : int;
      (** protocol payloads handed to the transport — the paper's
          accounting unit, invariant under batching/ack coalescing *)
  dropped : int;
  duplicated : int;
  transport : Dsm_net.Reliable.counters;
  rpc_timeouts : int;
  stale_replies : int;
  crashes : int;  (** crash-stop events injected *)
  suspects : int;  (** detector suspect transitions, all nodes *)
  unsuspects : int;  (** detector recoveries from suspicion *)
  takeovers : int;  (** ownership promotions performed by backups *)
  view : (int * int * int) list;
      (** final cluster-wide ownership view: [(base, epoch, serving)] for
          every base owner deposed by a takeover *)
  unfinished : (string * float) list;
      (** processes left blocked at quiescence, with blocked-since times —
          must be empty for a healthy run *)
  stats : Dsm_causal.Node_stats.cluster;
      (** every cluster counter in one record — what the health line
          prints *)
  online_checked : bool;  (** the online checker ran during this scenario *)
  online_violation : string option;
      (** first violation the online checker flagged mid-run ([None] when
          clean or when [online_check] was off); ["online_ops"] /
          ["online_checks"] / ["online_edges"] notes record its work *)
  notes : (string * string) list;  (** scenario-specific facts, including
                                       ["failed:<proc>"] entries for any
                                       process that raised *)
}

val mix :
  ?knobs:knobs -> ?seed:int64 -> ?spec:Workload.spec -> unit -> report
(** The standard random read/write mix under faults. *)

val dictionary :
  ?knobs:knobs -> ?seed:int64 -> ?processes:int -> ?rounds:int -> unit -> report
(** The Section 4.2 dictionary: concurrent inserts, cross-process deletes
    and refreshes under loss; notes record whether all final views agree
    (["views_converged"]) and the final item count. *)

val solver :
  ?knobs:knobs -> ?seed:int64 -> ?n:int -> ?iters:int -> unit -> report
(** The Figure 6 synchronous Jacobi solver under loss; notes record the
    max difference against the sequential reference (["max_diff"],
    ["bit_exact"] — the handshake protocol must still compute exact
    phase-[k-1] values whatever the network does). *)

val crash_restart :
  ?knobs:knobs -> ?seed:int64 -> ?clients:int -> ?ops_per_client:int -> unit -> report
(** Crash-stop and restart a non-owner node mid-run: [clients] owner nodes
    run the random mix while an extra cache-only node warms its cache,
    crashes (losing all volatile state), restarts, and resumes.  The
    combined history must remain causally correct across the discard. *)

val owner_crash :
  ?knobs:knobs -> ?seed:int64 -> ?clients:int -> ?ops_per_client:int -> unit -> report
(** Crash a {e serving owner} for good mid-workload.  Its designated backup
    (which shadows every acknowledged write) must suspect the silence,
    promote itself under epoch 1 and serve the clients' phase-2 operations
    on the victim's locations; notes record the takeover epoch, the new
    owner, and how many reads were served from shadow copies during the
    outage.  Requires [clients >= 2] (the backup must not be the only other
    node doing work). *)

val failover :
  ?knobs:knobs -> ?seed:int64 -> ?clients:int -> ?ops_per_client:int -> unit -> report
(** {!owner_crash} plus recovery: the victim restarts after the takeover,
    replays its write-ahead log, is demoted by heartbeat gossip (notes
    record ["victim_demoted"]), and finishes the run as a client of the
    node that replaced it. *)

val power_failure :
  ?knobs:knobs -> ?seed:int64 -> ?clients:int -> ?ops_per_client:int -> unit -> report
(** Whole-cluster power failure and recovery.  Every node owns a slice of
    the namespace and runs a client; periodic checkpoints compact each log
    and one coordinated round establishes a cluster-wide recovery line;
    then {e every} node crashes at once and restarts 30 time units later
    from its latest complete snapshot plus log suffix.  The combined
    phase-1/phase-2 history must remain causally correct — the
    WAL-before-reply discipline guarantees recovery restores the exact
    durable frontier.  Notes record ["recoveries"], ["replayed_records"]
    and ["recovery_lines"] — all seed-deterministic; host-time replay cost
    is {!Dsm_apps.Recovery_bench}'s job, keeping this report bit-identical
    per seed. *)

val partition :
  ?knobs:knobs -> ?seed:int64 -> ?processes:int -> ?ops_per_phase:int -> unit -> report
(** Symmetric network partition isolating one serving owner (node 0) from
    the other [processes - 1] nodes, driven by a {!Nemesis} plan: cut at
    t=10, heal at t=50, with client phases before, inside and after the
    window.  During the cut the isolated owner observes quorum loss and
    degrades — its client's local writes are refused while its reads keep
    serving — and the majority collects OWNER_VOTEs and promotes the
    designated backup over the victim's base; after the heal the deposed
    owner is demoted by gossip and reconciles via FRONTIER.  Notes record
    ["refused_writes"], ["partition_heals"], ["votes_granted"],
    ["resyncs"] and the nemesis log.  Requires [processes >= 3]. *)

val split_brain :
  ?knobs:knobs -> ?seed:int64 -> ?processes:int -> ?ops_per_phase:int -> unit -> report
(** The adversarial variant of {!partition}: the cut takes {e both} node 0
    and node 1 — a serving owner together with its designated backup — to
    the minority side.  Base 0 can never be taken over (its only backup is
    cut off too), so it stays unavailable-but-consistent; base 1's backup
    (node 2) sits on the majority side and deposes the still-live node 1,
    which must have degraded on quorum loss for the combined history to
    stay causally correct — the split-brain the quorum canvass exists to
    prevent.  Both minority owners degrade and both un-degrade on heal
    (["partition_heals"] >= 2; loss-induced transient degrades on the
    majority side can add more). *)

val shard :
  ?knobs:knobs -> ?seed:int64 -> ?ops_per_phase:int -> unit -> report
(** Fault isolation under partial replication: nine nodes in three shard
    rings of three (ring quorum 2), a skewed workload in which each client
    mostly touches its own shard, and two faults aimed only at shard 0 — a
    partition isolating ring member 2 (t=10..30), then a crash-stop of
    serving owner 0 at t=40 (later if node 0's client is still in phase
    2: the client crashes its own node between operations), whose ring
    successor wins a {e shard-local} canvass and takes over.  Notes
    record per-shard availability inside each fault window
    (["partition_shard<i>"], ["crash_shard<i>"]) and
    ["fault_isolated"] — shards 1 and 2 must stay at 100% through both
    shard-0 faults.  Node 8's explicit subscribe into shard 0 during
    phase 3 exercises the SUB_REQ/SUB_REPLY catch-up transfer
    (["shard0_subscribers"] lists the resulting share-set). *)

module Objects : sig
  type inst = {
    obj : string;  (** the family name, stamped on query trace milestones *)
    update : Dsm_util.Prng.t -> round:int -> unit;
    query : unit -> string;
    queries : unit -> Dsm_checker.Obj_check.query list;
  }
  (** One attached object client, behind closures: the instances' op types
      differ, so the scenario runner drives them uniformly. *)

  val drivers : (string * (buggy:bool -> Dsm_causal.Cluster.handle -> inst)) list
  (** Scenario name -> client builder, one per shipped instance. *)
end

val object_scenario :
  scenario:string ->
  make:(buggy:bool -> Dsm_causal.Cluster.handle -> Objects.inst) ->
  ?knobs:knobs ->
  ?seed:int64 ->
  ?processes:int ->
  ?rounds:int ->
  unit ->
  report
(** Causal objects under loss: every process attaches a client of one
    [Causal_object] instance, interleaves spec-level updates with queries,
    and queries once more after quiescence.  [causal_ok] additionally
    requires every recorded query return to be spec-legal under some
    causal-past linearization of its observed context
    ({!Dsm_checker.Causal_check.check_objects}, noted as ["object_ok"])
    and all final returns to agree (["views_converged"]).  With
    [knobs.mutation = Merge_drops_op] the clients' merge silently drops
    the causally greatest observed update — caught only at the object
    level.  The named drivers in {!Objects.drivers} ([obj-counter],
    [obj-gset], [obj-2pset], [obj-queue], [obj-dict], [obj-board]) are
    all reachable through {!run}. *)

val scenarios : string list
(** Names accepted by {!run}, in presentation order. *)

val run : ?knobs:knobs -> ?seed:int64 -> string -> report
(** Run a scenario by name with default sizes; [Invalid_argument] on an
    unknown name. *)

val pp_report : Format.formatter -> report -> unit

val healthy : report -> bool
(** [causal_ok && unfinished = [] && online_violation = None] — the chaos
    pass/fail criterion. *)
