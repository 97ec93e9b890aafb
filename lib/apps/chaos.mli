(** Seeded fault-injection ("chaos") scenarios for the causal DSM: one
    {!table} of rows, one {!run}.

    A row holds only what differs between scenarios: the cluster {!shape}
    (owner map or shard layout, config, default detector and checkpoint
    period, timed {!Nemesis} plan), one client program per process, an
    optional post-quiescence step and its notes.  {!run} does the rest
    once: engine, scheduler, a cluster over a lossy, duplicating network
    with the {!Dsm_net.Reliable} transport and RPC timeouts interposed, the
    online checker, one PRNG split per seeded process, spawn, quiescence,
    [failed:] notes and the {!report}: whether the recorded history is
    still causally correct, how hard the reliability machinery worked, and
    whether any process was left blocked.

    A crash of a node that runs a client fires only at that client's
    operation boundary, through the run's one {!Nemesis}: the client
    registers it itself (crash-restart, owner-crash, failover, shard), or,
    when every node goes down, the last client to finish its phase does
    (power-failure).  Cuts and heals are timed plan steps.

    Everything is driven by the seeded simulation PRNG, so a
    [(scenario, knobs, seed, sizes)] tuple reproduces bit-identically.
    The [chaos] and [trace] subcommands of [dsm_cli] are thin wrappers
    over {!run}.

    {2 The catalogue}

    - [mix]: the standard random read/write mix ({!Workload.default_spec}).
    - [dictionary]: the Section 4.2 dictionary: concurrent inserts,
      cross-process deletes and refreshes; notes whether all final views
      agree (["views_converged"]).
    - [solver]: the Figure 6 synchronous Jacobi solver; notes the max
      difference from the sequential reference (["max_diff"],
      ["bit_exact"]).
    - [crash-restart]: an extra cache-only node warms its cache, crashes
      (losing all volatile state), restarts and resumes.
    - [owner-crash]: a serving owner crashes for good; its backup must
      suspect it, promote itself under epoch 1 and serve the clients'
      phase-2 operations (notes: takeover epoch, new owner, shadow reads).
    - [failover]: [owner-crash] plus recovery: the victim restarts, replays
      its log, is demoted by heartbeat gossip (["victim_demoted"]) and
      finishes as a client of its replacement.
    - [power-failure]: every node owns a slice and runs a client; periodic
      checkpoints and one coordinated round, then every node crashes at
      once after the last client's phase 1 and restarts from its latest
      snapshot plus log suffix.  Notes ["recoveries"],
      ["replayed_records"] and ["recovery_lines"]; host-time replay cost
      is {!Recovery_bench}'s job.
    - [partition]: a timed cut isolates owner 0 (t=10..50); it degrades
      to read-only while the majority's quorum canvass promotes its
      backup; after the heal it is demoted and reconciles via FRONTIER.
    - [split-brain]: the cut takes owner 0 {e and} its backup; base 0
      stays unavailable-but-consistent while base 1 is taken over from the
      majority side, which needs node 1 to have degraded on quorum loss.
    - [shard]: nine nodes in three rings; a cut and an owner crash aimed at
      shard 0 only, and shards 1 and 2 must stay at 100% through both
      (["fault_isolated"]); node 8's late subscribe exercises the
      SUB_REQ/SUB_REPLY catch-up.
    - [obj-counter], [obj-gset], [obj-2pset], [obj-queue], [obj-dict],
      [obj-board]: one per [Causal_object] instance; [causal_ok] also
      requires every recorded query to be spec-legal
      ({!Dsm_checker.Causal_check.check_objects}, ["object_ok"]) and the
      final queries to agree.  [knobs.mutation = Merge_drops_op] breaks the
      clients' merge, which only the object level can see. *)

type knobs = {
  drop : float;  (** per-message loss probability, both directions *)
  duplicate : float;  (** per-message duplication probability *)
  reliability : Dsm_net.Reliable.config;
  rpc : Dsm_causal.Cluster.rpc option;  (** [None] = unbounded blocking *)
  detector : Dsm_causal.Detector.config option;
      (** [None] = the row's default: no heartbeats or failover, except
          for the owner-crash, failover, partition and shard rows, which use
          period 5.0, suspect_after 3 *)
  online_check : bool;
      (** run {!Dsm_checker.Online} against the event bus while the
          scenario executes; the first illegal read fails the run
          ({!healthy}) even if the post-hoc check would be cut off by the
          history-size cap *)
  online_window : int option;
      (** bound the online checker's memory to O(window^2)
          ({!Dsm_checker.Online.create}); [None] = unbounded *)
  mutation : Dsm_causal.Config.mutation;
      (** break one Figure-4 rule (see {!Dsm_causal.Config.mutation}), so
          tests can prove the checkers catch real protocol bugs *)
  trace : Dsm_causal.Trace.t option;
      (** attach this event bus to the cluster ([dsm trace] passes a
          recording bus).  [None] with [online_check] creates a private
          non-recording bus. *)
}

val default_knobs : knobs
(** 5% loss, 1% duplication, {!Dsm_net.Reliable.default_config}, RPC
    timeout 100.0 with 5 retries, the row's detector, no online checking,
    no mutation, no trace bus.  Links always have LAN latency. *)

(** {1 The table} *)

type proc =
  | Seeded of string * (Dsm_util.Prng.t -> unit)
      (** takes the next split of the run's PRNG, in spawn order *)
  | Unseeded of string * (unit -> unit)  (** draws nothing *)
(** A named process; {!run} spawns a row's processes in list order. *)

type program = {
  procs : proc list;
  collect : (unit -> unit) option;
      (** one more process, ["collect"], run after quiescence *)
  notes : unit -> (string * string) list;  (** read after [collect] *)
  verdict : unit -> bool;  (** anded into [causal_ok] *)
}

type env = {
  cluster : Dsm_causal.Cluster.t;
  engine : Dsm_sim.Engine.t;
  nemesis : Nemesis.t;  (** the run's one nemesis, plan already registered *)
  seed : int64;
  clients : int;
  ops : int;
  knobs : knobs;
}

type shape = {
  owner : Dsm_memory.Owner.t;
  sharding : Dsm_memory.Shard.t option;
  config : Dsm_causal.Config.t option;
  detector : Dsm_causal.Detector.config option;  (** when [knobs.detector] is [None] *)
  checkpoint_every : float option;
  plan : Nemesis.step list;  (** timed faults, registered before any spawn *)
}

type row = {
  name : string;
  seed : int64;  (** default seed *)
  clients : int;  (** default client count *)
  min_clients : int;
  ops : int;  (** default ops per client, per phase or per round *)
  shape : int -> shape;  (** by client count *)
  program : env -> program;  (** built on the live cluster, before any spawn *)
}

val table : row list

val scenarios : string list
(** The rows' names, in table order. *)

(** {1 Running} *)

type report = {
  scenario : string;
  processes : int;
  ops : int;  (** operations in the recorded history *)
  latencies : float list;
      (** per recorded operation, completion minus issue (sim time), in
          completion order *)
  causal_ok : bool;  (** {!Harness.check_history}'s verdict (and the row's) *)
  history_checked : bool;
      (** [false] when the history was too long for the post-hoc check
          ({!Harness.causal_verdict}); [causal_ok] then holds only the
          row's verdict *)
  sim_time : float;
  messages : int;  (** physical frames, including acks and retransmissions *)
  logical_messages : int;
      (** protocol payloads handed to the transport — the paper's
          accounting unit, invariant under batching/ack coalescing *)
  dropped : int;
  duplicated : int;
  transport : Dsm_net.Reliable.counters;
  rpc_timeouts : int;
  stale_replies : int;
  crashes : int;  (** crash-stop events the nemesis injected *)
  suspects : int;  (** detector suspect transitions, all nodes *)
  unsuspects : int;  (** detector recoveries from suspicion *)
  takeovers : int;  (** ownership promotions performed by backups *)
  view : (int * int * int) list;
      (** [(base, epoch, serving)] for every base owner deposed by a
          takeover *)
  unfinished : (string * float) list;
      (** processes left blocked at quiescence, with blocked-since times —
          must be empty for a healthy run *)
  stats : Dsm_causal.Node_stats.cluster;  (** every cluster counter *)
  online_checked : bool;
  online_violation : string option;
      (** first violation the online checker flagged mid-run *)
  notes : (string * string) list;
      (** the online checker's [online_*] counts, the row's notes, the
          nemesis log ([nemesis_<i>]), then one ["failed:<proc>"] entry per
          process that raised *)
}

val run : ?knobs:knobs -> ?seed:int64 -> ?clients:int -> ?ops:int -> string -> report
(** Run the named row; [seed], [clients] and [ops] default to the row's.
    [Invalid_argument] on an unknown name or sizes below the row's
    minimum. *)

val note_int : report -> string -> int
(** A note parsed as an integer; 0 when absent or not a number. *)

val pp_report : Format.formatter -> report -> unit

val healthy : report -> bool
(** [causal_ok && unfinished = [] && online_violation = None] — the chaos
    pass/fail criterion. *)
