(** One small-scope system under model checking: the pure protocol core
    plus just enough shell to drive client programs through it.

    A {!t} bundles a {!Dsm_protocol.Protocol.state} with explicit message
    queues (one FIFO per directed node pair), the per-process client
    programs of a {!Gen.scope}, and the write-ahead logs.  Client
    operations are the core's own [Issue_read]/[Issue_write] — the client
    half [Cluster] runs, guard, redirects and degraded shadow reads
    included — and each reply is fed back as soon as it is handed over.
    What stays here is this shell's own: the choice enumeration, recording
    every write at issue, and abandoning a process's program when its
    operation gives up.  Everything nondeterministic is reified as a
    {!choice}; {!apply} makes exactly one choice happen, deterministically.
    The explorer owns the search; this module owns the semantics.

    Scope bounds (deliberate, documented in docs/CHECKERS.md): per-pair
    FIFO links (the reliable transport's guarantee); at most one crash,
    whose takeover is a single late heartbeat tick at the designated
    backup and whose restart synchronises the cluster view atomically; no
    grace-timer expiry; a crashed node's remaining client program is
    abandoned; no RPC retries (a dropped request parks its issuer, which
    is still a valid terminal prefix).

    The {!Gen.Power} fault swaps the single-victim schedule for a
    whole-cluster one: one coordinated checkpoint round may begin at any
    point, one power failure crashes every node at once after it (clearing
    all links), and one repowering restarts everyone from whatever each
    retained log replays.  Client processes survive the outage — a parked
    read is retried, a parked remote write abandons its program (its
    certification fate is unknowable).

    The {!Gen.Partition} fault models one symmetric network partition:
    cross-side messages freeze in their queues while it is open (released
    intact by the heal — the reliable layer's retransmission backlog
    surviving a cable cut), each side's detector may fire once
    (side-aware: synthetic same-side heartbeats keep a node from
    suspecting its own partition), and an extra inline invariant — the
    {e dual-certification} split-brain oracle — flags any state where two
    live, non-degraded nodes both accept writes for one base under
    different epochs during the partition window.  The takeover tick is
    gated behind the degrade tick, encoding the lease-timing assumption
    that a quorum canvass's round trip gives the cut-off owner time to
    fence itself; the [Takeover_without_quorum] mutation lifts the gate
    along with the votes, making the split-brain interleaving reachable
    (and caught).

    Verdicts come from three layers: inline invariants checked during
    {!apply} (served-entry monotonicity, reply fencing, per-process read
    causality), the incremental {!Dsm_checker.Online} checker fed as
    operations complete, and the authoritative post-hoc
    {!Dsm_checker.Causal_check} over the recorded history at terminal
    states ({!posthoc_violation}). *)

type choice =
  | Issue of int  (** process [pid] issues its next program operation *)
  | Deliver of { src : int; dst : int }  (** deliver the head of one link *)
  | Drop_msg of { src : int; dst : int }  (** adversary drops the head *)
  | Dup_msg of { src : int; dst : int }  (** adversary duplicates the head *)
  | Crash_victim  (** crash the scope's designated victim *)
  | Takeover_tick  (** late heartbeat tick at the victim's backup *)
  | Restart_victim  (** restart the victim from its write-ahead log *)
  | Begin_cp  (** node 0 initiates one coordinated checkpoint round *)
  | Power_failure  (** crash every node at once, losing in-flight traffic *)
  | Recover_all  (** repower: restart every node from its retained log *)
  | Install_partition  (** open the scope's partition: cross-side traffic freezes *)
  | Degrade_tick  (** detector tick at the cut-off owner: it observes quorum loss *)
  | Heal_partition  (** close the partition, releasing the frozen traffic *)

val pp_choice : Format.formatter -> choice -> unit

type t

val init : ?tracing:bool -> Gen.scope -> t
(** A fresh system at the scope's initial state.  With [~tracing:true]
    every wire, protocol and application event is recorded for
    {!trace_events} (used when rendering counterexamples; exploration
    runs untraced). *)

val enabled : t -> choice list
(** The choices schedulable now, in a fixed deterministic order.  Empty
    once a violation is flagged (the execution is the counterexample) or
    the system is quiescent with nothing left to run. *)

val choice_enabled : t -> choice -> bool

val apply : t -> choice -> unit
(** Perform one enabled choice, mutating the system in place.  The caller
    must only pass members of {!enabled} (the shrinker uses
    {!choice_enabled} to replay leniently). *)

val violation : t -> (int * string) option
(** First violation flagged online (inline invariant or incremental
    checker), as [(node, reason)]. *)

val posthoc_violation : t -> (int * string) option
(** The authoritative Definition-1 verdict over the history recorded so
    far ({!Dsm_checker.Causal_check.check}). *)

val history : t -> Dsm_memory.Op.t array array
(** Per-process recorded operations in program order, suitable for
    {!Dsm_memory.History.of_ops}. *)

val op_count : t -> int

val completed : t -> bool
(** Every program ran to completion and nobody is blocked. *)

val read_values : t -> int -> Dsm_memory.Value.t list
(** The values process [pid]'s reads returned, in program order. *)

val queries : t -> Dsm_checker.Obj_check.query list
(** The object queries issued so far, oldest first — [q_pid] and [q_ret]
    let a litmus test assert which spec-level returns an interleaving
    produced. *)

val trace_events : t -> Dsm_protocol.Trace.event list
(** The recorded event stream (empty unless [init ~tracing:true]);
    [seq] doubles as the logical time stamp. *)

val fingerprint : t -> string
(** Canonical digest of the behaviorally relevant state, for stateful
    de-duplication.  Two systems with equal fingerprints have identical
    future behavior (histories are fingerprinted per process, so
    commuting interleavings converge). *)

val independent : t -> choice -> choice -> bool
(** Conservative independence for sleep-set pruning: only two message
    deliveries with disjoint endpoint sets commute (and not even those
    when both would allocate a cluster-global shadow sequence number). *)
