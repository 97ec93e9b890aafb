(** Timeout-based failure detection over heartbeat gossip.

    Each node beats every [period] of simulated time (the cluster layer
    sends the actual messages); a peer that has not been heard from for
    [suspect_after] whole periods is {e suspected}.  Any message from a
    suspected peer — heartbeat or protocol traffic — unsuspects it
    immediately, so the detector is eventually accurate in the partial-synchrony
    sense: wrong suspicions are corrected on the next contact.

    The detector never suspects the node it runs on, and it makes no
    liveness decision itself — the cluster layer reads {!tick}'s newly
    suspected peers to drive ownership handoff. *)

type config = {
  period : float;  (** heartbeat interval in simulated time *)
  suspect_after : int;  (** whole silent periods tolerated before suspicion *)
}

val default_config : config
(** period 25.0, suspect_after 3 — several RPC round trips of slack over
    {!Dsm_net.Latency.lan} so loss alone rarely triggers a false suspicion. *)

val validate : config -> unit
(** Raises [Invalid_argument] unless [period > 0] and [suspect_after >= 1]. *)

type t

val create : config -> nodes:int -> me:int -> now:float -> t
(** A detector for node [me] in a cluster of [nodes]; every peer counts as
    heard at [now], so nothing is suspected before a full silence window
    elapses. *)

val set_watched : t -> peer:int -> bool -> unit
(** Scope monitoring (partial replication): only watched peers are ever
    suspected by {!tick}.  Everyone is watched after {!create}; sharding
    narrows the mask to the ring members of the shards the node
    subscribes to — silence from any other node drives no decision here.
    The protocol heartbeats a node exactly from the peers that watch it.
    Unwatching a currently suspected peer clears the suspicion (without
    counting an unsuspect event). *)

val watched : t -> peer:int -> bool

val heard : t -> peer:int -> now:float -> bool
(** Record contact with [peer]; [true] iff this unsuspected it. *)

val reset : t -> now:float -> unit
(** Count every peer as heard at [now] and clear all suspicions (without
    counting unsuspect events).  Called on restart: a node heard nothing
    while it was down, and must not suspect the whole cluster on its first
    post-restart tick. *)

val tick : t -> now:float -> int list
(** Re-evaluate all peers at [now]; returns the peers that just became
    suspected (ascending), each counted once until unsuspected again. *)

val stale : t -> peer:int -> now:float -> bool
(** [peer] is suspected, or has been silent at this node for longer than
    the suspicion window as of [now] — even if no {!tick} has run to
    promote that silence into a suspicion.  This is the check-quorum test
    an OWNER_VOTE voter applies to the incumbent server: granting a vote
    against a server the voter itself heard from recently would let one
    node's transient false suspicion depose a perfectly healthy owner. *)

val suspected : t -> int -> bool

val suspected_now : t -> int list
(** Currently suspected peers, ascending. *)

val suspect_events : t -> int
(** Lifetime count of suspect transitions. *)

val unsuspect_events : t -> int
(** Lifetime count of unsuspect transitions (recoveries from suspicion). *)
