(** A Jepsen-style nemesis: timed fault plans against a running cluster.

    A plan is a list of {!step}s — at simulated time [at], inject [fault].
    {!schedule} registers every step on the engine up front and returns a
    counter record the scenario reads after the run; faults then fire as
    the simulation reaches their timestamps, like Jepsen's nemesis process
    interleaving with the workload — and, like it, whatever the clients
    are doing.

    That is only safe for faults that no client can be caught inside: cuts
    and heals, and crashes of nodes that run no client.  A timed [Crash]
    can land while the node's own client has an operation in flight, and
    the history recorder cannot represent an operation whose outcome is
    unknown: the owner may have certified a write whose client then
    failed, and a later read of it is rejected as reading from a write
    missing from the history.  So a crash of a node that runs a client
    fires at that client's operation boundary: the client itself
    registers it, with {!add} (a window inside its own coming sleep) or
    {!inject} (now).  When every node goes down at once, the last client
    to finish its phase registers the outage for everyone.

    Partition faults drive the cluster's link-state controls
    ({!Dsm_causal.Cluster.partition} and friends), so healing a cut also
    triggers the reliable transport's link resynchronisation.  [Crash] and
    [Restart] use the [_result] variants: crashing a dead node or
    restarting a live one is counted as a no-op, which lets plans stay
    declarative even when an earlier fault already changed the state. *)

type fault =
  | Cut of { a : int list; b : int list }
      (** symmetric partition between the two groups *)
  | Cut_oneway of { src : int list; dst : int list }
      (** asymmetric: only [src]→[dst] links go down *)
  | Heal of { a : int list; b : int list }  (** restore both directions *)
  | Heal_all  (** restore every downed link *)
  | Crash of int
  | Restart of int

type step = { at : float; fault : fault }

type t
(** Counters accumulated as scheduled faults actually fire. *)

val schedule : Dsm_sim.Engine.t -> Dsm_causal.Cluster.t -> step list -> t
(** Register every step with the engine; returns the live counters. *)

val add : t -> step list -> unit
(** Register more steps with the engine, counted and logged by [t]. *)

val inject : t -> fault -> unit
(** Apply [fault] now, counted and logged like a scheduled step. *)

val cuts : t -> int
val heals : t -> int
val crashes : t -> int
val restarts : t -> int

val log : t -> (float * string) list
(** The faults that fired, oldest first, with their fire times. *)

val notes : t -> (string * string) list
(** {!log} rendered as report notes ([nemesis_0], [nemesis_1], …). *)

val describe : fault -> string

val partition_window : from_:float -> until:float -> a:int list -> b:int list -> step list
(** Cut the two groups apart at [from_], heal them at [until]. *)

val crash_window : from_:float -> until:float -> int -> step list
(** Crash the node at [from_], restart it at [until]. *)
