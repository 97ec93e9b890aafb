(** Whole-cluster recovery benchmark: how much work a restart replays, and
    how long it takes, with and without checkpointing.

    Each grid cell runs a pure owner-write workload (every node writes its
    own locations once per unit of sim time) to quiescence, then
    power-cycles the whole cluster — crash every node, restart every node —
    many times, measuring the replayed-record count and the host time spent
    in {!Dsm_causal.Cluster.restart_result}'s replay path.  Cells vary the
    per-node operation count and toggle periodic checkpointing every 5.0
    units of sim time.

    The claim: with a fixed checkpoint interval, recovery work is bounded by
    records-since-checkpoint and stays roughly flat as the total log grows,
    while the uncheckpointed replay grows linearly with it.  Replay counts
    are seed-deterministic; only [cluster.seconds_per_recovery] is a
    host-time measurement. *)

val run : quick:bool -> seed:int64 -> Report.row list * Report.check list
(** Per-node op counts 50–400 with 25 cycles per cell, or 50–100 with 10
    cycles under [~quick:true]; rows [checkpointed.<ops>] and
    [uncheckpointed.<ops>].  Checks: the worst checkpointed replay below the
    worst uncheckpointed one, and no process left blocked. *)
