(** The [dsm bench] workloads that run rows of {!Chaos.table} over seeds.
    Each report row sums its runs: operations, latency percentiles and
    logical messages per op, with the chaos counters as layer figures.
    Everything is seed-deterministic. *)

val transport : quick:bool -> seeds:int64 list -> Report.row list * Report.check list
(** The [mix] row at its default faults (5% loss, 1% duplication), once with
    {!Dsm_net.Reliable.default_config} and once with
    {!Dsm_net.Reliable.batching_config}.  Checks: no process left blocked,
    and batching removes physical frames rather than adding them. *)

val partition : quick:bool -> seeds:int64 list -> Report.row list * Report.check list
(** The [partition] and [split-brain] rows, with the majority and minority
    sides' completed operations inside the partition window.  Checks: every
    run healthy, and the majority side at least 90% available. *)

val objects : quick:bool -> seed:int64 -> Report.row list * Report.check list
(** Every [obj-*] row on loss-free links: 3 processes and 3 update rounds
    with [~quick:true], 4 and 6 otherwise.  Checks, per family: every query
    spec-legal, final views converged, the run healthy, nobody blocked. *)
