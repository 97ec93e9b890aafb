(** Partial-replication benchmark: an identical Zipfian, own-shard-skewed
    workload measured under full replication and under interest-based
    sharding (rings of eight) at 16, 32 and 64 nodes, compared on protocol
    messages per operation and metadata bytes per operation.
    Everything is seed-deterministic. *)

val run : quick:bool -> seed:int64 -> Report.row list * Report.check list
(** Sizes 16/32/64 with 24 ops per client, or 16/64 with 8 per client
    under [~quick:true]; rows [n<nodes>.full] and [n<nodes>.partial].
    Checks: every history checked and causal with no stuck process,
    partial replication strictly fewer logical messages than full at every
    size, and at 64 nodes partial beats full on both messages/op and
    bytes/op. *)
