(** The hot-path workloads: the flat data path against [Protocol.step], the
    domain-parallel engine, and the windowed online checker's overhead. *)

val micro : quick:bool -> seed:int64 -> Report.row list * Report.check list
(** The flat owner write against the boxed [Protocol.step] on one 2-node,
    1-location shape over 2M iterations (400k with [~quick:true]), in ten
    alternating batches; a fresh 256-node engine's heap and its first 100k
    ops, from [seed]; the window-64 online checker fed the op stream of
    such an engine, recorded beforehand (100k ops, 25k with
    [~quick:true]); and the other hot paths (vector clocks, the event
    queue, the checkers, a cluster round trip, a heartbeat tick, a flat
    remote-write cycle), hand-timed.  Checks: flat at least 5x faster (the
    median of the batches' ratios) with at most 0.01 minor- and 0.01
    major-heap words per op, at most 4 MB held by the engine, at most 1
    minor word per op in its first 100k ops, and at most 16 minor words per
    op in the online checker. *)

val core : quick:bool -> seed:int64 -> Report.row list * Report.check list
(** 256 nodes and 1M ops at 1, 2 and 4 domains (64 nodes and 100k ops with
    [~quick:true]), then an unchecked and an online-checked run (window 64)
    on one domain.  Checks: identical digests and op counts across domain
    counts, every cell at its target, checked throughput at least half of
    unchecked, no violation and no pending read. *)
