(** Online causal checking: feed operations to the checker as they complete.

    {!Causal_check} is post-hoc — it needs the whole execution before it can
    say anything, so a chaos run only learns it violated causality after the
    workload finishes.  This module maintains the causality graph
    {e incrementally}: each completed operation is appended with
    {!add_op}, its program-order and reads-from edges are inserted into an
    incrementally-closed reachability relation, and reads are checked
    against Definition 1's live set the moment their source write is known.
    A violating run is flagged at the first bad read instead of at the end.

    {b Arrival order.}  Operations must arrive in per-process program order
    (each pid's [index] increasing by one), which is what a sequential
    process naturally produces; across processes any interleaving is fine.
    A read may arrive before the write it read from — its reads-from edge
    is deferred, and the read is checked as soon as the write shows up.

    {b Guarantees.}  Every violation this checker reports is a real
    violation of the prefix seen so far (same [alpha]/liveness logic as
    {!Causal_check}).  The converse is weaker: an edge that arrives later
    can retroactively kill a candidate that looked live when a read was
    checked, so a clean online run is necessary but not sufficient — the
    post-hoc {!Causal_check.check} over the full history remains the
    authoritative verdict and chaos still runs it at the end.

    {b Windowing.}  By default the checker keeps every operation forever:
    the closure is O(n^2) bits and an unbounded run leaks without bound.
    [create ~window:w] bounds it: once the live set reaches [2w], every op
    below the stable frontier (all but the newest [w]) is retired, except
    two anchors later arrivals may still name, each kept only while it is
    among the newest [3w] ops: each pid's latest op and the newest write
    per location.  A pending read is no anchor: one that retires is
    {e given up} — its write is treated as never coming, the read stays
    unvalidated (never evidence), and {!dropped_reads} counts it.

    Soundness needs one further rule: a late write's waiting readers are
    resolved — reads-from edge wired, verdict issued — only while nothing
    has ever been retired or dropped.  Past that point the no-cycle check
    behind the edge insertion is inconclusive (the path from reader to
    write may have been forgotten), and inserting on a stale answer would
    manufacture causality, the one way retirement could {e invent} a
    violation rather than merely miss one.  Such readers are given up like
    any other dropped read.  With that rule the closure is always a subset
    of true causality, so every reported violation is real — the checker
    trades completeness (violations whose evidence spans more than the
    window can be missed) for O(window^2) closure memory regardless of run
    length.

    {b Cost.}  The closure is kept as predecessor rows, one bitset per live
    op.  An edge onto the op being appended is one row union, O(live/64)
    words; the rare edge that resolves an older pending read also scans
    the live rows for that read's successors.  Each read then gets one
    live-set check, against [O(n^2)] to rebuild and re-close the whole
    relation; {!checks} and {!edges} expose the work done for the cost
    accounting in docs/CHECKERS.md.  Every op keeps its slot until it
    retires, so compaction remaps nothing: one pass over the live ops
    chooses the retiring set, one AND-NOT clears it from the survivors'
    rows (O(window^2/64) words), and each retired op is unlinked from its
    location's list and the wid tables in O(1).  It walks no pid or
    location, runs at most once per [window] appends, and so amortises to
    O(window/64) words per op. *)

type violation = {
  v_op : Dsm_memory.Op.t;  (** the read that returned a non-live value *)
  v_reason : string;
}

type t

val create : ?window:int -> unit -> t
(** [window], when given, must be at least 2; omitted means unbounded. *)

val add_op : t -> Dsm_memory.Op.t -> violation list
(** Append one completed operation.  Returns the violations {e newly}
    discovered — the op itself if it is an illegal read, plus any deferred
    reads this write resolved to an illegal verdict.  An empty list means
    nothing new is known to be wrong. *)

val ops_seen : t -> int
(** Total operations ever added, including retired ones. *)

val live_ops : t -> int
(** Operations currently held ([ops_seen] minus retired); bounded by
    roughly [2 * window] plus the anchor set when windowed. *)

val retired_ops : t -> int
(** Operations compacted away by windowing. *)

val pending_reads : t -> int
(** Reads still waiting for their source write to arrive.  Nonzero at the
    end of a run means a dangling reads-from — the post-hoc checker will
    reject the history outright. *)

val dropped_reads : t -> int
(** Pending reads given up on — source write retired below the window
    frontier, declared dead by {!note_crashed}, arrived too late for a
    conclusive cycle check (see the windowing notes above), or the read
    itself arrived after its source write had already been retired (a
    per-node seq watermark over retired writes detects this, so a late
    read is dropped on arrival instead of pending forever).  Each is a
    reads-from edge the checker could not validate: its provisional
    verdict stands (a possible missed detection, never a false one). *)

val pending_rechecks : t -> int
(** Provisional clean verdicts registered for re-checking when a pending
    source write arrives.  Bounded alongside {!pending_reads}: giving up a
    wid forgets its rechecks too. *)

val window : t -> int option

val note_crashed : t -> node:int -> unit
(** Declare that [node] crashed: writes it issued but never certified will
    never arrive.  Every read pending on a wid of that node is given up
    (counted in {!dropped_reads}) and its deferred rechecks are forgotten,
    so a crash-heavy run cannot leak pending state.  If a recovered node
    later re-announces such a write (write-ahead-log replay), it is simply
    treated as a fresh write — given-up readers stay given up. *)

val violations : t -> violation list
(** All violations found so far, oldest first. *)

val first_violation : t -> violation option
(** The oldest violation, O(1). *)

val checks : t -> int
(** Read live-set checks performed (including deferred re-checks). *)

val edges : t -> int
(** Causality edges inserted into the incremental closure. *)

val add_query :
  t ->
  sem:Obj_check.sem ->
  pid:int ->
  observed:(Dsm_memory.Loc.t * Dsm_memory.Wid.t) list ->
  ret:string ->
  string option
(** Check one object query against the prefix seen so far: the
    generalization of this checker from reads-from over registers to
    spec-legal return values.  [observed] is the query's latest probe
    source per cell, [ret] the folded return the client produced; legality
    is {!Obj_check.legal} over the incremental closure, anchored at the
    querying process's latest operation.  Returns the violation reason, or
    [None] when the return is legal on this prefix (or when an observed
    source write has not arrived yet — such a query defers wholesale to
    the post-hoc {!Obj_check.check}, which remains authoritative).
    Queries are checked statelessly: they insert no operation and no
    edges.  Once windowing has retired any operation, queries always defer
    to the post-hoc check — a retired update could otherwise make a legal
    return look impossible. *)
