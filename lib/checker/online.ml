module Op = Dsm_memory.Op
module Wid = Dsm_memory.Wid
module Loc = Dsm_memory.Loc
module Value = Dsm_memory.Value
module Bitrel = Dsm_util.Bitrel

(* Wid tables, hashed inline: [Wid.hash] is the polymorphic [Hashtbl.hash],
   a C call, and the checker hashes a wid on most appends and retirements. *)
module Wids = Hashtbl.Make (struct
  type t = Wid.t

  let equal = Wid.equal

  let hash (w : Wid.t) = (w.Wid.node * 0x9E3779B1) + w.Wid.seq
end)

type violation = { v_op : Op.t; v_reason : string }

(* Where a read's value came from, as far as the checker knows.  A read
   whose source write (its own [wid]) has not arrived is [S_pending]: its
   reads-from edge is deferred, and crucially its causal association is
   unvalidated — it must not serve as intervening evidence against other
   reads until the write shows up (the write might even close a cycle,
   making the pending read the culprit rather than the evidence).

   Two terminal states exist only under windowing / crash accounting:
   [S_severed] is a read whose association {e was} validated but whose
   source write has since been retired from the window — its verdict
   stands and it remains admissible evidence; [S_dropped] is a pending
   read whose write will never arrive (crashed writer, or the wid sank
   below the stable frontier) — never validated, never evidence, its
   provisional verdict becomes final.  Both are counted in
   {!dropped_reads} when they result from giving a pending read up. *)
type src =
  | S_write
  | S_initial
  | S_resolved of int (* the source write's slot *)
  | S_pending
  | S_severed
  | S_dropped

(* Every op holds one slot from [add_op] until it retires, and the per-slot
   arrays below are indexed by it.  Slots are handed out in arrival order
   until the first retirement; after that a retired op's slot is reused. *)
type t = {
  window : int option;
  mutable next_compact : int; (* live count that next triggers compaction *)
  mutable ops : Op.t array;
  mutable arrival : int array; (* the op's arrival number: [ops_seen] before it *)
  mutable pred : int array; (* program predecessor's slot, -1 if first or retired *)
  mutable source : src array;
  mutable lid : int array; (* interned location *)
  mutable loc_next : int array; (* next older live op on the same location, -1 if none *)
  mutable loc_prev : int array; (* next newer one, -1 if none *)
  mutable flagged : bool array; (* reported as a violation *)
  mutable pre : Bitrel.t;
      (* transitively closed predecessor rows: [a] precedes [b] iff bit [a]
         is set in row [b] *)
  mutable order : int array;
      (* the first [n] entries are the live slots, oldest first; the next
         [hwm - n] are the free ones *)
  mutable n : int; (* live ops *)
  mutable hwm : int; (* slots ever handed out *)
  mutable total : int; (* ops ever added, live + retired *)
  mutable retired : int;
  mutable dropped : int; (* pending reads given up on *)
  locs : Loc.Interner.t;
  mutable loc_head : int array; (* location -> newest live op, -1 if none *)
  mutable newest_write : int array; (* location -> newest live write, -1 if none *)
  mutable last_of_pid : int array; (* pid -> slot of its latest op, -1 if none *)
  mutable retired_wseq : int array;
      (* node -> highest [Wid.seq] among that node's retired writes, -1 if
         none.  A node's writes carry increasing seqs and arrive in that
         order (program order), so a read naming a seq at or below this
         watermark whose write is not live arrived after its source was
         retired: it is given up on the spot instead of waiting forever in
         [pending_rf] for a write that already came and went. *)
  writers : int Wids.t; (* wid -> slot of the live write *)
  pending_rf : int list Wids.t; (* wid -> slots of readers awaiting it, newest first *)
  pending_recheck : int list Wids.t;
      (* wid -> arrival numbers of reads checked clean while a read from wid
         was excluded as evidence; re-checked when the write arrives.  An
         arrival number whose op has retired is skipped. *)
  mutable violation_log : violation list; (* newest first *)
  mutable first_v : violation option; (* oldest, O(1) *)
  mutable checks : int;
  mutable edges : int;
}

let dummy =
  Op.write ~pid:0 ~index:0 ~loc:(Loc.named "_") ~value:Value.initial
    ~wid:Wid.initial

let create ?window () =
  (match window with
  | Some w when w < 2 -> invalid_arg "Online.create: window must be >= 2"
  | _ -> ());
  let cap = 64 in
  {
    window;
    next_compact = (match window with Some w -> 2 * w | None -> max_int);
    ops = Array.make cap dummy;
    arrival = Array.make cap 0;
    pred = Array.make cap (-1);
    source = Array.make cap S_write;
    lid = Array.make cap (-1);
    loc_next = Array.make cap (-1);
    loc_prev = Array.make cap (-1);
    flagged = Array.make cap false;
    pre = Bitrel.create cap;
    order = Array.make cap 0;
    n = 0;
    hwm = 0;
    total = 0;
    retired = 0;
    dropped = 0;
    locs = Loc.Interner.create ();
    loc_head = Array.make 16 (-1);
    newest_write = Array.make 16 (-1);
    last_of_pid = Array.make 16 (-1);
    retired_wseq = Array.make 16 (-1);
    writers = Wids.create 64;
    pending_rf = Wids.create 16;
    pending_recheck = Wids.create 16;
    violation_log = [];
    first_v = None;
    checks = 0;
    edges = 0;
  }

let ops_seen t = t.total

let live_ops t = t.n

let retired_ops t = t.retired

let dropped_reads t = t.dropped

let window t = t.window

let pending_reads t = Wids.fold (fun _ rs acc -> acc + List.length rs) t.pending_rf 0

(* The slot of the live op with arrival number [a], or -1 once it retired:
   a binary search of the live slots, which are in arrival order. *)
let slot_of_arrival t a =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let s = t.order.(mid) in
      let am = t.arrival.(s) in
      if am = a then s else if am < a then go (mid + 1) hi else go lo mid
  in
  go 0 t.n

let pending_rechecks t =
  Wids.fold
    (fun _ arrivals acc ->
      List.fold_left (fun acc a -> if slot_of_arrival t a >= 0 then acc + 1 else acc) acc arrivals)
    t.pending_recheck 0

let violations t = List.rev t.violation_log

let first_violation t = t.first_v

let checks t = t.checks

let edges t = t.edges

(* [a] extended to [len] entries, the new ones [fill]. *)
let extend a len fill =
  let b = Array.make len fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let intern_loc t loc =
  let l = Loc.Interner.intern t.locs loc in
  let len = Array.length t.loc_head in
  if l >= len then begin
    t.loc_head <- extend t.loc_head (2 * len) (-1);
    t.newest_write <- extend t.newest_write (2 * len) (-1)
  end;
  l

let ensure_pid t pid =
  let len = Array.length t.last_of_pid in
  if pid >= len then t.last_of_pid <- extend t.last_of_pid (max (pid + 1) (2 * len)) (-1)

(* Double the slot capacity.  Amortised O(n^2) bits over an unwindowed run —
   the same order as the final relation itself; windowed instances reuse
   retired slots, so their capacity — and closure memory — stays
   O(window^2). *)
let grow t =
  let cap = 2 * Array.length t.ops in
  t.ops <- extend t.ops cap dummy;
  t.arrival <- extend t.arrival cap 0;
  t.pred <- extend t.pred cap (-1);
  t.source <- extend t.source cap S_write;
  t.lid <- extend t.lid cap (-1);
  t.loc_next <- extend t.loc_next cap (-1);
  t.loc_prev <- extend t.loc_prev cap (-1);
  t.flagged <- extend t.flagged cap false;
  t.order <- extend t.order cap 0;
  let pre = Bitrel.create cap in
  for i = 0 to t.hwm - 1 do
    Bitrel.iter_row t.pre i (fun j -> Bitrel.add pre i j)
  done;
  t.pre <- pre

(* A free slot, or a fresh one. *)
let take_slot t =
  if t.n = t.hwm then begin
    if t.hwm = Array.length t.ops then grow t;
    t.order.(t.hwm) <- t.hwm;
    t.hwm <- t.hwm + 1
  end;
  t.n <- t.n + 1;
  t.order.(t.n - 1)

let unlink_loc t s =
  let next = t.loc_next.(s) and prev = t.loc_prev.(s) in
  if next >= 0 then t.loc_prev.(next) <- prev;
  if prev >= 0 then t.loc_next.(prev) <- next else t.loc_head.(t.lid.(s)) <- next

(* {2 Window compaction}

   Retire everything below the stable frontier, i.e. all but the newest
   [window] ops — except anchors that later arrivals may still name: each
   pid's latest op (the program-order predecessor of its next op) and the
   newest write per location (the likely reads-from target of a late
   read).  Anchors are only honoured within two further windows below the
   frontier — an idle pid's last op or a location's long-stale newest write
   eventually retires like anything else, which keeps the live set
   O(window) regardless of how many processes or locations the run
   touches.  A pending read is no anchor: one that retires before its
   write arrives is given up — the write is treated as never coming
   (counted in {!dropped_reads}).

   Retirement only removes {e evidence} (ops and closure pairs); it can
   suppress a future detection, never manufacture one — the windowed
   checker stays sound, trading completeness for O(window^2) closure
   memory.  Survivors keep their slots: compaction is one pass over the
   live slots to choose the retiring set, one to clear its bits from the
   survivors' rows, and a constant amount of unlinking per retired op, so
   it costs O(live * live / 64) word operations and walks no pid or
   location. *)

(* Record a retired write in the per-node seq watermark (see [retired_wseq]). *)
let note_retired_write t (wid : Wid.t) =
  if (not (Wid.is_initial wid)) && wid.Wid.node >= 0 then begin
    let node = wid.Wid.node in
    let len = Array.length t.retired_wseq in
    if node >= len then t.retired_wseq <- extend t.retired_wseq (max (node + 1) (2 * len)) (-1);
    if wid.Wid.seq > t.retired_wseq.(node) then t.retired_wseq.(node) <- wid.Wid.seq
  end

(* Forget op [s] everywhere later arrivals could find it. *)
let retire t s =
  let o = t.ops.(s) in
  unlink_loc t s;
  if t.last_of_pid.(o.Op.pid) = s then t.last_of_pid.(o.Op.pid) <- -1;
  if Op.is_write o then begin
    (* Older writes of the location retire with its newest one. *)
    if t.newest_write.(t.lid.(s)) = s then t.newest_write.(t.lid.(s)) <- -1;
    (match Wids.find t.writers o.Op.wid with
    | w when w = s -> Wids.remove t.writers o.Op.wid
    | _ | (exception Not_found) -> ());
    note_retired_write t o.Op.wid
  end
  else
    match t.source.(s) with
    | S_pending -> (
        (* Give the read up, unless it already was (a reader of its own
           causal future is flagged and left waiting on nothing).  A wid with
           no waiting reader left is forgotten with its deferred rechecks:
           they can never gain evidence. *)
        let wid = o.Op.wid in
        match Wids.find t.pending_rf wid with
        | readers when List.mem s readers -> (
            t.dropped <- t.dropped + 1;
            match List.filter (fun r -> r <> s) readers with
            | [] ->
                Wids.remove t.pending_rf wid;
                Wids.remove t.pending_recheck wid
            | rest -> Wids.replace t.pending_rf wid rest)
        | _ | (exception Not_found) -> ())
    | _ -> ()

let is_anchor t s =
  let o = t.ops.(s) in
  t.last_of_pid.(o.Op.pid) = s || (Op.is_write o && t.newest_write.(t.lid.(s)) = s)

let compact t w =
  let frontier = t.n - w in
  let cutoff = max 0 (frontier - (2 * w)) in
  (* The retiring set, as a bitset: the predecessor row of the first
     retiring op, which that op no longer needs. *)
  let mask = ref (-1) in
  for k = 0 to frontier - 1 do
    let s = t.order.(k) in
    if not (k >= cutoff && is_anchor t s) then begin
      if !mask < 0 then begin
        mask := s;
        Bitrel.clear_row t.pre s
      end;
      Bitrel.add t.pre !mask s
    end
  done;
  let mask = !mask in
  if mask >= 0 then begin
    let retiring s = Bitrel.mem t.pre mask s in
    (* Partition [order] stably: survivors to the front, retired slots
       behind them, where they join the free ones. *)
    let m = ref 0 in
    for k = 0 to t.n - 1 do
      let s = t.order.(k) in
      if retiring s then retire t s
      else begin
        Bitrel.diff_row_into t.pre ~src:mask ~dst:s;
        if t.pred.(s) >= 0 && retiring t.pred.(s) then t.pred.(s) <- -1;
        (match t.source.(s) with
        | S_resolved iw when retiring iw -> t.source.(s) <- S_severed
        | _ -> ());
        t.order.(k) <- t.order.(!m);
        t.order.(!m) <- s;
        incr m
      end
    done;
    for k = !m to t.n - 1 do
      Bitrel.clear_row t.pre t.order.(k)
    done;
    t.retired <- t.retired + (t.n - !m);
    t.n <- !m
  end

(* A crashed node's uncertified writes will never arrive: give up the
   reads waiting on them (they stay unvalidated — never evidence, never
   re-checked) and forget the rechecks deferred on those wids.  Keeps
   [pending_rf]/[pending_recheck] bounded across crash faults; if a
   write-ahead-log replay does resurface such a write later, it is simply
   a fresh write — the given-up readers stay given up (a missed detection,
   never a false one). *)
let note_crashed t ~node =
  let doomed =
    Wids.fold
      (fun (w : Wid.t) rs acc -> if w.Wid.node = node then (w, rs) :: acc else acc)
      t.pending_rf []
  in
  List.iter
    (fun (w, rs) ->
      Wids.remove t.pending_rf w;
      Wids.remove t.pending_recheck w;
      List.iter
        (fun r ->
          t.source.(r) <- S_dropped;
          t.dropped <- t.dropped + 1)
        rs)
    doomed

let precedes t a b = Bitrel.mem t.pre b a

(* [u] and its predecessors now precede [x]. *)
let absorb t ~u x =
  Bitrel.union_row_into t.pre ~src:u ~dst:x;
  Bitrel.add t.pre x u

(* Insert u -> v and restore closure: [v] and every op it precedes absorb
   [u].  The op just appended precedes nothing yet, so its edges cost one
   row union; the rare resolution edge onto an older read finds the read's
   successors with one scan of the live rows. *)
let add_edge t u v =
  if not (precedes t u v) then begin
    t.edges <- t.edges + 1;
    if v = t.order.(t.n - 1) then absorb t ~u v
    else
      for k = 0 to t.n - 1 do
        let x = t.order.(k) in
        if x = v || precedes t v x then absorb t ~u x
      done
  end

(* a ->* io without io's own reads-from edge: go through the program
   predecessor, exactly as Causality.precedes_excl_rf. *)
let precedes_excl_rf t a ~reader =
  let p = t.pred.(reader) in
  p >= 0 && (a = p || precedes t a p)

(* Reads whose causal association was never validated: not evidence. *)
let unvalidated t i =
  match t.source.(i) with S_pending | S_dropped -> true | _ -> false

(* Mirrors Causal_check.intervenes over the live ops on [io]'s location,
   from [i] on, except that reads whose reads-from edge is still deferred
   (or given up) are not admitted as evidence: their association is
   unvalidated until their write arrives (it could even turn out to close
   a causality cycle).  [cand] is the candidate write's slot, -1 for the
   initial value. *)
let rec intervenes t ~io ~cand_wid ~cand i =
  i >= 0
  && ((i <> io
      && (not (unvalidated t i))
      && i <> cand
      && (not (Wid.equal t.ops.(i).Op.wid cand_wid))
      && (cand < 0 || precedes t cand i)
      && precedes_excl_rf t i ~reader:io)
     || intervenes t ~io ~cand_wid ~cand t.loc_next.(i))

(* A clean verdict reached while pending reads on the same location were
   excluded as evidence is provisional: re-check [io] when those writes
   arrive.  (A violation verdict never needs a re-check — resolving a
   pending read can only add evidence, never remove any.) *)
let rec register_rechecks t ~io i =
  if i >= 0 then begin
    (match t.source.(i) with
    | S_pending when i <> io ->
        let w = t.ops.(i).Op.wid in
        let waiting = try Wids.find t.pending_recheck w with Not_found -> [] in
        Wids.replace t.pending_recheck w (t.arrival.(io) :: waiting)
    | _ -> ());
    register_rechecks t ~io t.loc_next.(i)
  end

let future_read (o : Op.t) =
  Printf.sprintf "%s reads from its own causal future (%s)" (Op.to_string o) (Wid.to_string o.Op.wid)

(* Report the read at [io] unless it already was. *)
let flag t io v_reason =
  if t.flagged.(io) then []
  else begin
    let v = { v_op = t.ops.(io); v_reason } in
    t.flagged.(io) <- true;
    t.violation_log <- v :: t.violation_log;
    if t.first_v = None then t.first_v <- Some v;
    [ v ]
  end

(* Is the value the read at [io] returned live for it (Definition 1),
   given the prefix seen so far?  The read's source must be resolved
   ([S_initial] or [S_resolved]) before it can be checked; severed or
   given-up reads keep their existing verdict.  Returns the violation
   newly found, if any. *)
let check_read t io =
  t.checks <- t.checks + 1;
  let o = t.ops.(io) in
  let head = t.loc_head.(t.lid.(io)) in
  let verdict =
    match t.source.(io) with
    | S_initial ->
        if intervenes t ~io ~cand_wid:Wid.initial ~cand:(-1) head then
          Some
            (Printf.sprintf "%s returned the initial value, but a later write to %s already precedes it"
               (Op.to_string o) (Loc.to_string o.Op.loc))
        else None
    | S_resolved iw ->
        if precedes_excl_rf t iw ~reader:io then
          if intervenes t ~io ~cand_wid:o.Op.wid ~cand:iw head then
            Some
              (Printf.sprintf "%s returned %s (from %s), already overwritten for this read"
                 (Op.to_string o)
                 (Value.to_string o.Op.value)
                 (Wid.to_string o.Op.wid))
          else None
        else if precedes t io iw then Some (future_read o)
        else (* concurrent with its source: always live *) None
    | S_severed | S_dropped -> None
    | S_write | S_pending -> assert false
  in
  match verdict with
  | None ->
      register_rechecks t ~io head;
      []
  | Some reason -> flag t io reason

(* Resolve the readers that arrived before the write at [idx]: wire their
   deferred reads-from edges, then give each its first real check, oldest
   first.  A reader that causally precedes its own source is flagged
   without inserting the edge (it would close a cycle) and stays
   [S_pending] forever — its association is part of the cycle, never valid
   evidence.

   The no-cycle check is only {e conclusive} while nothing has ever been
   retired or dropped: the closure is then complete, so a clean answer
   really means no cycle.  Once evidence has been severed the path from the
   reader to this write may simply have been forgotten — inserting the edge
   on a stale answer would assert causality that runs backward through a
   real cycle, and every pair derived from it would be an invented fact
   (the one way a windowed checker could manufacture a violation on its
   own).  So past that point waiting readers are given up instead, exactly
   like readers whose write sank below the frontier. *)
let resolve_readers t idx wid =
  match Wids.find t.pending_rf wid with
  | exception Not_found -> []
  | readers ->
      Wids.remove t.pending_rf wid;
      let conclusive = t.retired = 0 && t.dropped = 0 in
      List.concat_map
        (fun r ->
          if precedes t r idx then begin
            t.checks <- t.checks + 1;
            flag t r (future_read t.ops.(r))
          end
          else if not conclusive then begin
            t.source.(r) <- S_dropped;
            t.dropped <- t.dropped + 1;
            []
          end
          else begin
            t.source.(r) <- S_resolved idx;
            add_edge t idx r;
            check_read t r
          end)
        (List.rev readers)

(* Re-check the reads whose earlier clean verdict had to exclude a read
   from [wid] as evidence: with the write (and any resolved edges) in
   place, the evidence may now be admissible.  In arrival order. *)
let recheck t wid =
  match Wids.find t.pending_recheck wid with
  | exception Not_found -> []
  | arrivals ->
      Wids.remove t.pending_recheck wid;
      List.concat_map
        (fun a ->
          let r = slot_of_arrival t a in
          if r >= 0 && (not t.flagged.(r)) && not (unvalidated t r) then check_read t r else [])
        (List.sort_uniq Int.compare arrivals)

let add_op t (op : Op.t) =
  (match t.window with
  | Some w when t.n >= t.next_compact ->
      compact t w;
      (* The keep-set's anchors (pid-latest, newest write per location) can
         hold the live count above [2w]; re-arm a full window out from
         wherever compaction landed so a saturated keep-set cannot
         re-trigger compaction on every append. *)
      t.next_compact <- max (2 * w) (t.n + w)
  | _ -> ());
  let idx = take_slot t in
  t.ops.(idx) <- op;
  t.arrival.(idx) <- t.total;
  t.total <- t.total + 1;
  t.flagged.(idx) <- false;
  let l = intern_loc t op.Op.loc in
  t.lid.(idx) <- l;
  let head = t.loc_head.(l) in
  t.loc_next.(idx) <- head;
  t.loc_prev.(idx) <- -1;
  if head >= 0 then t.loc_prev.(head) <- idx;
  t.loc_head.(l) <- idx;
  let pid = op.Op.pid in
  ensure_pid t pid;
  let p = if op.Op.index = 0 then -1 else t.last_of_pid.(pid) in
  t.pred.(idx) <- p;
  t.last_of_pid.(pid) <- idx;
  if p >= 0 then add_edge t p idx;
  let wid = op.Op.wid in
  if Op.is_write op then begin
    t.source.(idx) <- S_write;
    t.newest_write.(l) <- idx;
    Wids.replace t.writers wid idx;
    let resolved = resolve_readers t idx wid in
    resolved @ recheck t wid
  end
  else if Wid.is_initial wid then begin
    t.source.(idx) <- S_initial;
    check_read t idx
  end
  else
    match Wids.find t.writers wid with
    | iw ->
        t.source.(idx) <- S_resolved iw;
        add_edge t iw idx;
        check_read t idx
    | exception Not_found ->
        if
          wid.Wid.node >= 0
          && wid.Wid.node < Array.length t.retired_wseq
          && wid.Wid.seq <= t.retired_wseq.(wid.Wid.node)
        then begin
          (* The source write arrived long ago and has been retired below
             the window frontier — the read showed up too late to ever be
             validated.  Give it up now rather than leaving it in
             [pending_rf] waiting for a write that already came and went.
             (Even if the watermark were wrong this is safe: a dropped
             read is never evidence and its provisional verdict stands —
             a possible missed detection, never a false one.) *)
          t.source.(idx) <- S_dropped;
          t.dropped <- t.dropped + 1
        end
        else begin
          (* Source not seen yet: defer both the edge and the verdict. *)
          t.source.(idx) <- S_pending;
          let waiting = try Wids.find t.pending_rf wid with Not_found -> [] in
          Wids.replace t.pending_rf wid (idx :: waiting)
        end;
        []

(* ------------------------------------------------------------------ *)
(* Object queries (the generalized, spec-legal-return check)           *)
(* ------------------------------------------------------------------ *)

(* Check one object query against the prefix seen so far, sharing
   {!Obj_check.legal} with the post-hoc checker.  The prefix closure is a
   subset of the final one, so [closure(obs)] here under-approximates and
   [may] over-approximates their post-hoc values — every verdict this
   reaches is therefore also a post-hoc violation (same soundness contract
   as [add_op]).  A query whose observed source writes have not all
   arrived is deferred wholesale to the post-hoc check: an unvalidated
   association must not anchor evidence, exactly as for pending reads.
   Once windowing has retired anything, queries defer entirely — a missing
   update could otherwise make a legal return look impossible (the one
   place where losing evidence would flip a verdict the wrong way).  Until
   then slots are arrival indices, so the update keys are too. *)
let add_query t ~sem ~pid ~observed ~ret =
  if t.retired > 0 then None
  else begin
    t.checks <- t.checks + 1;
    let obj = sem.Obj_check.obj in
    let updates = ref [] in
    for i = 0 to t.n - 1 do
      let o = t.ops.(i) in
      if Op.is_write o then
        match o.Op.loc with
        | Loc.Cell (name, ci, cj) when String.equal name obj ->
            updates :=
              { Obj_check.u_key = i; u_cell = (ci, cj); u_payload = Obj_check.payload o.Op.value }
              :: !updates
        | _ -> ()
    done;
    let anchor =
      if pid >= 0 && pid < Array.length t.last_of_pid && t.last_of_pid.(pid) >= 0 then
        Some t.last_of_pid.(pid)
      else None
    in
    let resolved =
      List.fold_left
        (fun acc (_, wid) ->
          match acc with
          | None -> None
          | Some keys ->
              if Wid.is_initial wid then Some keys
              else (
                match Wids.find_opt t.writers wid with
                | Some iw -> Some (iw :: keys)
                | None -> None))
        (Some []) observed
    in
    match resolved with
    | None -> None (* an observed source is still pending: post-hoc will rule *)
    | Some keys ->
        if
          Obj_check.legal ~sem ~precedes:(precedes t) ~updates:!updates ~observed:keys ~anchor
            ~ret
        then None
        else
          Some
            (Printf.sprintf
               "%s query by process %d returned %S, which no causal-past linearization of its \
                observed context produces"
               obj pid ret)
  end
