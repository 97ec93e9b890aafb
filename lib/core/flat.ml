(* The flattened Figure-4 data path.

   [Protocol.step] is the general machine: every event (failover, quorum
   votes, checkpoints, sharding) through one dispatch, allocating an action
   list per step.  That generality costs ~100ns and a handful of minor-heap
   words on the measured hot operation (an owner write), which is what caps
   the simulator's throughput at 256-node / 1M-op scale.

   This module is the data plane of the same protocol — exactly the
   owner-write / certify / install-remote / adopt services of Figure 4,
   with the same clock-merge and invalidation rules as {!Node} under the
   default configuration (Coarse invalidation, no mutation) — re-expressed
   over flat [int] arrays:

   - locations are dense ids from a {!Dsm_memory.Loc.Interner}, assigned
     once at setup; the hot loop never hashes a structured location;
   - node clocks live in one shared arena ([clock]); each node keeps the
     writestamps of the entries it holds in its own pool ([pools]), one
     [n]-word window per held entry, so stamp memory follows the copies
     the nodes actually hold, as Figure 4's per-value stamps do, not
     [nodes * locs]; every stamp is manipulated in place by
     {!Vclock.Flat} and nothing is copied except window-to-window blits;
   - an install or an adoption merges the arriving stamp into the node's
     clock and copies it into the entry's window in one pass
     ({!Vclock.Flat.merge_blit}), and the invalidation pass compares a
     cached entry's writer component before it scans the whole stamp, so
     most entries that stay cost one compare rather than a 256-wide scan;
   - completions are exposed through per-node out-fields ([last_*]) instead
     of freshly consed action lists — the caller reads them before the
     acting node's next step, the reusable-buffer analogue of
     [Protocol.step]'s action list.

   A pool doubles only when its node holds more entries than it ever did
   before, so pools grow to their node's peak occupancy and after that no
   operation allocates: the microbench ALLOC=0 gate (minor and major
   words flat across a sustained run) and the alcotest copy of it pin
   that property, and the property tests in [test_flat.ml] pin
   step-for-step agreement with {!Node}.

   Domain-parallelism contract (see {!Par_engine}): every mutable cell is
   indexed by the acting node — clock rows, entries and their pool slots,
   the node's pool and its free-slot chain, cached directories, [last_*]
   out-fields and counters.  Shards that partition nodes may therefore run
   services concurrently with no synchronisation beyond their own message
   barriers, as long as no two domains act as the same node and stamp
   windows passed in are domain-local (a message buffer or the acting
   node's own rows).

   What is deliberately NOT here: epochs/fencing, shadow replication,
   votes, checkpoints, sharding, tracing, WAL — control-plane machinery
   that runs at human/failure timescales through [Protocol.step].  The two
   tiers meet at the {!Node} semantics this module is tested against. *)

type policy = Lww | Owner_favored

type t = {
  n : int; (* nodes; also the clock dimension *)
  locs : int; (* interned locations *)
  owner : int array; (* loc id -> owning node *)
  owner_favored : bool;
  init_value : int;
  (* Node clocks: node [i]'s vector clock is the window at [i * n]. *)
  clock : int array;
  (* Per (node, loc) entry, at e = node * locs + loc.  [slot.(e)] is the
     entry's slot in its node's pool, or -1 when the entry is absent; its
     stamp is the window at [slot * n] of [pools.(node)]. *)
  slot : int array;
  pools : int array array;
  (* Head of each node's chain of free pool slots, -1 when none is left;
     a free slot's first word holds the next free slot. *)
  free : int array;
  value : int array;
  wid_node : int array;
  wid_seq : int array;
  (* Per-node compact directory of cached (present, non-owned) locations,
     so the invalidation pass scans what the node actually caches — the
     flat mirror of [Node]'s hashtable iteration — instead of all [locs].
     [cached.(node * locs + k)] for k < [cached_len.(node)] lists the loc
     ids; [cached_pos] maps entry index -> directory position for O(1)
     swap-remove. *)
  cached : int array;
  cached_len : int array;
  cached_pos : int array;
  wseq : int array; (* per-node write sequence for fresh wids *)
  (* Completion out-fields, indexed by the acting node: the last operation
     node [i] performed left its observable result at index [i].  Read
     them before that node's next step. *)
  last_accepted : int array; (* 0/1 *)
  last_value : int array;
  last_wid_node : int array;
  last_wid_seq : int array;
  (* Per-node counters (summed by {!counters}), mirroring Node_stats on
     the paths Flat implements. *)
  c_writes_owned : int array;
  c_writes_certified : int array;
  c_writes_rejected : int array;
  c_invalidations : int array;
  c_installs : int array;
  c_read_hits : int array;
  c_read_misses : int array;
}

(* Spare slots a pool starts with beyond its node's owned entries. *)
let pool_slack = 4

(* Push slot [s] of [node]'s pool onto the node's free chain. *)
let give_slot t ~node s =
  t.pools.(node).(s * t.n) <- t.free.(node);
  t.free.(node) <- s

let create ?(policy = Lww) ?(init_value = 0) ~nodes ~locs ~owner () =
  if nodes < 1 then invalid_arg "Flat.create: nodes must be >= 1";
  if locs < 1 then invalid_arg "Flat.create: locs must be >= 1";
  if Array.length owner <> locs then invalid_arg "Flat.create: owner array size mismatch";
  Array.iter
    (fun o -> if o < 0 || o >= nodes then invalid_arg "Flat.create: owner out of range")
    owner;
  let entries = nodes * locs in
  let owned = Array.make nodes 0 in
  Array.iter (fun o -> owned.(o) <- owned.(o) + 1) owner;
  let t =
    {
      n = nodes;
      locs;
      owner = Array.copy owner;
      owner_favored = policy = Owner_favored;
      init_value;
      clock = Array.make (nodes * nodes) 0;
      slot = Array.make entries (-1);
      pools = Array.map (fun k -> Array.make ((k + pool_slack) * nodes) 0) owned;
      free = Array.make nodes (-1);
      value = Array.make entries init_value;
      wid_node = Array.make entries (-1);
      wid_seq = Array.make entries 0;
      cached = Array.make entries 0;
      cached_len = Array.make nodes 0;
      cached_pos = Array.make entries (-1);
      wseq = Array.make nodes 0;
      last_accepted = Array.make nodes 0;
      last_value = Array.make nodes init_value;
      last_wid_node = Array.make nodes (-1);
      last_wid_seq = Array.make nodes 0;
      c_writes_owned = Array.make nodes 0;
      c_writes_certified = Array.make nodes 0;
      c_writes_rejected = Array.make nodes 0;
      c_invalidations = Array.make nodes 0;
      c_installs = Array.make nodes 0;
      c_read_hits = Array.make nodes 0;
      c_read_misses = Array.make nodes 0;
    }
  in
  (* Owned locations are born holding the initial value under a zero stamp
     and the virtual initial wid, exactly as [Node.lookup] materialises
     them on first touch: each takes the next slot of its owner's pool,
     and the spare slots start the free chain. *)
  let used = Array.make nodes 0 in
  Array.iteri
    (fun loc o ->
      t.slot.((o * locs) + loc) <- used.(o);
      used.(o) <- used.(o) + 1)
    owner;
  Array.iteri
    (fun node k ->
      for s = k + pool_slack - 1 downto k do
        give_slot t ~node s
      done)
    owned;
  t

let nodes t = t.n

let locations t = t.locs

let owner_of t loc = t.owner.(loc)

(* {1 Entry plumbing} *)

let entry t ~node ~loc = (node * t.locs) + loc

let has t e = t.slot.(e) >= 0

(* A free slot of [node]'s pool.  When none is left the node holds more
   entries than ever before: the pool doubles, copied by {!Vclock.Flat.blit}
   ([Array.blit] would [caml_modify] every word of a major-heap array), and
   the new half joins the free chain. *)
let take_slot t ~node =
  if t.free.(node) < 0 then begin
    let pool = t.pools.(node) in
    let cap = Array.length pool / t.n in
    let bigger = Array.make (2 * cap * t.n) 0 in
    Vclock.Flat.blit ~src:pool ~src_off:0 ~dst:bigger ~dst_off:0 ~dim:(cap * t.n);
    t.pools.(node) <- bigger;
    for s = (2 * cap) - 1 downto cap do
      give_slot t ~node s
    done
  end;
  let s = t.free.(node) in
  t.free.(node) <- t.pools.(node).(s * t.n);
  s

let cached_add t ~node ~loc =
  let e = entry t ~node ~loc in
  if t.cached_pos.(e) < 0 then begin
    let k = t.cached_len.(node) in
    t.cached.((node * t.locs) + k) <- loc;
    t.cached_pos.(e) <- k;
    t.cached_len.(node) <- k + 1
  end

let cached_remove t ~node ~loc =
  let e = entry t ~node ~loc in
  let k = t.cached_pos.(e) in
  if k >= 0 then begin
    let last = t.cached_len.(node) - 1 in
    let moved = t.cached.((node * t.locs) + last) in
    t.cached.((node * t.locs) + k) <- moved;
    t.cached_pos.((node * t.locs) + moved) <- k;
    t.cached_pos.(e) <- -1;
    t.cached_len.(node) <- last
  end

let cached_count t node = t.cached_len.(node)

(* Invalidate every cached (non-owned) entry of [node] whose writestamp is
   strictly older than the threshold window: the rule of Figure 4, over the
   compact directory.  Iterates backwards so swap-remove never skips a
   slot.

   An entry's stamp exceeding the threshold at any component rules out
   "strictly older", and the component of the entry's writer is the one
   most likely to: the write ticked it, and a threshold that has not heard
   of the write is behind there.  So that one component is probed before
   the full scan.  The virtual initial write ([wid_node] -1) has no writer
   component; its all-zero stamp always takes the scan. *)
let invalidate_older t ~node ~thr ~thr_off =
  let base = node * t.locs in
  let pool = t.pools.(node) in
  let k = ref (t.cached_len.(node) - 1) in
  while !k >= 0 do
    let loc = t.cached.(base + !k) in
    let e = base + loc in
    let s = t.slot.(e) in
    let w = t.wid_node.(e) in
    let newer_at_writer = w >= 0 && w < t.n && pool.((s * t.n) + w) > thr.(thr_off + w) in
    if (not newer_at_writer) && Vclock.Flat.lt pool ~a_off:(s * t.n) thr ~b_off:thr_off ~dim:t.n
    then begin
      give_slot t ~node s;
      t.slot.(e) <- -1;
      cached_remove t ~node ~loc;
      t.c_invalidations.(node) <- t.c_invalidations.(node) + 1
    end;
    decr k
  done

(* Set entry [e]'s fields, taking a pool slot if it holds none, and return
   the offset of its stamp window in [node]'s pool for the caller to
   fill. *)
let set_entry t ~node ~e ~value ~wid_node ~wid_seq =
  if t.slot.(e) < 0 then t.slot.(e) <- take_slot t ~node;
  t.value.(e) <- value;
  t.wid_node.(e) <- wid_node;
  t.wid_seq.(e) <- wid_seq;
  t.slot.(e) * t.n

let store t ~node ~e ~value ~wid_node ~wid_seq ~stamp ~stamp_off =
  let off = set_entry t ~node ~e ~value ~wid_node ~wid_seq in
  Vclock.Flat.blit ~src:stamp ~src_off:stamp_off ~dst:t.pools.(node) ~dst_off:off ~dim:t.n

(* Store an entry that arrived from another node: merge its stamp into
   [node]'s clock and copy it into the entry's window in one pass. *)
let merge_store t ~node ~e ~value ~wid_node ~wid_seq ~stamp ~stamp_off =
  let off = set_entry t ~node ~e ~value ~wid_node ~wid_seq in
  Vclock.Flat.merge_blit ~src:stamp ~src_off:stamp_off ~dst:t.clock ~dst_off:(node * t.n)
    ~copy:t.pools.(node) ~copy_off:off ~dim:t.n

(* {1 The Figure-4 services} *)

(* Owner write ([Node.local_write]): bump own component, stamp the entry
   with the updated clock, fresh wid.  No invalidation pass — certification
   and installs run it, a local write cannot make the owner's own cache
   stale. *)
let owner_write t ~node ~loc ~value =
  t.clock.((node * t.n) + node) <- t.clock.((node * t.n) + node) + 1;
  let seq = t.wseq.(node) in
  t.wseq.(node) <- seq + 1;
  let e = entry t ~node ~loc in
  store t ~node ~e ~value ~wid_node:node ~wid_seq:seq ~stamp:t.clock ~stamp_off:(node * t.n);
  t.c_writes_owned.(node) <- t.c_writes_owned.(node) + 1;
  t.last_accepted.(node) <- 1;
  t.last_value.(node) <- value;
  t.last_wid_node.(node) <- node;
  t.last_wid_seq.(node) <- seq

(* Owner-side certification of a remote write ([Node.certify_write]): merge
   the incoming writestamp into the owner's clock, then resolve against the
   current entry — [After] accepts, [Before]/[Equal] rejects, [Concurrent]
   goes to policy; an accepted write is stored under the merged clock; both
   outcomes run the invalidation pass against the merged clock.  The
   incoming stamp is a window of the caller's arena (a message buffer or a
   writer's clock row) and must not alias the certifying node's own clock
   row — the merge runs first and would corrupt the comparison.
   [last_accepted] is the W_REPLY verdict. *)
let certify t ~node ~loc ~value ~wid_node ~wid_seq ~stamp ~stamp_off =
  let coff = node * t.n in
  Vclock.Flat.merge_into ~dst:t.clock ~dst_off:coff ~src:stamp ~src_off:stamp_off ~dim:t.n;
  let e = entry t ~node ~loc in
  if t.wid_node.(e) = wid_node && t.wid_seq.(e) = wid_seq then begin
    (* Duplicate certification (an RPC retry): idempotent, still accepted. *)
    t.last_accepted.(node) <- 1;
    t.last_value.(node) <- t.value.(e);
    t.last_wid_node.(node) <- wid_node;
    t.last_wid_seq.(node) <- wid_seq
  end
  else begin
    t.c_writes_certified.(node) <- t.c_writes_certified.(node) + 1;
    let accept =
      match
        Vclock.Flat.compare_vt stamp ~a_off:stamp_off t.pools.(node) ~b_off:(t.slot.(e) * t.n)
          ~dim:t.n
      with
      | Vclock.After -> true
      | Vclock.Concurrent -> not (t.owner_favored && t.wid_node.(e) = node)
      | Vclock.Before | Vclock.Equal -> false
    in
    if accept then begin
      store t ~node ~e ~value ~wid_node ~wid_seq ~stamp:t.clock ~stamp_off:coff;
      t.last_accepted.(node) <- 1;
      t.last_value.(node) <- value;
      t.last_wid_node.(node) <- wid_node;
      t.last_wid_seq.(node) <- wid_seq
    end
    else begin
      t.c_writes_rejected.(node) <- t.c_writes_rejected.(node) + 1;
      t.last_accepted.(node) <- 0;
      t.last_value.(node) <- t.value.(e);
      t.last_wid_node.(node) <- t.wid_node.(e);
      t.last_wid_seq.(node) <- t.wid_seq.(e)
    end;
    invalidate_older t ~node ~thr:t.clock ~thr_off:coff
  end

(* Client-side R_REPLY ([Node.install_remote]): merge the entry's stamp,
   cache the copy, and invalidate anything strictly older than the stamp
   just learned.  The pass runs before a newly cached entry joins the
   directory: its stamp is the threshold itself, never strictly older, and
   comparing the two would be a full scan. *)
let install_remote t ~node ~loc ~value ~wid_node ~wid_seq ~stamp ~stamp_off =
  merge_store t ~node ~e:(entry t ~node ~loc) ~value ~wid_node ~wid_seq ~stamp ~stamp_off;
  t.c_installs.(node) <- t.c_installs.(node) + 1;
  invalidate_older t ~node ~thr:stamp ~thr_off:stamp_off;
  cached_add t ~node ~loc

(* Client-side W_REPLY ([Node.adopt_write_reply]): merge and cache the
   certified entry; no invalidation pass. *)
let adopt_write_reply t ~node ~loc ~value ~wid_node ~wid_seq ~stamp ~stamp_off =
  merge_store t ~node ~e:(entry t ~node ~loc) ~value ~wid_node ~wid_seq ~stamp ~stamp_off;
  cached_add t ~node ~loc

(* Local read: owned locations always hit (they are born present); cached
   copies hit until invalidated.  A miss reports the initial value without
   touching state — the caller decides whether to fetch (install_remote)
   or, in the microbench, to spin on hits only.  Results land in the
   [last_*] out-fields. *)
let read t ~node ~loc =
  let e = entry t ~node ~loc in
  if has t e then begin
    t.c_read_hits.(node) <- t.c_read_hits.(node) + 1;
    t.last_accepted.(node) <- 1;
    t.last_value.(node) <- t.value.(e);
    t.last_wid_node.(node) <- t.wid_node.(e);
    t.last_wid_seq.(node) <- t.wid_seq.(e)
  end
  else begin
    t.c_read_misses.(node) <- t.c_read_misses.(node) + 1;
    t.last_accepted.(node) <- 0;
    t.last_value.(node) <- t.init_value;
    t.last_wid_node.(node) <- -1;
    t.last_wid_seq.(node) <- 0
  end

let cached_hit t ~node ~loc = has t (entry t ~node ~loc)

(* Next write sequence number for wids minted outside {!owner_write} (the
   remote-write path stamps at the writer before certification); shares the
   counter with {!owner_write} so a node's wids stay unique. *)
let fresh_seq t ~node =
  let seq = t.wseq.(node) in
  t.wseq.(node) <- seq + 1;
  seq

(* Raw entry fields, allocation-free (meaningful only when the entry is
   present): the parallel engine serialises entries into message buffers
   from these plus the window at {!entry_off} of the node's {!stamp_arena}. *)
let entry_value t ~node ~loc = t.value.(entry t ~node ~loc)

let entry_wid_node t ~node ~loc = t.wid_node.(entry t ~node ~loc)

let entry_wid_seq t ~node ~loc = t.wid_seq.(entry t ~node ~loc)

(* {1 Observers (setup/verification-time; these may allocate)} *)

let clock_of t node = Array.sub t.clock (node * t.n) t.n

let clock_arena t = t.clock

let clock_off t node = node * t.n

let stamp_arena t ~node = t.pools.(node)

let entry_off t ~node ~loc = t.slot.(entry t ~node ~loc) * t.n

let entry_view t ~node ~loc =
  let e = entry t ~node ~loc in
  if not (has t e) then None
  else
    Some
      ( t.value.(e),
        Array.sub t.pools.(node) (t.slot.(e) * t.n) t.n,
        t.wid_node.(e),
        t.wid_seq.(e) )

let last_accepted t ~node = t.last_accepted.(node) <> 0

let last_value t ~node = t.last_value.(node)

let last_wid_node t ~node = t.last_wid_node.(node)

let last_wid_seq t ~node = t.last_wid_seq.(node)

(* A structural fingerprint of the whole memory: clocks plus every present
   entry with its stamp.  Used by the determinism tests to compare runs
   (notably across domain counts) without materialising the state. *)
let digest t =
  let h = ref 0x9e3779b9 in
  let mix x =
    let v = !h lxor (x + 0x7f4a7c15 + (!h lsl 6) + (!h lsr 2)) in
    h := v land max_int
  in
  Array.iter mix t.clock;
  for node = 0 to t.n - 1 do
    for loc = 0 to t.locs - 1 do
      let e = entry t ~node ~loc in
      if has t e then begin
        mix e;
        mix t.value.(e);
        mix t.wid_node.(e);
        mix t.wid_seq.(e);
        for i = 0 to t.n - 1 do
          mix t.pools.(node).((t.slot.(e) * t.n) + i)
        done
      end
    done
  done;
  !h

type counters = {
  writes_owned : int;
  writes_certified : int;
  writes_rejected : int;
  invalidations : int;
  installs : int;
  read_hits : int;
  read_misses : int;
}

let counters (t : t) =
  let sum a = Array.fold_left ( + ) 0 a in
  {
    writes_owned = sum t.c_writes_owned;
    writes_certified = sum t.c_writes_certified;
    writes_rejected = sum t.c_writes_rejected;
    invalidations = sum t.c_invalidations;
    installs = sum t.c_installs;
    read_hits = sum t.c_read_hits;
    read_misses = sum t.c_read_misses;
  }
