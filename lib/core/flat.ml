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
   - node clocks live in one shared arena ([clock]);
   - each entry a node holds is one slot of that node's pool ([pools]): a
     four-word header (location, value, writer node, writer seq) followed
     by the entry's [n]-word writestamp.  So entry memory follows the
     copies the nodes actually hold, as Figure 4's value–writestamp pairs
     do; only the dense [slot] index, one word per (node, location), finds
     an entry's slot.  Every stamp is manipulated in place by
     {!Vclock.Flat} and nothing is copied except window-to-window blits;
   - a node's owned entries take slots [\[0, owned)] at [create] and are
     never freed, so the invalidation pass walks the slots after them, the
     node's cached entries and its free slots;
   - an install or an adoption merges the arriving stamp into the node's
     clock and copies it into the entry's window in one pass
     ({!Vclock.Flat.merge_blit}), and the invalidation pass compares a
     cached entry's writer component before it scans the whole stamp, so
     most entries that stay cost one compare rather than a 256-wide scan;
   - a service's result is the entry it leaves behind, read through the
     [entry_*] accessors.  A certification accepted the write exactly when
     the entry now carries the write's wid: wids are unique, because
     {!owner_write} and {!fresh_seq} share one counter per node.

   A pool doubles only when its node holds more entries than it ever did
   before, so pools grow to their node's peak occupancy and after that no
   operation allocates: the microbench ALLOC=0 gate (minor and major
   words flat across a sustained run) and the alcotest copy of it pin
   that property, and the property tests in [test_flat.ml] pin
   step-for-step agreement with {!Node}.

   Domain-parallelism contract (see {!Par_engine}): every mutable cell is
   indexed by the acting node — clock rows, the node's row of the slot
   index, its pool and free-slot chain, and counters.  Shards that
   partition nodes may therefore run services concurrently with no
   synchronisation beyond their own message barriers, as long as no two
   domains act as the same node and stamp windows passed in are
   domain-local (a message buffer or the acting node's own rows).

   What is deliberately NOT here: epochs/fencing, shadow replication,
   votes, checkpoints, sharding, tracing, WAL — control-plane machinery
   that runs at human/failure timescales through [Protocol.step].  The two
   tiers meet at the {!Node} semantics this module is tested against. *)

type t = {
  n : int; (* nodes; also the clock dimension *)
  locs : int; (* interned locations *)
  owner : int array; (* loc id -> owning node *)
  (* Node clocks: node [i]'s vector clock is the window at [i * n]. *)
  clock : int array;
  (* [slot.(node * locs + loc)] is the slot of [node]'s pool that holds its
     entry for [loc], or -1 when the node holds none. *)
  slot : int array;
  (* Node [i]'s pool: slot [s] is the window of [n + header] words at
     [s * (n + header)], laid out as below. *)
  pools : int array array;
  owned : int array; (* node [i]'s owned entries take slots [0, owned.(i)) *)
  (* Head of each node's chain of free pool slots, -1 when none is left. *)
  free : int array;
  wseq : int array; (* per-node write sequence for fresh wids *)
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

(* A slot's header words, then its stamp at [header].  A free slot holds
   location -1, and its value word links the next free slot. *)
let h_loc = 0

let h_value = 1

let h_wid_node = 2

let h_wid_seq = 3

let header = 4

(* Spare slots a pool starts with beyond its node's owned entries. *)
let pool_slack = 4

let width t = t.n + header

(* Push slot [s] of [node]'s pool onto the node's free chain. *)
let give_slot t ~node s =
  let pool = t.pools.(node) and b = s * width t in
  pool.(b + h_loc) <- -1;
  pool.(b + h_value) <- t.free.(node);
  t.free.(node) <- s

let create ~nodes ~locs ~owner () =
  if nodes < 1 then invalid_arg "Flat.create: nodes must be >= 1";
  if locs < 1 then invalid_arg "Flat.create: locs must be >= 1";
  if Array.length owner <> locs then invalid_arg "Flat.create: owner array size mismatch";
  Array.iter
    (fun o -> if o < 0 || o >= nodes then invalid_arg "Flat.create: owner out of range")
    owner;
  let owned = Array.make nodes 0 in
  Array.iter (fun o -> owned.(o) <- owned.(o) + 1) owner;
  let t =
    {
      n = nodes;
      locs;
      owner = Array.copy owner;
      clock = Array.make (nodes * nodes) 0;
      slot = Array.make (nodes * locs) (-1);
      pools = Array.map (fun k -> Array.make ((k + pool_slack) * (nodes + header)) 0) owned;
      owned;
      free = Array.make nodes (-1);
      wseq = Array.make nodes 0;
      c_writes_owned = Array.make nodes 0;
      c_writes_certified = Array.make nodes 0;
      c_writes_rejected = Array.make nodes 0;
      c_invalidations = Array.make nodes 0;
      c_installs = Array.make nodes 0;
      c_read_hits = Array.make nodes 0;
      c_read_misses = Array.make nodes 0;
    }
  in
  (* Owned locations are born holding 0 under a zero stamp and the virtual
     initial wid, exactly as [Node.lookup] materialises them on first
     touch: each takes the next slot of its owner's pool, and the spare
     slots start the free chain. *)
  let used = Array.make nodes 0 in
  Array.iteri
    (fun loc o ->
      let s = used.(o) in
      used.(o) <- s + 1;
      t.slot.((o * locs) + loc) <- s;
      let b = s * width t in
      t.pools.(o).(b + h_loc) <- loc;
      t.pools.(o).(b + h_wid_node) <- -1)
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

let slot_of t ~node ~loc = t.slot.((node * t.locs) + loc)

(* Offset of a present entry's header in its node's pool. *)
let base t ~node ~loc = slot_of t ~node ~loc * width t

(* A free slot of [node]'s pool.  When none is left the node holds more
   entries than ever before: the pool doubles, copied by {!Vclock.Flat.blit}
   ([Array.blit] would [caml_modify] every word of a major-heap array), and
   the new half joins the free chain. *)
let take_slot t ~node =
  if t.free.(node) < 0 then begin
    let pool = t.pools.(node) in
    let cap = Array.length pool / width t in
    let bigger = Array.make (2 * cap * width t) 0 in
    Vclock.Flat.blit ~src:pool ~src_off:0 ~dst:bigger ~dst_off:0 ~dim:(cap * width t);
    t.pools.(node) <- bigger;
    for s = (2 * cap) - 1 downto cap do
      give_slot t ~node s
    done
  end;
  let s = t.free.(node) in
  t.free.(node) <- t.pools.(node).((s * width t) + h_value);
  s

(* How many non-owned entries the node holds: its held slots after the
   owned ones. *)
let cached_count t node =
  let w = width t and pool = t.pools.(node) in
  let k = ref 0 in
  for s = t.owned.(node) to (Array.length pool / w) - 1 do
    if pool.((s * w) + h_loc) >= 0 then incr k
  done;
  !k

(* Invalidate every cached (non-owned) entry of [node] whose writestamp is
   strictly older than the threshold window: the rule of Figure 4, over
   the node's slots after its owned ones, skipping free slots.  The slot
   whose header is at [keep] is spared: an install's own entry, whose
   stamp is the threshold itself and never strictly older.  Each entry is
   judged against the fixed threshold, so the walk order decides only
   which free slot is reused next.

   An entry's stamp exceeding the threshold at any component rules out
   "strictly older", and the component of the entry's writer is the one
   most likely to: the write ticked it, and a threshold that has not heard
   of the write is behind there.  So that one component is probed before
   the full scan.  The virtual initial write (writer -1) has no writer
   component; its all-zero stamp always takes the scan. *)
let invalidate_older t ~node ~thr ~thr_off ~keep =
  let w = width t and pool = t.pools.(node) in
  for s = t.owned.(node) to (Array.length pool / w) - 1 do
    let b = s * w in
    let loc = pool.(b + h_loc) in
    if loc >= 0 && b <> keep then begin
      let writer = pool.(b + h_wid_node) and stamp = b + header in
      let newer_at_writer =
        writer >= 0 && writer < t.n && pool.(stamp + writer) > thr.(thr_off + writer)
      in
      if (not newer_at_writer) && Vclock.Flat.lt pool ~a_off:stamp thr ~b_off:thr_off ~dim:t.n
      then begin
        t.slot.((node * t.locs) + loc) <- -1;
        give_slot t ~node s;
        t.c_invalidations.(node) <- t.c_invalidations.(node) + 1
      end
    end
  done

(* Set [node]'s entry for [loc], taking a pool slot if it holds none, and
   return the offset of the entry's header in the node's pool; the caller
   fills the stamp window after it. *)
let set_entry t ~node ~loc ~value ~wid_node ~wid_seq =
  let e = (node * t.locs) + loc in
  if t.slot.(e) < 0 then t.slot.(e) <- take_slot t ~node;
  let pool = t.pools.(node) and b = t.slot.(e) * width t in
  pool.(b + h_loc) <- loc;
  pool.(b + h_value) <- value;
  pool.(b + h_wid_node) <- wid_node;
  pool.(b + h_wid_seq) <- wid_seq;
  b

let store t ~node ~loc ~value ~wid_node ~wid_seq ~stamp ~stamp_off =
  let b = set_entry t ~node ~loc ~value ~wid_node ~wid_seq in
  Vclock.Flat.blit ~src:stamp ~src_off:stamp_off ~dst:t.pools.(node) ~dst_off:(b + header)
    ~dim:t.n

(* Store an entry that arrived from another node: merge its stamp into
   [node]'s clock and copy it into the entry's window in one pass.
   Returns the offset of the entry's header. *)
let merge_store t ~node ~loc ~value ~wid_node ~wid_seq ~stamp ~stamp_off =
  let b = set_entry t ~node ~loc ~value ~wid_node ~wid_seq in
  Vclock.Flat.merge_blit ~src:stamp ~src_off:stamp_off ~dst:t.clock ~dst_off:(node * t.n)
    ~copy:t.pools.(node) ~copy_off:(b + header) ~dim:t.n;
  b

(* {1 The Figure-4 services} *)

(* Owner write ([Node.local_write]): bump own component, stamp the entry
   with the updated clock, fresh wid.  No invalidation pass — certification
   and installs run it, a local write cannot make the owner's own cache
   stale. *)
let owner_write t ~node ~loc ~value =
  t.clock.((node * t.n) + node) <- t.clock.((node * t.n) + node) + 1;
  let seq = t.wseq.(node) in
  t.wseq.(node) <- seq + 1;
  store t ~node ~loc ~value ~wid_node:node ~wid_seq:seq ~stamp:t.clock ~stamp_off:(node * t.n);
  t.c_writes_owned.(node) <- t.c_writes_owned.(node) + 1

(* Owner-side certification of a remote write ([Node.certify_write]): merge
   the incoming writestamp into the owner's clock, then resolve against the
   current entry — [After] and [Concurrent] accept (last writer wins),
   [Before]/[Equal] reject; an accepted write is stored under the merged
   clock; both outcomes run the invalidation pass against the merged
   clock.  The incoming stamp is a window of the caller's arena (a message
   buffer or a writer's clock row) and must not alias the certifying
   node's own clock row — the merge runs first and would corrupt the
   comparison.  A duplicate wid (an RPC retry) changes nothing but the
   clock. *)
let certify t ~node ~loc ~value ~wid_node ~wid_seq ~stamp ~stamp_off =
  let coff = node * t.n in
  Vclock.Flat.merge_into ~dst:t.clock ~dst_off:coff ~src:stamp ~src_off:stamp_off ~dim:t.n;
  let pool = t.pools.(node) and b = base t ~node ~loc in
  if pool.(b + h_wid_node) <> wid_node || pool.(b + h_wid_seq) <> wid_seq then begin
    t.c_writes_certified.(node) <- t.c_writes_certified.(node) + 1;
    (match Vclock.Flat.compare_vt stamp ~a_off:stamp_off pool ~b_off:(b + header) ~dim:t.n with
    | Vclock.After | Vclock.Concurrent ->
        store t ~node ~loc ~value ~wid_node ~wid_seq ~stamp:t.clock ~stamp_off:coff
    | Vclock.Before | Vclock.Equal ->
        t.c_writes_rejected.(node) <- t.c_writes_rejected.(node) + 1);
    invalidate_older t ~node ~thr:t.clock ~thr_off:coff ~keep:(-1)
  end

(* Client-side R_REPLY ([Node.install_remote]): merge the entry's stamp,
   cache the copy, and invalidate anything strictly older than the stamp
   just learned, sparing the new entry's own slot. *)
let install_remote t ~node ~loc ~value ~wid_node ~wid_seq ~stamp ~stamp_off =
  let b = merge_store t ~node ~loc ~value ~wid_node ~wid_seq ~stamp ~stamp_off in
  t.c_installs.(node) <- t.c_installs.(node) + 1;
  invalidate_older t ~node ~thr:stamp ~thr_off:stamp_off ~keep:b

(* Client-side W_REPLY ([Node.adopt_write_reply]): merge and cache the
   certified entry; no invalidation pass. *)
let adopt_write_reply t ~node ~loc ~value ~wid_node ~wid_seq ~stamp ~stamp_off =
  ignore (merge_store t ~node ~loc ~value ~wid_node ~wid_seq ~stamp ~stamp_off)

let cached_hit t ~node ~loc = slot_of t ~node ~loc >= 0

(* Local read: owned locations always hit (they are born present); cached
   copies hit until invalidated.  Only the hit or miss is counted: the
   caller reads a hit through the [entry_*] accessors, and decides on a
   miss whether to fetch (install_remote). *)
let read t ~node ~loc =
  if cached_hit t ~node ~loc then t.c_read_hits.(node) <- t.c_read_hits.(node) + 1
  else t.c_read_misses.(node) <- t.c_read_misses.(node) + 1

(* Next write sequence number for wids minted outside {!owner_write} (the
   remote-write path stamps at the writer before certification); shares the
   counter with {!owner_write} so a node's wids stay unique. *)
let fresh_seq t ~node =
  let seq = t.wseq.(node) in
  t.wseq.(node) <- seq + 1;
  seq

(* Raw entry fields, allocation-free (the entry must be present): the
   parallel engine serialises entries into message buffers from these plus
   the window at {!entry_off} of the node's {!stamp_arena}. *)
let entry_value t ~node ~loc = t.pools.(node).(base t ~node ~loc + h_value)

let entry_wid_node t ~node ~loc = t.pools.(node).(base t ~node ~loc + h_wid_node)

let entry_wid_seq t ~node ~loc = t.pools.(node).(base t ~node ~loc + h_wid_seq)

let entry_off t ~node ~loc = base t ~node ~loc + header

(* {1 Observers (setup/verification-time; these may allocate)} *)

let clock_of t node = Array.sub t.clock (node * t.n) t.n

let clock_arena t = t.clock

let clock_off t node = node * t.n

let stamp_arena t ~node = t.pools.(node)

let entry_view t ~node ~loc =
  if not (cached_hit t ~node ~loc) then None
  else
    let pool = t.pools.(node) and b = base t ~node ~loc in
    Some
      ( pool.(b + h_value),
        Array.sub pool (b + header) t.n,
        pool.(b + h_wid_node),
        pool.(b + h_wid_seq) )

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
    let pool = t.pools.(node) in
    for loc = 0 to t.locs - 1 do
      if cached_hit t ~node ~loc then begin
        let b = base t ~node ~loc in
        mix ((node * t.locs) + loc);
        mix pool.(b + h_value);
        mix pool.(b + h_wid_node);
        mix pool.(b + h_wid_seq);
        for i = 0 to t.n - 1 do
          mix pool.(b + header + i)
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
