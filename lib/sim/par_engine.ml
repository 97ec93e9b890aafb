(* Conservative domain-parallel simulation of the flat Figure-4 data path.

   The sequential {!Engine} is a closure heap: general, but one event at a
   time.  This engine trades generality for scale — it simulates exactly
   the hot-path workload (owner writes, cached reads, and blocking
   remote-read/remote-write round trips over {!Dsm_protocol.Flat}) under a
   synchronous timing model, and extracts parallelism the classic
   conservative-PDES way:

   - Nodes are partitioned into [shards] {e logical} shards (node [mod]
     shards).  Time advances in {e epochs}; one epoch is the network
     latency, i.e. the lookahead: a message sent during epoch [k] cannot
     affect any shard before epoch [k+1], so within an epoch every shard
     is independent and shards can run on any number of domains.

   - Messages cross shards through double-buffered int-encoded mailboxes,
     one per (src shard, dst shard) pair.  During an epoch each shard
     appends to its own out-row; at the epoch barrier the main domain
     swaps the banks.  {e All} traffic goes through the mailboxes — also
     between nodes of the same shard — so behaviour cannot depend on the
     shard layout.  Every record has the same [7 + nodes]-int layout, a
     stamp included.  An R_REQ carries no stamp: nothing writes or reads
     its stamp words, which hold whatever the mailbox held there before.

   - Each shard's epoch is a pure function of (its nodes' state, its
     inbox, its nodes' PRNGs): inboxes are drained in ascending source
     shard order FIFO, then each of the shard's nodes (ascending) takes
     its turn to issue operations.  Shard count fixed, results are
     therefore {e bit-identical for any domain count} — [~domains:1] is
     the reference semantics and the determinism tests hold 2- and
     4-domain runs to its digest, op for op.

   - The barrier is a generation-counting [Mutex]/[Condition] barrier; the
     happens-before edges its lock hand-offs create are the only
     synchronisation.  The Flat state is shared, but every cell is indexed
     by the acting node (see {!Dsm_protocol.Flat}), and an epoch only acts
     as its own shard's nodes, so there are no data races.

   Op streams for the online checker are collected per node in packed int
   logs and handed to [on_ops] at each barrier, on the main domain, in
   ascending node order — which preserves per-process program order, all a
   causal checker may assume.

   Workload choreography (one blocking client per node, at most one
   outstanding request):
   - read of a present location (owned or cached): immediate hit;
   - read miss: R_REQ to the owner, R_REPLY installs (install_remote);
   - write to an owned location: immediate owner_write;
   - write elsewhere: the writer ticks its own clock component (the write
     is an event at the writer, mirroring [local_write]'s increment),
     stamps with its clock, sends W_REQ; the owner certifies; W_REPLY
     carries the owner's entry after certification, and the writer adopts
     it.  Under last-writer-wins the fresh tick makes the stamp either
     After or Concurrent with the owner's entry, so workload writes are
     never rejected — and since a rejected write's W_REPLY would carry
     the entry that beat it, W_REPLY needs no verdict. *)

module Flat = Dsm_protocol.Flat
module Prng = Dsm_util.Prng

type params = {
  nodes : int;
  locs : int;  (** location [l] is owned by node [l mod nodes] *)
  shards : int;  (** logical shards; fixed per run, independent of domains *)
  seed : int;
  read_pct : int;  (** percent of issued ops that are reads *)
  remote_pct : int;  (** percent of ops aimed at a uniformly random (mostly non-owned) location *)
  ops_per_node_per_epoch : int;  (** issue budget per idle node per epoch *)
}

let default_params ~nodes =
  {
    nodes;
    locs = nodes;
    shards = min nodes 16;
    seed = 1;
    read_pct = 60;
    remote_pct = 30;
    ops_per_node_per_epoch = 4;
  }

(* Message kinds.  Fixed stride [7 + nodes] ints:
   [kind; src; dst; loc; value; wid_node; wid_seq; stamp[0..n-1]]. *)
let m_r_req = 0

let m_w_req = 1

let m_r_reply = 2

let m_w_reply = 3

(* Packed op-log records, stride 5: [kind(0=read,1=write); loc; value;
   wid_node; wid_seq].  For reads the wid is the reads-from wid. *)
let log_stride = 5

type buf = { mutable data : int array; mutable len : int }

type t = {
  p : params;
  flat : Flat.t;
  stride : int;
  nshards : int;
  (* Double-buffered mailboxes, row-major [src * nshards + dst].  During an
     epoch shards append to [out] and drain [inbox]; the main domain swaps
     the banks at the barrier. *)
  mutable out : buf array;
  mutable inbox : buf array;
  prng : Prng.t array;
  status : int array; (* 0 idle; 1 blocked on a reply *)
  pending_loc : int array;
  pending_value : int array;
  pending_seq : int array;
  issued : int array;
  completed : int array;
  logs : buf array; (* per node *)
  mutable gen_enabled : bool;
  mutable stop : bool;
  mutable epochs : int;
}

type stats = {
  epochs : int;
  issued : int;
  completed : int;
  reads : int;
  writes : int;
  remote_ops : int;
  digest : int;
  domains_used : int;
}

let create p =
  if p.nodes < 1 then invalid_arg "Par_engine.create: nodes must be >= 1";
  if p.locs < 1 then invalid_arg "Par_engine.create: locs must be >= 1";
  if p.shards < 1 || p.shards > p.nodes then
    invalid_arg "Par_engine.create: shards must be in [1, nodes]";
  if p.ops_per_node_per_epoch < 1 then
    invalid_arg "Par_engine.create: ops_per_node_per_epoch must be >= 1";
  let flat =
    Flat.create ~nodes:p.nodes ~locs:p.locs ~owner:(Array.init p.locs (fun l -> l mod p.nodes)) ()
  in
  let mbanks () = Array.init (p.shards * p.shards) (fun _ -> { data = [||]; len = 0 }) in
  {
    p;
    flat;
    stride = 7 + p.nodes;
    nshards = p.shards;
    out = mbanks ();
    inbox = mbanks ();
    prng =
      Array.init p.nodes (fun n ->
          Prng.create (Int64.add (Int64.of_int p.seed) (Int64.mul 0x9E3779B97F4A7C15L (Int64.of_int (n + 1)))));
    status = Array.make p.nodes 0;
    pending_loc = Array.make p.nodes (-1);
    pending_value = Array.make p.nodes 0;
    pending_seq = Array.make p.nodes 0;
    issued = Array.make p.nodes 0;
    completed = Array.make p.nodes 0;
    logs = Array.init p.nodes (fun _ -> { data = [||]; len = 0 });
    gen_enabled = true;
    stop = false;
    epochs = 0;
  }

let shard_of t node = node mod t.nshards

let reserve b extra =
  if b.len + extra > Array.length b.data then begin
    let cap = ref (max 256 (Array.length b.data)) in
    while b.len + extra > !cap do
      cap := !cap * 2
    done;
    let data = Array.make !cap 0 in
    Array.blit b.data 0 data 0 b.len;
    b.data <- data
  end

(* Append a record to the mailbox from [src]'s shard to [dst]'s, all but
   its stamp words, and return that mailbox: the stamp is the record's last
   [nodes] words. *)
let post t ~kind ~src ~dst ~loc ~value ~wid_node ~wid_seq =
  let mb = t.out.((shard_of t src * t.nshards) + shard_of t dst) in
  reserve mb t.stride;
  let b = mb.data and o = mb.len in
  b.(o) <- kind;
  b.(o + 1) <- src;
  b.(o + 2) <- dst;
  b.(o + 3) <- loc;
  b.(o + 4) <- value;
  b.(o + 5) <- wid_node;
  b.(o + 6) <- wid_seq;
  mb.len <- o + t.stride;
  mb

let send t ~kind ~src ~dst ~loc ~value ~wid_node ~wid_seq ~stamp ~stamp_off =
  let mb = post t ~kind ~src ~dst ~loc ~value ~wid_node ~wid_seq in
  Vclock.Flat.blit ~src:stamp ~src_off:stamp_off ~dst:mb.data ~dst_off:(mb.len - t.p.nodes)
    ~dim:t.p.nodes

let log_op t ~node ~kind ~loc ~value ~wid_node ~wid_seq =
  let lb = t.logs.(node) in
  reserve lb log_stride;
  let b = lb.data and o = lb.len in
  b.(o) <- kind;
  b.(o + 1) <- loc;
  b.(o + 2) <- value;
  b.(o + 3) <- wid_node;
  b.(o + 4) <- wid_seq;
  lb.len <- o + log_stride

(* {2 One shard, one epoch} *)

(* Owner [owner] answers [dst] with its entry for [loc]. *)
let reply_entry t ~kind ~owner ~dst ~loc =
  let flat = t.flat in
  send t ~kind ~src:owner ~dst ~loc
    ~value:(Flat.entry_value flat ~node:owner ~loc)
    ~wid_node:(Flat.entry_wid_node flat ~node:owner ~loc)
    ~wid_seq:(Flat.entry_wid_seq flat ~node:owner ~loc)
    ~stamp:(Flat.stamp_arena flat ~node:owner)
    ~stamp_off:(Flat.entry_off flat ~node:owner ~loc)

let serve_message t b o =
  let kind = b.(o)
  and src = b.(o + 1)
  and dst = b.(o + 2)
  and loc = b.(o + 3)
  and value = b.(o + 4)
  and wid_node = b.(o + 5)
  and wid_seq = b.(o + 6) in
  let soff = o + 7 in
  let flat = t.flat in
  if kind = m_r_req then
    (* Owner serves a read: reply with the current entry (owned locations
       are always present). *)
    reply_entry t ~kind:m_r_reply ~owner:dst ~dst:src ~loc
  else if kind = m_w_req then begin
    Flat.certify flat ~node:dst ~loc ~value ~wid_node ~wid_seq ~stamp:b ~stamp_off:soff;
    reply_entry t ~kind:m_w_reply ~owner:dst ~dst:src ~loc
  end
  else if kind = m_r_reply then begin
    Flat.install_remote flat ~node:dst ~loc ~value ~wid_node ~wid_seq ~stamp:b ~stamp_off:soff;
    log_op t ~node:dst ~kind:0 ~loc ~value ~wid_node ~wid_seq;
    t.status.(dst) <- 0;
    t.completed.(dst) <- t.completed.(dst) + 1
  end
  else begin
    (* W_REPLY: adopt what the owner stores, and log the client's own
       write — its wid was fixed at issue time. *)
    Flat.adopt_write_reply flat ~node:dst ~loc ~value ~wid_node ~wid_seq ~stamp:b
      ~stamp_off:soff;
    log_op t ~node:dst ~kind:1 ~loc:t.pending_loc.(dst) ~value:t.pending_value.(dst)
      ~wid_node:dst ~wid_seq:t.pending_seq.(dst);
    t.status.(dst) <- 0;
    t.completed.(dst) <- t.completed.(dst) + 1
  end

let drain_inbox t shard =
  for src = 0 to t.nshards - 1 do
    let mb = t.inbox.((src * t.nshards) + shard) in
    let o = ref 0 in
    while !o < mb.len do
      serve_message t mb.data !o;
      o := !o + t.stride
    done
  done

(* How many locations node [n] owns under the [l mod nodes] layout, and the
   j-th of them. *)
let owned_count t n = if n >= t.p.locs then 0 else ((t.p.locs - 1 - n) / t.p.nodes) + 1

let owned_loc t n j = n + (j * t.p.nodes)

let generate t node =
  let p = t.p in
  let flat = t.flat in
  let g = t.prng.(node) in
  let budget = ref p.ops_per_node_per_epoch in
  while !budget > 0 && t.status.(node) = 0 do
    decr budget;
    let remote = p.nodes > 1 && Prng.int g 100 < p.remote_pct in
    let loc =
      if remote || owned_count t node = 0 then Prng.int g p.locs
      else owned_loc t node (Prng.int g (owned_count t node))
    in
    let is_read = Prng.int g 100 < p.read_pct in
    t.issued.(node) <- t.issued.(node) + 1;
    if is_read then begin
      if Flat.cached_hit flat ~node ~loc then begin
        Flat.read flat ~node ~loc;
        log_op t ~node ~kind:0 ~loc
          ~value:(Flat.entry_value flat ~node ~loc)
          ~wid_node:(Flat.entry_wid_node flat ~node ~loc)
          ~wid_seq:(Flat.entry_wid_seq flat ~node ~loc);
        t.completed.(node) <- t.completed.(node) + 1
      end
      else begin
        t.status.(node) <- 1;
        t.pending_loc.(node) <- loc;
        ignore
          (post t ~kind:m_r_req ~src:node ~dst:(Flat.owner_of flat loc) ~loc ~value:0
             ~wid_node:(-1) ~wid_seq:0)
      end
    end
    else begin
      let value = Prng.int g 1_000_000 in
      if Flat.owner_of flat loc = node then begin
        Flat.owner_write flat ~node ~loc ~value;
        log_op t ~node ~kind:1 ~loc ~value ~wid_node:node
          ~wid_seq:(Flat.entry_wid_seq flat ~node ~loc);
        t.completed.(node) <- t.completed.(node) + 1
      end
      else begin
        let seq = Flat.fresh_seq flat ~node in
        let clock = Flat.clock_arena flat in
        let coff = Flat.clock_off flat node in
        Vclock.Flat.bump clock ~off:coff node;
        t.status.(node) <- 1;
        t.pending_loc.(node) <- loc;
        t.pending_value.(node) <- value;
        t.pending_seq.(node) <- seq;
        send t ~kind:m_w_req ~src:node ~dst:(Flat.owner_of flat loc) ~loc ~value
          ~wid_node:node ~wid_seq:seq ~stamp:clock ~stamp_off:coff
      end
    end
  done

let epoch_shard t shard =
  drain_inbox t shard;
  if t.gen_enabled then begin
    let n = ref shard in
    while !n < t.p.nodes do
      generate t !n;
      n := !n + t.nshards
    done
  end

(* {2 The barrier phase (main domain only)} *)

let main_phase t ~target_ops ~max_epochs ~on_ops =
  (* Swap mailbox banks: last epoch's out becomes this epoch's inbox; the
     drained inbox is recycled as the empty out bank. *)
  let drained = t.inbox in
  t.inbox <- t.out;
  t.out <- drained;
  Array.iter (fun mb -> mb.len <- 0) t.out;
  (* Hand each node's ops to the consumer, in node order (per-process
     program order), then reset the logs. *)
  (match on_ops with
  | None -> Array.iter (fun lb -> lb.len <- 0) t.logs
  | Some f ->
      for node = 0 to t.p.nodes - 1 do
        let lb = t.logs.(node) in
        if lb.len > 0 then begin
          f ~node ~buf:lb.data ~len:lb.len;
          lb.len <- 0
        end
      done);
  t.epochs <- t.epochs + 1;
  let total_completed = Array.fold_left ( + ) 0 t.completed in
  if total_completed >= target_ops || t.epochs >= max_epochs then t.gen_enabled <- false;
  if not t.gen_enabled then begin
    let idle = Array.for_all (fun s -> s = 0) t.status in
    let in_flight = Array.fold_left (fun acc mb -> acc + mb.len) 0 t.inbox in
    if (idle && in_flight = 0) || t.epochs >= max_epochs + 8 then t.stop <- true
  end

(* {2 The run loop}

   Every participant (the main domain is participant 0) runs the same
   loop: compute my shards' epoch, barrier, [main domain: swap + drain +
   stop decision], barrier, check stop.  A sense-reversing barrier; its
   [Atomic] operations carry the happens-before edges that publish each
   epoch's writes to the next. *)

type barrier = {
  parties : int;
  mutex : Mutex.t;
  cond : Condition.t;
  mutable count : int;
  mutable generation : int;
}

let barrier_make parties =
  { parties; mutex = Mutex.create (); cond = Condition.create (); count = 0; generation = 0 }

(* A brief spin covers the common case of shards finishing together; the
   condvar keeps oversubscribed runs (more domains than cores) from burning
   whole scheduler timeslices per epoch.  Mutex release/acquire carries the
   happens-before edges that publish each epoch's writes to the next. *)
let barrier_await bar =
  Mutex.lock bar.mutex;
  let gen = bar.generation in
  bar.count <- bar.count + 1;
  if bar.count = bar.parties then begin
    bar.count <- 0;
    bar.generation <- gen + 1;
    Condition.broadcast bar.cond
  end
  else
    while bar.generation = gen do
      Condition.wait bar.cond bar.mutex
    done;
  Mutex.unlock bar.mutex

let participant t bar ~rank ~parties ~target_ops ~max_epochs ~on_ops =
  let running = ref true in
  while !running do
    let s = ref rank in
    while !s < t.nshards do
      epoch_shard t !s;
      s := !s + parties
    done;
    barrier_await bar;
    if rank = 0 then main_phase t ~target_ops ~max_epochs ~on_ops;
    barrier_await bar;
    if t.stop then running := false
  done

let run ?(domains = 1) ?(target_ops = 10_000) ?(max_epochs = 1_000_000) ?on_ops t =
  if t.stop || t.epochs > 0 then invalid_arg "Par_engine.run: engine already ran";
  let parties = max 1 (min domains t.nshards) in
  let bar = barrier_make parties in
  let workers =
    Array.init (parties - 1) (fun i ->
        Domain.spawn (fun () ->
            participant t bar ~rank:(i + 1) ~parties ~target_ops ~max_epochs ~on_ops:None))
  in
  participant t bar ~rank:0 ~parties ~target_ops ~max_epochs ~on_ops;
  Array.iter Domain.join workers;
  let c = Flat.counters t.flat in
  {
    epochs = t.epochs;
    issued = Array.fold_left ( + ) 0 t.issued;
    completed = Array.fold_left ( + ) 0 t.completed;
    reads = c.Flat.read_hits + c.Flat.installs;
    writes = c.Flat.writes_owned + c.Flat.writes_certified;
    remote_ops = c.Flat.installs + c.Flat.writes_certified;
    digest = Flat.digest t.flat;
    domains_used = parties;
  }

let flat t = t.flat

let params t = t.p
