module Loc = Dsm_memory.Loc
module Owner = Dsm_memory.Owner
module Shard = Dsm_memory.Shard

type completion =
  | Reply of { dst : int; kind : string; size : int; msg : Message.t }
  | Writer of int

type event =
  | Deliver of { dst : int; src : int; now : float; msg : Message.t }
  | Hb_tick of { node : int; now : float }
  | Grace_expired of { node : int; seq : int }
  | Issue_read of { node : int; loc : Loc.t }
  | Issue_write of { node : int; loc : Loc.t; value : Dsm_memory.Value.t }
  | Owner_write of { node : int; loc : Loc.t; value : Dsm_memory.Value.t; writer : int }
  | Reply_taken of { node : int; req : int; msg : Message.t }
  | Rpc_timeout of { node : int; req : int; retry : bool }
  | Learn_view of { node : int; base : int; epoch : int; serving : int }
  | Crash of { node : int }
  | Restart of { node : int; now : float; records : Log_record.t list }
  | Begin_checkpoint of { node : int }
  | Subscribe of { node : int; shard : int }
  | Unsubscribe of { node : int; shard : int }

type action =
  | Send of { src : int; dst : int; kind : string; size : int; msg : Message.t }
  | Client_reply of { node : int; req : int; msg : Message.t }
  | Park of { node : int; req : int }
  | Read_done of { node : int; loc : Loc.t; entry : Stamped.t }
  | Write_stamped of { node : int; loc : Loc.t; entry : Stamped.t; writer : int option }
  | Write_done of { node : int; wid : Dsm_memory.Wid.t; accepted : bool }
  | Gave_up of { node : int; dst : int; attempts : int }
  | Wake_writer of { node : int; writer : int }
  | Append of { node : int; record : Log_record.t }
  | Arm_grace of { node : int; seq : int }
  | Take_checkpoint of { node : int; round : int }
  | Emit of Trace.body

(* A backup canvassing for takeover of one base: the epoch it is asking
   for and the peers (itself included) that granted an OWNER_VOTE. *)
type candidacy = { cand_epoch : int; mutable grants : int list }

(* A client operation parked on a request: what was asked, where the
   request last went, its redirects and its sends (redirects aside). *)
type request =
  | Fetch of Vclock.t  (* READ; the clock at issue, for the stale-install guard *)
  | Shadow_fetch of int  (* SH_READ to the suspected owner's backup *)
  | Ship of Stamped.t  (* WRITE of the entry stamped at issue *)

type client = { loc : Loc.t; request : request; redirects : int; attempts : int; dst : int }

type state = {
  nodes : Node.t array;
  owner : Owner.t;
  config : Config.t;
  (* Partial replication: [None] is the legacy full-replication layout
     (every node replicates everything, broadcasts go cluster-wide,
     metadata is cluster-width).  [Some] scopes routing, failure detection,
     quorum and wire accounting to each shard's share-set. *)
  sharding : Shard.t option;
  crashed : bool array;
  detectors : Detector.t array option; (* Some iff failover is enabled *)
  shadow_pending : (int, completion) Hashtbl.t array;
  mutable shadow_seq : int;
  mutable dropped_at_crashed : int;
  mutable takeovers : int;
  mutable shadow_degraded : int;
  (* Quorum-gated takeover: per node, the open canvasses (base -> candidacy)
     and the vote promises made to other candidates (base -> epoch,
     candidate); [degraded] marks owners that lost majority contact and
     serve read-only until the partition heals. *)
  candidacies : (int, candidacy) Hashtbl.t array;
  promises : (int, int * int) Hashtbl.t array;
  degraded : bool array;
  mutable votes_granted : int;
  mutable degraded_refusals : int;
  mutable partition_heals : int;
  (* Coordinated checkpoints: the highest round each node has snapshotted,
     and (at initiators) the outstanding ack counts per open round. *)
  cp_round : int array;
  cp_acks : (int, int) Hashtbl.t array;
  mutable cp_seq : int;
  mutable cp_started : int;
  mutable cp_completed : int;
  (* The client half: per node, its parked operations by request tag
     (rarely more than one); the next owner-writer token; the client-side
     counters. *)
  clients : (int * client) list array;
  mutable writer_seq : int;
  mutable redirects : int;
  mutable shadow_reads : int;
  mutable tracing : bool;
}

(* {1 Failure-detector watch masks}

   Under sharding the relation is directed: node [a] watches exactly the
   ring members of the shards it subscribes to (its own ring included),
   and beats exactly its own shard's share-set — the nodes that watch
   it.  Ring members thus still hear each other (takeover, canvasses,
   check-quorum, the lease) and a subscriber still suspects a dead owner
   of a shard it reads (degraded shadow reads), while nobody beacons at a
   node whose detector ignores it.  Rings are disjoint, so a join or
   leave of one shard flips one ring's bits at the joiner and nothing
   else can still justify them.  A peer is only ever unwatched via
   [Detector.set_watched], which clears any suspicion, so an unwatched
   peer is never suspected. *)

let init_watch_masks dets s =
  Array.iteri
    (fun me det ->
      let own = Shard.of_base s me in
      for p = 0 to Array.length dets - 1 do
        if Shard.of_base s p <> own then Detector.set_watched det ~peer:p false
      done)
    dets

(* After [node] joined or left [shard], it watches the shard's ring iff it
   still subscribes (a ring member's own ring never leaves). *)
let watch_ring t s ~shard ~node =
  match t.detectors with
  | Some dets ->
      let on = Shard.subscribed s ~shard ~node in
      List.iter
        (fun p -> if p <> node then Detector.set_watched dets.(node) ~peer:p on)
        (Shard.ring s shard)
  | None -> ()

let join t s ~shard ~node =
  Shard.subscribe s ~shard ~node;
  watch_ring t s ~shard ~node

let leave t s ~shard ~node =
  Shard.unsubscribe s ~shard ~node;
  watch_ring t s ~shard ~node

let create ~owner ~config ?detector ?sharding ~now () =
  let processes = Owner.nodes owner in
  (match sharding with
  | Some s when Shard.nodes s <> processes ->
      invalid_arg "Protocol.create: sharding and owner disagree on cluster size"
  | _ -> ());
  let detectors =
    (* Failover needs a peer to fail over to. *)
    match detector with
    | Some cfg when processes >= 2 ->
        Some (Array.init processes (fun me -> Detector.create cfg ~nodes:processes ~me ~now))
    | Some _ | None -> None
  in
  (match (detectors, sharding) with Some dets, Some s -> init_watch_masks dets s | _ -> ());
  {
    nodes = Array.init processes (fun id -> Node.create ~id ~owner ~config);
    owner;
    config;
    sharding;
    crashed = Array.make processes false;
    detectors;
    shadow_pending = Array.init processes (fun _ -> Hashtbl.create 8);
    shadow_seq = 0;
    dropped_at_crashed = 0;
    takeovers = 0;
    shadow_degraded = 0;
    candidacies = Array.init processes (fun _ -> Hashtbl.create 2);
    promises = Array.init processes (fun _ -> Hashtbl.create 2);
    degraded = Array.make processes false;
    votes_granted = 0;
    degraded_refusals = 0;
    partition_heals = 0;
    cp_round = Array.make processes 0;
    cp_acks = Array.init processes (fun _ -> Hashtbl.create 4);
    cp_seq = 0;
    cp_started = 0;
    cp_completed = 0;
    clients = Array.make processes [];
    writer_seq = 0;
    redirects = 0;
    shadow_reads = 0;
    tracing = false;
  }

let processes t = Array.length t.nodes

let node t pid = t.nodes.(pid)

let is_crashed t pid = t.crashed.(pid)

let failover_on t = t.detectors <> None

let sharding t = t.sharding

let subscriptions t = match t.sharding with None -> [] | Some s -> Shard.subscriptions s

let quorum t = (Array.length t.nodes / 2) + 1

(* Shard-local quorum: under sharding the electorate for [base] is its
   shard's owner ring — a majority of the ring, not of the cluster, gates
   takeover and write service, so a fault in one shard cannot stall the
   others (and a ring minority still cannot fork a base's history). *)
let quorum_for t ~base =
  match t.sharding with
  | None -> quorum t
  | Some s -> (Shard.ring_size s (Shard.of_base s base) / 2) + 1

let suspected t ~me ~peer =
  match t.detectors with Some dets -> Detector.suspected dets.(me) peer | None -> false

let watched t ~me ~peer =
  match t.detectors with Some dets -> Detector.watched dets.(me) ~peer | None -> false

let backup_of t ~serving =
  match t.sharding with
  | Some s -> Shard.ring_successor s ~node:serving
  | None ->
      let n = Array.length t.nodes in
      let b = (serving + 1) mod n in
      if b = serving then None else Some b

(* The cluster-wide view: per base, the highest epoch any node has adopted. *)
let view t =
  let n = Array.length t.nodes in
  let best = Array.init n (fun base -> (0, base)) in
  Array.iter
    (fun node ->
      List.iter
        (fun (base, epoch, serving) ->
          let e, _ = best.(base) in
          if epoch > e then best.(base) <- (epoch, serving))
        (Node.view node))
    t.nodes;
  let acc = ref [] in
  for base = n - 1 downto 0 do
    let e, s = best.(base) in
    if e > 0 then acc := (base, e, s) :: !acc
  done;
  !acc

let dropped_at_crashed t = t.dropped_at_crashed

let takeovers t = t.takeovers

let shadow_degraded t = t.shadow_degraded

let redirects t = t.redirects

let shadow_reads t = t.shadow_reads

let suspect_events t =
  match t.detectors with
  | None -> 0
  | Some dets -> Array.fold_left (fun acc d -> acc + Detector.suspect_events d) 0 dets

let unsuspect_events t =
  match t.detectors with
  | None -> 0
  | Some dets -> Array.fold_left (fun acc d -> acc + Detector.unsuspect_events d) 0 dets

let suspected_by t pid =
  match t.detectors with None -> [] | Some dets -> Detector.suspected_now dets.(pid)

let partition_degraded t pid = t.degraded.(pid)

let votes_granted t = t.votes_granted

let degraded_refusals t = t.degraded_refusals

let partition_heals t = t.partition_heals

let candidacies t pid =
  Hashtbl.fold
    (fun base c acc -> (base, c.cand_epoch, List.sort compare c.grants) :: acc)
    t.candidacies.(pid) []
  |> List.sort compare

let vote_promises t pid =
  Hashtbl.fold (fun base (epoch, candidate) acc -> (base, epoch, candidate) :: acc)
    t.promises.(pid) []
  |> List.sort compare

let shadow_pending_list t pid =
  Hashtbl.fold (fun seq wait acc -> (seq, wait) :: acc) t.shadow_pending.(pid) []
  |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)

let shadow_seqno t = t.shadow_seq

let parked t pid = List.sort (fun (a, _) (b, _) -> compare (a : int) b) t.clients.(pid)

let checkpoint_round t pid = t.cp_round.(pid)

let checkpoint_rounds_started t = t.cp_started

let checkpoint_rounds_completed t = t.cp_completed

let checkpoint_acks_pending t pid =
  Hashtbl.fold (fun round got acc -> (round, got) :: acc) t.cp_acks.(pid) []
  |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)

let set_tracing t on =
  t.tracing <- on;
  Array.iter (fun node -> Node.set_tracing node on) t.nodes

(* {1 Action accumulation}

   Actions are consed onto a reversed list and flipped once at the end of
   [step]. *)

let act acc a = acc := a :: !acc

let emitq t acc body = if t.tracing then act acc (Emit body)

(* Node mutators queue their own trace bodies internally (they cannot emit
   effects); [flush] moves whatever one node queued into the action list at
   the point the caller chooses, preserving order. *)
let flush t me acc =
  if t.tracing then List.iter (fun body -> act acc (Emit body)) (Node.drain_trace t.nodes.(me))

(* {1 Share-set-width wire accounting}

   Under sharding, an entry shipped for a location is priced at its
   share-set's width, not at cluster width — the writestamp a real partial
   replication puts on the wire is indexed through the shard's membership
   map (see {!Dsm_memory.Membership}).  In-memory stamps stay full-width
   (owner clocks mix cross-shard components through certification, so a
   lossy projection would be unsound for comparisons); this is the same
   logical-vs-physical split the transport layer uses for frames. *)

let entry_dim t ~base =
  match t.sharding with
  | None -> Owner.nodes t.owner
  | Some s -> Shard.width s (Shard.of_base s base)

let entry_wire_size t ~base count = count * t.config.Config.entry_size (entry_dim t ~base)

let digest_wire_size t digest =
  match t.sharding with
  | None -> Write_digest.wire_size digest ~dim:(Owner.nodes t.owner)
  | Some s ->
      List.fold_left
        (fun acc (loc, _) -> acc + Shard.width s (Shard.of_loc s loc) + 2)
        0 digest

(* Subscriber-only digest routing: a reply ships digest entries only for
   shards the requester subscribes to — metadata for locations a node does
   not replicate buys it nothing.  The [Prune_share_set_wrongly] mutation
   is the planted bug: it treats runtime subscribers as if they were not
   in the share-set (only ring members keep their entries), so a genuine
   subscriber's cached copy misses the invalidation a causally newer write
   should have forced. *)
let digest_for t ~dst digest =
  match t.sharding with
  | None -> digest
  | Some s ->
      List.filter
        (fun (loc, _) ->
          let shard = Shard.of_loc s loc in
          Shard.subscribed s ~shard ~node:dst
          &&
          match t.config.Config.mutation with
          | Config.Prune_share_set_wrongly -> Shard.in_ring s ~shard ~node:dst
          | _ -> true)
        digest

(* Interest-based subscribe-on-access: serving a request for a location
   implicitly enrols the requester in its shard's share-set, so the
   invalidation metadata for the copy it is about to cache keeps flowing
   to it.  (The reply itself is the catch-up transfer for this first
   access; explicit {!event.Subscribe} covers joining ahead of access.) *)
let note_access t ~src loc =
  match t.sharding with
  | None -> ()
  | Some s ->
      let shard = Shard.of_loc s loc in
      if not (Shard.subscribed s ~shard ~node:src) then join t s ~shard ~node:src

(* Broadcast scoping: with sharding, per-base traffic fans out to the
   base's share-set only (takeover announcements, demotion frontiers), and
   votes are canvassed from its ring.  [to_subscribers] calls [f] on each
   target in ascending order, walking the cached share-set rather than
   building a list: heartbeats take this path on every tick. *)
let to_subscribers t ~me ~base f =
  match t.sharding with
  | None ->
      for d = 0 to Array.length t.nodes - 1 do
        if d <> me then f d
      done
  | Some s -> List.iter (fun d -> if d <> me then f d) (Shard.subscribers s (Shard.of_base s base))

let ring_targets t ~me ~base =
  match t.sharding with
  | None -> List.filter (fun d -> d <> me) (List.init (Array.length t.nodes) Fun.id)
  | Some s -> List.filter (fun d -> d <> me) (Shard.ring s (Shard.of_base s base))

(* Reachability for the owner-side lease check, scoped to the electorate
   that matters: under sharding an owner's quorum is over its own ring. *)
let reachable_of t ~me det =
  match t.sharding with
  | None -> Array.length t.nodes - List.length (Detector.suspected_now det)
  | Some s ->
      let ring = Shard.ring s (Shard.of_base s me) in
      List.length (List.filter (fun p -> p = me || not (Detector.suspected det p)) ring)

let append t acc me record =
  act acc (Append { node = me; record });
  emitq t acc (Trace.Wal_append { node = me; kind = Log_record.kind record })

(* Any delivery is proof of life: protocol traffic unsuspects a peer just
   as heartbeats do.  An unsuspect edge also settles partition state: open
   canvasses against the revived node are abandoned, and a degraded owner
   that regains quorum contact resumes normal service. *)
let heard t acc ~me ~src ~now =
  match t.detectors with
  | Some dets when src <> me ->
      if Detector.heard dets.(me) ~peer:src ~now then begin
        emitq t acc (Trace.Unsuspect { node = me; peer = src });
        let node = t.nodes.(me) in
        let stale =
          Hashtbl.fold
            (fun base _ acc -> if Node.serving_of node ~base = src then base :: acc else acc)
            t.candidacies.(me) []
        in
        List.iter (Hashtbl.remove t.candidacies.(me)) stale;
        if t.degraded.(me) then begin
          let reachable = reachable_of t ~me dets.(me) in
          if reachable >= quorum_for t ~base:me then begin
            t.degraded.(me) <- false;
            t.partition_heals <- t.partition_heals + 1;
            emitq t acc (Trace.Partition_healed { node = me; reachable })
          end
        end
      end
  | _ -> ()

(* Fold in a view entry learned from any channel (takeover broadcast,
   heartbeat gossip, fencing reply), logging real changes for replay.  A
   demotion additionally ships the entries this node was serving to the
   new server (FRONTIER): adoption drops them locally, and the new server
   merges them newest-wins — the reconciliation half of a partition heal,
   which also recovers writes acknowledged without shadow replication. *)
let learn_view t acc ~me ~base ~epoch ~serving =
  let node = t.nodes.(me) in
  let will_demote =
    epoch > Node.epoch_of node ~base && Node.serving_of node ~base = me && serving <> me
  in
  let served = if will_demote then Node.served_entries node ~base else [] in
  match Node.adopt_view node ~base ~epoch ~serving with
  | Node.View_ignored -> ()
  | (Node.View_adopted | Node.View_demoted) as outcome ->
      flush t me acc;
      append t acc me (Log_record.View_change { base; epoch; serving });
      (* A newer adopted epoch settles any open canvass at or below it. *)
      (match Hashtbl.find_opt t.candidacies.(me) base with
      | Some c when c.cand_epoch <= epoch -> Hashtbl.remove t.candidacies.(me) base
      | _ -> ());
      if outcome = Node.View_demoted && served <> [] then
        act acc
          (Send
             {
               src = me;
               dst = serving;
               kind = "FRONTIER";
               size = entry_wire_size t ~base (List.length served);
               msg = Message.Frontier { base; epoch; entries = served };
             })

let next_shadow_seq t =
  let s = t.shadow_seq in
  t.shadow_seq <- s + 1;
  s

let send_shadow t acc ~me ~backup ~base ~seq entries =
  act acc
    (Send
       {
         src = me;
         dst = backup;
         kind = "SHADOW";
         size = entry_wire_size t ~base (List.length entries);
         msg = Message.Shadow { seq; base; entries };
       })

let complete t acc ~me wait =
  match wait with
  | Reply { dst; kind; size; msg } ->
      (* The owner may have crashed while the shadow was in flight; a dead
         node sends nothing. *)
      if not t.crashed.(me) then act acc (Send { src = me; dst; kind; size; msg })
  | Writer writer ->
      (* The node is up: [Crash] wakes every writer still parked at it and
         forgets their shadows, so none completes here later. *)
      act acc (Wake_writer { node = me; writer })

let degrade t acc ~me ~seq =
  t.shadow_degraded <- t.shadow_degraded + 1;
  emitq t acc (Trace.Shadow_degraded { node = me; seq })

(* Replicate freshly certified [entries] of [base] to the designated backup
   and run [wait]'s completion once acknowledged.  Degrades to completing
   immediately when failover is off or the backup is itself suspected.
   The [Reorder_apply_ack] mutation acknowledges first and replicates
   asynchronously; [Skip_shadow_replication] never replicates at all. *)
let shadow_then t acc ~me ~base entries wait =
  let proceed () = complete t acc ~me wait in
  match t.config.Config.mutation with
  | Config.Skip_shadow_replication -> proceed ()
  | Config.Reorder_apply_ack ->
      proceed ();
      if failover_on t then begin
        match backup_of t ~serving:me with
        | Some backup when not (suspected t ~me ~peer:backup) ->
            let seq = next_shadow_seq t in
            send_shadow t acc ~me ~backup ~base ~seq entries
        | Some _ | None -> ()
      end
  | _ ->
      if not (failover_on t) then proceed ()
      else (
        match backup_of t ~serving:me with
        | None -> proceed ()
        | Some backup when suspected t ~me ~peer:backup ->
            degrade t acc ~me ~seq:(-1);
            proceed ()
        | Some backup ->
            let seq = next_shadow_seq t in
            Hashtbl.replace t.shadow_pending.(me) seq wait;
            send_shadow t acc ~me ~backup ~base ~seq entries;
            act acc (Arm_grace { node = me; seq }))

(* Epoch fencing: a request is served only by the node currently serving
   the location under an epoch at least as new as the client's.  Everything
   else gets the server's own view back and re-routes. *)
let fence node loc epoch =
  let base = Node.base_owner_of node loc in
  if (not (Node.owns node loc)) || epoch < Node.epoch_of node ~base then
    Some (base, Node.epoch_of node ~base, Node.serving_of node ~base)
  else None

(* Record a checkpoint for [round] at [me]: the caller (shell or model)
   must snapshot the node's state onto stable storage before any later
   event runs at this node — that ordering is what makes the per-node
   snapshots a consistent cut over FIFO links. *)
let take_checkpoint t acc ~me ~round =
  t.cp_round.(me) <- round;
  if round > t.cp_seq then t.cp_seq <- round;
  act acc (Take_checkpoint { node = me; round });
  emitq t acc (Trace.Checkpoint_taken { node = me; round })

let cp_round_complete t acc ~me ~round =
  t.cp_completed <- t.cp_completed + 1;
  emitq t acc (Trace.Recovery_line { node = me; round })

(* The promotion itself, once authorised (quorum of OWNER_VOTEs, or the
   [Takeover_without_quorum] mutation skipping the canvass): install the
   shadow state under the new epoch, broadcast the takeover, and prime this
   node's own backup with the inherited state. *)
let promote_takeover t acc ~me ~base ~epoch =
  let node = t.nodes.(me) in
  let deposed = Node.serving_of node ~base in
  let inherited = Node.promote node ~base ~epoch in
  t.takeovers <- t.takeovers + 1;
  flush t me acc;
  append t acc me (Log_record.View_change { base; epoch; serving = me });
  (* Only the base's subscribers route requests to it, so only they need
     the announcement; stragglers outside the share-set learn lazily from
     STALE fencing if they ever subscribe later. *)
  to_subscribers t ~me ~base (fun dst ->
      act acc
        (Send
           {
             src = me;
             dst;
             kind = "TAKEOVER";
             size = 1;
             msg = Message.Takeover { base; epoch; serving = me };
           }));
  match backup_of t ~serving:me with
  | Some next_backup
    when next_backup <> deposed
         && (not (suspected t ~me ~peer:next_backup))
         && inherited <> [] ->
      (* Fire-and-forget snapshot: no reply is gated on it, the per-write
         shadows that follow keep it current. *)
      let seq = next_shadow_seq t in
      send_shadow t acc ~me ~backup:next_backup ~base ~seq inherited
  | _ -> ()

(* A heartbeat tick suspecting [peer] opens a canvass: if this node is the
   designated backup for a base [peer] was serving, it asks every peer for
   an OWNER_VOTE and promotes only once ⌊n/2⌋+1 grants (its own included)
   are in — a minority-side backup can suspect all it wants, it will never
   reach quorum, which is what prevents split-brain.  The
   [Takeover_without_quorum] mutation is the planted bug: it promotes on
   suspicion alone, exactly the pre-quorum behavior. *)
let on_suspect t acc ~me ~peer =
  let node = t.nodes.(me) in
  let n = Array.length t.nodes in
  for base = 0 to n - 1 do
    if Node.serving_of node ~base = peer then
      match backup_of t ~serving:peer with
      | Some b when b = me ->
          let epoch = Node.epoch_of node ~base + 1 in
          if t.config.Config.mutation = Config.Takeover_without_quorum then
            promote_takeover t acc ~me ~base ~epoch
          else if not (Hashtbl.mem t.candidacies.(me) base) then begin
            Hashtbl.replace t.candidacies.(me) base { cand_epoch = epoch; grants = [ me ] };
            List.iter
              (fun dst ->
                act acc
                  (Send
                     {
                       src = me;
                       dst;
                       kind = "VOTE_REQ";
                       size = 1;
                       msg = Message.Vote_req { base; epoch; candidate = me };
                     }))
              (ring_targets t ~me ~base)
          end
      | _ -> ()
  done

(* Owner-side lease check, run on every heartbeat tick: an owner that can
   reach fewer than ⌊n/2⌋+1 nodes (itself included) may be on the minority
   side of a partition whose majority is electing a replacement, so it
   drops to read-only degraded mode — reads of its (possibly stale but
   causally consistent) copies stay Definition-2 safe, while writes are
   refused until {!heard} sees quorum contact again. *)
let maybe_degrade t acc ~me det =
  if not t.degraded.(me) then begin
    let node = t.nodes.(me) in
    let n = Array.length t.nodes in
    let serves = ref false in
    for base = 0 to n - 1 do
      if Node.serving_of node ~base = me then serves := true
    done;
    let reachable = reachable_of t ~me det in
    let q = quorum_for t ~base:me in
    if !serves && reachable < q then begin
      t.degraded.(me) <- true;
      emitq t acc (Trace.Degraded { node = me; reachable; quorum = q })
    end
  end

(* What a backup serves for a degraded read while the owner is suspected:
   the shadow copy (every acknowledged write is in it), the served copy if
   it already promoted, or the initial value if the location was never
   written — all live values under Definition 2. *)
let shadow_copy t node loc =
  if Node.owns node loc then Option.get (Node.lookup node loc)
  else
    match Node.shadow_lookup node ~base:(Node.base_owner_of node loc) loc with
    | Some e -> e
    | None -> Stamped.initial ~processes:(Array.length t.nodes) (t.config.Config.init loc)

(* The owner-side services of Figure 4 plus the failover machinery; one
   message delivery, handled atomically. *)
let handle_message t acc ~me ~src ~now msg =
  if t.crashed.(me) then
    (* A crash-stop node loses everything that arrives while it is down. *)
    t.dropped_at_crashed <- t.dropped_at_crashed + 1
  else begin
    heard t acc ~me ~src ~now;
    let node = t.nodes.(me) in
    match (msg : Message.t) with
    | Message.Read_req { req; loc; epoch } -> (
        let fenced =
          (* The [Ignore_epoch_fence] mutation serves reads unconditionally:
             a deposed or restarted owner answers for locations it no longer
             serves. *)
          if t.config.Config.mutation = Config.Ignore_epoch_fence then None
          else fence node loc epoch
        in
        match fenced with
        | Some (base, my_epoch, serving) ->
            act acc
              (Send
                 {
                   src = me;
                   dst = src;
                   kind = "STALE";
                   size = 1;
                   msg = Message.Stale_epoch { req; base; epoch = my_epoch; serving };
                 })
        | None ->
            let entry =
              match Node.lookup node loc with
              | Some e -> e
              | None ->
                  (* Served locations are always present after lookup; only
                     the fence mutation reaches here, answering for a
                     location this node does not serve. *)
                  Stamped.initial ~processes:(Array.length t.nodes) (t.config.Config.init loc)
            in
            let page = Node.page_entries node loc in
            note_access t ~src loc;
            let digest = digest_for t ~dst:src (Node.digest_export node) in
            let base = Node.base_owner_of node loc in
            flush t me acc;
            act acc
              (Send
                 {
                   src = me;
                   dst = src;
                   kind = "R_REPLY";
                   size =
                     entry_wire_size t ~base (1 + List.length page)
                     + digest_wire_size t digest;
                   msg = Message.Read_reply { req; loc; entry; page; digest };
                 }))
    | Message.Write_req { req; loc; entry; digest; epoch } -> (
        match fence node loc epoch with
        | Some (base, my_epoch, serving) ->
            act acc
              (Send
                 {
                   src = me;
                   dst = src;
                   kind = "STALE";
                   size = 1;
                   msg = Message.Stale_epoch { req; base; epoch = my_epoch; serving };
                 })
        | None when t.degraded.(me) ->
            (* Read-only degraded mode: certifying a write while cut off
               from the majority could fork this location's history against
               a quorum-elected replacement.  Stay silent — the client's
               RPC machinery times out and retries after the heal. *)
            t.degraded_refusals <- t.degraded_refusals + 1
        | None ->
            Node.digest_merge node digest;
            let accepted = ref false in
            let stored = Node.certify_write node loc entry ~accepted in
            flush t me acc;
            (* Durable before the reply leaves the node: an acknowledged
               write must survive a crash (the rejected case still logs the
               clock merge, so replay reaches the exact frontier). *)
            if !accepted then append t acc me (Log_record.Write { loc; entry = stored })
            else append t acc me (Log_record.Clock (Node.vt node));
            note_access t ~src loc;
            let digest = digest_for t ~dst:src (Node.digest_export node) in
            let reply =
              Message.Write_reply { req; loc; accepted = !accepted; entry = stored; digest }
            in
            let size =
              entry_wire_size t ~base:(Node.base_owner_of node loc) 1
              + digest_wire_size t digest
            in
            let wait = Reply { dst = src; kind = "W_REPLY"; size; msg = reply } in
            if !accepted then
              shadow_then t acc ~me ~base:(Node.base_owner_of node loc) [ (loc, stored) ] wait
            else complete t acc ~me wait)
    | Message.Heartbeat { view } ->
        List.iter (fun (base, epoch, serving) -> learn_view t acc ~me ~base ~epoch ~serving) view
    | Message.Takeover { base; epoch; serving } -> learn_view t acc ~me ~base ~epoch ~serving
    | Message.Shadow { seq; base; entries } ->
        List.iter
          (fun (loc, entry) ->
            Node.shadow_store node ~base loc entry;
            append t acc me (Log_record.Shadow_entry { base; loc; entry }))
          entries;
        act acc
          (Send
             { src = me; dst = src; kind = "SH_ACK"; size = 1; msg = Message.Shadow_ack { seq } })
    | Message.Shadow_ack { seq } -> (
        match Hashtbl.find_opt t.shadow_pending.(me) seq with
        | Some wait ->
            Hashtbl.remove t.shadow_pending.(me) seq;
            complete t acc ~me wait
        | None ->
            (* An ack after the grace timer already degraded, or for a
               fire-and-forget snapshot shadow: nothing left to do. *)
            ())
    | Message.Shadow_read_req { req; loc } ->
        let base = Node.base_owner_of node loc in
        let entry = shadow_copy t node loc in
        flush t me acc;
        act acc
          (Send
             {
               src = me;
               dst = src;
               kind = "SH_REPLY";
               size = entry_wire_size t ~base 1;
               msg = Message.Shadow_read_reply { req; loc; entry };
             })
    | Message.Vote_req { base; epoch; candidate } ->
        (* Grant iff the canvassed epoch is news, this node is not itself
           serving the base, the incumbent server also looks dead from
           here (check-quorum: silent beyond the detector window — a
           candidate's transient false suspicion must not be able to
           collect a quorum against a healthy owner everyone else still
           hears from), and no conflicting promise is outstanding at this
           or a higher epoch.  Re-asking (a retried canvass) re-sends the
           same grant — promises are idempotent per candidate. *)
        let server = Node.serving_of node ~base in
        let ok =
          epoch > Node.epoch_of node ~base
          && server <> me
          && (match t.detectors with
             | Some dets -> Detector.stale dets.(me) ~peer:server ~now
             | None -> false)
          && (match Hashtbl.find_opt t.promises.(me) base with
             | Some (promised_epoch, promised_to) ->
                 promised_to = candidate || epoch > promised_epoch
             | None -> true)
        in
        if ok then begin
          Hashtbl.replace t.promises.(me) base (epoch, candidate);
          t.votes_granted <- t.votes_granted + 1;
          emitq t acc (Trace.Vote_granted { node = me; candidate; base; epoch });
          act acc
            (Send
               {
                 src = me;
                 dst = src;
                 kind = "OWNER_VOTE";
                 size = 1;
                 msg = Message.Vote_grant { base; epoch; candidate };
               })
        end
    | Message.Vote_grant { base; epoch; candidate } -> (
        if candidate = me then
          match Hashtbl.find_opt t.candidacies.(me) base with
          | Some c when c.cand_epoch = epoch ->
              if not (List.mem src c.grants) then c.grants <- src :: c.grants;
              if List.length c.grants >= quorum_for t ~base then begin
                Hashtbl.remove t.candidacies.(me) base;
                (* The canvass can outlive its purpose: gossip may have
                   advanced the epoch while the votes were in flight. *)
                if epoch > Node.epoch_of node ~base then
                  promote_takeover t acc ~me ~base ~epoch
              end
          | Some _ | None -> ())
    | Message.Frontier { base; epoch = _; entries } ->
        (* Reconciliation from a demoted server: merge its entries
           newest-wins, make the winners durable, and re-shadow them so the
           recovered writes survive this node too. *)
        if Node.serving_of node ~base = me && entries <> [] then begin
          let won =
            List.filter (fun (loc, entry) -> Node.reconcile_served node loc entry) entries
          in
          flush t me acc;
          List.iter (fun (loc, entry) -> append t acc me (Log_record.Write { loc; entry })) won;
          append t acc me (Log_record.Clock (Node.vt node));
          match backup_of t ~serving:me with
          | Some backup when won <> [] && not (suspected t ~me ~peer:backup) ->
              let seq = next_shadow_seq t in
              send_shadow t acc ~me ~backup ~base ~seq won
          | _ -> ()
        end
    | Message.Cp_marker { round; initiator } ->
        (* First marker for a round: snapshot before touching anything that
           arrives later, then relay the marker on every other outgoing
           channel (Chandy–Lamport) and tell the initiator the snapshot is
           stable.  Later markers for the same round are duplicates. *)
        if round > t.cp_round.(me) then begin
          take_checkpoint t acc ~me ~round;
          let n = Array.length t.nodes in
          for dst = 0 to n - 1 do
            if dst <> me && dst <> src && dst <> initiator then
              act acc
                (Send
                   {
                     src = me;
                     dst;
                     kind = "CP_MARK";
                     size = 1;
                     msg = Message.Cp_marker { round; initiator };
                   })
          done;
          act acc
            (Send
               {
                 src = me;
                 dst = initiator;
                 kind = "CP_ACK";
                 size = 1;
                 msg = Message.Cp_ack { round };
               })
        end
    | Message.Cp_ack { round } -> (
        match Hashtbl.find_opt t.cp_acks.(me) round with
        | Some got ->
            let got = got + 1 in
            if got >= Array.length t.nodes - 1 then begin
              Hashtbl.remove t.cp_acks.(me) round;
              cp_round_complete t acc ~me ~round
            end
            else Hashtbl.replace t.cp_acks.(me) round got
        | None ->
            (* An ack for an already-completed round (relayed markers can
               produce none, but be robust) — nothing left to count. *)
            ())
    | Message.Sub_req { base } ->
        (* A share-set join: record the subscription server-side (so digests
           and takeover announcements start flowing to [src]) and ship a
           catch-up transfer of everything served for [base].  Installing
           those entries before any post-subscription read is what makes the
           join causally safe — the subscriber's clock advances past every
           write it could now be told about indirectly. *)
        (match t.sharding with
        | Some s ->
            let shard = Shard.of_base s base in
            if not (Shard.subscribed s ~shard ~node:src) then join t s ~shard ~node:src
        | None -> ());
        if Node.serving_of node ~base = me then begin
          let entries = Node.served_entries node ~base in
          act acc
            (Send
               {
                 src = me;
                 dst = src;
                 kind = "SUB_REPLY";
                 size = entry_wire_size t ~base (List.length entries);
                 msg = Message.Sub_reply { base; entries };
               })
        end
    | Message.Sub_reply { entries; _ } ->
        Node.install_batch node entries;
        flush t me acc
    | Message.Read_reply { req; _ }
    | Message.Write_reply { req; _ }
    | Message.Stale_epoch { req; _ }
    | Message.Shadow_read_reply { req; _ } ->
        (* Replies route to whichever process is waiting on the tag — a
           per-request ivar the shell owns; it also counts stale replies. *)
        act acc (Client_reply { node = me; req; msg })
  end

(* {1 The client half of Figure 4: r_i(x)v and w_i(x)v}

   A read hits locally or parks on a READ to the serving node (on a
   SH_READ to the backup while that node is suspected); a write to a
   served location certifies in place, any other write is stamped and
   shipped.  The shell feeds each reply back as [Reply_taken] once the
   waiting process takes it, and each RPC timeout as [Rpc_timeout]; the
   process learns its outcome from the completion actions. *)

(* Send a client request under a fresh tag and park its process on the
   tag.  READ and WRITE follow the node's current view; SH_READ stays with
   the backup chosen at issue.  A WRITE carries the node's digest as of
   this send and is priced by it. *)
let send_request t acc ~me ~loc ~request ~redirects ~attempts =
  let node = t.nodes.(me) in
  let req = Node.next_req node in
  let dst = match request with Shadow_fetch b -> b | Fetch _ | Ship _ -> Node.owner_of node loc in
  t.clients.(me) <- (req, { loc; request; redirects; attempts; dst }) :: t.clients.(me);
  act acc (Park { node = me; req });
  let epoch = Node.epoch_of node ~base:(Node.base_owner_of node loc) in
  let read_size = t.config.Config.read_request_size in
  let kind, size, msg =
    match request with
    | Fetch _ -> ("READ", read_size, Message.Read_req { req; loc; epoch })
    | Shadow_fetch _ -> ("SH_READ", read_size, Message.Shadow_read_req { req; loc })
    | Ship entry ->
        let digest = Node.digest_export node in
        let size =
          entry_wire_size t ~base:(Node.base_owner_of node loc) 1 + digest_wire_size t digest
        in
        ("WRITE", size, Message.Write_req { req; loc; entry; digest; epoch })
  in
  act acc (Send { src = me; dst; kind; size; msg })

let ask t acc ~me loc request = send_request t acc ~me ~loc ~request ~redirects:0 ~attempts:1

let give_up acc ~me c = act acc (Gave_up { node = me; dst = c.dst; attempts = c.attempts })

let issue_read t acc ~me loc =
  let node = t.nodes.(me) in
  let stats = Node.stats node in
  match Node.lookup node loc with
  | Some entry ->
      (* Served or cached: the read completes locally. *)
      stats.Node_stats.read_hits <- stats.Node_stats.read_hits + 1;
      act acc (Read_done { node = me; loc; entry })
  | None -> (
      (* Read miss: fetch a current copy from the owner (Figure 4,
         r_i(x)v), snapshotting the clock for the stale-install guard. *)
      stats.Node_stats.read_misses <- stats.Node_stats.read_misses + 1;
      let dst = Node.owner_of node loc in
      let fetch () = ask t acc ~me loc (Fetch (Node.vt node)) in
      if not (suspected t ~me ~peer:dst) then fetch ()
      else
        (* Degraded read during failover: the owner is suspected, so read
           the backup's shadow copy — the last acknowledged write, a live
           value under Definition 2 — instead of blocking on a dead node.
           It is installed transiently: its knowledge is kept, its value
           is not cached. *)
        match backup_of t ~serving:dst with
        | Some b when b = me ->
            (* This node is the backup: its own shadow is the freshest
               acknowledged copy anywhere. *)
            let entry = shadow_copy t node loc in
            t.shadow_reads <- t.shadow_reads + 1;
            Node.install_transient node [ (loc, entry) ];
            act acc (Read_done { node = me; loc; entry })
        | Some b -> ask t acc ~me loc (Shadow_fetch b)
        | None -> fetch ())

(* w_i(x)v at the serving node: certify, log, and replicate to the backup;
   the writer stays blocked until the backup has the entry (or the grace
   timer degrades), so a takeover preserves read-your-writes.  A
   partition-degraded owner refuses, as it refuses remote WRITEs: accepting
   could diverge from a majority-side takeover. *)
let owner_write t acc ~me loc value ~writer =
  if t.degraded.(me) then act acc (Gave_up { node = me; dst = me; attempts = 0 })
  else begin
    let node = t.nodes.(me) in
    let entry = Node.local_write node loc value in
    flush t me acc;
    append t acc me (Log_record.Write { loc; entry });
    act acc (Write_stamped { node = me; loc; entry; writer = Some writer });
    shadow_then t acc ~me ~base:(Node.base_owner_of node loc) [ (loc, entry) ] (Writer writer)
  end

let issue_write t acc ~me loc value =
  let node = t.nodes.(me) in
  if Node.owns node loc then begin
    let writer = t.writer_seq in
    t.writer_seq <- writer + 1;
    owner_write t acc ~me loc value ~writer
  end
  else begin
    (* Any other location: increment, stamp, ship to the owner for
       certification. *)
    Node.set_vt node (Vclock.increment (Node.vt node) me);
    let entry = Stamped.make ~value ~stamp:(Node.vt node) ~wid:(Node.fresh_wid node) in
    act acc (Write_stamped { node = me; loc; entry; writer = None });
    ask t acc ~me loc (Ship entry)
  end

(* The waiting process took the reply to [c]'s request. *)
let take_reply t acc ~me c msg =
  let node = t.nodes.(me) in
  match (c.request, (msg : Message.t)) with
  | _, Message.Stale_epoch { base; epoch; serving; _ } ->
      (* Fenced: learn the newer view and re-route under a fresh tag,
         within 2n redirects.  A crashed node sends nothing. *)
      if t.crashed.(me) then give_up acc ~me c
      else begin
        t.redirects <- t.redirects + 1;
        learn_view t acc ~me ~base ~epoch ~serving;
        flush t me acc;
        if c.redirects >= 2 * Array.length t.nodes then give_up acc ~me c
        else
          send_request t acc ~me ~loc:c.loc ~request:c.request ~redirects:(c.redirects + 1)
            ~attempts:c.attempts
      end
  | Fetch vt_at_request, Message.Read_reply { entry; page; digest; _ } ->
      Node.digest_merge node digest;
      (* The stale-install guard (DESIGN.md, "Findings"): if this node's
         clock grew while the READ was in flight, the reply may be older
         than what the node now knows, so it is used once and not cached.
         [Figure4_literal] caches it anyway. *)
      let batch = (c.loc, entry) :: page in
      if
        Vclock.equal vt_at_request (Node.vt node)
        || t.config.Config.mutation = Config.Figure4_literal
      then Node.install_batch node batch
      else Node.install_transient node batch;
      Node.enforce_capacity node;
      act acc (Read_done { node = me; loc = c.loc; entry })
  | Shadow_fetch _, Message.Shadow_read_reply { entry; _ } ->
      t.shadow_reads <- t.shadow_reads + 1;
      Node.install_transient node [ (c.loc, entry) ];
      act acc (Read_done { node = me; loc = c.loc; entry })
  | Ship written, Message.Write_reply { accepted; entry = stored; digest; _ } ->
      (* Figure 4 performs no invalidation on the writer's reply path; the
         digest is still merged so later introductions act on it. *)
      Node.digest_merge node digest;
      Node.adopt_write_reply node c.loc stored;
      Node.enforce_capacity node;
      let stats = Node.stats node in
      stats.Node_stats.writes_remote <- stats.Node_stats.writes_remote + 1;
      if not accepted then stats.Node_stats.writes_rejected <- stats.Node_stats.writes_rejected + 1;
      act acc (Write_done { node = me; wid = written.Stamped.wid; accepted })
  | (Fetch _ | Shadow_fetch _ | Ship _), _ -> invalid_arg "Protocol.step: reply of the wrong kind"

(* Remove and return the operation parked on [req] at [me], if any. *)
let unpark t ~me ~req =
  let parked = t.clients.(me) in
  match List.assoc_opt req parked with
  | Some _ as c ->
      t.clients.(me) <- List.remove_assoc req parked;
      c
  | None -> None

let step t event =
  let acc = ref [] in
  (match event with
  | Deliver { dst = me; src; now; msg } ->
      handle_message t acc ~me ~src ~now msg;
      flush t me acc
  | Hb_tick { node = me; now } -> (
      match t.detectors with
      | Some dets when not t.crashed.(me) ->
          let view = Node.view t.nodes.(me) in
          (* Heartbeats go to the nodes that watch this one: every other
             node without sharding, its own shard's share-set with it.  A
             node whose detector ignores this one would drop them unread.
             Every destination gets the same message. *)
          let msg = Message.Heartbeat { view } and size = 1 + List.length view in
          to_subscribers t ~me ~base:me (fun dst ->
              act acc (Send { src = me; dst; kind = "HB"; size; msg }));
          let newly = Detector.tick dets.(me) ~now in
          List.iter
            (fun peer ->
              emitq t acc (Trace.Suspect { node = me; peer });
              on_suspect t acc ~me ~peer)
            newly;
          (* Re-drive unanswered vote requests: message loss must not wedge
             a canvass short of quorum forever. *)
          let open_canvasses =
            Hashtbl.fold (fun base c acc -> (base, c) :: acc) t.candidacies.(me) []
            |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
          in
          List.iter
            (fun (base, c) ->
              List.iter
                (fun dst ->
                  if not (List.mem dst c.grants) then
                    act acc
                      (Send
                         {
                           src = me;
                           dst;
                           kind = "VOTE_REQ";
                           size = 1;
                           msg = Message.Vote_req { base; epoch = c.cand_epoch; candidate = me };
                         }))
                (ring_targets t ~me ~base))
            open_canvasses;
          maybe_degrade t acc ~me dets.(me);
          flush t me acc
      | _ -> ())
  | Grace_expired { node = me; seq } -> (
      match Hashtbl.find_opt t.shadow_pending.(me) seq with
      | Some wait ->
          (* The backup never acknowledged within the grace window: degrade
             to unreplicated operation rather than blocking the writer on a
             possibly-dead backup. *)
          Hashtbl.remove t.shadow_pending.(me) seq;
          degrade t acc ~me ~seq;
          complete t acc ~me wait
      | None -> ())
  | Issue_read { node = me; loc } -> issue_read t acc ~me loc
  | Issue_write { node = me; loc; value } -> issue_write t acc ~me loc value
  | Owner_write { node = me; loc; value; writer } -> owner_write t acc ~me loc value ~writer
  | Reply_taken { node = me; req; msg } -> (
      match unpark t ~me ~req with Some c -> take_reply t acc ~me c msg | None -> ())
  | Rpc_timeout { node = me; req; retry } -> (
      match unpark t ~me ~req with
      | Some c when retry && not t.crashed.(me) ->
          send_request t acc ~me ~loc:c.loc ~request:c.request ~redirects:c.redirects
            ~attempts:(c.attempts + 1)
      | Some c -> (* a crashed node sends nothing *) give_up acc ~me c
      | None -> ())
  | Learn_view { node = me; base; epoch; serving } ->
      learn_view t acc ~me ~base ~epoch ~serving;
      flush t me acc
  | Crash { node = me } ->
      t.crashed.(me) <- true;
      (* A writer parked on its shadow ack resumes: its write is certified
         and logged, and other nodes may already have read it.  The rest
         of the shadow bookkeeping dies with the node (the grace timer
         finds nothing, the acks go nowhere: crash-stop), as do the open
         checkpoint rounds it initiated.  Parked client operations stay:
         their processes end or retry them at their RPC timeout. *)
      List.iter
        (function _, Writer writer -> act acc (Wake_writer { node = me; writer }) | _, Reply _ -> ())
        (shadow_pending_list t me);
      Hashtbl.reset t.shadow_pending.(me);
      Hashtbl.reset t.cp_acks.(me);
      (* Canvasses, promises and degraded mode are volatile too. *)
      Hashtbl.reset t.candidacies.(me);
      Hashtbl.reset t.promises.(me);
      t.degraded.(me) <- false;
      emitq t acc (Trace.Crash { node = me })
  | Restart { node = me; now; records } ->
      let node = t.nodes.(me) in
      Node.reset_volatile node;
      (match t.detectors with Some dets -> Detector.reset dets.(me) ~now | None -> ());
      List.iter (fun record -> Node.apply_record node record) records;
      t.crashed.(me) <- false;
      flush t me acc;
      emitq t acc (Trace.Restart { node = me; replayed = List.length records })
  | Subscribe { node = me; shard } -> (
      (* Explicit share-set join ahead of access: subscribe, then ask the
         serving node of each base in the shard's ring for a catch-up
         transfer.  Ring members are born subscribed, and a crashed node
         cannot join. *)
      match t.sharding with
      | Some s
        when (not t.crashed.(me))
             && shard >= 0
             && shard < Shard.count s
             && not (Shard.subscribed s ~shard ~node:me) ->
          join t s ~shard ~node:me;
          let node = t.nodes.(me) in
          List.iter
            (fun base ->
              let serving = Node.serving_of node ~base in
              if serving <> me then
                act acc
                  (Send
                     {
                       src = me;
                       dst = serving;
                       kind = "SUB_REQ";
                       size = 1;
                       msg = Message.Sub_req { base };
                     }))
            (Shard.ring s shard)
      | _ -> ())
  | Unsubscribe { node = me; shard } -> (
      (* Leaving a share-set drops the cached copies whose invalidation
         metadata will no longer arrive — keeping them would serve reads
         nothing can ever invalidate.  Ring members cannot leave (the
         shard's quorum arithmetic depends on them). *)
      match t.sharding with
      | Some s
        when (not t.crashed.(me))
             && shard >= 0
             && shard < Shard.count s
             && Shard.subscribed s ~shard ~node:me
             && not (Shard.in_ring s ~shard ~node:me) ->
          leave t s ~shard ~node:me;
          let node = t.nodes.(me) in
          List.iter
            (fun loc ->
              if Shard.of_loc s loc = shard && not (Node.owns node loc) then
                ignore (Node.discard_one node loc))
            (Node.cached_locs node);
          flush t me acc
      | _ -> ())
  | Begin_checkpoint { node = me } ->
      if not t.crashed.(me) then begin
        let round = t.cp_seq + 1 in
        t.cp_started <- t.cp_started + 1;
        take_checkpoint t acc ~me ~round;
        let n = Array.length t.nodes in
        if n = 1 then cp_round_complete t acc ~me ~round
        else begin
          Hashtbl.replace t.cp_acks.(me) round 0;
          for dst = 0 to n - 1 do
            if dst <> me then
              act acc
                (Send
                   {
                     src = me;
                     dst;
                     kind = "CP_MARK";
                     size = 1;
                     msg = Message.Cp_marker { round; initiator = me };
                   })
          done
        end
      end);
  (t, List.rev !acc)
