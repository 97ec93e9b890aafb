module Protocol = Dsm_protocol.Protocol
module Trace = Dsm_protocol.Trace
module Message = Dsm_protocol.Message
module Node = Dsm_protocol.Node
module Node_stats = Dsm_protocol.Node_stats
module Config = Dsm_protocol.Config
module Stamped = Dsm_protocol.Stamped
module Detector = Dsm_protocol.Detector
module Loc = Dsm_memory.Loc
module History = Dsm_memory.History
module Owner = Dsm_memory.Owner
module Shard = Dsm_memory.Shard
module Proc = Dsm_runtime.Proc
module Network = Dsm_net.Network
module Reliable = Dsm_net.Reliable
module Prng = Dsm_util.Prng

type rpc = { timeout : float; retries : int }

type timeout_info = {
  op : [ `Read | `Write ];
  loc : Loc.t;
  requester : int;
  owner_node : int;
  attempts : int;
}

exception Timed_out of timeout_info

type node_state_error = Already_crashed of int | Not_crashed of int

let pp_node_state_error ppf = function
  | Already_crashed pid -> Format.fprintf ppf "node %d is already down" pid
  | Not_crashed pid -> Format.fprintf ppf "node %d is not crashed" pid

exception Node_state of node_state_error

let () =
  Printexc.register_printer (function
    | Timed_out { op; loc; requester; owner_node; attempts } ->
        Some
          (Printf.sprintf "Cluster.Timed_out(%s %s: node %d -> owner %d, %d attempt%s)"
             (match op with `Read -> "read" | `Write -> "write")
             (Loc.to_string loc) requester owner_node attempts
             (if attempts = 1 then "" else "s"))
    | Node_state e -> Some (Format.asprintf "Cluster.Node_state(%a)" pp_node_state_error e)
    | _ -> None)

(* The transport under the protocol: either the network used directly (the
   paper's assumption: reliable exactly-once FIFO links), or the
   sliding-window reliable layer over a network that may drop and duplicate
   (the fault-tolerant configuration). *)
type transport =
  | Direct of Message.t Network.t
  | Framed of Message.t Reliable.t

(* The effect shell around {!Protocol}: this type holds only what the pure
   core must not know about — the scheduler and transport, the per-request
   reply ivars, the blocked-writer ivars, the write-ahead logs, the timers,
   and the counters for shell-side events (timeouts, stale replies).  All
   protocol decisions live in [core]; every mutation of it goes through
   [dispatch] or [step]. *)
type t = {
  sched : Proc.sched;
  transport : transport;
  core : Protocol.state;
  config : Config.t;
  rpc : rpc option;
  recorder : History.Recorder.t;
  pending : (int, Message.t Proc.ivar) Hashtbl.t array;
  mutable timers_stopped : bool;
  mutable timed : (Dsm_memory.Op.t * float * float) list; (* newest first *)
  mutable stale_replies : int;
  mutable rpc_timeouts : int;
  (* Owner failover: durable logs, heartbeat timers, blocked local writers. *)
  disk : Wal.Disk.t;
  wals : Wal.t array;
  detector_config : Detector.config option;
  checkpoint_every : float option;
  (* Share-set GC: runtime subscribers that stop touching a shard are
     unsubscribed after this much access-quiet sim time ([None] = never).
     [shard_access] maps [(node, shard)] to the last client access. *)
  unsubscribe_idle : float option;
  shard_access : (int * int, float) Hashtbl.t;
  hb_prngs : Prng.t array; (* per-node heartbeat jitter *)
  writer_waits : (int, unit Proc.ivar) Hashtbl.t array;
  mutable wal_sync_failures : int;
  (* Recovery accounting: restarts, what they replayed, and the host time
     the replays cost (the bench's measurement). *)
  mutable recoveries : int;
  mutable replayed_records : int;
  mutable recovery_seconds : float;
  trace : Trace.t option;
}

type handle = { cluster : t; node : Node.t }

(* Run one polymorphic network accessor against whichever network backs the
   transport (their message types differ, hence the record for the
   polymorphism). *)
type 'a net_fn = { on : 'msg. 'msg Network.t -> 'a }

let on_net t f = match t.transport with Direct n -> f.on n | Framed r -> f.on (Reliable.net r)

let send_msg t ~src ~dst ~kind ~size msg =
  match t.transport with
  | Direct n -> Network.send n ~src ~dst ~kind ~size msg
  | Framed r -> Reliable.send r ~src ~dst ~kind ~size msg

let sim_now t = Dsm_sim.Engine.now (Proc.engine t.sched)

(* Feed the share-set GC: stamp the shard behind every client read/write so
   the idle timer can tell a quiet runtime subscription from a live one.
   No-op unless sharding and a quiescence window are both configured. *)
let note_shard_access t ~node loc =
  match (t.unsubscribe_idle, Protocol.sharding t.core) with
  | Some _, Some s -> Hashtbl.replace t.shard_access (node, Shard.of_loc s loc) (sim_now t)
  | _ -> ()

(* Stamp a trace body with the simulated time and the acting node's vector
   clock and publish it.  No-op on an untraced cluster. *)
let emit_body t body =
  match t.trace with
  | None -> ()
  | Some bus ->
      let clock =
        match Trace.actor body with
        | Some n when n >= 0 && n < Protocol.processes t.core ->
            Some (Node.vt (Protocol.node t.core n))
        | Some _ | None -> None
      in
      Trace.emit bus ~time:(sim_now t) ?clock body

(* A failed log sync is counted and tolerated: the entry stays in volatile
   memory and reaches the disk at the next checkpoint — a crash before then
   loses it, which is exactly what the sync-fault tests observe. *)
let wal_append t me record =
  match Wal.append t.wals.(me) record with
  | () -> ()
  | exception Wal.Sync_failed _ -> t.wal_sync_failures <- t.wal_sync_failures + 1

let shadow_grace t =
  match t.detector_config with Some c -> c.Detector.period | None -> 10.0

(* The [Truncate_wal_early] mutation models an off-by-one in the retention
   cut: every compaction drops one record past the stable-checkpoint
   boundary. *)
let compact_extra t =
  match t.config.Config.mutation with Config.Truncate_wal_early -> 1 | _ -> 0

(* Snapshot one node onto its log, then compact away everything the new
   checkpoint covers.  A failed snapshot sync is counted and tolerated (no
   compaction happens, so nothing durable is lost); a torn snapshot is
   invisible here — recovery detects it and anchors on the previous
   complete one, which compaction is careful to keep. *)
let checkpoint_now t pid =
  match Wal.checkpoint t.wals.(pid) (Node.snapshot (Protocol.node t.core pid)) with
  | () -> ignore (Wal.compact ~extra:(compact_extra t) t.wals.(pid))
  | exception Wal.Sync_failed _ -> t.wal_sync_failures <- t.wal_sync_failures + 1

(* {1 The action interpreter}

   [dispatch] feeds one event to the pure core and performs the returned
   actions in order.  Network sends and timer arms only {e schedule} future
   engine events, so interpretation never re-enters the core. *)

let rec interpret t action =
  match (action : Protocol.action) with
  | Protocol.Send { src; dst; kind; size; msg } -> send_msg t ~src ~dst ~kind ~size msg
  | Protocol.Client_reply { node = me; req; msg } -> (
      match Hashtbl.find_opt t.pending.(me) req with
      | Some ivar ->
          Hashtbl.remove t.pending.(me) req;
          Proc.fill ivar msg
      | None ->
          (* A reply nobody is waiting for: the request timed out and was
             retried (the retry's reply won), or this node crashed and
             restarted since issuing it.  Discarding is safe — the request
             tag is never reused. *)
          t.stale_replies <- t.stale_replies + 1)
  | Protocol.Write_stamped { node = me; writer = Some writer; _ } ->
      (* Registered now: a [Wake_writer] may follow in the same list. *)
      Hashtbl.replace t.writer_waits.(me) writer (Proc.ivar t.sched)
  | Protocol.Write_stamped { writer = None; _ }
  | Protocol.Park _ | Protocol.Read_done _ | Protocol.Write_done _ | Protocol.Gave_up _ ->
      (* Completions: the issuing process reads them off [step]. *)
      ()
  | Protocol.Wake_writer { node = me; writer } -> (
      match Hashtbl.find_opt t.writer_waits.(me) writer with
      | Some ivar ->
          Hashtbl.remove t.writer_waits.(me) writer;
          if not (Proc.is_filled ivar) then Proc.fill ivar ()
      | None -> ())
  | Protocol.Append { node = me; record } -> wal_append t me record
  | Protocol.Arm_grace { node = me; seq } ->
      Dsm_sim.Engine.schedule (Proc.engine t.sched) ~delay:(shadow_grace t) (fun () ->
          dispatch t (Protocol.Grace_expired { node = me; seq }))
  | Protocol.Take_checkpoint { node = me; round = _ } -> checkpoint_now t me
  | Protocol.Emit body -> emit_body t body

and dispatch t event = ignore (step t event)

(* Feed one event and perform its actions; the list is returned so a
   client process can find its operation's completion in it. *)
and step t event =
  let _state, actions = Protocol.step t.core event in
  dispatch_actions t actions;
  actions

(* With batching enabled, maximal runs of consecutive [Send] actions on the
   same directed link (an [install_batch] page, a shadow-replication fan,
   a takeover broadcast leg) are handed to the transport as one flush, so
   they can share physical frames.  Non-send actions are interpreted in
   place, preserving the exact action order the core emitted.  With
   [max_batch = 1] (the default) this is the historical per-action loop. *)
and dispatch_actions t actions =
  match t.transport with
  | Framed r when (Reliable.config r).Reliable.max_batch > 1 ->
      let flush = function
        | None -> ()
        | Some (src, dst, rev_run) -> Reliable.send_many r ~src ~dst (List.rev rev_run)
      in
      let pending =
        List.fold_left
          (fun pending action ->
            match (action : Protocol.action) with
            | Protocol.Send { src; dst; kind; size; msg } -> (
                match pending with
                | Some (psrc, pdst, run) when psrc = src && pdst = dst ->
                    Some (src, dst, (kind, size, msg) :: run)
                | _ ->
                    flush pending;
                    Some (src, dst, [ (kind, size, msg) ]))
            | other ->
                flush pending;
                interpret t other;
                None)
          None actions
      in
      flush pending
  | _ -> List.iter (interpret t) actions

let start_discard_timer t node =
  match (Node.config node).Config.discard with
  | Config.No_discard | Config.Capacity _ -> ()
  | Config.Periodic period ->
      let engine = Proc.engine t.sched in
      let rec tick () =
        if not t.timers_stopped then begin
          ignore (Node.discard_all node);
          Dsm_sim.Engine.schedule engine ~delay:period tick
        end
      in
      Dsm_sim.Engine.schedule engine ~delay:period tick

let start_heartbeats t =
  match t.detector_config with
  | Some cfg when Protocol.failover_on t.core ->
      let engine = Proc.engine t.sched in
      let n = Protocol.processes t.core in
      for me = 0 to n - 1 do
        let prng = t.hb_prngs.(me) in
        let rec beat () =
          (* Same stop rule as the checkpoint timer: beat only while the
             workload runs, so the engine can quiesce afterwards. *)
          if (not t.timers_stopped) && Proc.active t.sched then begin
            dispatch t (Protocol.Hb_tick { node = me; now = sim_now t });
            Dsm_sim.Engine.schedule engine
              ~delay:(cfg.Detector.period *. (0.9 +. Prng.float prng 0.2))
              beat
          end
        in
        (* Staggered, jittered start so a cluster's beats never synchronise. *)
        Dsm_sim.Engine.schedule engine
          ~delay:(cfg.Detector.period *. (0.5 +. Prng.float prng 0.5))
          beat
      done
  | _ -> ()

let start_checkpoint_timers t =
  match t.checkpoint_every with
  | None -> ()
  | Some period ->
      let engine = Proc.engine t.sched in
      for pid = 0 to Protocol.processes t.core - 1 do
        let rec tick () =
          if (not t.timers_stopped) && Proc.active t.sched then begin
            if not (Protocol.is_crashed t.core pid) then checkpoint_now t pid;
            Dsm_sim.Engine.schedule engine ~delay:period tick
          end
        in
        Dsm_sim.Engine.schedule engine ~delay:period tick
      done

(* Share-set garbage collection: a periodic sweep unsubscribes any runtime
   subscriber (never a ring member — [Shard.unsubscribe] would refuse
   anyway) whose last client access to the shard is older than the
   quiescence window.  A subscription that has never been accessed from
   this node (an explicit [subscribe] warm-up) is stamped on first sight so
   it too gets a full window before collection.  The Unsubscribe event
   drops the node's cached copies of the shard's locations; a later access
   misses, fetches from the shard owner and resubscribes through the usual
   subscribe-on-access catch-up, so collection is always causally safe. *)
let start_unsubscribe_timers t =
  match t.unsubscribe_idle with
  | None -> ()
  | Some window ->
      let engine = Proc.engine t.sched in
      let period = window /. 2.0 in
      for me = 0 to Protocol.processes t.core - 1 do
        let rec tick () =
          if (not t.timers_stopped) && Proc.active t.sched then begin
            (match Protocol.sharding t.core with
            | None -> ()
            | Some s ->
                if not (Protocol.is_crashed t.core me) then
                  for shard = 0 to Shard.count s - 1 do
                    if Shard.subscribed s ~shard ~node:me && not (Shard.in_ring s ~shard ~node:me)
                    then begin
                      let now = sim_now t in
                      match Hashtbl.find_opt t.shard_access (me, shard) with
                      | None -> Hashtbl.replace t.shard_access (me, shard) now
                      | Some last ->
                          if now -. last >= window then begin
                            Hashtbl.remove t.shard_access (me, shard);
                            dispatch t (Protocol.Unsubscribe { node = me; shard })
                          end
                    end
                  done);
            Dsm_sim.Engine.schedule engine ~delay:period tick
          end
        in
        Dsm_sim.Engine.schedule engine ~delay:period tick
      done

let create ~sched ~owner ?(config = Config.default) ?latency ?fault ?reliability ?rpc
    ?detector ?sharding ?disk ?checkpoint_every ?unsubscribe_idle ?trace ?(seed = 42L) () =
  Config.validate config;
  (match rpc with
  | Some r ->
      if r.timeout <= 0.0 then invalid_arg "Cluster.create: rpc timeout must be positive";
      if r.retries < 0 then invalid_arg "Cluster.create: rpc retries must be >= 0"
  | None -> ());
  (match detector with Some d -> Detector.validate d | None -> ());
  (match checkpoint_every with
  | Some p when p <= 0.0 -> invalid_arg "Cluster.create: checkpoint_every must be positive"
  | _ -> ());
  (match unsubscribe_idle with
  | Some w when w <= 0.0 -> invalid_arg "Cluster.create: unsubscribe_idle must be positive"
  | Some _ when sharding = None ->
      invalid_arg "Cluster.create: unsubscribe_idle requires sharding"
  | _ -> ());
  let processes = Owner.nodes owner in
  let engine = Proc.engine sched in
  let transport =
    match reliability with
    | None -> Direct (Network.create engine ~nodes:processes ?latency ?fault ~seed ())
    | Some rconfig ->
        Framed
          (Reliable.create ~config:rconfig
             (Network.create engine ~nodes:processes ?latency ?fault ~seed ()))
  in
  let core =
    Protocol.create ~owner ~config ?detector ?sharding ~now:(Dsm_sim.Engine.now engine) ()
  in
  let disk = match disk with Some d -> d | None -> Wal.Disk.create () in
  let hb_master = Prng.create (Int64.logxor seed 0x6A09E667F3BCC909L) in
  let t =
    {
      sched;
      transport;
      core;
      config;
      rpc;
      recorder = History.Recorder.create ~processes;
      pending = Array.init processes (fun _ -> Hashtbl.create 8);
      timers_stopped = false;
      timed = [];
      stale_replies = 0;
      rpc_timeouts = 0;
      disk;
      wals = Array.init processes (fun node -> Wal.attach disk ~node);
      detector_config = detector;
      checkpoint_every;
      unsubscribe_idle;
      shard_access = Hashtbl.create 16;
      hb_prngs = Array.init processes (fun _ -> Prng.split hb_master);
      writer_waits = Array.init processes (fun _ -> Hashtbl.create 4);
      wal_sync_failures = 0;
      recoveries = 0;
      replayed_records = 0;
      recovery_seconds = 0.0;
      trace;
    }
  in
  (match trace with
  | None -> ()
  | Some _ ->
      Protocol.set_tracing core true;
      (* Bridge the wire onto the bus: the tap is payload-agnostic, so the
         same bridge covers direct and framed transports (a framed cluster
         traces the reliable layer's frames — what the wire really sees). *)
      let tap =
        {
          Network.on_send =
            (fun ~src ~dst ~kind ~size -> emit_body t (Trace.Send { src; dst; kind; size }));
          on_deliver = (fun ~src ~dst ~kind -> emit_body t (Trace.Deliver { src; dst; kind }));
          on_drop = (fun ~src ~dst ~kind -> emit_body t (Trace.Drop { src; dst; kind }));
          on_duplicate =
            (fun ~src ~dst ~kind -> emit_body t (Trace.Duplicate { src; dst; kind }));
        }
      in
      on_net t { on = (fun n -> Network.set_tap n (Some tap)) });
  for me = 0 to processes - 1 do
    let handler ~src msg = dispatch t (Protocol.Deliver { dst = me; src; now = sim_now t; msg }) in
    match transport with
    | Direct n -> Network.set_handler n ~node:me handler
    | Framed r -> Reliable.set_handler r ~node:me handler
  done;
  for pid = 0 to processes - 1 do
    start_discard_timer t (Protocol.node core pid)
  done;
  start_heartbeats t;
  start_checkpoint_timers t;
  start_unsubscribe_timers t;
  t

let node t pid = Protocol.node t.core pid

let handle t pid = { cluster = t; node = node t pid }

let handles t = Array.init (Protocol.processes t.core) (handle t)

let processes t = Protocol.processes t.core

let sched t = t.sched

let trace t = t.trace

let net t =
  match t.transport with
  | Direct n -> n
  | Framed _ ->
      invalid_arg
        "Cluster.net: this cluster runs over the reliable transport; use Cluster.reliable, \
         Cluster.messages_total and the Cluster link controls"

let reliable t = match t.transport with Direct _ -> None | Framed r -> Some r

let messages_total t = on_net t { on = (fun n -> Network.lifetime_total n) }

(* Logical messages: protocol payloads handed to the transport — the unit
   the paper's message tables count, invariant under batching.  On a direct
   transport every payload is its own frame, so the wire total is already
   logical. *)
let logical_messages t =
  match t.transport with
  | Direct n -> Network.lifetime_total n
  | Framed r -> Reliable.sent r

let physical_frames t = messages_total t

let wire_counters t = on_net t { on = (fun n -> Network.counters n) }

let wire_dropped t = on_net t { on = (fun n -> Network.dropped n) }

let wire_duplicated t = on_net t { on = (fun n -> Network.duplicated n) }

let set_link_down t ~src ~dst down =
  on_net t { on = (fun n -> Network.set_link_down n ~src ~dst down) }

let set_link_fault t ~src ~dst fault =
  on_net t { on = (fun n -> Network.set_link_fault n ~src ~dst fault) }

(* Partition controls: plain link-state changes on whichever network backs
   the transport.  Healing goes through the network's heal hooks, so on a
   framed transport every revived link is resynchronised automatically. *)
let partition t ga gb = on_net t { on = (fun n -> Network.partition n ga gb) }

let partition_oneway t ga gb = on_net t { on = (fun n -> Network.partition_oneway n ga gb) }

let heal_partition t ga gb = on_net t { on = (fun n -> Network.heal_partition n ga gb) }

let heal_all_links t = on_net t { on = (fun n -> Network.heal_all n) }

let retransmissions t =
  match t.transport with Direct _ -> 0 | Framed r -> Reliable.retransmissions r

let stale_replies t = t.stale_replies

let rpc_timeouts t = t.rpc_timeouts

let history t = History.Recorder.history t.recorder

let timed_history t = List.rev t.timed

let stats t = List.init (processes t) (fun pid -> Node.stats (node t pid))

let total_stats t = Node_stats.total (stats t)

let shutdown t = t.timers_stopped <- true

(* {1 Failover observability} *)

let disk t = t.disk

let wal t pid = t.wals.(pid)

let takeovers t = Protocol.takeovers t.core

let shadow_degraded t = Protocol.shadow_degraded t.core

let shadow_reads t = Protocol.shadow_reads t.core

let redirects t = Protocol.redirects t.core

let wal_sync_failures t = t.wal_sync_failures

let sum_wals t f = Array.fold_left (fun acc w -> acc + f w) 0 t.wals

let recoveries t = t.recoveries

let replayed_records t = t.replayed_records

let recovery_seconds t = t.recovery_seconds

let begin_checkpoint t pid = dispatch t (Protocol.Begin_checkpoint { node = pid })

(* {1 Partial replication} *)

let sharding t = Protocol.sharding t.core

let subscribe t ~node ~shard = dispatch t (Protocol.Subscribe { node; shard })

let unsubscribe t ~node ~shard = dispatch t (Protocol.Unsubscribe { node; shard })

let quorum_for t ~base = Protocol.quorum_for t.core ~base

let recovery_lines t = Protocol.checkpoint_rounds_completed t.core

let checkpoint_round t pid = Protocol.checkpoint_round t.core pid

let partition_degraded t pid = Protocol.partition_degraded t.core pid

let partition_heals t = Protocol.partition_heals t.core

let votes_granted t = Protocol.votes_granted t.core

let degraded_refusals t = Protocol.degraded_refusals t.core

let quorum t = Protocol.quorum t.core

let resyncs t = match t.transport with Direct _ -> 0 | Framed r -> Reliable.resyncs r

let suspect_events t = Protocol.suspect_events t.core

let unsuspect_events t = Protocol.unsuspect_events t.core

let suspected_by t pid = Protocol.suspected_by t.core pid

let view t = Protocol.view t.core

let epoch_of t ~base =
  List.fold_left (fun acc (b, e, _) -> if b = base then e else acc) 0 (view t)

let serving_of t ~base =
  List.fold_left (fun acc (b, _, s) -> if b = base then s else acc) base (view t)

(* One unified counter record (see Node_stats.cluster): the summed per-node
   protocol counters plus every cluster-level counter, wherever it lives —
   core, shell or wire. *)
let cluster_stats t =
  {
    Node_stats.protocol = total_stats t;
    logical_messages = logical_messages t;
    physical_frames = physical_frames t;
    wire_dropped = wire_dropped t;
    wire_duplicated = wire_duplicated t;
    retransmissions = retransmissions t;
    stale_replies = t.stale_replies;
    rpc_timeouts = t.rpc_timeouts;
    dropped_at_crashed = Protocol.dropped_at_crashed t.core;
    redirects = Protocol.redirects t.core;
    shadow_reads = Protocol.shadow_reads t.core;
    shadow_degraded = Protocol.shadow_degraded t.core;
    takeovers = Protocol.takeovers t.core;
    suspects = Protocol.suspect_events t.core;
    unsuspects = Protocol.unsuspect_events t.core;
    wal_sync_failures = t.wal_sync_failures;
    wal_records = sum_wals t Wal.length;
    wal_checkpoints = sum_wals t Wal.checkpoints;
    wal_torn_checkpoints = sum_wals t Wal.torn_checkpoints;
    wal_compactions = sum_wals t Wal.compactions;
    wal_truncated = sum_wals t Wal.truncated;
    recoveries = t.recoveries;
    replayed_records = t.replayed_records;
    recovery_lines = Protocol.checkpoint_rounds_completed t.core;
  }

(* Crash-stop failures.  [crash] makes the node deaf (deliveries are
   dropped), forgets which replies it was waiting for and wakes its owner
   writers parked on a shadow ack (their writes are logged); [restart] brings
   it back by resetting all volatile state and replaying the node's
   write-ahead log, which restores certified writes, view changes and
   shadow copies to the exact pre-crash durable frontier.  Cache-only nodes
   have empty logs, so for them this degenerates to cache-discard
   recovery. *)
let crash_result t pid =
  if Protocol.is_crashed t.core pid then Error (Already_crashed pid)
  else begin
    Hashtbl.reset t.pending.(pid);
    dispatch t (Protocol.Crash { node = pid });
    Ok ()
  end

let restart_result t pid =
  if not (Protocol.is_crashed t.core pid) then Error (Not_crashed pid)
  else begin
    (match t.transport with Direct _ -> () | Framed r -> Reliable.reset_node r pid);
    (* Host (wall-clock) time around replay: the quantity the recovery
       bench plots against records-since-checkpoint. *)
    let started = Sys.time () in
    let records = Wal.replay t.wals.(pid) in
    dispatch t (Protocol.Restart { node = pid; now = sim_now t; records });
    t.recovery_seconds <- t.recovery_seconds +. (Sys.time () -. started);
    t.recoveries <- t.recoveries + 1;
    t.replayed_records <- t.replayed_records + List.length records;
    Ok ()
  end

let crash t pid =
  match crash_result t pid with Ok () -> () | Error e -> raise (Node_state e)

let restart t pid =
  match restart_result t pid with Ok () -> () | Error e -> raise (Node_state e)

let is_crashed t pid = Protocol.is_crashed t.core pid

let dropped_at_crashed t = Protocol.dropped_at_crashed t.core

let pid h = Node.id h.node

let is_completion = function
  | Protocol.Park _ | Protocol.Read_done _ | Protocol.Write_done _ | Protocol.Gave_up _
  | Protocol.Write_stamped { writer = Some _; _ } ->
      true
  | _ -> false

(* Follow one operation of node [me]'s process to its last completion.
   Each [Park] blocks the process on the reply to that request tag —
   under the RPC timer when one is configured — and feeds the reply back,
   or the timeout with the retry verdict; an owner write blocks until its
   writer is woken; [Gave_up] surfaces as [Timed_out]. *)
let rec follow t ~me ~op ~loc ~timeouts actions =
  match List.find is_completion actions with
  | Protocol.Park { req; _ } -> (
      let ivar = Proc.ivar t.sched in
      Hashtbl.replace t.pending.(me) req ivar;
      let taken msg = step t (Protocol.Reply_taken { node = me; req; msg }) in
      match t.rpc with
      | None -> follow t ~me ~op ~loc ~timeouts (taken (Proc.await ivar))
      | Some { timeout; retries } -> (
          match Proc.await_timeout ivar ~timeout with
          | Some msg -> follow t ~me ~op ~loc ~timeouts (taken msg)
          | None ->
              Hashtbl.remove t.pending.(me) req;
              t.rpc_timeouts <- t.rpc_timeouts + 1;
              follow t ~me ~op ~loc ~timeouts:(timeouts + 1)
                (step t (Protocol.Rpc_timeout { node = me; req; retry = timeouts < retries }))))
  | Protocol.Write_stamped { writer = Some writer; _ } as stamped ->
      (* Absent once the core already woke the writer. *)
      Option.iter Proc.await (Hashtbl.find_opt t.writer_waits.(me) writer);
      stamped
  | Protocol.Gave_up { dst; attempts; _ } ->
      raise (Timed_out { op; loc; requester = me; owner_node = dst; attempts })
  | completion -> completion

(* Run one operation of [h]'s process through the core, from the
   availability check to its timed history entry: [record] turns the last
   completion into the result, the recorded operation and its trace
   body. *)
let run_op h ~op ~loc event record =
  let t = h.cluster in
  let me = Node.id h.node in
  if Protocol.is_crashed t.core me then
    failwith (Printf.sprintf "node %d is crashed: operations are unavailable until restart" me);
  note_shard_access t ~node:me loc;
  let start_time = sim_now t in
  let result, recorded, body = record (follow t ~me ~op ~loc ~timeouts:0 (step t event)) in
  t.timed <- (recorded, start_time, sim_now t) :: t.timed;
  emit_body t body;
  result

let read_stamped h loc =
  let me = Node.id h.node in
  run_op h ~op:`Read ~loc (Protocol.Issue_read { node = me; loc }) (function
    | Protocol.Read_done { entry; _ } ->
        let { Stamped.value; wid; _ } = entry in
        ( entry,
          History.Recorder.record_read h.cluster.recorder ~pid:me ~loc ~value ~from:wid,
          Trace.Op_read { node = me; loc; value; from = wid } )
    | _ -> assert false)

let read h loc = (read_stamped h loc).Stamped.value

let write_resolved h loc value =
  let me = Node.id h.node in
  run_op h ~op:`Write ~loc (Protocol.Issue_write { node = me; loc; value }) (fun completion ->
      let wid, outcome =
        match completion with
        | Protocol.Write_stamped { entry; _ } -> (entry.Stamped.wid, `Accepted)
        | Protocol.Write_done { wid; accepted; _ } -> (wid, if accepted then `Accepted else `Rejected)
        | _ -> assert false
      in
      ( outcome,
        History.Recorder.record_write h.cluster.recorder ~pid:me ~loc ~value ~wid,
        Trace.Op_write { node = me; loc; value; wid } ))

let write h loc value = ignore (write_resolved h loc value)

let read_result h loc =
  match read_stamped h loc with
  | entry -> Ok entry.Stamped.value
  | exception Timed_out info -> Error info

let write_result h loc value =
  match write_resolved h loc value with
  | outcome -> Ok outcome
  | exception Timed_out info -> Error info

let discard h = ignore (Node.discard_all h.node)

module Mem = struct
  type nonrec handle = handle

  let pid = pid

  let processes h = Node.processes h.node

  let read = read

  let write = write

  let yield (_ : handle) = Proc.yield ()

  let refresh h loc = ignore (Node.discard_one h.node loc)
end
