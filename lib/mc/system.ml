module P = Dsm_protocol.Protocol
module Message = Dsm_protocol.Message
module Log_record = Dsm_protocol.Log_record
module Node = Dsm_protocol.Node
module Config = Dsm_protocol.Config
module Stamped = Dsm_protocol.Stamped
module Trace = Dsm_protocol.Trace
module Loc = Dsm_memory.Loc
module Op = Dsm_memory.Op
module History = Dsm_memory.History
module Online = Dsm_checker.Online
module Check = Dsm_checker.Causal_check
module Obj_check = Dsm_checker.Obj_check
module Registry = Dsm_objects.Registry
module Wid = Dsm_memory.Wid

type choice =
  | Issue of int
  | Deliver of { src : int; dst : int }
  | Drop_msg of { src : int; dst : int }
  | Dup_msg of { src : int; dst : int }
  | Crash_victim
  | Takeover_tick
  | Restart_victim
  | Begin_cp
  | Power_failure
  | Recover_all
  | Install_partition
  | Degrade_tick
  | Heal_partition

let pp_choice ppf = function
  | Issue pid -> Format.fprintf ppf "issue@%d" pid
  | Deliver { src; dst } -> Format.fprintf ppf "deliver %d->%d" src dst
  | Drop_msg { src; dst } -> Format.fprintf ppf "drop %d->%d" src dst
  | Dup_msg { src; dst } -> Format.fprintf ppf "dup %d->%d" src dst
  | Crash_victim -> Format.fprintf ppf "crash"
  | Takeover_tick -> Format.fprintf ppf "takeover-tick"
  | Restart_victim -> Format.fprintf ppf "restart"
  | Begin_cp -> Format.fprintf ppf "begin-cp"
  | Power_failure -> Format.fprintf ppf "power-failure"
  | Recover_all -> Format.fprintf ppf "recover-all"
  | Install_partition -> Format.fprintf ppf "install-partition"
  | Degrade_tick -> Format.fprintf ppf "degrade-tick"
  | Heal_partition -> Format.fprintf ppf "heal-partition"

type t = {
  scope : Gen.scope;
  config : Config.t;
  core : P.state;
  queues : (string * int * Message.t) Queue.t array array;  (** [queues.(src).(dst)] *)
  progs : Gen.op list array;  (** remaining program, next op first *)
  busy : Gen.op option array;
      (** the operation each process is blocked in; what it waits on is
          the core's ({!P.parked}, or a parked owner writer) *)
  ops : Op.t list array;  (** recorded history per pid, newest first *)
  op_index : int array;
  wal : Dsm_protocol.Log_record.t list array;  (** newest first *)
  online : Online.t;
  owner_stamp : (int * string, Vclock.t) Hashtbl.t;
  read_stamp : (int * string, Vclock.t) Hashtbl.t;
  mutable violation : (int * string) option;
  mutable queries : Obj_check.query list;  (** recorded object queries, newest first *)
  mutable crashed_done : bool;
  mutable takeover_done : bool;
  mutable restarted : bool;
  mutable cp_done : bool;
  mutable outage_done : bool;
  mutable recovered_done : bool;
  mutable partition_installed : bool;
  mutable degrade_done : bool;
  mutable partition_healed : bool;
  mutable mc_now : float;
      (** The model's coarse clock: 0.0 until the first detector tick,
          1e9 after — deliveries carry it so voters' check-quorum test
          (has the incumbent been silent beyond the window?) sees the
          same silence the ticking detector did.  Always derivable from
          [takeover_done]/[degrade_done], so it needs no fingerprint. *)
  mutable drops_left : int;
  mutable dups_left : int;
  tracing : bool;
  mutable trace : Trace.event list;  (** newest first *)
  mutable trace_seq : int;
}

let init ?(tracing = false) (scope : Gen.scope) =
  let config = Config.with_mutation scope.mutation Config.default in
  let config =
    if scope.precise then Config.with_invalidation Config.Precise config else config
  in
  let detector = if scope.failover then Some Gen.default_detector else None in
  (* Sharded scopes build a fresh layout per replay: subscriber sets are
     mutable protocol state, so sharing one across DFS branches would leak
     subscriptions between interleavings. *)
  let sharding =
    if scope.shards > 1 then Some (Dsm_memory.Shard.make ~nodes:scope.nodes ~shards:scope.shards)
    else None
  in
  let core = P.create ~owner:scope.owner ~config ?detector ?sharding ~now:0.0 () in
  if tracing then P.set_tracing core true;
  let n = scope.nodes in
  let drops, dups =
    match scope.fault with Gen.Drop { drops; dups } -> (drops, dups) | _ -> (0, 0)
  in
  {
    scope;
    config;
    core;
    queues = Array.init n (fun _ -> Array.init n (fun _ -> Queue.create ()));
    progs = Array.copy scope.programs;
    busy = Array.make n None;
    ops = Array.make n [];
    op_index = Array.make n 0;
    wal = Array.make n [];
    (* Windowed: model-checked scopes are far smaller than the window, so
       compaction never fires and verdicts match the unbounded checker —
       this exercises the windowed configuration on every explored
       interleaving without weakening the check. *)
    online = Online.create ~window:64 ();
    owner_stamp = Hashtbl.create 16;
    read_stamp = Hashtbl.create 16;
    violation = None;
    queries = [];
    crashed_done = false;
    takeover_done = false;
    restarted = false;
    cp_done = false;
    outage_done = false;
    recovered_done = false;
    partition_installed = false;
    degrade_done = false;
    partition_healed = false;
    mc_now = 0.0;
    drops_left = drops;
    dups_left = dups;
    tracing;
    trace = [];
    trace_seq = 0;
  }

let victim t = match t.scope.fault with Gen.Crash { victim; _ } -> victim | _ -> -1

(* Partition-scope geometry.  The isolated owner is the minority's head;
   the takeover candidate is its designated ring-successor backup. *)
let partition_groups t =
  match t.scope.fault with
  | Gen.Partition { minority; majority } -> Some (minority, majority)
  | _ -> None

let partition_owner t =
  match partition_groups t with Some (minority, _) -> List.hd minority | None -> -1

let partition_backup t =
  match P.backup_of t.core ~serving:(partition_owner t) with Some b -> b | None -> -1

(* A directed link is frozen while the partition is installed: messages
   sent across the cut stay queued (neither deliverable nor droppable) and
   are released intact by the heal — the model of a cable cut, where
   in-flight traffic is the retransmission backlog the reliable layer
   replays once the link returns. *)
let frozen t src dst =
  t.partition_installed
  && (not t.partition_healed)
  &&
  match partition_groups t with
  | Some (minority, majority) ->
      (List.mem src minority && List.mem dst majority)
      || (List.mem src majority && List.mem dst minority)
  | None -> false

let emit_trace t body =
  if t.tracing then begin
    let clock =
      match Trace.actor body with
      | Some a when a >= 0 && a < t.scope.nodes -> Some (Node.vt (P.node t.core a))
      | _ -> None
    in
    let seq = t.trace_seq in
    t.trace_seq <- seq + 1;
    t.trace <- { Trace.seq; time = float_of_int seq; clock; body } :: t.trace
  end

let set_violation t node reason =
  if t.violation = None then begin
    t.violation <- Some (node, reason);
    emit_trace t (Trace.Violation { node; reason })
  end

(* ------------------------------------------------------------------ *)
(* Inline invariants                                                   *)
(* ------------------------------------------------------------------ *)

(* A stored served entry must never be replaced by a strictly older one:
   the resolution policy rejects dominated writes, so a regression means a
   certification rule was broken.  (A concurrent replacement is legal under
   last-writer-wins, so only [lt] is flagged.) *)
let check_owner_monotone t =
  for i = 0 to t.scope.nodes - 1 do
    if not (P.is_crashed t.core i) then begin
      let nd = P.node t.core i in
      List.iter
        (fun (loc, (entry : Stamped.t)) ->
          if Node.owns nd loc then begin
            let key = (i, Loc.to_string loc) in
            (match Hashtbl.find_opt t.owner_stamp key with
            | Some prev when Vclock.lt entry.stamp prev ->
                set_violation t i
                  (Printf.sprintf "served entry for %s regressed at node %d" (Loc.to_string loc) i)
            | _ -> ());
            Hashtbl.replace t.owner_stamp key entry.stamp
          end)
        (Node.entries nd)
    end
  done

(* A node must only answer READ/WRITE requests for locations it currently
   serves — the epoch fence enforces exactly this across takeovers. *)
let check_reply_fence t ~src msg =
  let flag loc =
    if not (Node.owns (P.node t.core src) loc) then
      set_violation t src
        (Printf.sprintf "node %d replied for %s without serving it" src (Loc.to_string loc))
  in
  match msg with
  | Message.Read_reply { loc; _ } | Message.Write_reply { loc; _ } -> flag loc
  | _ -> ()

(* Split-brain oracle, checked while the partition is open: the moment a
   node accepts a write for some base (an accepted [W_REPLY] send, or a
   local owner certification), no other live, non-degraded node may
   simultaneously believe it serves that base under a different epoch —
   two write-accepting servers is the dual mastership quorum fencing
   exists to prevent.  A partition-degraded owner is exempt: it refuses
   writes, so it is not a second master.  The check is scoped to the
   partition window because after the heal a deposed owner may briefly
   accept writes before the takeover broadcast reaches it; the epoch fence
   plus frontier reconciliation resolve that convergence window, and the
   post-hoc causal check covers it. *)
let check_dual_certification t ~node:src ~base =
  if t.partition_installed && not t.partition_healed then begin
    let my_epoch = Node.epoch_of (P.node t.core src) ~base in
    for j = 0 to t.scope.nodes - 1 do
      if
        j <> src
        && (not (P.is_crashed t.core j))
        && not (P.partition_degraded t.core j)
      then begin
        let nj = P.node t.core j in
        if Node.serving_of nj ~base = j && Node.epoch_of nj ~base <> my_epoch then
          set_violation t src
            (Printf.sprintf
               "split-brain: nodes %d (epoch %d) and %d (epoch %d) both accept writes for base %d"
               src my_epoch j (Node.epoch_of nj ~base) base)
      end
    done
  end

(* Successive reads of one location by one process must never regress
   causally: a strictly older writestamp means the process re-read a value
   its own history had already overwritten (a Definition-1 violation). *)
let check_read_stamp t pid loc (entry : Stamped.t) =
  let key = (pid, Loc.to_string loc) in
  (match Hashtbl.find_opt t.read_stamp key with
  | Some prev when Vclock.lt entry.stamp prev ->
      set_violation t pid
        (Printf.sprintf "process %d re-read an older %s" pid (Loc.to_string loc))
  | _ -> ());
  Hashtbl.replace t.read_stamp key entry.stamp

(* ------------------------------------------------------------------ *)
(* Recording and the client operations                                 *)
(* ------------------------------------------------------------------ *)

let feed_online t op =
  match Online.add_op t.online op with
  | [] -> ()
  | v :: _ -> set_violation t v.Online.v_op.Op.pid ("online: " ^ v.Online.v_reason)

let record_read t pid loc (entry : Stamped.t) =
  check_read_stamp t pid loc entry;
  let index = t.op_index.(pid) in
  t.op_index.(pid) <- index + 1;
  let op = Op.read ~pid ~index ~loc ~value:entry.value ~from:entry.wid in
  t.ops.(pid) <- op :: t.ops.(pid);
  emit_trace t (Trace.Op_read { node = pid; loc; value = entry.value; from = entry.wid });
  feed_online t op

let record_write t pid loc (entry : Stamped.t) =
  let index = t.op_index.(pid) in
  t.op_index.(pid) <- index + 1;
  let op = Op.write ~pid ~index ~loc ~value:entry.value ~wid:entry.wid in
  t.ops.(pid) <- op :: t.ops.(pid);
  emit_trace t (Trace.Op_write { node = pid; loc; value = entry.value; wid = entry.wid });
  feed_online t op

let post t ~src ~dst ~kind ~size msg =
  Queue.add (kind, size, msg) t.queues.(src).(dst);
  emit_trace t (Trace.Send { src; dst; kind; size })

let rec apply_event t ev =
  let _, acts = P.step t.core ev in
  List.iter (perform t) acts;
  check_owner_monotone t

and perform t = function
  | P.Send { src; dst; kind; size; msg } ->
      check_reply_fence t ~src msg;
      (match msg with
      | Message.Write_reply { accepted = true; loc; _ } ->
          check_dual_certification t ~node:src
            ~base:(Node.base_owner_of (P.node t.core src) loc)
      | _ -> ());
      post t ~src ~dst ~kind ~size msg
  | P.Client_reply { node; req; msg } ->
      (* The process takes its reply at once; one abandoned with its
         crashed node takes nothing. *)
      if t.busy.(node) <> None then apply_event t (P.Reply_taken { node; req; msg })
  | P.Write_stamped { node; loc; entry; writer } ->
      (* Every write is recorded at issue: an owner write is certified
         before anything else runs, and an unacknowledged remote write is
         causally maximal, so the recorded prefix stays a legal history
         even if its reply never arrives. *)
      if writer <> None then
        check_dual_certification t ~node ~base:(Node.base_owner_of (P.node t.core node) loc);
      record_write t node loc entry
  | P.Read_done { node; loc; entry } ->
      t.busy.(node) <- None;
      record_read t node loc entry
  | P.Write_done { node; _ } | P.Wake_writer { node; _ } -> t.busy.(node) <- None
  | P.Gave_up { node; _ } ->
      (* Refused, or out of redirects: the shell would surface [Timed_out];
         here the process abandons the rest of its program (still a valid
         prefix). *)
      t.busy.(node) <- None;
      t.progs.(node) <- []
  | P.Park _ -> ()
  | P.Append { node; record } -> t.wal.(node) <- record :: t.wal.(node)
  | P.Take_checkpoint { node; round = _ } ->
      (* The modeled durable path of [Cluster.checkpoint_now]: snapshot the
         node into its log, then compact behind the newest checkpoint.  The
         [Truncate_wal_early] mutation cuts one entry past the safe
         boundary — the anchor checkpoint itself — so replay loses the
         snapshotted state (the off-by-one the matrix must catch). *)
      t.wal.(node) <- Log_record.Checkpoint (Node.snapshot (P.node t.core node)) :: t.wal.(node);
      let extra =
        match t.config.Config.mutation with Config.Truncate_wal_early -> 1 | _ -> 0
      in
      let rec anchor i = function
        | [] -> None
        | Log_record.Checkpoint _ :: _ -> Some i
        | _ :: rest -> anchor (i + 1) rest
      in
      (match anchor 0 t.wal.(node) with
      | None -> ()
      | Some i ->
          let keep = max 0 (i + 1 - extra) in
          t.wal.(node) <- List.filteri (fun j _ -> j < keep) t.wal.(node))
  | P.Arm_grace _ -> ()  (* grace expiry is outside the explored scope *)
  | P.Emit body -> emit_trace t body

(* An object query: synchronously fold the payloads this process has
   probed on [obj]'s op-log cells (its latest read per cell, skipping
   cells still at their initial value) through the family's spec — the
   model of [Causal_object.Client]'s merge, whose probe reads the litmus
   program issues explicitly.  The query is recorded with its observation
   set for post-hoc certification and fed to the online checker at once.
   Under [Merge_drops_op] the fold silently skips the last observed update
   (the client-side lost-op bug) while the {e recorded} observation set
   stays truthful — every probe read is register-legal, so only the
   object-level certification can flag the spec-illegal return. *)
let do_query t pid obj =
  let sem = Registry.find obj in
  let best : (int * int, Op.t) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (o : Op.t) ->
      if Op.is_read o then
        match o.Op.loc with
        | Loc.Cell (name, ci, cj) when String.equal name obj ->
            let key = (ci, cj) in
            (match Hashtbl.find_opt best key with
            | Some (prev : Op.t) when prev.Op.index >= o.Op.index -> ()
            | _ -> Hashtbl.replace best key o)
        | _ -> ())
    t.ops.(pid);
  let observed =
    Hashtbl.fold (fun cell (o : Op.t) acc -> (cell, o) :: acc) best []
    |> List.filter (fun (_, (o : Op.t)) -> not (Wid.is_initial o.Op.wid))
    |> List.sort (fun (c1, _) (c2, _) -> compare c1 c2)
  in
  let folded =
    if t.config.Config.mutation = Config.Merge_drops_op then
      match List.rev observed with _ :: rest -> List.rev rest | [] -> []
    else observed
  in
  let ret =
    match sem with
    | Some s -> s.Obj_check.fold (List.map (fun (_, (o : Op.t)) -> Obj_check.payload o.Op.value) folded)
    | None -> "?"
  in
  let pairs = List.map (fun (_, (o : Op.t)) -> (o.Op.loc, o.Op.wid)) observed in
  t.queries <-
    {
      Obj_check.q_pid = pid;
      q_obj = obj;
      q_ret = ret;
      q_anchor = t.op_index.(pid) - 1;
      q_observed = Some pairs;
    }
    :: t.queries;
  emit_trace t (Trace.Op_query { node = pid; obj; ret });
  match sem with
  | None -> ()
  | Some s -> (
      match Online.add_query t.online ~sem:s ~pid ~observed:pairs ~ret with
      | None -> ()
      | Some reason -> set_violation t pid ("online: " ^ reason))

(* One detector evaluation at [node] during the partition, modeled
   side-aware: heartbeats from the node's own side keep arriving (a
   synthetic [HB] delivery refreshes its detector entry) while cross-side
   silence has long exceeded the suspicion threshold, so the tick suspects
   exactly the far side — a backup with its majority intact does not
   spuriously degrade itself. *)
let side_tick t node =
  t.mc_now <- 1e9;
  let same_side =
    match partition_groups t with
    | Some (minority, majority) -> if List.mem node minority then minority else majority
    | None -> []
  in
  List.iter
    (fun p ->
      if p <> node then begin
        emit_trace t (Trace.Deliver { src = p; dst = node; kind = "HB" });
        apply_event t
          (P.Deliver { dst = node; src = p; now = 1e9; msg = Message.Heartbeat { view = [] } })
      end)
    same_side;
  apply_event t (P.Hb_tick { node; now = 1e9 })

(* ------------------------------------------------------------------ *)
(* The transition relation                                             *)
(* ------------------------------------------------------------------ *)

let enabled t =
  if t.violation <> None then []
  else begin
    let n = t.scope.nodes in
    let issues =
      List.init n Fun.id
      |> List.filter (fun pid ->
             t.busy.(pid) = None && t.progs.(pid) <> [] && not (P.is_crashed t.core pid))
      |> List.map (fun pid -> Issue pid)
    in
    let busy =
      List.concat_map
        (fun src ->
          List.filter_map
            (fun dst ->
              if Queue.is_empty t.queues.(src).(dst) || frozen t src dst then None
              else Some (src, dst))
            (List.init n Fun.id))
        (List.init n Fun.id)
    in
    let delivers = List.map (fun (src, dst) -> Deliver { src; dst }) busy in
    let drops =
      if t.drops_left > 0 then List.map (fun (src, dst) -> Drop_msg { src; dst }) busy
      else []
    in
    let dups =
      if t.dups_left > 0 then List.map (fun (src, dst) -> Dup_msg { src; dst }) busy
      else []
    in
    let crash =
      match t.scope.fault with
      | Gen.Crash _ when not t.crashed_done -> [ Crash_victim ]
      | _ -> []
    in
    let tick =
      if t.crashed_done && (not t.takeover_done) && t.scope.failover then [ Takeover_tick ]
      else []
    in
    let restart =
      (* "Restart once the takeover happened" means once the backup has
         actually promoted — the tick only opens its quorum canvass, and a
         victim restarted mid-canvass would sync a still-unchanged view,
         re-serve its base and answer requests the eventual promotion
         retroactively fences. *)
      match t.scope.fault with
      | Gen.Crash { restart = true; _ }
        when t.takeover_done && P.takeovers t.core > 0 && not t.restarted ->
          [ Restart_victim ]
      | _ -> []
    in
    (* The power-failure scope: one coordinated checkpoint round may begin
       at any point, the whole-cluster outage only after it (the preset is
       "checkpoint, then crash everywhere"), and one repowering. *)
    let cp =
      match t.scope.fault with
      | Gen.Power when (not t.cp_done) && not t.outage_done -> [ Begin_cp ]
      | _ -> []
    in
    let outage =
      match t.scope.fault with
      | Gen.Power when t.cp_done && not t.outage_done -> [ Power_failure ]
      | _ -> []
    in
    let repower = if t.outage_done && not t.recovered_done then [ Recover_all ] else [] in
    (* The partition scope: one symmetric partition may be installed, each
       side's detector may fire once while it is open, and it may heal.
       The takeover tick is gated behind the degrade tick — the
       lease-timing assumption: the vote round trip a quorum-gated
       promotion needs gives the cut-off owner at least one detector
       period to observe quorum loss and fence itself first.  The
       [Takeover_without_quorum] mutation promotes instantly on suspicion,
       so that ordering guarantee evaporates with the votes — the gate
       lifts, and the split-brain interleaving becomes reachable. *)
    let partition_choices =
      match t.scope.fault with
      | Gen.Partition _ ->
          let window = t.partition_installed && not t.partition_healed in
          let install = if not t.partition_installed then [ Install_partition ] else [] in
          let degrade = if window && not t.degrade_done then [ Degrade_tick ] else [] in
          let take =
            if
              window
              && (not t.takeover_done)
              && (t.degrade_done
                 || t.config.Config.mutation = Config.Takeover_without_quorum)
            then [ Takeover_tick ]
            else []
          in
          let heal = if window then [ Heal_partition ] else [] in
          install @ degrade @ take @ heal
      | _ -> []
    in
    issues @ delivers @ drops @ dups @ crash @ tick @ restart @ cp @ outage @ repower
    @ partition_choices
  end

let choice_enabled t c = List.mem c (enabled t)

let apply t c =
  match c with
  | Issue pid -> (
      match t.progs.(pid) with
      | [] -> invalid_arg "System.apply: Issue on an empty program"
      | op :: rest -> (
          t.progs.(pid) <- rest;
          match op with
          | Gen.Read loc ->
              t.busy.(pid) <- Some op;
              apply_event t (P.Issue_read { node = pid; loc })
          | Gen.Write (loc, value) ->
              t.busy.(pid) <- Some op;
              apply_event t (P.Issue_write { node = pid; loc; value })
          | Gen.Query obj -> do_query t pid obj))
  | Deliver { src; dst } ->
      let kind, _, msg = Queue.pop t.queues.(src).(dst) in
      emit_trace t (Trace.Deliver { src; dst; kind });
      apply_event t (P.Deliver { dst; src; now = t.mc_now; msg })
  | Drop_msg { src; dst } ->
      let kind, _, _ = Queue.pop t.queues.(src).(dst) in
      t.drops_left <- t.drops_left - 1;
      emit_trace t (Trace.Drop { src; dst; kind })
  | Dup_msg { src; dst } ->
      let ((kind, _, _) as m) = Queue.peek t.queues.(src).(dst) in
      Queue.add m t.queues.(src).(dst);
      t.dups_left <- t.dups_left - 1;
      emit_trace t (Trace.Duplicate { src; dst; kind })
  | Crash_victim ->
      let v = victim t in
      t.crashed_done <- true;
      (* The victim's program dies with it: the explored scope restarts the
         node but not its client process. *)
      t.progs.(v) <- [];
      t.busy.(v) <- None;
      apply_event t (P.Crash { node = v })
  | Takeover_tick -> (
      t.takeover_done <- true;
      match t.scope.fault with
      | Gen.Partition _ ->
          (* The majority-side detector fires at the cut-off owner's
             designated backup: it suspects the far side, canvasses for
             OWNER_VOTEs over the owner's base, and promotes only at
             quorum (instantly under [Takeover_without_quorum]). *)
          side_tick t (partition_backup t)
      | _ ->
          (* One heartbeat tick at the victim's designated backup, late
             enough that the detector's silence threshold has long passed:
             the backup suspects the victim and canvasses for its base. *)
          t.mc_now <- 1e9;
          apply_event t (P.Hb_tick { node = (victim t + 1) mod t.scope.nodes; now = 1e9 }))
  | Restart_victim ->
      let v = victim t in
      t.restarted <- true;
      apply_event t (P.Restart { node = v; now = 1e9; records = List.rev t.wal.(v) });
      (* View synchronisation on rejoin: the restarted node learns the
         cluster's current epochs (the shell gets this from gossip; making
         it atomic here keeps the state space small and the deposed node
         honest about what it no longer serves). *)
      List.iter
        (fun (base, epoch, serving) -> apply_event t (P.Learn_view { node = v; base; epoch; serving }))
        (P.view t.core)
  | Begin_cp ->
      t.cp_done <- true;
      apply_event t (P.Begin_checkpoint { node = 0 })
  | Power_failure ->
      (* Every node loses volatile state at once and all in-flight traffic
         dies with the power.  Client processes are external to the outage:
         an owner write is already logged and recorded, so the crash wakes
         its process; a parked read is retried once power returns (its
         request frame was lost), while a parked remote write is
         conservatively abandoned — its certification fate is unknowable,
         so re-issuing could record a duplicate. *)
      t.outage_done <- true;
      for i = 0 to t.scope.nodes - 1 do
        Array.iter Queue.clear t.queues.(i);
        apply_event t (P.Crash { node = i });
        (match t.busy.(i) with
        | Some (Gen.Read loc) -> t.progs.(i) <- Gen.Read loc :: t.progs.(i)
        | Some _ -> t.progs.(i) <- []
        | None -> ());
        t.busy.(i) <- None
      done
  | Recover_all ->
      (* Power returns: every node restarts from whatever its log retained
         (latest complete checkpoint plus suffix), then synchronises the
         cluster view as in [Restart_victim]. *)
      t.recovered_done <- true;
      for v = 0 to t.scope.nodes - 1 do
        apply_event t (P.Restart { node = v; now = 1e9; records = List.rev t.wal.(v) })
      done;
      for v = 0 to t.scope.nodes - 1 do
        List.iter
          (fun (base, epoch, serving) -> apply_event t (P.Learn_view { node = v; base; epoch; serving }))
          (P.view t.core)
      done
  | Install_partition ->
      (* Cross-side messages already in flight stay queued — frozen, not
         dropped — and the heal releases them in order, modeling the
         reliable layer's retransmission backlog surviving a cable cut. *)
      t.partition_installed <- true
  | Degrade_tick ->
      (* The cut-off owner's detector fires: it suspects the far side,
         finds fewer than ⌊n/2⌋+1 reachable nodes and drops to read-only
         degraded mode (its own counter-canvass over the base it backs up
         can never pass its lone self-vote). *)
      t.degrade_done <- true;
      side_tick t (partition_owner t)
  | Heal_partition -> t.partition_healed <- true

(* ------------------------------------------------------------------ *)
(* Verdicts                                                            *)
(* ------------------------------------------------------------------ *)

let violation t = t.violation

let history t = Array.map (fun l -> Array.of_list (List.rev l)) t.ops

let op_count t = Array.fold_left (fun acc l -> acc + List.length l) 0 t.ops

let completed t =
  Array.for_all (fun p -> p = []) t.progs && Array.for_all Option.is_none t.busy

let posthoc_violation t =
  match Check.check (History.of_ops (history t)) with
  | Ok Check.Correct | Ok (Check.Violations []) -> (
      (* Registers are clean: certify every recorded object query against
         the causal-past-linearization rule (the generalized object
         check).  Register-only scopes record no queries, so their
         verdicts are untouched. *)
      match t.queries with
      | [] -> None
      | qs -> (
          match
            Check.check_objects ~lookup:Registry.find (History.of_ops (history t))
              (List.rev qs)
          with
          | [] -> None
          | v :: _ ->
              Some
                ( v.Obj_check.v_query.Obj_check.q_pid,
                  "object: " ^ v.Obj_check.v_reason )))
  | Ok (Check.Violations (v :: _)) -> Some (v.Check.read.Op.pid, v.Check.reason)
  | Error msg -> Some (-1, "malformed history: " ^ msg)

let read_values t pid =
  List.rev t.ops.(pid)
  |> List.filter_map (fun (op : Op.t) -> if Op.is_read op then Some op.value else None)

let trace_events t = List.rev t.trace

let queries t = List.rev t.queries

(* ------------------------------------------------------------------ *)
(* Fingerprinting and independence                                     *)
(* ------------------------------------------------------------------ *)

(* Everything behaviorally relevant, canonically ordered.  Histories are
   fingerprinted per process (not as a global order) so two interleavings
   that produced the same per-process state converge.  Deliberately
   excluded: statistics counters, the online checker's internals (a
   function of the per-process histories), and the invariant tables (the
   terminal post-hoc check is the authoritative oracle either way). *)
let fingerprint t =
  let n = t.scope.nodes in
  let queue_list q = List.rev (Queue.fold (fun acc m -> m :: acc) [] q) in
  let per_node i =
    let nd = P.node t.core i in
    ( P.is_crashed t.core i,
      Vclock.to_array (Node.vt nd),
      Node.entries nd,
      Node.view nd,
      List.init n (fun base -> Node.shadow_entries nd ~base),
      P.suspected_by t.core i,
      P.shadow_pending_list t.core i,
      (P.checkpoint_round t.core i, P.checkpoint_acks_pending t.core i),
      (P.candidacies t.core i, P.vote_promises t.core i, P.partition_degraded t.core i),
      t.wal.(i),
      t.ops.(i),
      t.progs.(i),
      (* What a blocked process waits on; a node's operation abandoned with
         it can never complete, so it is not state. *)
      (t.busy.(i), if t.busy.(i) = None then [] else P.parked t.core i) )
  in
  let data =
    ( Array.init n per_node,
      Array.init n (fun s -> Array.init n (fun d -> queue_list t.queues.(s).(d))),
      ( t.crashed_done,
        t.takeover_done,
        t.restarted,
        t.cp_done,
        t.outage_done,
        t.recovered_done,
        t.partition_installed,
        t.degrade_done,
        t.partition_healed,
        t.drops_left,
        t.dups_left ),
      P.shadow_seqno t.core,
      (* Share-sets are protocol state under sharding: two interleavings
         differing only in who has subscribed must not converge. *)
      P.subscriptions t.core,
      t.queries,
      t.violation )
  in
  Digest.string (Marshal.to_string data [ Marshal.No_sharing ])

(* Delivering a WRITE at a certifying owner allocates a cluster-global
   shadow sequence number when failover is on, so two such deliveries do
   not commute even on disjoint endpoints. *)
let allocating t (src, dst) =
  P.failover_on t.core
  &&
  match Queue.peek_opt t.queues.(src).(dst) with
  | Some (kind, _, _) -> kind = "WRITE"
  | None -> false

(* Only message deliveries with disjoint endpoints commute; everything else
   is conservatively dependent.  Note the state-space caveat: the moment an
   online violation is flagged can differ between two commuting orders, but
   the terminal post-hoc check is order-insensitive, so reduction never
   hides a violating execution (asserted by the reduction-agreement test). *)
let independent t a b =
  match (a, b) with
  | Deliver { src = s1; dst = d1 }, Deliver { src = s2; dst = d2 } ->
      s1 <> s2 && s1 <> d2 && d1 <> s2 && d1 <> d2
      && not (allocating t (s1, d1) && allocating t (s2, d2))
  | _ -> false
