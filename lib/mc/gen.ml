module P = Dsm_protocol.Protocol
module Config = Dsm_protocol.Config
module Detector = Dsm_protocol.Detector
module Message = Dsm_protocol.Message
module Node = Dsm_protocol.Node
module Owner = Dsm_memory.Owner
module Loc = Dsm_memory.Loc
module Value = Dsm_memory.Value
module Prng = Dsm_util.Prng

type op = Read of Loc.t | Write of Loc.t * Value.t | Query of string

type fault =
  | No_faults
  | Crash of { victim : int; restart : bool }
  | Drop of { drops : int; dups : int }
  | Power
  | Partition of { minority : int list; majority : int list }

type scope = {
  sname : string;
  nodes : int;
  owner : Owner.t;
  programs : op list array;
  fault : fault;
  failover : bool;
  mutation : Config.mutation;
  shards : int;  (* <= 1: unsharded (full replication) *)
  precise : bool;  (* run under [Config.Precise] invalidation *)
}

let default_detector = { Detector.period = 5.0; suspect_after = 3 }

(* ------------------------------------------------------------------ *)
(* Random closed-loop event schedules (shared with test_protocol)      *)
(* ------------------------------------------------------------------ *)

let fresh_state ?(nodes = 4) () =
  P.create ~owner:(Owner.by_index ~nodes) ~config:Config.default ~detector:default_detector
    ~now:0.0 ()

(* Drive one random run against a fresh state, returning the event
   sequence (oldest first) and the action list each event produced.
   Client reads and writes are issued at random; [Send] actions feed back
   as future [Deliver]s, [Arm_grace] as [Grace_expired], [Client_reply] as
   [Reply_taken] and [Park] as [Rpc_timeout]; everything is drawn from the
   seeded PRNG, so a given (nodes, seed, steps) triple regenerates
   bit-identically. *)
let random_run ?(nodes = 4) ~seed ~steps () =
  let prng = Prng.create seed in
  let st = fresh_state ~nodes () in
  let loc i = Loc.indexed "v" i in
  let pending = ref [] (* in-flight (dst, src, msg) *) in
  let graces = ref [] (* armed (node, seq) *) in
  let replies = ref [] (* handed to a client, not yet taken: (node, req, msg) *) in
  let parked = ref [] (* (node, req) *) in
  let events = ref [] in
  let actions = ref [] in
  let now = ref 0.0 in
  let writers = ref 0 in
  let apply ev =
    events := ev :: !events;
    let _, acts = P.step st ev in
    actions := acts :: !actions;
    List.iter
      (function
        | P.Send { src; dst; msg; _ } -> pending := (dst, src, msg) :: !pending
        | P.Arm_grace { node; seq } -> graces := (node, seq) :: !graces
        | P.Client_reply { node; req; msg } -> replies := (node, req, msg) :: !replies
        | P.Park { node; req } -> parked := (node, req) :: !parked
        | _ -> ())
      acts
  in
  let take_nth r i =
    let x = List.nth !r i in
    r := List.filteri (fun j _ -> j <> i) !r;
    x
  in
  let up () = List.init nodes Fun.id |> List.filter (fun n -> not (P.is_crashed st n)) in
  for _ = 1 to steps do
    now := !now +. Prng.float prng 2.0;
    let choice = Prng.int prng 100 in
    let backlog = List.length !pending in
    if (choice < 45 || backlog > 16) && backlog > 0 then begin
      (* Mostly oldest first, and always once the backlog grows, so round
         trips complete among the beats. *)
      let dst, src, msg = take_nth pending (backlog - 1 - Prng.int prng (min 8 backlog)) in
      apply (P.Deliver { dst; src; now = !now; msg })
    end
    else if choice < 69 then begin
      (* A client read or write at a live node, of a location it may or
         may not serve. *)
      let up = up () in
      let node = List.nth up (Prng.int prng (List.length up)) in
      let l = loc (Prng.int prng (2 * nodes)) in
      incr writers;
      apply
        (if Prng.bool prng then P.Issue_read { node; loc = l }
         else P.Issue_write { node; loc = l; value = Value.Int !writers })
    end
    else if choice < 76 then begin
      if !replies <> [] then begin
        let node, req, msg = take_nth replies (Prng.int prng (List.length !replies)) in
        (* A writer that took over the base meanwhile cannot adopt its own
           W_REPLY ([Node.adopt_write_reply] raises, a known open bug), so
           such a reply is dropped instead. *)
        match msg with
        | Message.Write_reply { loc; _ } when Node.owns (P.node st node) loc -> ()
        | _ -> apply (P.Reply_taken { node; req; msg })
      end
    end
    else if choice < 77 then begin
      if !parked <> [] then begin
        let node, req = take_nth parked (Prng.int prng (List.length !parked)) in
        apply (P.Rpc_timeout { node; req; retry = Prng.bool prng })
      end
    end
    else if choice < 81 && !graces <> [] then begin
      let node, seq = take_nth graces (Prng.int prng (List.length !graces)) in
      apply (P.Grace_expired { node; seq })
    end
    else if choice < 84 then begin
      (* Crash someone who is up (but never everyone at once). *)
      let up = up () in
      if List.length up > 1 then
        apply (P.Crash { node = List.nth up (Prng.int prng (List.length up)) })
    end
    else if choice < 88 then begin
      let down = List.init nodes Fun.id |> List.filter (P.is_crashed st) in
      if down <> [] then
        apply
          (P.Restart
             {
               node = List.nth down (Prng.int prng (List.length down));
               now = !now;
               records = [];
             })
    end
    else apply (P.Hb_tick { node = Prng.int prng nodes; now = !now })
  done;
  (List.rev !events, List.rev !actions)

(* ------------------------------------------------------------------ *)
(* Small-scope programs                                                *)
(* ------------------------------------------------------------------ *)

let x = Loc.named "x"
let y = Loc.named "y"
let z = Loc.named "z"

let owner_fn ~nodes assign = Owner.make ~nodes (fun loc -> assign loc)

(* Message passing: one writer publishes x then y, one reader consumes in
   the opposite order.  Both locations live at the writer. *)
let mp =
  {
    sname = "mp";
    nodes = 2;
    owner = owner_fn ~nodes:2 (fun _ -> 0);
    programs =
      [|
        [ Write (x, Value.Int 1); Write (y, Value.Int 2) ]; [ Read y; Read x ];
      |];
    fault = No_faults;
    failover = false;
    mutation = Config.No_mutation;
    shards = 0;
    precise = false;
  }

(* Publication with a re-read: the reader caches the old y, sees the new x,
   then reads y again — the cached copy must have been invalidated.
   Catches [Skip_invalidation]. *)
let publication =
  {
    sname = "publication";
    nodes = 2;
    owner = owner_fn ~nodes:2 (fun _ -> 0);
    programs =
      [|
        [ Write (y, Value.Int 1); Write (x, Value.Int 2) ];
        [ Read y; Read x; Read y ];
      |];
    fault = No_faults;
    failover = false;
    mutation = Config.No_mutation;
    shards = 0;
    precise = false;
  }

(* Three-party race: the x-writer's causal history (it read y=3) must ride
   on its writestamp so the owner's certified entry invalidates the
   reader's stale cached y.  Catches [Skip_writestamp_merge]. *)
let race =
  {
    sname = "race";
    nodes = 3;
    owner =
      owner_fn ~nodes:3 (fun loc ->
          if Loc.equal loc x then 1 else if Loc.equal loc y then 2 else 0);
    programs =
      [|
        [ Read y; Write (x, Value.Int 5) ];
        [ Read y; Read x; Read y ];
        [ Write (y, Value.Int 1); Write (y, Value.Int 3) ];
      |];
    fault = No_faults;
    failover = false;
    mutation = Config.No_mutation;
    shards = 0;
    precise = false;
  }

(* Owner crash with takeover: node 2 writes x (served by the victim) then y
   (served by the backup); the backup reads y then x after promoting.  The
   acknowledged w(x)1 must survive the takeover — catches
   [Reorder_apply_ack] and [Skip_shadow_replication]. *)
let failover =
  {
    sname = "failover";
    nodes = 3;
    owner =
      owner_fn ~nodes:3 (fun loc ->
          if Loc.equal loc x then 0 else if Loc.equal loc y then 1 else 0);
    programs =
      [| []; [ Read y; Read x ]; [ Write (x, Value.Int 1); Write (y, Value.Int 2) ] |];
    fault = Crash { victim = 0; restart = false };
    failover = true;
    mutation = Config.No_mutation;
    shards = 0;
    precise = false;
  }

(* Crash, takeover, restart: the restarted (deposed) node 0 must fence
   reads arriving under its old epoch instead of fabricating answers for
   locations it no longer serves.  Catches [Ignore_epoch_fence]. *)
let fence =
  {
    sname = "fence";
    nodes = 4;
    owner =
      owner_fn ~nodes:4 (fun loc ->
          if Loc.equal loc x then 0 else if Loc.equal loc y then 1 else 0);
    programs =
      [|
        [];
        [];
        [ Write (x, Value.Int 1); Write (y, Value.Int 2) ];
        [ Read y; Read x ];
      |];
    fault = Crash { victim = 0; restart = true };
    failover = true;
    mutation = Config.No_mutation;
    shards = 0;
    precise = false;
  }

(* Message passing under a lossy, duplicating link with small budgets. *)
let lossy =
  {
    mp with
    sname = "lossy";
    fault = Drop { drops = 1; dups = 1 };
  }

(* Checkpoint, then crash everywhere: the writer's w(x)1 is certified and
   logged at node 0; a coordinated checkpoint folds it into a snapshot and
   compaction truncates the log behind it; the outage wipes every volatile
   state at once.  After repowering, the reader's second r(x) must still
   see a value at least as new as its first — replay from the snapshot
   guarantees it.  Catches [Truncate_wal_early], whose compaction cut
   drops the anchor checkpoint itself and loses the snapshotted write. *)
let power =
  {
    sname = "power";
    nodes = 2;
    owner = owner_fn ~nodes:2 (fun _ -> 0);
    programs = [| [ Write (x, Value.Int 1) ]; [ Read x; Read x ] |];
    fault = Power;
    failover = false;
    mutation = Config.No_mutation;
    shards = 0;
    precise = false;
  }

(* Network partition with quorum-gated takeover: every location served by
   node 0, which the cut isolates from the majority {1, 2} (node 1 is its
   designated backup).  During the partition the isolated owner tries to
   write x, while the majority elects node 1 over base 0 with ⌊3/2⌋+1 = 2
   OWNER_VOTE grants; node 0's own counter-canvass (over base 2, whose
   backup it is) can never exceed its lone self-vote, so the minority side
   stays read-only.  Safety hinges on node 0 observing quorum loss and
   degrading before the majority-side promotion completes (the
   lease-timing assumption the explorer's Degrade-before-Takeover gate
   encodes): a degraded node 0 refuses its own write, so the base never
   has two write-accepting servers.  Node 2 reads x to exercise the
   post-heal fencing and frontier-reconciliation paths.  Catches
   [Takeover_without_quorum], which promotes on suspicion alone — the
   promotion then races ahead of the minority owner's degrade and both
   sides accept writes, the split-brain the dual-certification invariant
   flags. *)
let partition =
  {
    sname = "partition";
    nodes = 3;
    owner = owner_fn ~nodes:3 (fun _ -> 0);
    programs = [| [ Write (x, Value.Int 1) ]; []; [ Read x ] |];
    fault = Partition { minority = [ 0 ]; majority = [ 1; 2 ] };
    failover = true;
    mutation = Config.No_mutation;
    shards = 0;
    precise = false;
  }

(* Partial replication: 4 nodes in 2 shards (rings {0,1} and {2,3}); the
   indexed family "s" stripes by index mod 2, so s[0] and s[4] both live in
   shard 0 with base owner 0 under the induced map.  Node 1 (a ring member
   of shard 0) publishes y=s[0] then x=s[4]; node 3 (ring of shard 1, {e
   not} born into shard 0's share-set) reads y, x, y — its first read
   subscribes it on access, so shard 0's precise-invalidation digests must
   keep flowing to it.  Runs under [Config.Precise], where invalidation of
   cached copies is digest-driven: [Prune_share_set_wrongly] filters reply
   digests as if runtime subscribers were not in the share-set, node 3's
   cached stale y survives the x read that causally follows the newer
   write, and the third read violates causality. *)
let shard_scope =
  let sy = Loc.indexed "s" 0 in
  let sx = Loc.indexed "s" 4 in
  let layout = Dsm_memory.Shard.make ~nodes:4 ~shards:2 in
  {
    sname = "shard";
    nodes = 4;
    owner = Dsm_memory.Shard.owner layout;
    programs =
      [|
        [];
        [ Write (sy, Value.Int 1); Write (sx, Value.Int 2) ];
        [];
        [ Read sy; Read sx; Read sy ];
      |];
    fault = No_faults;
    failover = false;
    mutation = Config.No_mutation;
    shards = 2;
    precise = true;
  }

(* Causal objects: both nodes append an increment to their own op-log cell
   of the counter family ("ctr", see lib/objects), probe the other's cell
   and query.  The query folds the probed payloads through the counter
   spec; the generalized checker certifies every interleaving's return
   against the causal-past-linearization rule.  Catches [Merge_drops_op],
   the client-side merge bug that folds one observed update short — each
   probe read stays register-legal, so only the object layer sees it. *)
let objects_scope =
  let c0 = Loc.cell "ctr" 0 0 in
  let c1 = Loc.cell "ctr" 1 0 in
  {
    sname = "objects";
    nodes = 2;
    owner = owner_fn ~nodes:2 (fun _ -> 0);
    programs =
      [|
        [ Write (c0, Value.Str "inc"); Read c1; Query "ctr" ];
        [ Write (c1, Value.Str "inc"); Read c0; Query "ctr" ];
      |];
    fault = No_faults;
    failover = false;
    mutation = Config.No_mutation;
    shards = 0;
    precise = false;
  }

let presets =
  [ mp; publication; race; failover; fence; lossy; power; partition; shard_scope; objects_scope ]

let preset name = List.find_opt (fun s -> s.sname = name) presets

(* Which preset exhibits each mutation: the matrix the checker must ace. *)
let matrix =
  [
    (Config.Skip_invalidation, "publication");
    (Config.Skip_writestamp_merge, "race");
    (Config.Reorder_apply_ack, "failover");
    (Config.Skip_shadow_replication, "failover");
    (Config.Ignore_epoch_fence, "fence");
    (Config.Truncate_wal_early, "power");
    (Config.Takeover_without_quorum, "partition");
    (Config.Prune_share_set_wrongly, "shard");
    (Config.Merge_drops_op, "objects");
    (Config.Figure4_literal, "race");
  ]

(* A generic message-passing-flavoured scope: node 0 alternates writes over
   x and y, everyone else reads them in anti-phase. *)
let generic ~nodes ~ops ~fault =
  if nodes < 2 then invalid_arg "Gen.generic: need at least 2 nodes";
  let owner = owner_fn ~nodes (fun loc -> if Loc.equal loc y then 1 mod nodes else 0) in
  let program i =
    List.init ops (fun j ->
        if i = 0 then Write ((if j mod 2 = 0 then x else y), Value.Int (j + 1))
        else if i = 1 then Read (if j mod 2 = 0 then y else x)
        else Read (if j mod 2 = 0 then x else y))
  in
  let failover = match fault with Crash _ -> true | _ -> false in
  {
    sname = Printf.sprintf "generic-%dx%d" nodes ops;
    nodes;
    owner;
    programs = Array.init nodes program;
    fault;
    failover;
    mutation = Config.No_mutation;
    shards = 0;
    precise = false;
  }
