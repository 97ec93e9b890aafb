(* Owner failover: synchronous shadow replication, heartbeat-driven
   takeover, epoch fencing, degraded shadow reads, and WAL-replay restarts
   with checkpoints.  Everything here is deterministic — fixed seeds, fixed
   schedule. *)

module Engine = Dsm_sim.Engine
module Proc = Dsm_runtime.Proc
module Latency = Dsm_net.Latency
module Cluster = Dsm_causal.Cluster
module Node = Dsm_causal.Node
module Stamped = Dsm_causal.Stamped
module Detector = Dsm_causal.Detector
module Wal = Dsm_causal.Wal
module Loc = Dsm_memory.Loc
module Value = Dsm_memory.Value
module Owner = Dsm_memory.Owner
module Check = Dsm_checker.Causal_check

let v i = Loc.indexed "v" i

let fast_detector = { Detector.period = 5.0; suspect_after = 2 }

let setup ?detector ?disk ?checkpoint_every ?(nodes = 3) () =
  let e = Engine.create () in
  let s = Proc.scheduler e in
  let c =
    Cluster.create ~sched:s ~owner:(Owner.by_index ~nodes) ?detector ?disk ?checkpoint_every
      ~latency:(Latency.Constant 1.0) ()
  in
  (e, s, c)

(* {1 Shadow replication} *)

let test_writes_are_shadowed () =
  (* With the detector on, every certified write reaches the owner's
     designated backup (ring successor) before the writer unblocks. *)
  let e, s, c = setup ~detector:fast_detector () in
  ignore
    (Proc.spawn s ~name:"writers" (fun () ->
         (* Local write by the owner itself... *)
         Cluster.write (Cluster.handle c 0) (v 0) (Value.Int 1);
         (* ...and a remote write certified on its behalf. *)
         Cluster.write (Cluster.handle c 2) (v 3) (Value.Int 2)));
  Engine.run e;
  Proc.check s;
  (match Node.shadow_lookup (Cluster.node c 1) ~base:0 (v 0) with
  | Some entry ->
      Alcotest.(check bool) "backup 1 shadows v0" true (entry.Stamped.value = Value.Int 1)
  | None -> Alcotest.fail "node 1 holds no shadow for v0");
  Alcotest.(check int) "node 1 shadows both base-0 writes" 2
    (Node.shadow_size (Cluster.node c 1) ~base:0);
  (* v3 is owned by node 0 too (3 mod 3 = 0), so it shadows to node 1. *)
  Alcotest.(check bool) "remote certification shadowed too" true
    (Node.shadow_lookup (Cluster.node c 1) ~base:0 (v 3) <> None);
  Alcotest.(check int) "nothing degraded" 0 (Cluster.shadow_degraded c)

let test_no_detector_means_no_shadows () =
  let e, s, c = setup () in
  ignore
    (Proc.spawn s ~name:"writer" (fun () ->
         Cluster.write (Cluster.handle c 0) (v 0) (Value.Int 1)));
  Engine.run e;
  Proc.check s;
  Alcotest.(check int) "no shadow traffic without failover" 0
    (Node.shadow_size (Cluster.node c 1) ~base:0);
  (* The WAL is always on, though: durability does not require failover. *)
  Alcotest.(check bool) "write logged regardless" true (Wal.length (Cluster.wal c 0) > 0)

(* {1 Takeover after an owner crash} *)

let test_owner_crash_promotes_backup () =
  let e, s, c = setup ~detector:fast_detector () in
  ignore
    (Proc.spawn s ~name:"owner" (fun () ->
         Cluster.write (Cluster.handle c 0) (v 0) (Value.Int 1)));
  Engine.schedule_at e 6.0 (fun () -> Cluster.crash c 0);
  let seen = ref [] in
  ignore
    (Proc.spawn s ~name:"client" (fun () ->
         let h = Cluster.handle c 2 in
         (* Sleep across the crash, the silence limit (2 * 5.0) and the
            takeover broadcast. *)
         Proc.sleep 30.0;
         seen := [ Cluster.read h (v 0) ];
         Cluster.write h (v 0) (Value.Int 2);
         seen := Cluster.read h (v 0) :: !seen));
  Engine.run e;
  Proc.check s;
  Alcotest.(check (list string)) "nobody blocked" [] (Proc.unfinished s);
  Alcotest.(check int) "one takeover" 1 (Cluster.takeovers c);
  Alcotest.(check int) "base 0 under epoch 1" 1 (Cluster.epoch_of c ~base:0);
  Alcotest.(check int) "served by the backup" 1 (Cluster.serving_of c ~base:0);
  (* The pre-crash write survived via the shadow; the post-takeover write
     was certified by the promoted backup. *)
  (match !seen with
  | [ after; before ] ->
      Alcotest.(check bool) "pre-crash write visible after takeover" true
        (before = Value.Int 1);
      Alcotest.(check bool) "new owner serves new writes" true (after = Value.Int 2)
  | _ -> Alcotest.fail "client did not complete its reads");
  Alcotest.(check bool) "backup was suspected into promoting" true
    (Cluster.suspect_events c >= 1);
  Alcotest.(check bool) "history stays causal" true (Check.is_correct (Cluster.history c))

let test_takeover_is_idempotent_across_epochs () =
  (* Re-delivered or gossiped view entries at the same or older epoch must
     not churn state. *)
  let _, _, c = setup () in
  let n2 = Cluster.node c 2 in
  Alcotest.(check bool) "first adoption" true
    (Node.adopt_view n2 ~base:0 ~epoch:1 ~serving:1 = Node.View_adopted);
  Alcotest.(check bool) "same epoch ignored" true
    (Node.adopt_view n2 ~base:0 ~epoch:1 ~serving:1 = Node.View_ignored);
  Alcotest.(check bool) "older epoch ignored" true
    (Node.adopt_view n2 ~base:0 ~epoch:0 ~serving:0 = Node.View_ignored);
  Alcotest.(check bool) "newer epoch adopted" true
    (Node.adopt_view n2 ~base:0 ~epoch:2 ~serving:2 = Node.View_adopted);
  Alcotest.(check int) "view reflects the newest epoch" 2 (Node.epoch_of n2 ~base:0)

(* {1 Epoch fencing} *)

let test_stale_owner_is_fenced_and_client_redirected () =
  (* A deposed owner answers with its newer view instead of serving; the
     stale client adopts it and re-routes within the same operation.  The
     takeover itself is staged by hand (no detector), isolating the fencing
     path from heartbeat timing. *)
  let e, s, c = setup () in
  ignore
    (Proc.spawn s ~name:"seed-write" (fun () ->
         Cluster.write (Cluster.handle c 0) (v 0) (Value.Int 1)));
  Engine.run e;
  Proc.check s;
  (* Hand the base-0 locations to node 1 behind the clients' backs. *)
  ignore (Node.promote (Cluster.node c 1) ~base:0 ~epoch:1);
  Alcotest.(check bool) "old owner demoted" true
    (Node.adopt_view (Cluster.node c 0) ~base:0 ~epoch:1 ~serving:1 = Node.View_demoted);
  let got = ref None in
  ignore
    (Proc.spawn s ~name:"stale-client" (fun () ->
         let h = Cluster.handle c 2 in
         Cluster.write h (v 0) (Value.Int 2);
         got := Some (Cluster.read h (v 0))));
  Engine.run e;
  Proc.check s;
  Alcotest.(check (list string)) "client completed" [] (Proc.unfinished s);
  Alcotest.(check bool) "redirected at least once" true (Cluster.redirects c >= 1);
  Alcotest.(check int) "client learned the epoch" 1
    (Node.epoch_of (Cluster.node c 2) ~base:0);
  Alcotest.(check bool) "write served by the new owner" true (!got = Some (Value.Int 2));
  Alcotest.(check bool) "history stays causal" true (Check.is_correct (Cluster.history c))

(* {1 Degraded reads from shadows} *)

let test_read_degrades_to_shadow_while_owner_suspected () =
  (* Node 2 stops hearing node 0 (one-way link loss), suspects it, and its
     read of a node-0 location is served from the backup's shadow copy —
     the last acknowledged write, a live value under Definition 2 — while
     node 1, which still hears node 0, never promotes. *)
  let e, s, c = setup ~detector:fast_detector () in
  ignore
    (Proc.spawn s ~name:"owner" (fun () ->
         Cluster.write (Cluster.handle c 0) (v 0) (Value.Int 7)));
  Engine.schedule_at e 4.0 (fun () -> Cluster.set_link_down c ~src:0 ~dst:2 true);
  let got = ref None in
  ignore
    (Proc.spawn s ~name:"reader" (fun () ->
         (* Past node 2's silence limit for node 0 (2 * 5.0 after t=4). *)
         Proc.sleep 25.0;
         got := Some (Cluster.read (Cluster.handle c 2) (v 0))));
  Engine.run e;
  Proc.check s;
  Alcotest.(check (list int)) "node 2 suspects node 0" [ 0 ] (Cluster.suspected_by c 2);
  Alcotest.(check int) "but nobody promoted" 0 (Cluster.takeovers c);
  Alcotest.(check int) "read served from the shadow" 1 (Cluster.shadow_reads c);
  Alcotest.(check bool) "and saw the acknowledged write" true (!got = Some (Value.Int 7));
  Alcotest.(check bool) "history stays causal" true (Check.is_correct (Cluster.history c))

let test_sharded_read_degrades_to_shadow () =
  (* The same under sharding, for a cross-shard reader: rings {0,1,2} and
     {3,4,5}.  Node 3's first read of a shard-0 location subscribes it,
     so it now watches ring 0; when it stops hearing owner 0 it suspects
     it and is served backup 1's shadow.  Ring members, which still hear
     node 0, never promote. *)
  let e = Engine.create () in
  let s = Proc.scheduler e in
  let layout = Dsm_memory.Shard.make ~nodes:6 ~shards:2 in
  let c =
    Cluster.create ~sched:s ~owner:(Dsm_memory.Shard.owner layout) ~sharding:layout
      ~detector:fast_detector ~latency:(Latency.Constant 1.0) ()
  in
  Alcotest.(check int) "v0 is served by node 0" 0
    (Owner.owner (Dsm_memory.Shard.owner layout) (v 0));
  let first = ref None and got = ref None in
  ignore
    (Proc.spawn s ~name:"owner" (fun () ->
         Cluster.write (Cluster.handle c 0) (v 0) (Value.Int 7)));
  ignore
    (Proc.spawn s ~name:"reader" (fun () ->
         let h = Cluster.handle c 3 in
         Proc.sleep 2.0;
         first := Some (Cluster.read h (v 0));
         Cluster.set_link_down c ~src:0 ~dst:3 true;
         (* Drop the cached copy so the next read misses, then wait out
            node 3's silence limit for node 0. *)
         Cluster.discard h;
         Proc.sleep 25.0;
         got := Some (Cluster.read h (v 0))));
  Engine.run e;
  Proc.check s;
  Alcotest.(check bool) "first read from the owner" true (!first = Some (Value.Int 7));
  Alcotest.(check (list int)) "node 3 suspects node 0" [ 0 ] (Cluster.suspected_by c 3);
  Alcotest.(check (list int)) "ring members suspect nobody" []
    (Cluster.suspected_by c 1 @ Cluster.suspected_by c 2);
  Alcotest.(check int) "nobody promoted" 0 (Cluster.takeovers c);
  Alcotest.(check int) "read served from the shadow" 1 (Cluster.shadow_reads c);
  Alcotest.(check bool) "and saw the acknowledged write" true (!got = Some (Value.Int 7));
  Alcotest.(check bool) "history stays causal" true (Check.is_correct (Cluster.history c))

(* {1 Durability: WAL replay, checkpoints, sync faults} *)

let test_restart_replays_through_checkpoint () =
  let disk = Wal.Disk.create () in
  let e, s, c = setup ~disk () in
  ignore
    (Proc.spawn s ~name:"writes" (fun () ->
         Cluster.write (Cluster.handle c 0) (v 0) (Value.Int 1);
         Cluster.write (Cluster.handle c 0) (v 3) (Value.Int 2)));
  Engine.run e;
  Proc.check s;
  Cluster.checkpoint_now c 0;
  Alcotest.(check int) "log truncated to the snapshot" 1 (Wal.length (Cluster.wal c 0));
  ignore
    (Proc.spawn s ~name:"more-writes" (fun () ->
         let h = Cluster.handle c 1 in
         (* Read first so the write's stamp dominates the stored one. *)
         ignore (Cluster.read h (v 0));
         Cluster.write h (v 0) (Value.Int 3)));
  Engine.run e;
  Proc.check s;
  Cluster.crash c 0;
  Cluster.restart c 0;
  let got = ref None in
  ignore
    (Proc.spawn s ~name:"reader" (fun () ->
         let h = Cluster.handle c 2 in
         got := Some (Cluster.read h (v 0), Cluster.read h (v 3))));
  Engine.run e;
  Proc.check s;
  Alcotest.(check bool) "snapshot + tail both replayed" true
    (!got = Some (Value.Int 3, Value.Int 2));
  Alcotest.(check bool) "history stays causal" true (Check.is_correct (Cluster.history c))

let test_promotion_survives_backup_restart () =
  (* A backup that promoted, then crashed, must come back as the owner of
     the inherited locations: the View_change replay re-installs the shadow
     entries it inherited at promotion time. *)
  let e, s, c = setup ~detector:fast_detector () in
  ignore
    (Proc.spawn s ~name:"owner" (fun () ->
         Cluster.write (Cluster.handle c 0) (v 0) (Value.Int 9)));
  Engine.schedule_at e 6.0 (fun () -> Cluster.crash c 0);
  (* Let the takeover happen, then bounce the promoted backup. *)
  Engine.schedule_at e 40.0 (fun () ->
      Alcotest.(check int) "backup promoted before the bounce" 1 (Cluster.takeovers c);
      Cluster.crash c 1;
      Cluster.restart c 1);
  let got = ref None in
  ignore
    (Proc.spawn s ~name:"client" (fun () ->
         Proc.sleep 50.0;
         got := Some (Cluster.read (Cluster.handle c 2) (v 0))));
  Engine.run e;
  Proc.check s;
  Alcotest.(check (list string)) "client completed" [] (Proc.unfinished s);
  let n1 = Cluster.node c 1 in
  Alcotest.(check int) "still serving base 0 after replay" 1 (Node.serving_of n1 ~base:0);
  Alcotest.(check bool) "inherited write survived both crashes" true
    (!got = Some (Value.Int 9))

let test_wal_sync_fault_is_tolerated () =
  let disk = Wal.Disk.create () in
  let e, s, c = setup ~disk () in
  Wal.Disk.fail_next_syncs disk 1;
  ignore
    (Proc.spawn s ~name:"writer" (fun () ->
         Cluster.write (Cluster.handle c 0) (v 0) (Value.Int 1)));
  Engine.run e;
  Proc.check s;
  Alcotest.(check int) "failure counted, not raised" 1 (Cluster.wal_sync_failures c);
  Alcotest.(check int) "the entry was lost from the log" 0 (Wal.length (Cluster.wal c 0));
  (* A later checkpoint recaptures it from volatile memory. *)
  Cluster.checkpoint_now c 0;
  Cluster.crash c 0;
  Cluster.restart c 0;
  let got = ref None in
  ignore
    (Proc.spawn s ~name:"reader" (fun () ->
         got := Some (Cluster.read (Cluster.handle c 1) (v 0))));
  Engine.run e;
  Proc.check s;
  Alcotest.(check bool) "checkpoint recovered the unlogged write" true
    (!got = Some (Value.Int 1))

(* {1 End-to-end chaos determinism} *)

let assert_failover_healthy name (r : Dsm_apps.Chaos.report) =
  let module Chaos = Dsm_apps.Chaos in
  Alcotest.(check bool) (name ^ ": causally correct") true r.Chaos.causal_ok;
  Alcotest.(check (list (pair string (float 0.0))))
    (name ^ ": nobody blocked") [] r.Chaos.unfinished;
  Alcotest.(check int) (name ^ ": one crash") 1 r.Chaos.crashes;
  Alcotest.(check int) (name ^ ": one takeover") 1 r.Chaos.takeovers;
  Alcotest.(check (list (triple int int int)))
    (name ^ ": backup serves base 0 under epoch 1")
    [ (0, 1, 1) ] r.Chaos.view

let test_owner_crash_scenario () =
  let module Chaos = Dsm_apps.Chaos in
  let r1 = Chaos.run ~seed:42L "owner-crash" in
  let r2 = Chaos.run ~seed:42L "owner-crash" in
  assert_failover_healthy "owner-crash" r1;
  Alcotest.(check int) "same ops across same-seed runs" r1.Chaos.ops r2.Chaos.ops;
  Alcotest.(check int) "same messages" r1.Chaos.messages r2.Chaos.messages;
  Alcotest.(check (float 0.0)) "same sim time" r1.Chaos.sim_time r2.Chaos.sim_time

let test_failover_scenario_restores_victim () =
  let module Chaos = Dsm_apps.Chaos in
  let r = Chaos.run ~seed:42L "failover" in
  assert_failover_healthy "failover" r;
  Alcotest.(check (option string))
    "restarted victim demoted by gossip" (Some "true")
    (List.assoc_opt "victim_demoted" r.Chaos.notes);
  Alcotest.(check bool) "victim recovery unsuspected it" true (r.Chaos.unsuspects > 0)

let test_failover_soak_across_seeds () =
  (* Heavier, multi-seed pass — the non-blocking CI job's bread and
     butter.  With 5% message loss and five processes, transient false
     suspicions can bump epochs on other bases too, so the soak asserts
     liveness and the victim's handoff rather than an exact epoch map. *)
  let module Chaos = Dsm_apps.Chaos in
  List.iter
    (fun seed ->
      let name = Printf.sprintf "failover seed %Ld" seed in
      let r1 = Chaos.run ~seed ~clients:4 ~ops:12 "failover" in
      let r2 = Chaos.run ~seed ~clients:4 ~ops:12 "failover" in
      Alcotest.(check bool) (name ^ ": causally correct") true r1.Chaos.causal_ok;
      Alcotest.(check (list (pair string (float 0.0))))
        (name ^ ": nobody blocked") [] r1.Chaos.unfinished;
      Alcotest.(check int) (name ^ ": one crash") 1 r1.Chaos.crashes;
      Alcotest.(check bool) (name ^ ": at least one takeover") true
        (r1.Chaos.takeovers >= 1);
      (match List.find_opt (fun (base, _, _) -> base = 0) r1.Chaos.view with
      | Some (_, serving, epoch) ->
          Alcotest.(check bool) (name ^ ": victim handed base 0 off") true
            (serving <> 0 && epoch >= 1)
      | None -> Alcotest.fail (name ^ ": no view entry for the victim's base"));
      Alcotest.(check int)
        (Printf.sprintf "seed %Ld deterministic" seed)
        r1.Chaos.messages r2.Chaos.messages)
    [ 1L; 7L; 42L; 1337L ]

let suite =
  [
    Alcotest.test_case "writes are shadowed" `Quick test_writes_are_shadowed;
    Alcotest.test_case "no detector, no shadows" `Quick test_no_detector_means_no_shadows;
    Alcotest.test_case "crash promotes backup" `Quick test_owner_crash_promotes_backup;
    Alcotest.test_case "view adoption idempotent" `Quick test_takeover_is_idempotent_across_epochs;
    Alcotest.test_case "stale owner fenced" `Quick test_stale_owner_is_fenced_and_client_redirected;
    Alcotest.test_case "read degrades to shadow" `Quick
      test_read_degrades_to_shadow_while_owner_suspected;
    Alcotest.test_case "sharded read degrades to shadow" `Quick
      test_sharded_read_degrades_to_shadow;
    Alcotest.test_case "restart replays checkpoint" `Quick test_restart_replays_through_checkpoint;
    Alcotest.test_case "promotion survives restart" `Quick test_promotion_survives_backup_restart;
    Alcotest.test_case "wal sync fault tolerated" `Quick test_wal_sync_fault_is_tolerated;
    Alcotest.test_case "owner-crash scenario" `Quick test_owner_crash_scenario;
    Alcotest.test_case "failover scenario" `Quick test_failover_scenario_restores_victim;
    Alcotest.test_case "failover soak" `Slow test_failover_soak_across_seeds;
  ]
