(* Failure injection: the protocol assumes reliable links (Section 3); these
   tests show what the harness surfaces when that assumption is broken, and
   that detection hooks (dropped counters, stuck-process reporting) work. *)

module Engine = Dsm_sim.Engine
module Proc = Dsm_runtime.Proc
module Network = Dsm_net.Network
module Latency = Dsm_net.Latency
module Cluster = Dsm_causal.Cluster
module Loc = Dsm_memory.Loc
module Value = Dsm_memory.Value
module Owner = Dsm_memory.Owner

let v i = Loc.indexed "v" i

let setup () =
  let e = Engine.create () in
  let s = Proc.scheduler e in
  let c =
    Cluster.create ~sched:s ~owner:(Owner.by_index ~nodes:3)
      ~latency:(Latency.Constant 1.0) ()
  in
  (e, s, c)

let test_down_link_drops () =
  let e = Engine.create () in
  let net = Network.create e ~nodes:2 () in
  Network.set_handler net ~node:1 (fun ~src:_ _ -> ());
  Network.set_link_down net ~src:0 ~dst:1 true;
  Network.send net ~src:0 ~dst:1 "lost";
  Engine.run e;
  Alcotest.(check int) "dropped" 1 (Network.dropped net);
  Alcotest.(check int) "never sent" 0 (Network.lifetime_total net)

let test_heal_restores () =
  let e = Engine.create () in
  let net = Network.create e ~nodes:2 () in
  let got = ref 0 in
  Network.set_handler net ~node:1 (fun ~src:_ _ -> incr got);
  Network.set_link_down net ~src:0 ~dst:1 true;
  Network.send net ~src:0 ~dst:1 "lost";
  Network.heal_all net;
  Network.send net ~src:0 ~dst:1 "arrives";
  Engine.run e;
  Alcotest.(check int) "one arrived" 1 !got;
  Alcotest.(check int) "one dropped" 1 (Network.dropped net)

let test_partition_is_bidirectional () =
  let e = Engine.create () in
  let net = Network.create e ~nodes:4 () in
  for n = 0 to 3 do
    Network.set_handler net ~node:n (fun ~src:_ _ -> ())
  done;
  Network.partition net [ 0; 1 ] [ 2; 3 ];
  Network.send net ~src:0 ~dst:2 "x";
  Network.send net ~src:3 ~dst:1 "y";
  Network.send net ~src:0 ~dst:1 "ok";
  Engine.run e;
  Alcotest.(check int) "cross-partition dropped" 2 (Network.dropped net);
  Alcotest.(check int) "intra-partition flows" 1 (Network.lifetime_total net)

let test_blocked_reader_is_detected () =
  (* Node 0 reads a location owned by node 1 while the link is down: the
     READ is dropped, the reader blocks forever, and [unfinished] names it
     after the engine quiesces. *)
  let e, s, c = setup () in
  Network.set_link_down (Cluster.net c) ~src:0 ~dst:1 true;
  ignore
    (Proc.spawn s ~name:"reader" (fun () ->
         ignore (Cluster.read (Cluster.handle c 0) (v 1))));
  Engine.run e;
  Alcotest.(check (list string)) "stuck process reported" [ "reader" ] (Proc.unfinished s);
  Alcotest.(check int) "the READ was dropped" 1 (Network.dropped (Cluster.net c))

let test_lost_reply_also_blocks () =
  let e, s, c = setup () in
  (* Request gets through; the reply is dropped. *)
  Network.set_link_down (Cluster.net c) ~src:1 ~dst:0 true;
  ignore
    (Proc.spawn s ~name:"writer" (fun () ->
         Cluster.write (Cluster.handle c 0) (v 1) (Value.Int 5)));
  Engine.run e;
  Alcotest.(check (list string)) "stuck on lost W_REPLY" [ "writer" ] (Proc.unfinished s);
  (* The owner still applied the write — certified state and blocked writer
     can diverge under message loss, which is why the paper assumes
     reliability. *)
  let seen = ref Value.Free in
  ignore (Proc.spawn s ~name:"probe" (fun () -> seen := Cluster.read (Cluster.handle c 1) (v 1)));
  Engine.run e;
  Alcotest.(check bool) "owner applied the write" true (Value.equal !seen (Value.Int 5))

let test_unaffected_nodes_progress () =
  let e, s, c = setup () in
  Network.partition (Cluster.net c) [ 0 ] [ 1 ];
  let ok = ref false in
  ignore
    (Proc.spawn s ~name:"victim" (fun () ->
         ignore (Cluster.read (Cluster.handle c 0) (v 1))));
  ignore
    (Proc.spawn s ~name:"bystander" (fun () ->
         Cluster.write (Cluster.handle c 2) (v 2) (Value.Int 1);
         ignore (Cluster.read (Cluster.handle c 2) (v 1));
         ok := true));
  Engine.run e;
  Alcotest.(check bool) "bystander finished" true !ok;
  Alcotest.(check (list string)) "only victim stuck" [ "victim" ] (Proc.unfinished s)

let test_unfinished_empty_on_clean_run () =
  let e, s, c = setup () in
  ignore
    (Proc.spawn s ~name:"fine" (fun () ->
         Cluster.write (Cluster.handle c 0) (v 1) (Value.Int 1)));
  Engine.run e;
  Proc.check s;
  Alcotest.(check (list string)) "none stuck" [] (Proc.unfinished s)

let test_history_remains_causal_under_partition () =
  (* Whatever completes before/despite the partition is still causally
     correct — safety is unaffected by message loss, only liveness. *)
  let e, s, c = setup () in
  ignore
    (Proc.spawn s ~name:"a" (fun () ->
         Cluster.write (Cluster.handle c 0) (v 0) (Value.Int 1);
         ignore (Cluster.read (Cluster.handle c 0) (v 2))));
  ignore
    (Proc.spawn s ~name:"b" (fun () ->
         Proc.sleep 5.0;
         Network.partition (Cluster.net c) [ 0 ] [ 1; 2 ];
         Cluster.write (Cluster.handle c 1) (v 1) (Value.Int 2)));
  Engine.run e;
  Alcotest.(check bool) "recorded prefix causal" true
    (Dsm_checker.Causal_check.is_correct (Cluster.history c))

(* ------------------------------------------------------------------ *)
(* RPC timeouts: a typed Timed_out instead of blocking forever         *)
(* ------------------------------------------------------------------ *)

let setup_rpc ?reliability ?(timeout = 10.0) ?(retries = 2) () =
  let e = Engine.create () in
  let s = Proc.scheduler e in
  let c =
    Cluster.create ~sched:s ~owner:(Owner.by_index ~nodes:3)
      ~latency:(Latency.Constant 1.0) ?reliability
      ~rpc:{ Cluster.timeout; retries } ()
  in
  (e, s, c)

let test_timed_out_read_on_dead_link () =
  (* The owner link is permanently down and there is no reliable transport:
     every attempt's READ is dropped, the capped retries exhaust, and the
     reader gets a typed Timed_out instead of blocking forever. *)
  let e, s, c = setup_rpc ~retries:2 () in
  Cluster.set_link_down c ~src:0 ~dst:1 true;
  let result = ref None in
  ignore
    (Proc.spawn s ~name:"reader" (fun () ->
         result := Some (Cluster.read_result (Cluster.handle c 0) (v 1))));
  Engine.run e;
  (match !result with
  | Some (Error info) ->
      Alcotest.(check bool) "read op" true (info.Cluster.op = `Read);
      Alcotest.(check int) "requester" 0 info.Cluster.requester;
      Alcotest.(check int) "owner" 1 info.Cluster.owner_node;
      Alcotest.(check int) "all attempts used" 3 info.Cluster.attempts
  | Some (Ok _) -> Alcotest.fail "read should have timed out"
  | None -> Alcotest.fail "reader never finished");
  Alcotest.(check (list string)) "no process left blocked" [] (Proc.unfinished s);
  Alcotest.(check int) "every attempt timed out" 3 (Cluster.rpc_timeouts c)

let test_timed_out_write_raises_typed () =
  let e, s, c = setup_rpc ~retries:1 () in
  Cluster.set_link_down c ~src:0 ~dst:1 true;
  let caught = ref None in
  ignore
    (Proc.spawn s ~name:"writer" (fun () ->
         try Cluster.write (Cluster.handle c 0) (v 1) (Value.Int 5)
         with Cluster.Timed_out info -> caught := Some info));
  Engine.run e;
  match !caught with
  | Some info ->
      Alcotest.(check bool) "write op" true (info.Cluster.op = `Write);
      Alcotest.(check int) "attempts = retries + 1" 2 info.Cluster.attempts
  | None -> Alcotest.fail "expected Cluster.Timed_out"

let test_timeout_with_reliable_transport_still_bounded () =
  (* Even with the reliable layer retransmitting underneath, a permanently
     dead owner link must end in Timed_out (the transport's retry cap plus
     the RPC timeout), and the engine must quiesce. *)
  let e, s, c =
    setup_rpc
      ~reliability:
        { Dsm_net.Reliable.default_config with Dsm_net.Reliable.rto = 2.0; max_retries = 2 }
      ~timeout:20.0 ~retries:1 ()
  in
  Cluster.set_link_down c ~src:0 ~dst:1 true;
  let result = ref None in
  ignore
    (Proc.spawn s ~name:"reader" (fun () ->
         result := Some (Cluster.read_result (Cluster.handle c 0) (v 1))));
  Engine.run e;
  (match !result with
  | Some (Error _) -> ()
  | _ -> Alcotest.fail "expected a timeout");
  Alcotest.(check (list string)) "quiesced with nothing stuck" [] (Proc.unfinished s);
  let r = Option.get (Cluster.reliable c) in
  Alcotest.(check bool) "transport gave up" true (Dsm_net.Reliable.gave_up r > 0)

let test_retry_succeeds_after_heal () =
  (* The link comes back between attempts: the retry goes through and the
     caller never observes the fault. *)
  let e, s, c = setup_rpc ~timeout:5.0 ~retries:3 () in
  Cluster.set_link_down c ~src:0 ~dst:1 true;
  ignore (Proc.spawn s ~name:"healer" ~delay:7.0 (fun () ->
      Cluster.set_link_down c ~src:0 ~dst:1 false));
  let got = ref None in
  ignore
    (Proc.spawn s ~name:"writer" (fun () ->
         got := Some (Cluster.write_resolved (Cluster.handle c 0) (v 1) (Value.Int 9))));
  Engine.run e;
  Alcotest.(check bool) "write completed" true (!got = Some `Accepted);
  Alcotest.(check bool) "but attempts timed out first" true (Cluster.rpc_timeouts c >= 1);
  Alcotest.(check (list string)) "nothing stuck" [] (Proc.unfinished s)

let test_late_reply_counted_stale () =
  (* The reply outlives its attempt: a slow link delays the R_REPLY past the
     timeout, the retry's reply wins, and the late one is discarded as
     stale instead of crashing the handler. *)
  let e, s, c = setup_rpc ~timeout:5.0 ~retries:3 () in
  Network.set_link_latency (Cluster.net c) ~src:1 ~dst:0 (Latency.Constant 12.0);
  (* Heal the reply link after attempt 1 times out (t=5): attempt 2's reply
     comes back fast and wins, while attempt 1's crawls in at t=13. *)
  ignore
    (Proc.spawn s ~name:"healer" ~delay:5.5 (fun () ->
         Network.set_link_latency (Cluster.net c) ~src:1 ~dst:0 (Latency.Constant 1.0)));
  let got = ref None in
  ignore
    (Proc.spawn s ~name:"reader" (fun () ->
         got := Some (Cluster.read_result (Cluster.handle c 0) (v 1))));
  Engine.run e;
  (match !got with
  | Some (Ok _) -> ()
  | _ -> Alcotest.fail "read should eventually succeed");
  Alcotest.(check bool) "late replies discarded" true (Cluster.stale_replies c >= 1)

let test_duplicate_write_certification_is_idempotent () =
  (* A WRITE retry reaching the owner twice must not flip the decision:
     the second certification of the same wid reports accepted again. *)
  let e, s, c = setup_rpc ~timeout:4.0 ~retries:2 () in
  (* Request link is fine; reply link is slow, so the first attempt times
     out but its WRITE was already certified.  The retry re-certifies; once
     the link heals (t=4.5) the retry's reply beats attempt 1's late one. *)
  Network.set_link_latency (Cluster.net c) ~src:1 ~dst:0 (Latency.Constant 6.0);
  ignore
    (Proc.spawn s ~name:"healer" ~delay:4.5 (fun () ->
         Network.set_link_latency (Cluster.net c) ~src:1 ~dst:0 (Latency.Constant 1.0)));
  let got = ref None in
  ignore
    (Proc.spawn s ~name:"writer" (fun () ->
         got := Some (Cluster.write_resolved (Cluster.handle c 0) (v 1) (Value.Int 5))));
  Engine.run e;
  Alcotest.(check bool) "accepted despite duplicate certification" true (!got = Some `Accepted);
  let seen = ref Value.Free in
  ignore (Proc.spawn s (fun () -> seen := Cluster.read (Cluster.handle c 1) (v 1)));
  Engine.run e;
  Alcotest.(check bool) "owner stored it once" true (Value.equal !seen (Value.Int 5))

(* ------------------------------------------------------------------ *)
(* Crash-stop failures and restart                                     *)
(* ------------------------------------------------------------------ *)

(* A 3-node layout where node 2 owns nothing, so it may crash/restart. *)
let cacheonly_setup ?rpc () =
  let e = Engine.create () in
  let s = Proc.scheduler e in
  let inner = Owner.by_index ~nodes:2 in
  let owner = Owner.make ~nodes:3 (fun loc -> Owner.owner inner loc) in
  let c = Cluster.create ~sched:s ~owner ~latency:(Latency.Constant 1.0) ?rpc () in
  (e, s, c)

let test_crash_discards_cache_and_clock () =
  let e, s, c = cacheonly_setup () in
  ignore
    (Proc.spawn s ~name:"warm" (fun () ->
         Cluster.write (Cluster.handle c 2) (v 0) (Value.Int 1);
         ignore (Cluster.read (Cluster.handle c 2) (v 1))));
  Engine.run e;
  Proc.check s;
  Alcotest.(check bool) "cache warm" true (Dsm_causal.Node.cache_size (Cluster.node c 2) > 0);
  Alcotest.(check bool) "clock grew" true
    (not (Vclock.equal (Dsm_causal.Node.vt (Cluster.node c 2)) (Vclock.zero 3)));
  Cluster.crash c 2;
  Alcotest.(check bool) "marked crashed" true (Cluster.is_crashed c 2);
  Cluster.restart c 2;
  Alcotest.(check bool) "back up" false (Cluster.is_crashed c 2);
  Alcotest.(check int) "cache empty" 0 (Dsm_causal.Node.cache_size (Cluster.node c 2));
  Alcotest.(check bool) "clock zeroed" true
    (Vclock.equal (Dsm_causal.Node.vt (Cluster.node c 2)) (Vclock.zero 3))

let test_crashed_node_drops_messages_and_ops_fail () =
  let e, s, c = cacheonly_setup () in
  Cluster.crash c 2;
  ignore
    (Proc.spawn s ~name:"on-crashed" (fun () ->
         ignore (Cluster.read (Cluster.handle c 2) (v 0))));
  Engine.run e;
  Alcotest.(check int) "operation on crashed node failed" 1
    (List.length (Proc.failures s));
  (* Traffic addressed to the crashed node is dropped and counted. *)
  ignore
    (Proc.spawn s ~name:"other" (fun () ->
         Cluster.write (Cluster.handle c 0) (v 0) (Value.Int 3)));
  Engine.run e;
  Alcotest.(check int) "no deliveries at crashed node" 0 (Cluster.dropped_at_crashed c)

let test_crashed_node_stops_retrying () =
  (* Node 2 crashes while its WRITE waits for a reply that the down link
     from owner 0 will never carry.  A crash-stop node sends nothing more:
     at the first timeout the write ends in Timed_out instead of retrying
     from the dead node. *)
  let e, s, c = cacheonly_setup ~rpc:{ Cluster.timeout = 10.0; retries = 3 } () in
  Cluster.set_link_down c ~src:0 ~dst:2 true;
  let sent_after_crash = ref [] in
  Network.set_tracer (Cluster.net c)
    (Some
       (fun ~time ~src ~dst:_ ~kind _ ->
         if src = 2 && Cluster.is_crashed c 2 then
           sent_after_crash := (time, kind) :: !sent_after_crash));
  Engine.schedule_at e 3.0 (fun () -> Cluster.crash c 2);
  let result = ref None in
  ignore
    (Proc.spawn s ~name:"writer" (fun () ->
         let r = Cluster.write_result (Cluster.handle c 2) (v 0) (Value.Int 4) in
         result := Some (r, Engine.now e)));
  Engine.run e;
  Alcotest.(check (list (pair (float 0.0) string))) "no frame after the crash" [] !sent_after_crash;
  (match !result with
  | Some (Error info, at) ->
      Alcotest.(check int) "one attempt" 1 info.Cluster.attempts;
      Alcotest.(check (float 0.0)) "ended at the first timeout" 10.0 at
  | Some (Ok _, _) -> Alcotest.fail "the write cannot succeed"
  | None -> Alcotest.fail "writer never finished");
  Alcotest.(check int) "one timeout" 1 (Cluster.rpc_timeouts c)

let test_crashed_owner_writer_returns () =
  (* Failover on: node 0's write of its own v.0 waits for backup 1's
     SH_ACK, but the link 0->1 is down, so the writer is still parked when
     node 0 crashes at t=1.  The write is certified and in the log, so the
     crash wakes the writer: it returns at once instead of staying blocked
     (and keeping the heartbeats going) forever. *)
  let e = Engine.create () in
  let s = Proc.scheduler e in
  let c =
    Cluster.create ~sched:s ~owner:(Owner.by_index ~nodes:3) ~latency:(Latency.Constant 1.0)
      ~detector:{ Dsm_causal.Detector.period = 5.0; suspect_after = 3 }
      ()
  in
  Cluster.set_link_down c ~src:0 ~dst:1 true;
  Engine.schedule_at e 1.0 (fun () -> Cluster.crash c 0);
  let result = ref None in
  ignore
    (Proc.spawn s ~name:"writer" (fun () ->
         let r = Cluster.write_result (Cluster.handle c 0) (v 0) (Value.Int 1) in
         result := Some (r, Engine.now e)));
  Engine.run_until e 500.0;
  (match !result with
  | Some (Ok `Accepted, at) -> Alcotest.(check (float 0.0)) "returned at the crash" 1.0 at
  | Some _ -> Alcotest.fail "the certified write must be accepted"
  | None -> Alcotest.fail "the writer never returned");
  Alcotest.(check (list string)) "nobody stuck" [] (Proc.unfinished s);
  Alcotest.(check int) "the engine went quiet" 0 (Engine.pending e)

let test_restart_continues_causally_correct () =
  let e, s, c = cacheonly_setup () in
  ignore
    (Proc.spawn s ~name:"around-crash" (fun () ->
         let h = Cluster.handle c 2 in
         Cluster.write h (v 0) (Value.Int 10);
         ignore (Cluster.read h (v 1));
         Proc.sleep 10.0;
         (* restarted by then; resume with cold cache *)
         ignore (Cluster.read h (v 0));
         Cluster.write h (v 1) (Value.Int 20)));
  ignore
    (Proc.spawn s ~name:"peer" (fun () ->
         Cluster.write (Cluster.handle c 0) (v 0) (Value.Int 30);
         ignore (Cluster.read (Cluster.handle c 0) (v 1))));
  Engine.schedule_at e 6.0 (fun () -> Cluster.crash c 2);
  Engine.schedule_at e 8.0 (fun () -> Cluster.restart c 2);
  Engine.run e;
  Proc.check s;
  Alcotest.(check (list string)) "all finished" [] (Proc.unfinished s);
  Alcotest.(check bool) "history causal across the restart" true
    (Dsm_checker.Causal_check.is_correct (Cluster.history c))

let test_owner_restart_replays_wal () =
  (* PR 2: owners are no longer refused restart — the write-ahead log
     replays their certified writes back to the pre-crash frontier. *)
  let e, s, c = setup () in
  ignore
    (Proc.spawn s ~name:"owner-writes" (fun () ->
         Cluster.write (Cluster.handle c 0) (v 0) (Value.Int 1);
         Cluster.write (Cluster.handle c 1) (v 0) (Value.Int 2)));
  Engine.run e;
  Proc.check s;
  let vt_before = Dsm_causal.Node.vt (Cluster.node c 0) in
  Cluster.crash c 0;
  Cluster.restart c 0;
  Alcotest.(check bool) "clock restored from the log" true
    (Vclock.equal vt_before (Dsm_causal.Node.vt (Cluster.node c 0)));
  ignore
    (Proc.spawn s ~name:"reader" (fun () ->
         let got = Cluster.read (Cluster.handle c 2) (v 0) in
         Alcotest.(check bool) "certified write survived the crash" true
           (got = Value.Int 2)));
  Engine.run e;
  Proc.check s

let test_crash_validation () =
  let _, _, c = cacheonly_setup () in
  (* The raising wrappers carry the typed error, not a stringly one. *)
  Alcotest.check_raises "restart up node"
    (Cluster.Node_state (Cluster.Not_crashed 2)) (fun () -> Cluster.restart c 2);
  Cluster.crash c 2;
  Alcotest.check_raises "double crash"
    (Cluster.Node_state (Cluster.Already_crashed 2)) (fun () -> Cluster.crash c 2)

let test_crash_validation_result () =
  let _, _, c = cacheonly_setup () in
  (* The [result] API reports the same states without raising. *)
  (match Cluster.restart_result c 2 with
  | Error (Cluster.Not_crashed 2) -> ()
  | _ -> Alcotest.fail "restart of an up node must report Not_crashed");
  (match Cluster.crash_result c 2 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "first crash must succeed");
  (match Cluster.crash_result c 2 with
  | Error (Cluster.Already_crashed 2) -> ()
  | _ -> Alcotest.fail "double crash must report Already_crashed");
  (match Cluster.restart_result c 2 with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "restart of a crashed node must succeed");
  Alcotest.(check string) "errors render for operators" "node 2 is not crashed"
    (Format.asprintf "%a" Cluster.pp_node_state_error (Cluster.Not_crashed 2))

let suite =
  [
    Alcotest.test_case "down link drops" `Quick test_down_link_drops;
    Alcotest.test_case "heal restores" `Quick test_heal_restores;
    Alcotest.test_case "partition bidirectional" `Quick test_partition_is_bidirectional;
    Alcotest.test_case "blocked reader detected" `Quick test_blocked_reader_is_detected;
    Alcotest.test_case "lost reply blocks" `Quick test_lost_reply_also_blocks;
    Alcotest.test_case "bystanders progress" `Quick test_unaffected_nodes_progress;
    Alcotest.test_case "clean run: none stuck" `Quick test_unfinished_empty_on_clean_run;
    Alcotest.test_case "safety under partition" `Quick test_history_remains_causal_under_partition;
    Alcotest.test_case "typed Timed_out on read" `Quick test_timed_out_read_on_dead_link;
    Alcotest.test_case "typed Timed_out on write" `Quick test_timed_out_write_raises_typed;
    Alcotest.test_case "bounded under reliable transport" `Quick
      test_timeout_with_reliable_transport_still_bounded;
    Alcotest.test_case "retry succeeds after heal" `Quick test_retry_succeeds_after_heal;
    Alcotest.test_case "late reply counted stale" `Quick test_late_reply_counted_stale;
    Alcotest.test_case "duplicate certification idempotent" `Quick
      test_duplicate_write_certification_is_idempotent;
    Alcotest.test_case "crash discards cache+clock" `Quick test_crash_discards_cache_and_clock;
    Alcotest.test_case "crashed node unavailable" `Quick
      test_crashed_node_drops_messages_and_ops_fail;
    Alcotest.test_case "crashed node stops retrying" `Quick test_crashed_node_stops_retrying;
    Alcotest.test_case "crashed owner's writer returns" `Quick test_crashed_owner_writer_returns;
    Alcotest.test_case "causal across restart" `Quick test_restart_continues_causally_correct;
    Alcotest.test_case "owner restart replays wal" `Quick test_owner_restart_replays_wal;
    Alcotest.test_case "crash validation" `Quick test_crash_validation;
    Alcotest.test_case "crash validation (result)" `Quick test_crash_validation_result;
  ]
