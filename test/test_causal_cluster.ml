(* End-to-end tests of the causal DSM cluster (Figure 4 over the network). *)

module Engine = Dsm_sim.Engine
module Proc = Dsm_runtime.Proc
module Network = Dsm_net.Network
module Latency = Dsm_net.Latency
module Cluster = Dsm_causal.Cluster
module Config = Dsm_causal.Config
module Policy = Dsm_causal.Policy
module Node = Dsm_causal.Node
module Node_stats = Dsm_causal.Node_stats
module Loc = Dsm_memory.Loc
module Value = Dsm_memory.Value
module Owner = Dsm_memory.Owner

let v i = Loc.indexed "v" i

let setup ?(nodes = 3) ?config () =
  let e = Engine.create () in
  let s = Proc.scheduler e in
  let c =
    Cluster.create ~sched:s ~owner:(Owner.by_index ~nodes) ?config
      ~latency:(Latency.Constant 1.0) ()
  in
  (e, s, c)

let run_proc e s body =
  ignore (Proc.spawn s body);
  Engine.run e;
  Proc.check s

(* The stale-install race on the cluster (the schedule the model checker's
   [race] scope finds): the guard keeps the history causal by refusing to
   cache the late reply; the [Figure4_literal] switch, the same one the
   model checker flips, caches it and records a non-causal history. *)
let test_figure4_literal_flips_cluster () =
  let guarded = Dsm_apps.Scenarios.stale_install_race () in
  Alcotest.(check (pair bool int)) "guarded: causal, one stale drop" (true, 1)
    (guarded.si_causal_ok, guarded.si_stale_drops);
  let literal =
    Dsm_apps.Scenarios.stale_install_race
      ~config:(Config.with_mutation Config.Figure4_literal Config.default)
      ()
  in
  Alcotest.(check (pair bool int)) "figure4-literal: non-causal, nothing dropped" (false, 0)
    (literal.si_causal_ok, literal.si_stale_drops)

let test_local_read_initial () =
  let e, s, c = setup () in
  let got = ref Value.Free in
  run_proc e s (fun () -> got := Cluster.read (Cluster.handle c 0) (v 0));
  Alcotest.(check bool) "initial" true (Value.equal !got Value.initial);
  Alcotest.(check int) "no messages" 0 (Network.lifetime_total (Cluster.net c))

let test_remote_read_fetches () =
  let e, s, c = setup () in
  let got = ref Value.Free in
  run_proc e s (fun () -> got := Cluster.read (Cluster.handle c 0) (v 1));
  Alcotest.(check bool) "initial over the wire" true (Value.equal !got Value.initial);
  Alcotest.(check int) "READ + R_REPLY" 2 (Network.lifetime_total (Cluster.net c));
  let stats = Node.stats (Cluster.node c 0) in
  Alcotest.(check int) "miss counted" 1 stats.Node_stats.read_misses

let test_cached_read_free () =
  let e, s, c = setup () in
  run_proc e s (fun () ->
      let h = Cluster.handle c 0 in
      ignore (Cluster.read h (v 1));
      ignore (Cluster.read h (v 1)));
  Alcotest.(check int) "second read free" 2 (Network.lifetime_total (Cluster.net c));
  let stats = Node.stats (Cluster.node c 0) in
  Alcotest.(check int) "one hit" 1 stats.Node_stats.read_hits

let test_write_read_roundtrip_local () =
  let e, s, c = setup () in
  let got = ref Value.Free in
  run_proc e s (fun () ->
      let h = Cluster.handle c 0 in
      Cluster.write h (v 0) (Value.Int 42);
      got := Cluster.read h (v 0));
  Alcotest.(check bool) "read own write" true (Value.equal !got (Value.Int 42));
  Alcotest.(check int) "all local" 0 (Network.lifetime_total (Cluster.net c))

let test_remote_write_certified () =
  let e, s, c = setup () in
  let got = ref Value.Free in
  run_proc e s (fun () ->
      let h0 = Cluster.handle c 0 in
      Cluster.write h0 (v 1) (Value.Int 7);
      (* The writer caches the certified entry: reading it back is free. *)
      got := Cluster.read h0 (v 1));
  Alcotest.(check bool) "writer sees own write" true (Value.equal !got (Value.Int 7));
  Alcotest.(check int) "WRITE + W_REPLY only" 2 (Network.lifetime_total (Cluster.net c));
  (* The owner's copy is current. *)
  let got_owner = ref Value.Free in
  run_proc e s (fun () -> got_owner := Cluster.read (Cluster.handle c 1) (v 1));
  Alcotest.(check bool) "owner sees it" true (Value.equal !got_owner (Value.Int 7))

let test_propagation_via_owner () =
  let e, s, c = setup () in
  let got = ref Value.Free in
  run_proc e s (fun () ->
      Cluster.write (Cluster.handle c 0) (v 1) (Value.Int 1);
      got := Cluster.read (Cluster.handle c 2) (v 1));
  Alcotest.(check bool) "third party reads through owner" true
    (Value.equal !got (Value.Int 1))

let test_causal_invalidation_on_fetch () =
  (* Node 2 caches v.0; node 0 then writes v.0 and v.2 in order; when node 2
     fetches v.2 (whose stamp dominates the old v.0), its stale v.0 copy must
     be invalidated, so re-reading v.0 refetches the new value. *)
  let e, s, c = setup () in
  let final = ref Value.Free in
  run_proc e s (fun () ->
      let h2 = Cluster.handle c 2 in
      ignore (Cluster.read h2 (v 0)));
  run_proc e s (fun () ->
      let h0 = Cluster.handle c 0 in
      Cluster.write h0 (v 0) (Value.Int 10);
      Cluster.write h0 (v 2) (Value.Int 20));
  run_proc e s (fun () ->
      let h2 = Cluster.handle c 2 in
      let fetched = Cluster.read h2 (v 2) in
      assert (Value.equal fetched (Value.Int 20));
      final := Cluster.read h2 (v 0));
  Alcotest.(check bool) "stale copy invalidated, fresh value read" true
    (Value.equal !final (Value.Int 10));
  let stats = Node.stats (Cluster.node c 2) in
  Alcotest.(check bool) "invalidation recorded" true (stats.Node_stats.invalidations >= 1)

let test_history_recorded () =
  let e, s, c = setup () in
  run_proc e s (fun () ->
      let h0 = Cluster.handle c 0 in
      Cluster.write h0 (v 0) (Value.Int 1);
      ignore (Cluster.read h0 (v 0)));
  let h = Cluster.history c in
  Alcotest.(check int) "two ops" 2 (Dsm_memory.History.op_count h);
  Alcotest.(check bool) "correct" true (Dsm_checker.Causal_check.is_correct h)

let test_write_resolved_reject () =
  let config = Config.with_policy Policy.Owner_favored Config.default in
  let e, s, c = setup ~config () in
  let outcome = ref `Accepted in
  run_proc e s (fun () ->
      (* Owner writes its own location... *)
      Cluster.write (Cluster.handle c 0) (v 0) (Value.Int 5));
  run_proc e s (fun () ->
      (* ...then a concurrent remote write arrives and must be rejected. *)
      outcome := Cluster.write_resolved (Cluster.handle c 1) (v 0) (Value.Int 9));
  Alcotest.(check bool) "rejected" true (!outcome = `Rejected);
  let stats = Node.stats (Cluster.node c 1) in
  Alcotest.(check int) "stat" 1 stats.Node_stats.writes_rejected;
  (* The rejected writer adopted the owner's value. *)
  let seen = ref Value.Free in
  run_proc e s (fun () -> seen := Cluster.read (Cluster.handle c 1) (v 0));
  Alcotest.(check bool) "adopted owner value" true (Value.equal !seen (Value.Int 5))

let test_read_stamped () =
  let e, s, c = setup () in
  let stamp_sum = ref (-1) in
  run_proc e s (fun () ->
      let h = Cluster.handle c 0 in
      Cluster.write h (v 0) (Value.Int 1);
      stamp_sum := Vclock.sum (Cluster.read_stamped h (v 0)).Dsm_causal.Stamped.stamp);
  Alcotest.(check int) "stamp visible" 1 !stamp_sum

let test_page_granularity_fetch () =
  let config = Config.with_granularity (Config.Page 4) Config.default in
  (* Two nodes; node 1 owns odd indices.  With by_index the page {v.0..v.3}
     spans owners, so use a block layout where node 1 owns everything. *)
  let e = Engine.create () in
  let s = Proc.scheduler e in
  let c =
    Cluster.create ~sched:s ~owner:(Owner.all_to ~nodes:2 1) ~config
      ~latency:(Latency.Constant 1.0) ()
  in
  run_proc e s (fun () ->
      let h1 = Cluster.handle c 1 in
      Cluster.write h1 (v 0) (Value.Int 10);
      Cluster.write h1 (v 1) (Value.Int 11);
      Cluster.write h1 (v 2) (Value.Int 12));
  let before = Network.lifetime_total (Cluster.net c) in
  Alcotest.(check int) "owner writes are local" 0 before;
  let got = ref Value.Free in
  run_proc e s (fun () ->
      let h0 = Cluster.handle c 0 in
      (* One miss on v.0 should piggyback v.1 and v.2 (same page). *)
      ignore (Cluster.read h0 (v 0));
      got := Cluster.read h0 (v 2));
  Alcotest.(check bool) "co-paged value present" true (Value.equal !got (Value.Int 12));
  Alcotest.(check int) "single round trip" 2 (Network.lifetime_total (Cluster.net c))

let test_periodic_discard_and_shutdown () =
  let config = Config.with_discard (Config.Periodic 5.0) Config.default in
  let e, s, c = setup ~config () in
  (* With a periodic timer the engine never quiesces on its own, so drive it
     with run_until. *)
  ignore (Proc.spawn s (fun () -> ignore (Cluster.read (Cluster.handle c 0) (v 1))));
  Engine.run_until e 3.0;
  Proc.check s;
  Alcotest.(check int) "cached" 1 (Node.cache_size (Cluster.node c 0));
  (* Let the discard timer fire. *)
  Engine.run_until e 11.0;
  Alcotest.(check int) "discarded" 0 (Node.cache_size (Cluster.node c 0));
  Cluster.shutdown c;
  (* After shutdown the timers stop rescheduling and the engine drains. *)
  Engine.run e;
  Alcotest.(check int) "quiescent" 0 (Engine.pending e)

let test_discard_handle () =
  let e, s, c = setup () in
  run_proc e s (fun () ->
      let h = Cluster.handle c 0 in
      ignore (Cluster.read h (v 1));
      Cluster.discard h);
  Alcotest.(check int) "cache empty" 0 (Node.cache_size (Cluster.node c 0))

let test_concurrent_writers_converge_at_owner () =
  let e, s, c = setup () in
  (* Nodes 0 and 2 write v.1 concurrently; owner (node 1) serialises them;
     last certified wins under LWW.  Whichever wins, all later readers that
     refetch agree with the owner. *)
  run_proc e s (fun () -> Cluster.write (Cluster.handle c 0) (v 1) (Value.Int 100));
  run_proc e s (fun () -> Cluster.write (Cluster.handle c 2) (v 1) (Value.Int 200));
  let at_owner = ref Value.Free in
  run_proc e s (fun () -> at_owner := Cluster.read (Cluster.handle c 1) (v 1));
  Alcotest.(check bool) "owner has the last certified write" true
    (Value.equal !at_owner (Value.Int 200));
  Alcotest.(check bool) "history causal" true
    (Dsm_checker.Causal_check.is_correct (Cluster.history c))

let test_custom_init () =
  let config = Config.with_init (fun _ -> Value.Int 99) Config.default in
  let e, s, c = setup ~config () in
  let got = ref Value.Free in
  run_proc e s (fun () -> got := Cluster.read (Cluster.handle c 0) (v 0));
  Alcotest.(check bool) "custom initial" true (Value.equal !got (Value.Int 99))

let suite =
  [
    Alcotest.test_case "local read initial" `Quick test_local_read_initial;
    Alcotest.test_case "remote read fetches" `Quick test_remote_read_fetches;
    Alcotest.test_case "cached read free" `Quick test_cached_read_free;
    Alcotest.test_case "local write/read" `Quick test_write_read_roundtrip_local;
    Alcotest.test_case "remote write certified" `Quick test_remote_write_certified;
    Alcotest.test_case "propagation via owner" `Quick test_propagation_via_owner;
    Alcotest.test_case "causal invalidation" `Quick test_causal_invalidation_on_fetch;
    Alcotest.test_case "history recorded" `Quick test_history_recorded;
    Alcotest.test_case "write_resolved reject" `Quick test_write_resolved_reject;
    Alcotest.test_case "read_stamped" `Quick test_read_stamped;
    Alcotest.test_case "page granularity" `Quick test_page_granularity_fetch;
    Alcotest.test_case "periodic discard + shutdown" `Quick test_periodic_discard_and_shutdown;
    Alcotest.test_case "discard handle" `Quick test_discard_handle;
    Alcotest.test_case "concurrent writers" `Quick test_concurrent_writers_converge_at_owner;
    Alcotest.test_case "custom init" `Quick test_custom_init;
    Alcotest.test_case "figure4-literal flips the cluster" `Quick test_figure4_literal_flips_cluster;
  ]
