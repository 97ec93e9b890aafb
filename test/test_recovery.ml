(* Whole-cluster checkpointing and power-failure recovery: uncoordinated
   snapshots with compaction, the coordinated marker round, torn-snapshot
   fallback at the cluster level, and the power-failure chaos scenario. *)

module Engine = Dsm_sim.Engine
module Proc = Dsm_runtime.Proc
module Cluster = Dsm_causal.Cluster
module Wal = Dsm_causal.Wal
module Node_stats = Dsm_causal.Node_stats
module Owner = Dsm_memory.Owner
module Loc = Dsm_memory.Loc
module Value = Dsm_memory.Value
module Chaos = Dsm_apps.Chaos
module Bench = Dsm_apps.Bench
module Report = Dsm_apps.Report

let v i = Loc.indexed "v" i

let setup ?checkpoint_every ?disk ~nodes () =
  let engine = Engine.create () in
  let sched = Proc.scheduler engine in
  let c =
    Cluster.create ~sched ~owner:(Owner.by_index ~nodes) ?checkpoint_every ?disk ()
  in
  (engine, sched, c)

let power_cycle c ~nodes =
  for pid = 0 to nodes - 1 do
    Cluster.crash c pid
  done;
  for pid = 0 to nodes - 1 do
    Cluster.restart c pid
  done

(* Every certified write is logged before its reply leaves, so a restart of
   the whole cluster — nobody left to refetch from — must restore the exact
   durable frontier. *)
let test_whole_cluster_restart_restores_frontier () =
  let nodes = 3 in
  let engine, sched, c = setup ~nodes () in
  ignore
    (Proc.spawn sched ~name:"writers" (fun () ->
         for pid = 0 to nodes - 1 do
           Cluster.write (Cluster.handle c pid) (v pid) (Value.Int (100 + pid))
         done));
  Engine.run engine;
  Proc.check sched;
  power_cycle c ~nodes;
  Alcotest.(check int) "every node recovered" nodes (Cluster.recoveries c);
  Alcotest.(check bool) "something was replayed" true (Cluster.replayed_records c > 0);
  ignore
    (Proc.spawn sched ~name:"readers" (fun () ->
         for pid = 0 to nodes - 1 do
           let got = Cluster.read (Cluster.handle c ((pid + 1) mod nodes)) (v pid) in
           Alcotest.(check bool)
             (Printf.sprintf "write at node %d survived the outage" pid)
             true
             (got = Value.Int (100 + pid))
         done));
  Engine.run engine;
  Proc.check sched

(* One coordinated round: the initiator floods markers, every node
   snapshots and compacts, the acks close the round into a recovery line,
   and the whole-cluster replay afterwards is just the snapshots. *)
let test_coordinated_round_completes () =
  let nodes = 3 in
  let engine, sched, c = setup ~nodes () in
  ignore
    (Proc.spawn sched ~name:"writers" (fun () ->
         for pid = 0 to nodes - 1 do
           Cluster.write (Cluster.handle c pid) (v pid) (Value.Int (200 + pid))
         done;
         Cluster.begin_checkpoint c 0));
  Engine.run engine;
  Proc.check sched;
  Alcotest.(check int) "one recovery line" 1 (Cluster.recovery_lines c);
  for pid = 0 to nodes - 1 do
    Alcotest.(check int)
      (Printf.sprintf "node %d joined round 1" pid)
      1 (Cluster.checkpoint_round c pid)
  done;
  let stats = Cluster.cluster_stats c in
  Alcotest.(check int) "every node snapshotted" nodes
    stats.Node_stats.wal_checkpoints;
  Alcotest.(check bool) "compaction truncated the logs" true
    (stats.Node_stats.wal_truncated > 0);
  power_cycle c ~nodes;
  (* Each log was compacted to its snapshot: replay is one record per node. *)
  Alcotest.(check int) "replay is just the snapshots" nodes
    (Cluster.replayed_records c);
  ignore
    (Proc.spawn sched ~name:"reader" (fun () ->
         let got = Cluster.read (Cluster.handle c 1) (v 0) in
         Alcotest.(check bool) "snapshotted write survived" true
           (got = Value.Int 200)));
  Engine.run engine;
  Proc.check sched

(* A snapshot that tears mid-write is detected at recovery: replay falls
   back to the last complete checkpoint and loses nothing, because
   compaction never cuts behind it. *)
let test_torn_snapshot_cluster_fallback () =
  let nodes = 2 in
  let disk = Wal.Disk.create () in
  let engine, sched, c = setup ~disk ~nodes () in
  let write k value =
    ignore
      (Proc.spawn sched ~name:(Printf.sprintf "w%d" k) (fun () ->
           Cluster.write (Cluster.handle c 0) (v (2 * k)) (Value.Int value)));
    Engine.run engine;
    Proc.check sched
  in
  write 0 1;
  Cluster.checkpoint_now c 0;
  write 1 2;
  (* The next snapshot tears; the writer does not notice. *)
  Wal.Disk.tear_next_checkpoints disk 1;
  Cluster.checkpoint_now c 0;
  write 2 3;
  let stats = Cluster.cluster_stats c in
  Alcotest.(check int) "the tear was counted" 1 stats.Node_stats.wal_torn_checkpoints;
  power_cycle c ~nodes;
  ignore
    (Proc.spawn sched ~name:"reader" (fun () ->
         List.iter
           (fun (k, value) ->
             let got = Cluster.read (Cluster.handle c 1) (v (2 * k)) in
             Alcotest.(check bool)
               (Printf.sprintf "write %d survived the torn snapshot" k)
               true
               (got = Value.Int value))
           [ (0, 1); (1, 2); (2, 3) ]));
  Engine.run engine;
  Proc.check sched

(* The satellite regression at the cluster level: with periodic
   checkpoints compacting the log, whole-cluster recovery replays far less
   than the full history. *)
let replayed_after_cycle ~checkpoint_every =
  let nodes = 2 in
  let ops = 30 in
  let engine, sched, c = setup ?checkpoint_every ~nodes () in
  for pid = 0 to nodes - 1 do
    ignore
      (Proc.spawn sched
         ~name:(Printf.sprintf "writer%d" pid)
         (fun () ->
           for k = 1 to ops do
             Cluster.write (Cluster.handle c pid) (v pid) (Value.Int k);
             Proc.sleep 1.0
           done))
  done;
  Engine.run engine;
  Proc.check sched;
  power_cycle c ~nodes;
  Cluster.replayed_records c

let test_checkpoints_bound_replay () =
  let with_cp = replayed_after_cycle ~checkpoint_every:(Some 5.0) in
  let without = replayed_after_cycle ~checkpoint_every:None in
  Alcotest.(check bool)
    (Printf.sprintf "replay bounded: %d (checkpointed) < %d (full log)" with_cp without)
    true (with_cp < without)

(* Typed node-state errors end-to-end on the cycle helper's raising path. *)
let test_power_cycle_error_paths () =
  let _, _, c = setup ~nodes:2 () in
  Alcotest.check_raises "restart before any crash"
    (Cluster.Node_state (Cluster.Not_crashed 0)) (fun () -> Cluster.restart c 0);
  Cluster.crash c 0;
  Alcotest.check_raises "crash twice" (Cluster.Node_state (Cluster.Already_crashed 0))
    (fun () -> Cluster.crash c 0);
  Cluster.restart c 0

(* The chaos scenario under the online checker, across seeds: phase-2
   operations after the blackout must stay causally consistent with
   phase 1, and the report must account for the recovery work.  The
   outage fires once the last client has finished phase 1, so every
   client records both phases (2 x 4 clients x 8 ops) and none dies
   issuing at a powered-off node. *)
let test_power_failure_chaos_healthy () =
  for seed = 1 to 20 do
    let knobs = { Chaos.default_knobs with Chaos.online_check = true } in
    let r = Chaos.run ~knobs ~seed:(Int64.of_int seed) "power-failure" in
    let at what = Printf.sprintf "%s at seed %d" what seed in
    Alcotest.(check bool) (at "healthy") true (Chaos.healthy r);
    Alcotest.(check int) (at "every op of both phases recorded") (2 * 4 * 8) r.Chaos.ops;
    Alcotest.(check (list string))
      (at "no client failed") []
      (List.filter_map
         (fun (k, v) -> if String.starts_with ~prefix:"failed:" k then Some (k ^ " " ^ v) else None)
         r.Chaos.notes);
    Alcotest.(check int) (at "all nodes crashed") 4 r.Chaos.crashes;
    Alcotest.(check int) (at "all nodes recovered") 4 (Chaos.note_int r "recoveries");
    Alcotest.(check bool) (at "coordinated line reported") true
      (Chaos.note_int r "recovery_lines" >= 1)
  done

(* The recovery bench's machine-readable claim, at the quick grid. *)
let test_recovery_bench_quick () =
  let w = List.find (fun (w : Bench.workload) -> w.name = "recovery") Bench.table in
  let r = Bench.run ~quick:true w in
  Alcotest.(check bool) "bench healthy" true (Report.healthy r);
  List.iter
    (fun (row : Report.row) ->
      if String.starts_with ~prefix:"uncheckpointed" row.name then
        match
          (List.assoc "cluster.replayed_per_recovery" row.layers, List.assoc "ops_per_node" row.config)
        with
        | Report.Float replayed, Report.Int ops ->
            Alcotest.(check bool) "uncheckpointed replays the full log" true
              (replayed >= float_of_int ops)
        | _ -> Alcotest.fail "replay figures missing")
    r.rows;
  (* The artifact names its benchmark. *)
  Alcotest.(check bool) "json names the benchmark" true
    (Str_contains.contains (Report.to_json r) "\"benchmark\": \"recovery\"")

let suite =
  [
    Alcotest.test_case "whole-cluster restart restores frontier" `Quick
      test_whole_cluster_restart_restores_frontier;
    Alcotest.test_case "coordinated round completes" `Quick test_coordinated_round_completes;
    Alcotest.test_case "torn snapshot cluster fallback" `Quick
      test_torn_snapshot_cluster_fallback;
    Alcotest.test_case "checkpoints bound replay" `Quick test_checkpoints_bound_replay;
    Alcotest.test_case "power-cycle error paths" `Quick test_power_cycle_error_paths;
    Alcotest.test_case "power-failure chaos healthy" `Quick test_power_failure_chaos_healthy;
    Alcotest.test_case "recovery bench quick" `Slow test_recovery_bench_quick;
  ]
