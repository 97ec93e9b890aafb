module Engine = Dsm_sim.Engine
module Proc = Dsm_runtime.Proc
module Latency = Dsm_net.Latency
module Causal = Dsm_causal.Cluster
module Owner = Dsm_memory.Owner
module Value = Dsm_memory.Value

(* One cell of the grid: run a pure owner-write workload (each node writes
   its own locations, one write per unit of sim time, so a fixed
   [checkpoint_every] period snapshots a fixed-size window), then measure
   whole-cluster recovery by power-cycling the quiesced cluster [cycles]
   times.  Replay counts are seed-deterministic; the host seconds are the
   one measured quantity. *)
let run_case ~interval ~nodes ~ops ~cycles ~seed =
  let engine = Engine.create () in
  let sched = Proc.scheduler engine in
  let owner = Owner.by_index ~nodes in
  let c =
    Causal.create ~sched ~owner ~latency:Latency.lan ?checkpoint_every:interval ~seed ()
  in
  for pid = 0 to nodes - 1 do
    let h = Causal.handle c pid in
    ignore
      (Proc.spawn sched
         ~name:(Printf.sprintf "writer%d" pid)
         (fun () ->
           for k = 1 to ops do
             Causal.write h (Workload.loc (pid + (nodes * (k mod 3)))) (Value.Int k);
             Proc.sleep 1.0
           done))
  done;
  Engine.run engine;
  for _ = 1 to cycles do
    for pid = 0 to nodes - 1 do
      ignore (Causal.crash_result c pid)
    done;
    for pid = 0 to nodes - 1 do
      ignore (Causal.restart_result c pid)
    done
  done;
  Causal.shutdown c;
  let stats = Causal.cluster_stats c in
  let recoveries = Causal.recoveries c in
  let per r = if recoveries = 0 then 0.0 else r /. float_of_int recoveries in
  let replayed = per (float_of_int (Causal.replayed_records c)) in
  let unfinished = List.length (Proc.unfinished_since sched) in
  let mode = match interval with Some _ -> "checkpointed" | None -> "uncheckpointed" in
  ( {
      Report.name = Printf.sprintf "%s.%d" mode ops;
      config =
        [
          ("nodes", Int nodes);
          ("cycles", Int cycles);
          ("ops_per_node", Int ops);
          ("checkpoint_every", Float (Option.value interval ~default:Float.nan));
        ];
      e2e = Report.e2e ~ops:(nodes * ops) ();
      layers =
        [
          ("wal.records", Int stats.Dsm_causal.Node_stats.wal_records);
          ("wal.checkpoints", Int stats.Dsm_causal.Node_stats.wal_checkpoints);
          ("wal.truncated", Int stats.Dsm_causal.Node_stats.wal_truncated);
          ("cluster.recoveries", Int recoveries);
          ("cluster.replayed_per_recovery", Float replayed);
          ("cluster.seconds_per_recovery", Float (per (Causal.recovery_seconds c)));
          ("proc.unfinished", Int unfinished);
        ];
    },
    (mode, replayed, unfinished) )

let run ~quick ~seed =
  let nodes = 4 in
  let cycles = if quick then 10 else 25 in
  let sizes = if quick then [ 50; 100 ] else [ 50; 100; 200; 400 ] in
  let cases =
    List.concat_map
      (fun ops ->
        [
          run_case ~interval:(Some 5.0) ~nodes ~ops ~cycles ~seed;
          run_case ~interval:None ~nodes ~ops ~cycles ~seed;
        ])
      sizes
  in
  (* The claim in one check: at the largest log, recovery work with
     checkpointing is bounded by records-since-checkpoint and therefore
     strictly smaller than the full-log replay without it. *)
  let worst mode =
    List.fold_left (fun acc (_, (m, r, _)) -> if m = mode then max acc r else acc) 0.0 cases
  in
  ( List.map fst cases,
    [
      Report.check "checkpointed_replay" (Float (worst "checkpointed")) `Lt
        (Float (worst "uncheckpointed"));
      Report.check "unfinished"
        (Int (List.fold_left (fun acc (_, (_, _, u)) -> acc + u) 0 cases))
        `Eq (Int 0);
    ] )
