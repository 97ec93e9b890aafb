(* The workloads that run rows of the chaos table over seeds: each report
   row sums its runs, so every one carries the same end-to-end figures and
   chaos counters, and adds the figures its own claim is about. *)

module Reliable = Dsm_net.Reliable
module Stats = Dsm_util.Stats

let sum f runs = List.fold_left (fun acc r -> acc + f r) 0 runs

let frames = sum (fun r -> r.Chaos.messages)

let unfinished = sum (fun r -> List.length r.Chaos.unfinished)

let row ~name ~config ?(layers = []) runs : Report.row =
  let ops = sum (fun r -> r.Chaos.ops) runs in
  let logical = sum (fun r -> r.Chaos.logical_messages) runs in
  let sim_time = List.fold_left (fun acc r -> acc +. r.Chaos.sim_time) 0.0 runs in
  let latencies = Array.of_list (List.concat_map (fun r -> r.Chaos.latencies) runs) in
  let transport f = sum (fun r -> f r.Chaos.transport) runs in
  {
    name;
    config;
    e2e =
      Report.e2e ~ops
        ~ops_per_sim_time:(float_of_int ops /. sim_time)
        ~latencies
        ~msgs_per_op:(float_of_int logical /. float_of_int ops)
        ();
    layers =
      [
        ("engine.sim_time", Report.Float sim_time);
        ("cluster.latency_mean", Float (Stats.mean_of latencies));
        ("cluster.latency_max", Float (Stats.percentile latencies 100.0));
        ("cluster.logical_messages", Int logical);
        ("network.frames", Int (frames runs));
        ("reliable.retransmissions", Int (transport (fun t -> t.Reliable.retransmissions)));
        ("reliable.acks", Int (transport (fun t -> t.Reliable.acks)));
        ("cluster.rpc_timeouts", Int (sum (fun r -> r.Chaos.rpc_timeouts) runs));
        ("proc.unfinished", Int (unfinished runs));
      ]
      @ layers;
  }

(* The same logical work with the default transport and with frame
   batching and ack coalescing, so the frame counts compare directly. *)
let transport ~quick:_ ~seeds =
  let mode name (config : Reliable.config) =
    let knobs = { Chaos.default_knobs with Chaos.reliability = config } in
    let runs = List.map (fun seed -> Chaos.run ~knobs ~seed "mix") seeds in
    let config =
      [
        ("drop", Report.Float knobs.Chaos.drop);
        ("duplicate", Float knobs.Chaos.duplicate);
        ("window", Int config.window);
        ("max_batch", Int config.max_batch);
        ("ack_every", Int config.ack_every);
        ("ack_delay", Float config.ack_delay);
      ]
    in
    (row ~name ~config runs, runs)
  in
  let off, off_runs = mode "batching_off" Reliable.default_config in
  let on_, on_runs = mode "batching_on" Reliable.batching_config in
  let reduction =
    if frames off_runs = 0 then 0.0
    else 1.0 -. (float_of_int (frames on_runs) /. float_of_int (frames off_runs))
  in
  ( [ off; on_ ],
    [
      Report.check "unfinished" (Int (unfinished off_runs + unfinished on_runs)) `Eq (Int 0);
      Report.check "frame_reduction" (Float reduction) `Ge (Float 0.0);
    ] )

(* The majority side must keep serving inside the partition window. *)
let partition ~quick:_ ~seeds =
  let scenario name =
    let runs = List.map (fun seed -> Chaos.run ~seed name) seeds in
    let note key = sum (fun r -> Chaos.note_int r key) runs in
    let side key =
      let ok = note ("window_" ^ key ^ "_ok") and attempts = note ("window_" ^ key ^ "_attempts") in
      let availability =
        if attempts = 0 then Float.nan else float_of_int ok /. float_of_int attempts
      in
      ( availability,
        [
          ("window." ^ key ^ "_ok", Report.Int ok);
          ("window." ^ key ^ "_attempts", Int attempts);
          ("window." ^ key ^ "_availability", Float availability);
        ] )
    in
    let majority, majority_layers = side "majority" and _, minority_layers = side "minority" in
    let layers =
      [
        ("failover.takeovers", Report.Int (sum (fun r -> r.Chaos.takeovers) runs));
        ("partition.heals", Int (note "partition_heals"));
        ("partition.refused_writes", Int (note "refused_writes"));
        ("partition.resyncs", Int (note "resyncs"));
      ]
      @ majority_layers @ minority_layers
    in
    ( row ~name ~config:[] ~layers runs,
      [
        Report.check (name ^ ".healthy_runs")
          (Int (List.length (List.filter Chaos.healthy runs)))
          `Eq
          (Int (List.length seeds));
        Report.check (name ^ ".majority_availability") (Float majority) `Ge (Float 0.9);
      ] )
  in
  let rows, checks = List.split (List.map scenario [ "partition"; "split-brain" ]) in
  (rows, List.concat checks)

(* Every causal-object family on loss-free links, so a seed reproduces
   bit-identically and a regression in the probe/merge path shows up as a
   jump in messages per update. *)
let objects ~quick ~seed =
  let processes = if quick then 3 else 4 and rounds = if quick then 3 else 6 in
  let knobs = { Chaos.default_knobs with Chaos.drop = 0.0; duplicate = 0.0 } in
  let cell scenario =
    let r = Chaos.run ~knobs ~seed ~clients:processes ~ops:rounds scenario in
    let updates = processes * rounds in
    let verdict key = Report.Bool (List.assoc_opt key r.Chaos.notes = Some "true") in
    let layers =
      [
        ("objects.updates", Report.Int updates);
        ("objects.queries", Int (Chaos.note_int r "object_queries"));
        ( "objects.messages_per_update",
          Float (float_of_int r.Chaos.logical_messages /. float_of_int updates) );
      ]
    in
    let check key value = Report.check (scenario ^ "." ^ key) value `Eq (Bool true) in
    ( row ~name:scenario ~config:[ ("processes", Int processes); ("rounds", Int rounds) ] ~layers
        [ r ],
      [
        check "object_ok" (verdict "object_ok");
        check "converged" (verdict "views_converged");
        check "healthy" (Bool (Chaos.healthy r));
        Report.check (scenario ^ ".unfinished") (Int (unfinished [ r ])) `Eq (Int 0);
      ] )
  in
  let rows, checks =
    List.split (List.map cell (List.filter (String.starts_with ~prefix:"obj-") Chaos.scenarios))
  in
  (rows, Report.check "objects" (Int (List.length rows)) `Ge (Int 1) :: List.concat checks)
