module Reliable = Dsm_net.Reliable
module Stats = Dsm_util.Stats

type mode_result = {
  name : string;
  config : Reliable.config;
  seeds : int;
  ops : int;
  sim_time : float;
  throughput : float;
  lat_p50 : float;
  lat_p95 : float;
  lat_p99 : float;
  lat_mean : float;
  lat_max : float;
  logical_messages : int;
  physical_frames : int;
  retransmissions : int;
  explicit_acks : int;
  rpc_timeouts : int;
  unfinished : int;
}

type result = {
  seeds : int64 list;
  quick : bool;
  off : mode_result;
  on_ : mode_result;
  frame_reduction : float;
}

(* One mode: the chaos table's [mix] row over [seeds], with [config] as the
   transport. *)
let run_mode ~name ~config ~seeds =
  let knobs = { Chaos.default_knobs with Chaos.reliability = config } in
  let runs = List.map (fun seed -> Chaos.run ~knobs ~seed "mix") seeds in
  let sum f = List.fold_left (fun acc (r : Chaos.report) -> acc + f r) 0 runs in
  let latencies = Array.of_list (List.concat_map (fun r -> r.Chaos.latencies) runs) in
  let ops = sum (fun r -> r.Chaos.ops) in
  let sim_time = List.fold_left (fun acc r -> acc +. r.Chaos.sim_time) 0.0 runs in
  {
    name;
    config;
    seeds = List.length seeds;
    ops;
    sim_time;
    throughput = (if sim_time > 0.0 then float_of_int ops /. sim_time else 0.0);
    lat_p50 = Stats.percentile latencies 50.0;
    lat_p95 = Stats.percentile latencies 95.0;
    lat_p99 = Stats.percentile latencies 99.0;
    lat_mean = Stats.mean_of latencies;
    lat_max = Stats.percentile latencies 100.0;
    logical_messages = sum (fun r -> r.Chaos.logical_messages);
    physical_frames = sum (fun r -> r.Chaos.messages);
    retransmissions = sum (fun r -> r.Chaos.transport.Reliable.retransmissions);
    explicit_acks = sum (fun r -> r.Chaos.transport.Reliable.acks);
    rpc_timeouts = sum (fun r -> r.Chaos.rpc_timeouts);
    unfinished = sum (fun r -> List.length r.Chaos.unfinished);
  }

let default_seeds ~quick =
  let n = if quick then 3 else 10 in
  List.init n (fun i -> Int64.of_int (i + 1))

let run ?(quick = false) ?seeds () =
  let seeds = match seeds with Some s -> s | None -> default_seeds ~quick in
  if seeds = [] then invalid_arg "Bench.run: need at least one seed";
  let off = run_mode ~name:"batching_off" ~config:Reliable.default_config ~seeds in
  let on_ = run_mode ~name:"batching_on" ~config:Reliable.batching_config ~seeds in
  let frame_reduction =
    if off.physical_frames = 0 then 0.0
    else 1.0 -. (float_of_int on_.physical_frames /. float_of_int off.physical_frames)
  in
  { seeds; quick; off; on_; frame_reduction }

(* {1 JSON}

   Hand-rolled on purpose: no JSON dependency in the tree, and the output
   is flat enough that stability matters more than generality.  Floats are
   fixed-precision so the artifact is byte-stable across platforms. *)

let json_float f = if Float.is_nan f then "null" else Printf.sprintf "%.6f" f

let json_mode b (m : mode_result) =
  let field fmt = Printf.bprintf b fmt in
  field "    {\n";
  field "      \"name\": %S,\n" m.name;
  field "      \"config\": { \"window\": %d, \"max_batch\": %d, \"ack_every\": %d, \"ack_delay\": %s },\n"
    m.config.Reliable.window m.config.Reliable.max_batch m.config.Reliable.ack_every
    (json_float m.config.Reliable.ack_delay);
  field "      \"seeds\": %d,\n" m.seeds;
  field "      \"ops\": %d,\n" m.ops;
  field "      \"sim_time\": %s,\n" (json_float m.sim_time);
  field "      \"ops_per_sim_time\": %s,\n" (json_float m.throughput);
  field "      \"latency\": { \"p50\": %s, \"p95\": %s, \"p99\": %s, \"mean\": %s, \"max\": %s },\n"
    (json_float m.lat_p50) (json_float m.lat_p95) (json_float m.lat_p99)
    (json_float m.lat_mean) (json_float m.lat_max);
  field "      \"logical_messages\": %d,\n" m.logical_messages;
  field "      \"physical_frames\": %d,\n" m.physical_frames;
  field "      \"retransmissions\": %d,\n" m.retransmissions;
  field "      \"explicit_acks\": %d,\n" m.explicit_acks;
  field "      \"rpc_timeouts\": %d,\n" m.rpc_timeouts;
  field "      \"unfinished\": %d\n" m.unfinished;
  field "    }"

let to_json r =
  let b = Buffer.create 1024 in
  let field fmt = Printf.bprintf b fmt in
  field "{\n";
  field "  \"benchmark\": \"transport\",\n";
  field "  \"workload\": \"chaos-mix\",\n";
  field "  \"faults\": { \"drop\": 0.05, \"duplicate\": 0.01 },\n";
  field "  \"quick\": %b,\n" r.quick;
  field "  \"seeds\": [%s],\n"
    (String.concat ", " (List.map Int64.to_string r.seeds));
  field "  \"modes\": [\n";
  json_mode b r.off;
  field ",\n";
  json_mode b r.on_;
  field "\n  ],\n";
  field "  \"physical_frame_reduction\": %s\n" (json_float r.frame_reduction);
  field "}\n";
  Buffer.contents b

let pp_mode ppf (m : mode_result) =
  Format.fprintf ppf
    "%-13s %5d ops  %8.2f ops/t  p50 %5.2f  p95 %6.2f  p99 %6.2f  logical %5d  frames %5d  rexmit %3d  acks %4d"
    m.name m.ops m.throughput m.lat_p50 m.lat_p95 m.lat_p99 m.logical_messages
    m.physical_frames m.retransmissions m.explicit_acks

let pp ppf r =
  Format.fprintf ppf "transport bench: chaos-mix, %d seeds%s@."
    (List.length r.seeds)
    (if r.quick then " (quick)" else "");
  Format.fprintf ppf "  %a@." pp_mode r.off;
  Format.fprintf ppf "  %a@." pp_mode r.on_;
  (* Logical counts differ slightly across modes only through RPC retries:
     different frame streams draw different loss patterns.  The headline is
     the frame count, which batching actually targets. *)
  Format.fprintf ppf "  physical frames: %d -> %d (%.1f%% fewer; logical %d vs %d)@."
    r.off.physical_frames r.on_.physical_frames
    (100.0 *. r.frame_reduction)
    r.off.logical_messages r.on_.logical_messages
