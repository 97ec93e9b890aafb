(* Partial-replication benchmark: the same Zipfian, own-shard-skewed
   workload runs twice per cluster size — once fully replicated (every
   node in one share-set) and once sharded into rings of eight — and the
   two runs are compared on the two costs interest-based sharding attacks:
   protocol messages per operation (heartbeats, shadow copies and
   reconciliation scope with the share-set, not the cluster) and metadata
   bytes per operation (writestamps and digests travel at share-set width
   instead of cluster width).

   The network is loss-free and the failure detector is on in both modes:
   with no faults there are no takeovers, so the message-count gap is
   exactly the scoping gap, measured over an identical op schedule. *)

module Engine = Dsm_sim.Engine
module Proc = Dsm_runtime.Proc
module Latency = Dsm_net.Latency
module Network = Dsm_net.Network
module Causal = Dsm_causal.Cluster
module Shard = Dsm_memory.Shard
module Value = Dsm_memory.Value
module Prng = Dsm_util.Prng

type cell = {
  mode : string;  (** ["full"] or ["partial"] *)
  ops : int;
  logical_messages : int;
  wire_bytes : int;
  messages_per_op : float;
  bytes_per_op : float;
  causal_ok : bool;
  unfinished : int;
}

type size_result = {
  nodes : int;
  shards : int;
  full : cell;
  partial : cell;
  message_reduction : float;  (** [1 - partial/full], logical messages *)
  byte_reduction : float;  (** [1 - partial/full], wire metadata bytes *)
}

type result = { quick : bool; seed : int64; sizes : size_result list }

(* Zipf(s=1.2) rank sampler over [m] ranks by inverse CDF: rank 0 is the
   hot location of the pool. *)
let zipf_cdf m =
  let w = Array.init m (fun k -> 1.0 /. Float.pow (float_of_int (k + 1)) 1.2) in
  let acc = ref 0.0 in
  let cum = Array.map (fun x -> acc := !acc +. x; !acc) w in
  (cum, !acc)

let zipf_pick prng (cum, total) =
  let u = Prng.float prng total in
  let m = Array.length cum in
  let rec find i = if i >= m - 1 || u <= cum.(i) then i else find (i + 1) in
  find 0

let detector = { Dsm_causal.Detector.period = 5.0; suspect_after = 3 }

(* One cluster, one mode.  [sharding = None] is full replication over the
   same induced owner map, so routing is identical and only the share-set
   scoping differs. *)
let run_cell ~nodes ~shards ~seed ~ops_per_client ~partial =
  let layout = Shard.make ~nodes ~shards in
  let owner = Shard.owner layout in
  let engine = Engine.create () in
  let sched = Proc.scheduler engine in
  let c =
    Causal.create ~sched ~owner ~latency:Latency.lan ~detector
      ?sharding:(if partial then Some layout else None)
      ~seed ()
  in
  (* Four locations per node; location [i] lives in shard [i mod shards]. *)
  let all_locs = List.init (4 * nodes) Fun.id in
  let pool sh =
    Array.of_list (List.filter (fun i -> Shard.of_loc layout (Workload.loc i) = sh) all_locs)
  in
  let pools = Array.init shards pool in
  let cdfs = Array.map (fun p -> zipf_cdf (Array.length p)) pools in
  let master = Prng.create seed in
  for pid = 0 to nodes - 1 do
    let prng = Prng.split master in
    let h = Causal.handle c pid in
    let my_shard = Shard.of_base layout pid in
    ignore
      (Proc.spawn sched
         ~name:(Printf.sprintf "bench%d" pid)
         (fun () ->
           for k = 1 to ops_per_client do
             (* The skew: 90% own-shard traffic with a Zipfian hot set,
                10% uniform across the rest of the namespace. *)
             let sh =
               if Prng.chance prng 0.9 then my_shard
               else (my_shard + 1 + Prng.int prng (shards - 1)) mod shards
             in
             let loc = Workload.loc pools.(sh).(zipf_pick prng cdfs.(sh)) in
             if Prng.chance prng 0.5 then
               Causal.write h loc (Value.Int ((pid * 1_000) + k))
             else ignore (Causal.read h loc);
             Proc.sleep (Prng.exponential prng ~mean:2.0)
           done))
  done;
  Engine.run engine;
  let unfinished = List.length (Proc.failures sched) in
  let ops = nodes * ops_per_client in
  let logical = Causal.logical_messages c in
  let bytes = (Causal.wire_counters c).Network.bytes in
  let history = Causal.history c in
  Causal.shutdown c;
  {
    mode = (if partial then "partial" else "full");
    ops;
    logical_messages = logical;
    wire_bytes = bytes;
    messages_per_op = float_of_int logical /. float_of_int ops;
    bytes_per_op = float_of_int bytes /. float_of_int ops;
    causal_ok = Harness.check_history history;
    unfinished;
  }

let run_size ~nodes ~seed ~ops_per_client =
  let shards = nodes / 8 in
  let full = run_cell ~nodes ~shards ~seed ~ops_per_client ~partial:false in
  let partial = run_cell ~nodes ~shards ~seed ~ops_per_client ~partial:true in
  let reduction f p =
    if f = 0 then Float.nan else 1.0 -. (float_of_int p /. float_of_int f)
  in
  {
    nodes;
    shards;
    full;
    partial;
    message_reduction = reduction full.logical_messages partial.logical_messages;
    byte_reduction = reduction full.wire_bytes partial.wire_bytes;
  }

let run ?(quick = false) ?(seed = 1L) () =
  let sizes = if quick then [ 16; 64 ] else [ 16; 32; 64 ] in
  let ops_per_client = if quick then 8 else 24 in
  { quick; seed; sizes = List.map (fun nodes -> run_size ~nodes ~seed ~ops_per_client) sizes }

(* The acceptance gate: every cell clean, partial strictly cheaper in
   messages at every size on the skewed mix, and at 64 nodes partial must
   beat full on {e both} metrics. *)
let healthy r =
  let clean c = c.causal_ok && c.unfinished = 0 in
  List.for_all
    (fun s ->
      clean s.full && clean s.partial
      && s.partial.logical_messages < s.full.logical_messages
      && (s.nodes < 64
         || (s.partial.messages_per_op < s.full.messages_per_op
            && s.partial.bytes_per_op < s.full.bytes_per_op)))
    r.sizes
  && List.exists (fun s -> s.nodes = 64) r.sizes

let json_float f = if Float.is_nan f then "null" else Printf.sprintf "%.6f" f

let json_cell b c =
  Printf.bprintf b
    "{ \"mode\": %S, \"ops\": %d, \"logical_messages\": %d, \"wire_bytes\": %d, \
     \"messages_per_op\": %s, \"bytes_per_op\": %s, \"causal_ok\": %b, \"unfinished\": %d }"
    c.mode c.ops c.logical_messages c.wire_bytes
    (json_float c.messages_per_op)
    (json_float c.bytes_per_op) c.causal_ok c.unfinished

let to_json r =
  let b = Buffer.create 1024 in
  let field fmt = Printf.bprintf b fmt in
  field "{\n";
  field "  \"benchmark\": \"shard\",\n";
  field "  \"quick\": %b,\n" r.quick;
  field "  \"seed\": %Ld,\n" r.seed;
  field "  \"sizes\": [\n";
  List.iteri
    (fun i s ->
      if i > 0 then field ",\n";
      field "    {\n";
      field "      \"nodes\": %d,\n" s.nodes;
      field "      \"shards\": %d,\n" s.shards;
      field "      \"full\": ";
      json_cell b s.full;
      field ",\n      \"partial\": ";
      json_cell b s.partial;
      field ",\n      \"message_reduction\": %s,\n" (json_float s.message_reduction);
      field "      \"byte_reduction\": %s\n" (json_float s.byte_reduction);
      field "    }")
    r.sizes;
  field "\n  ]\n";
  field "}\n";
  Buffer.contents b

let pp ppf r =
  Format.fprintf ppf "shard bench: seed %Ld%s@." r.seed (if r.quick then " (quick)" else "");
  List.iter
    (fun s ->
      Format.fprintf ppf
        "  %2d nodes / %d shards: msgs/op %6.2f -> %6.2f (-%2.0f%%)  bytes/op %8.1f -> %8.1f (-%2.0f%%)@."
        s.nodes s.shards s.full.messages_per_op s.partial.messages_per_op
        (100.0 *. s.message_reduction)
        s.full.bytes_per_op s.partial.bytes_per_op
        (100.0 *. s.byte_reduction))
    r.sizes;
  Format.fprintf ppf "  gate (partial < full everywhere, both metrics at 64): %s@."
    (if healthy r then "PASS" else "FAIL")
