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

type cell = { logical : int; bytes : int; causal : bool; unfinished : int }

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
  let logical = Causal.logical_messages c in
  let bytes = (Causal.wire_counters c).Network.bytes in
  let history = Causal.history c in
  Causal.shutdown c;
  (* A history too long for the post-hoc check fails it. *)
  { logical; bytes; causal = Harness.causal_verdict history = Some true; unfinished }

(* Partial replication must send strictly fewer logical messages than full
   at every size, and at 64 nodes beat it on both messages and bytes per
   op. *)
let run_size ~nodes ~seed ~ops_per_client =
  let shards = nodes / 8 in
  let ops = nodes * ops_per_client in
  let full = run_cell ~nodes ~shards ~seed ~ops_per_client ~partial:false in
  let partial = run_cell ~nodes ~shards ~seed ~ops_per_client ~partial:true in
  let per n = float_of_int n /. float_of_int ops in
  let reduction f p = if f = 0 then Float.nan else 1.0 -. (float_of_int p /. float_of_int f) in
  let name = Printf.sprintf "n%d.%s" nodes in
  let row mode c layers =
    {
      Report.name = name mode;
      config = [ ("nodes", Int nodes); ("shards", Int shards) ];
      e2e = Report.e2e ~ops ~msgs_per_op:(per c.logical) ~bytes_per_op:(per c.bytes) ();
      layers =
        [
          ("cluster.logical_messages", Report.Int c.logical);
          ("network.wire_bytes", Int c.bytes);
          ("proc.unfinished", Int c.unfinished);
        ]
        @ layers;
    }
  in
  let cheaper metric f = Report.check (name metric) (Float (f partial)) `Lt (Float (f full)) in
  ( [
      row "full" full [];
      row "partial" partial
        [
          ("shard.message_reduction", Float (reduction full.logical partial.logical));
          ("shard.byte_reduction", Float (reduction full.bytes partial.bytes));
        ];
    ],
    [
      Report.check (name "full.causal_ok") (Bool full.causal) `Eq (Bool true);
      Report.check (name "partial.causal_ok") (Bool partial.causal) `Eq (Bool true);
      Report.check (name "unfinished") (Int (full.unfinished + partial.unfinished)) `Eq (Int 0);
      Report.check (name "logical_messages") (Int partial.logical) `Lt (Int full.logical);
    ]
    @
    if nodes < 64 then []
    else
      [ cheaper "msgs_per_op" (fun c -> per c.logical); cheaper "bytes_per_op" (fun c -> per c.bytes) ]
  )

let run ~quick ~seed =
  let sizes = if quick then [ 16; 64 ] else [ 16; 32; 64 ] in
  let ops_per_client = if quick then 8 else 24 in
  let rows, checks = List.split (List.map (fun nodes -> run_size ~nodes ~seed ~ops_per_client) sizes) in
  (List.concat rows, List.concat checks)
