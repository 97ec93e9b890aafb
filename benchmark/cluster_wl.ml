(* The Cluster workloads: the effect shell, the boxed Protocol.step path,
   the process runtime and the discrete-event engine, with one blocking
   client per node (a closed loop, as in the paper).  Each client's ops and
   think times are drawn from [Gen] before any timer starts; the system
   receives only the generated inputs.

   Common random numbers.  Every client but one runs a fixed op sequence,
   drawn from [input_seed]; the seed redraws the sequence of client [seed
   mod nodes] from itself.  So every seed gives another input and another
   digest, while the inputs of two seeds share all other clients.  The
   cluster's own draws -- link latencies, drops, duplicates and heartbeat
   jitter -- come from one fixed seed as well.  With every client and the
   network drawn from the seed instead, the messages per op on
   cluster-shard-128 moved by 4-12% of their median from seed to seed, and
   the mean latency on cluster-lossy-64 by 0.3-0.8%. *)

module Engine = Dsm_sim.Engine
module Proc = Dsm_runtime.Proc
module Cluster = Dsm_causal.Cluster
module Node_stats = Dsm_protocol.Node_stats
module Detector = Dsm_protocol.Detector
module Network = Dsm_net.Network
module Reliable = Dsm_net.Reliable
module Latency = Dsm_net.Latency
module Online = Dsm_checker.Online
module Loc = Dsm_memory.Loc
module Value = Dsm_memory.Value
module Owner = Dsm_memory.Owner
module Shard = Dsm_memory.Shard
module Op = Dsm_memory.Op
module Fvec = Stats.Fvec

type client = { writes : bool array; locs : int array; think : float array }

type spec = {
  nodes : int;
  ops_per_client : int;
  locs : int;
  create : Proc.sched -> Cluster.t;
  draw : Gen.t -> pid:int -> k:int -> bool * int;
      (** a client's op [k]: is it a write, and its location *)
  think_mean : float;
  horizon : float;  (** no client issues an op or sleeps past this simulated time *)
}

(* The seeds of the fixed client sequences and of the cluster's draws. *)
let input_seed = 0x5EED

let system_seed = 42L

(* cluster-lossy-64: write-heavy over a lossy network behind the reliable
   transport, 4 locations per node drawn uniformly. *)
let lossy ~quick =
  let nodes = if quick then 8 else 64 in
  let locs = 4 * nodes in
  {
    nodes;
    ops_per_client = (if quick then 40 else 1_500);
    locs;
    create =
      (fun sched ->
        Cluster.create ~sched ~owner:(Owner.by_index ~nodes) ~latency:Latency.lan
          ~fault:(Network.fault ~drop:0.05 ~duplicate:0.01 ())
          ~reliability:Reliable.default_config
          ~rpc:{ Cluster.timeout = 100.0; retries = 5 }
          ~seed:system_seed ());
    draw =
      (fun g ~pid:_ ~k:_ ->
        let write = Gen.chance g 0.5 in
        (write, Gen.int g locs));
    think_mean = 1.0;
    horizon = Float.infinity;
  }

(* cluster-shard-128: read-heavy over rings of 8 with the failure detector
   on, loss-free; 10% writes.  Location [i] lives in shard [i mod shards],
   and a client picks within a shard's locations by Zipf(1.2).

   Heartbeats go to every share-set peer while any client runs, and a
   subscription adds a client to a whole share-set, so the heartbeat count
   turns on when each subscription happens and on when the slowest client
   ends.  Both are pinned: every tenth op of a client leaves its shard, for
   the shards above its own in turn, and every client stops at simulated
   time 140 (about 40 ops).  With away ops drawn at random (10%) and 40 ops
   per client, one redrawn client moved the messages per op by 1% of their
   median. *)
let sharded ~quick =
  let nodes = if quick then 16 else 128 in
  let shards = nodes / 8 in
  let locs = 4 * nodes in
  let layout = Shard.make ~nodes ~shards in
  let zipf = Gen.zipf ~s:1.2 (locs / shards) in
  {
    nodes;
    ops_per_client = (if quick then 20 else 80);
    locs;
    create =
      (fun sched ->
        (* Share-sets are mutable: each round gets a fresh layout. *)
        let layout = Shard.make ~nodes ~shards in
        Cluster.create ~sched ~owner:(Shard.owner layout) ~latency:Latency.lan
          ~detector:{ Detector.period = 5.0; suspect_after = 3 }
          ~sharding:layout ~seed:system_seed ());
    draw =
      (fun g ~pid ~k ->
        let mine = Shard.of_base layout pid in
        let shard = if k mod 10 <> 9 then mine else (mine + 1 + ((pid + (k / 10)) mod (shards - 1))) mod shards in
        let write = Gen.chance g 0.1 in
        (write, shard + (shards * Gen.zipf_rank g zipf)));
    think_mean = 2.0;
    horizon = (if quick then 40.0 else 140.0);
  }

let clients spec ~seed =
  let master = Gen.create input_seed in
  let redrawn = (seed land max_int) mod spec.nodes and n = spec.ops_per_client in
  Array.init spec.nodes (fun pid ->
      let g = Gen.split master in
      let g = if pid = redrawn then Gen.create seed else g in
      let writes = Array.make n false and locs = Array.make n 0 and think = Array.make n 0.0 in
      for k = 0 to n - 1 do
        let write, loc = spec.draw g ~pid ~k in
        writes.(k) <- write;
        locs.(k) <- loc;
        think.(k) <- Gen.exponential g ~mean:spec.think_mean
      done;
      { writes; locs; think })

(* Bytes offered to the network per message kind (self-sends excluded),
   from the network tap; [Network.counters] has frames per kind but not
   bytes. *)
let tap bytes =
  {
    Network.on_send =
      (fun ~src ~dst ~kind ~size ->
        if src <> dst then
          Hashtbl.replace bytes kind (size + Option.value (Hashtbl.find_opt bytes kind) ~default:0));
    on_deliver = (fun ~src:_ ~dst:_ ~kind:_ -> ());
    on_drop = (fun ~src:_ ~dst:_ ~kind:_ -> ());
    on_duplicate = (fun ~src:_ ~dst:_ ~kind:_ -> ());
  }

(* The message kinds the per-kind wire metrics name; every other kind is
   counted under OTHER. *)
let wire_kinds =
  [ "READ"; "R_REPLY"; "WRITE"; "W_REPLY"; "HB"; "SHADOW"; "SH_ACK"; "SUB_REQ"; "SUB_REPLY"; "ACK"; "OTHER" ]

(* Fingerprint of the timed history: every op and its simulated times. *)
let digest history =
  List.fold_left (fun acc (op, s, e) -> Hashtbl.hash (acc, Op.to_string op, s, e)) 0 history

(* The history through the windowed online checker, in completion order
   (ties by pid and program index, so each process's ops stay in order). *)
let check_history history =
  let key (op, _, e) = (e, op.Op.pid, op.Op.index) in
  let sorted = List.sort (fun a b -> compare (key a) (key b)) history in
  let ck = Online.create ~window:64 () in
  List.fold_left (fun n (op, _, _) -> n + List.length (Online.add_op ck op)) 0 sorted

let prepare spec ~seed =
  let clients = clients spec ~seed in
  let names = Array.init spec.locs (Loc.indexed "x") in
  let n = spec.nodes and opc = spec.ops_per_client in
  let total = n * opc in
  let round ~traced ~spans ~verify =
    let start = Array.make total Float.nan and stop = Array.make total Float.nan in
    let issued = ref 0 and timed_out = ref 0 in
    let setup () =
      let engine = Engine.create ~step_limit:max_int () in
      let sched = Proc.scheduler engine in
      let c = spec.create sched in
      for pid = 0 to n - 1 do
        let h = Cluster.handle c pid and cl = clients.(pid) in
        ignore
          (Proc.spawn sched ~name:(string_of_int pid) (fun () ->
               let rec loop k =
                 if k < opc then begin
                   incr issued;
                   let i = (pid * opc) + k in
                   let loc = names.(cl.locs.(k)) in
                   let s = Engine.now engine in
                   let ok =
                     if cl.writes.(k) then
                       Result.is_ok (Cluster.write_result h loc (Value.Int ((pid * 1_000_000) + k)))
                     else Result.is_ok (Cluster.read_result h loc)
                   in
                   if ok then begin
                     start.(i) <- s;
                     stop.(i) <- Engine.now engine
                   end
                   else incr timed_out;
                   (* No sleep past the horizon: the run ends with the last op. *)
                   if Engine.now engine +. cl.think.(k) < spec.horizon then begin
                     Proc.sleep cl.think.(k);
                     loop (k + 1)
                   end
                 end
               in
               loop 0))
      done;
      (engine, sched, c)
    in
    let setup_s, (engine, sched, c) = Round.setups 9 setup in
    let t1 = Host.now () in
    let kinds = Hashtbl.create 16 in
    let depth = Fvec.create () in
    if traced then begin
      let t = tap kinds in
      match Cluster.reliable c with
      | Some r -> Network.set_tap (Reliable.net r) (Some t)
      | None -> Network.set_tap (Cluster.net c) (Some t)
    end;
    let gc0 = Gc.quick_stat () in
    if traced then begin
      let k = ref 0 in
      while Engine.step engine do
        incr k;
        if !k land 63 = 0 then Fvec.push depth (float_of_int (Engine.pending engine))
      done
    end
    else
      while Engine.step engine do
        ()
      done;
    let t2 = Host.now () in
    let gc1 = Gc.quick_stat () in
    let live_mb = Host.live_heap_mb () in
    let history = Cluster.timed_history c in
    let lat = Fvec.create () and rlat = Fvec.create () and wlat = Fvec.create () in
    Array.iteri
      (fun i s ->
        if not (Float.is_nan s) then begin
          let l = stop.(i) -. s in
          Fvec.push lat l;
          Fvec.push (if clients.(i / opc).writes.(i mod opc) then wlat else rlat) l
        end)
      start;
    let lat = Fvec.to_array lat in
    let completed = Array.length lat in
    let ops = float_of_int completed in
    let cs = Cluster.cluster_stats c in
    let wire = Cluster.wire_counters c in
    let sim =
      [
        ("latency_mean", Stats.mean lat);
        ("msgs_per_op", Stats.per (float_of_int cs.Node_stats.logical_messages) ops);
        ("frames_per_op", Stats.per (float_of_int cs.Node_stats.physical_frames) ops);
        ("wire_bytes_per_op", Stats.per (float_of_int wire.Network.bytes) ops);
      ]
    in
    let unfinished = List.length (Proc.unfinished sched) in
    let checks =
      [
        ("no unfinished processes", unfinished = 0);
        ("no process raised", Proc.failures sched = []);
        ("every op completed or counted failed", completed + !timed_out = !issued);
        ("history holds every completed op", List.length history = completed);
      ]
      @ if verify then [ ("checker violations = 0", check_history history = 0) ] else []
    in
    let layers =
      if not traced then []
      else begin
        let p = cs.Node_stats.protocol in
        let events = float_of_int (Engine.events_processed engine) in
        let rlat = Fvec.to_array rlat and wlat = Fvec.to_array wlat in
        (match spans with
        | None -> ()
        | Some sp ->
            let root = Spans.add sp ~name:"cluster.run" ~clock:"host" ~start:t1 ~stop:t2 () in
            Array.iteri
              (fun i s ->
                if not (Float.is_nan s) then
                  let name = if clients.(i / opc).writes.(i mod opc) then "op.write" else "op.read" in
                  ignore
                    (Spans.add sp ~parent:root ~node:(i / opc) ~name ~clock:"sim" ~start:s
                       ~stop:stop.(i) ()))
              start);
        let reliable =
          match Cluster.reliable c with
          | None -> []
          | Some r ->
              let rc = Reliable.counters r in
              [
                ("reliable.retransmissions_per_op", Stats.per (float_of_int rc.Reliable.retransmissions) ops);
                ("reliable.fast_rexmits", float_of_int (Reliable.fast_rexmits r));
                ("reliable.acks_per_op", Stats.per (float_of_int rc.Reliable.acks) ops);
                ( "reliable.goodput_ratio",
                  Stats.per_int rc.Reliable.payloads cs.Node_stats.physical_frames );
                ("reliable.dup_dropped", float_of_int rc.Reliable.dup_dropped);
                ("reliable.reordered", float_of_int rc.Reliable.reordered);
                ("reliable.gave_up", float_of_int rc.Reliable.gave_up);
              ]
        in
        let network =
          let bytes = List.of_seq (Hashtbl.to_seq kinds) in
          let kind_of k = if List.mem k wire_kinds then k else "OTHER" in
          let total kind = List.fold_left (fun n (k, v) -> if kind_of k = kind then n + v else n) 0 in
          List.concat_map
            (fun kind ->
              [
                ("network.frames_per_op." ^ kind, Stats.per_int (total kind wire.Network.by_kind) completed);
                ("network.bytes_per_op." ^ kind, Stats.per_int (total kind bytes) completed);
              ])
            wire_kinds
        in
        [
          ("engine.events_per_op", Stats.per events ops);
          ("engine.host_ns_per_event", Stats.per (1e9 *. (t2 -. t1)) events);
          ("engine.queue_depth_p99", Stats.quantile (Fvec.to_array depth) 0.99);
          ("proc.unfinished", float_of_int unfinished);
          ("proc.timed_out", float_of_int !timed_out);
          ("cluster.latency_p50", Stats.quantile lat 0.5);
          ("cluster.latency_p999", Stats.quantile lat 0.999);
          ("cluster.latency_samples", ops);
          ("cluster.read_latency_p50", Stats.quantile rlat 0.5);
          ("cluster.read_latency_p999", Stats.quantile rlat 0.999);
          ("cluster.write_latency_p50", Stats.quantile wlat 0.5);
          ("cluster.write_latency_p999", Stats.quantile wlat 0.999);
          ( "cluster.local_op_frac",
            Stats.per (float_of_int (p.Node_stats.read_hits + p.Node_stats.writes_owned)) ops );
          ("cluster.rpc_timeouts_per_op", Stats.per (float_of_int cs.Node_stats.rpc_timeouts) ops);
          ("cluster.stale_replies", float_of_int cs.Node_stats.stale_replies);
          ( "protocol.read_hit_ratio",
            Stats.per_int p.Node_stats.read_hits (p.Node_stats.read_hits + p.Node_stats.read_misses) );
          ("protocol.invalidations_per_op", Stats.per (float_of_int p.Node_stats.invalidations) ops);
          ( "protocol.remote_write_frac",
            Stats.per_int p.Node_stats.writes_remote (p.Node_stats.writes_owned + p.Node_stats.writes_remote)
          );
          ("protocol.writes_rejected", float_of_int p.Node_stats.writes_rejected);
          ("protocol.redundant_fetches", float_of_int p.Node_stats.redundant_fetches);
          ("protocol.stale_drops", float_of_int p.Node_stats.stale_drops);
          ("network.dropped", float_of_int cs.Node_stats.wire_dropped);
          ("network.duplicated", float_of_int cs.Node_stats.wire_duplicated);
          ("gc.minor_words_per_op", Stats.per (gc1.Gc.minor_words -. gc0.Gc.minor_words) ops);
          ("gc.major_collections", float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections));
        ]
        @ reliable @ network
      end
    in
    {
      Round.setup_s;
      run_s = t2 -. t1;
      live_mb;
      attempted = !issued;
      completed;
      sim;
      digest = Printf.sprintf "%x" (digest history);
      layers;
      checks;
    }
  in
  (round, fun () -> ([], []))
