(* The hot-path workloads, all seed-deterministic except for host time.

   micro:
   - the flattened owner-write service ({!Dsm_protocol.Flat}) against the
     boxed {!Dsm_protocol.Protocol.step} on the identical 2-node/1-loc
     shape, over a fixed iteration count, with the minor- and major-heap
     words the flat loop allocates (the ALLOC=0 gate);
   - the live heap a fresh 256-node parallel engine holds (the heap
     ceiling) and the minor words per op its first 100k ops allocate;
   - the windowed online checker's cost and minor words per op on such an
     engine's recorded op stream;
   - the cost of the other hot paths, one figure each.
   core:
   - the conservative parallel engine ({!Dsm_sim.Par_engine}) driving a
     [nodes]-node, [target_ops]-op workload at 1/2/4 domains, with the
     digest-equality determinism gate, each cell's set-up time and the
     live heap after its run;
   - the same workload with the windowed online checker consuming the op
     stream at the epoch barriers, against an unchecked run just before
     it, both on one domain. *)

module Flat = Dsm_protocol.Flat
module P = Dsm_protocol.Protocol
module Par = Dsm_sim.Par_engine
module Engine = Dsm_sim.Engine
module Online = Dsm_checker.Online
module Loc = Dsm_memory.Loc
module Value = Dsm_memory.Value
module Op = Dsm_memory.Op
module Wid = Dsm_memory.Wid
module Owner = Dsm_memory.Owner

let now_s () = Unix.gettimeofday ()

(* Live heap after a full collection, in MiB: what the program still
   holds. *)
let live_heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.0

let sim_params ~nodes ~seed =
  { (Par.default_params ~nodes) with seed; shards = 16; remote_pct = 30 }

(* {1 Micro} *)

(* A fresh engine at the core workload's full size: the heap it holds, and
   the minor words per op its first round allocates.  The heap is Flat's
   slot index plus one small pool per node, 3.6 MB; the ceiling, 4 MB,
   catches any array of a word per (node, location) pair coming back, 0.5
   MiB at this size.  A round allocates its buffers once and then nothing
   per op; the gate catches a box back on that path, such as a boxed PRNG
   draw (about 20 words per op). *)
let engine_row ~seed =
  let nodes = 256 and target_ops = 100_000 in
  let before = live_heap_mb () in
  let eng = Par.create (sim_params ~nodes ~seed) in
  let held = live_heap_mb () -. before in
  let w0 = Gc.minor_words () in
  let stats = Par.run ~domains:1 ~target_ops eng in
  let words = (Gc.minor_words () -. w0) /. float_of_int stats.Par.completed in
  ( {
      Report.name = "engine";
      config = [ ("nodes", Int nodes); ("target_ops", Int target_ops); ("domains", Int 1) ];
      e2e = Report.e2e ~ops:stats.Par.completed ();
      layers = [ ("par.heap_mb", Float held); ("par.minor_words_per_op", Float words) ];
    },
    [
      Report.check "par.heap_mb" (Float held) `Le (Float 4.0);
      Report.check "par.minor_words_per_op" (Float words) `Le (Float 1.0);
    ] )

(* Timed with the wall clock over big fixed loops rather than a sampling
   harness: the loop body is tens of nanoseconds and the quantity gated on
   is a 5x ratio, not a confidence interval.  The two loops run in
   alternating batches and the figures are the medians over the batches,
   so a burst of load on a shared host skews one batch's ratio, not the
   gated one. *)
let owner_write_row ~iters =
  let batches = 10 in
  let per_batch = iters / batches in
  let st = P.create ~owner:(Owner.by_index ~nodes:2) ~config:Dsm_protocol.Config.default ~now:0.0 () in
  let loc = Loc.indexed "v" 0 in
  let step_once () =
    ignore (P.step st (P.Owner_write { node = 0; loc; value = Value.Int 1; writer = 0 }))
  in
  (* Flat side: same shape — 2 nodes, 1 location, node 0 owns it. *)
  let lid = Loc.Interner.intern (Loc.Interner.create ()) loc in
  let flat = Flat.create ~nodes:2 ~locs:1 ~owner:[| 0 |] () in
  let flat_once () = Flat.owner_write flat ~node:0 ~loc:lid ~value:1 in
  let loop_ns f n =
    let t0 = now_s () in
    for _ = 1 to n do
      f ()
    done;
    (now_s () -. t0) *. 1e9 /. float_of_int n
  in
  ignore (loop_ns step_once (iters / 10));
  ignore (loop_ns flat_once (iters / 10));
  let step_ns = Array.make batches 0.0 and flat_ns = Array.make batches 0.0 in
  let minor = ref 0.0 and major = ref 0.0 in
  for b = 0 to batches - 1 do
    step_ns.(b) <- loop_ns step_once per_batch;
    (* [Gc.minor_words] and [Gc.counters]'s major words are exact
       ([Gc.quick_stat] on OCaml 5 lags until the next collection, and
       [Gc.counters] on OCaml 5.1 reads the minor words allocated since the
       last minor collection at an eighth of their number).  [Gc.counters]
       boxes its own result, which amortised over a batch is far below the
       0.01 words/op gate. *)
    let minor0 = Gc.minor_words () and _, _, major0 = Gc.counters () in
    flat_ns.(b) <- loop_ns flat_once per_batch;
    let minor1 = Gc.minor_words () and _, _, major1 = Gc.counters () in
    minor := !minor +. (minor1 -. minor0);
    major := !major +. (major1 -. major0)
  done;
  let median a = Dsm_util.Stats.percentile a 50.0 in
  let ops = batches * per_batch in
  let minor = !minor /. float_of_int ops
  and major = !major /. float_of_int ops
  and speedup = median (Array.init batches (fun b -> step_ns.(b) /. flat_ns.(b))) in
  ( {
      Report.name = "owner-write";
      config = [ ("nodes", Int 2); ("locs", Int 1); ("iters", Int ops); ("batches", Int batches) ];
      e2e = Report.e2e ~ops ();
      layers =
        [
          ("protocol.step_owner_write_ns", Float (median step_ns));
          ("flat.owner_write_ns", Float (median flat_ns));
          ("flat.speedup", Float speedup);
          ("flat.minor_words_per_op", Float minor);
          ("flat.major_words_per_op", Float major);
        ];
    },
    [
      Report.check "flat.speedup" (Float speedup) `Ge (Float 5.0);
      Report.check "flat.minor_words_per_op" (Float minor) `Le (Float 0.01);
      Report.check "flat.major_words_per_op" (Float major) `Le (Float 0.01);
    ] )

(* A consumer of [params]' packed op logs that hands [f] each op as a
   checker op, in program order.  Locations are interned once, so it
   allocates only the Op records. *)
let checker_ops params f =
  let locs = Array.init params.Par.locs (Loc.indexed "x") in
  let indices = Array.make params.Par.nodes 0 in
  fun ~node ~buf ~len ->
    for o = 0 to (len / Par.log_stride) - 1 do
      let b = o * Par.log_stride in
      let kind = buf.(b)
      and loc = locs.(buf.(b + 1))
      and value = Value.Int buf.(b + 2)
      and wn = buf.(b + 3)
      and ws = buf.(b + 4) in
      let index = indices.(node) in
      indices.(node) <- index + 1;
      f
        (if kind = 0 then
           Op.read ~pid:node ~index ~loc ~value
             ~from:(if wn < 0 then Wid.initial else Wid.make ~node:wn ~seq:ws)
         else Op.write ~pid:node ~index ~loc ~value ~wid:(Wid.make ~node:wn ~seq:ws))
    done

(* The windowed checker alone, fed a 256-node engine's op stream that is
   built before the timer starts: its cost and the minor words it
   allocates per op.  The bound catches a return to a compaction that
   rebuilds its survivors (74 words per op) or to boxing on the per-op
   path. *)
let online_row ~seed ~target_ops =
  let nodes = 256 and window = 64 in
  let params = sim_params ~nodes ~seed in
  let stream = ref [] in
  ignore
    (Par.run ~domains:1 ~target_ops
       ~on_ops:(checker_ops params (fun op -> stream := op :: !stream))
       (Par.create params));
  let ops = Array.of_list (List.rev !stream) in
  let ck = Online.create ~window () in
  let w0 = Gc.minor_words () in
  let t0 = now_s () in
  for i = 0 to Array.length ops - 1 do
    ignore (Online.add_op ck ops.(i))
  done;
  let dt = now_s () -. t0 in
  let n = float_of_int (Array.length ops) in
  let words = (Gc.minor_words () -. w0) /. n in
  ( {
      Report.name = "online";
      config = [ ("nodes", Int nodes); ("target_ops", Int target_ops); ("window", Int window) ];
      e2e = Report.e2e ~ops:(Array.length ops) ();
      layers =
        [
          ("online.ns_per_op", Float (dt *. 1e9 /. n));
          ("online.minor_words_per_op", Float words);
        ];
    },
    [ Report.check "online.minor_words_per_op" (Float words) `Le (Float 16.0) ] )

(* ns per call of [f], over doubling batches until one takes [budget]
   seconds. *)
let time_ns ~budget f =
  f ();
  let rec go n =
    let t0 = now_s () in
    for _ = 1 to n do
      f ()
    done;
    let dt = now_s () -. t0 in
    if dt >= budget then dt *. 1e9 /. float_of_int n else go (2 * n)
  in
  go 1

let hot_paths_row ~budget =
  let a = Vclock.of_array (Array.init 16 (fun i -> i * 3 mod 7)) in
  let b = Vclock.of_array (Array.init 16 (fun i -> (i * 5) + (2 mod 9))) in
  let queue () =
    let e = Engine.create () in
    for i = 63 downto 0 do
      Engine.schedule_at e (float_of_int i) ignore
    done;
    for _ = 0 to 63 do
      ignore (Engine.step e)
    done
  in
  let closure () =
    let r = Dsm_util.Bitrel.create 80 in
    for i = 0 to 78 do
      Dsm_util.Bitrel.add r i (i + 1);
      if i + 5 < 80 then Dsm_util.Bitrel.add r i (i + 5)
    done;
    Dsm_util.Bitrel.transitive_closure r
  in
  (* A remote write and a read back on a 2-node cluster, shell included. *)
  let round_trip () =
    let engine = Engine.create () in
    let sched = Dsm_runtime.Proc.scheduler engine in
    let cluster =
      Dsm_causal.Cluster.create ~sched ~owner:(Owner.by_index ~nodes:2)
        ~latency:(Dsm_net.Latency.Constant 1.0) ()
    in
    let loc = Loc.indexed "v" 1 in
    ignore
      (Dsm_runtime.Proc.spawn sched (fun () ->
           let h = Dsm_causal.Cluster.handle cluster 0 in
           Dsm_causal.Cluster.write h loc (Value.Int 1);
           ignore (Dsm_causal.Cluster.read h loc)));
    Engine.run engine
  in
  (* A no-op heartbeat tick through the pure core: the event/action
     indirection the effect shell pays on every message. *)
  let hb_tick =
    let st =
      P.create ~owner:(Owner.by_index ~nodes:4) ~config:Dsm_protocol.Config.default
        ~detector:{ Dsm_protocol.Detector.period = 5.0; suspect_after = 3 }
        ~now:0.0 ()
    in
    let now = ref 0.0 in
    fun () ->
      now := !now +. 0.001;
      ignore (P.step st (P.Hb_tick { node = 0; now = !now }))
  in
  (* One remote-write round trip on the flat path: the writer stamps with
     its own clock row, the owner certifies (merge, policy, invalidation
     pass), the writer adopts the certified entry. *)
  let remote_write_cycle =
    let st = Flat.create ~nodes:4 ~locs:8 ~owner:(Array.init 8 (fun l -> l mod 4)) () in
    let clock = Flat.clock_arena st in
    let i = ref 0 in
    fun () ->
      incr i;
      let l = !i land 7 in
      let o = Flat.owner_of st l in
      let w = (o + 1) land 3 in
      Vclock.Flat.bump clock ~off:(Flat.clock_off st w) w;
      Flat.certify st ~node:o ~loc:l ~value:!i ~wid_node:w ~wid_seq:!i ~stamp:clock
        ~stamp_off:(Flat.clock_off st w);
      Flat.adopt_write_reply st ~node:w ~loc:l ~value:(Flat.entry_value st ~node:o ~loc:l)
        ~wid_node:(Flat.entry_wid_node st ~node:o ~loc:l)
        ~wid_seq:(Flat.entry_wid_seq st ~node:o ~loc:l) ~stamp:(Flat.stamp_arena st ~node:o)
        ~stamp_off:(Flat.entry_off st ~node:o ~loc:l)
  in
  (* Two 256-wide windows, sim-256's stamp width, at odd offsets of one
     arena: [w_b] equals [w_a] but for its last component, one higher, so
     [lt] and [compare_vt] scan every component, and merging [w_a] into
     [w_b] changes none, as most components of an install's merge do not. *)
  let wide = 256 in
  let arena = Array.make (1 + (3 * wide)) 0 in
  let w_a = 1 and w_b = 1 + wide and w_c = 1 + (2 * wide) in
  for i = 0 to wide - 1 do
    arena.(w_a + i) <- (i * 7) mod 13;
    arena.(w_b + i) <- (i * 7) mod 13
  done;
  arena.(w_b + wide - 1) <- arena.(w_b + wide - 1) + 1;
  (* One remote read on a 256-node flat state: the owner writes, and the
     reader installs the entry (R_REPLY), merging its stamp into the
     reader's clock and running an invalidation pass over the reader's 12
     cached entries, about as many as a sim-256 node holds.  Their owners
     are spread across the clock, and their stamps are concurrent, so no
     install invalidates another and the reader keeps all 12. *)
  let remote_read_cycle =
    let nodes = 256 and cached = 12 and reader = 0 in
    let st = Flat.create ~nodes ~locs:nodes ~owner:(Array.init nodes Fun.id) () in
    let locs = Array.init cached (fun k -> 1 + (k * 21)) in
    let install l =
      let o = Flat.owner_of st l in
      Flat.install_remote st ~node:reader ~loc:l ~value:(Flat.entry_value st ~node:o ~loc:l)
        ~wid_node:(Flat.entry_wid_node st ~node:o ~loc:l)
        ~wid_seq:(Flat.entry_wid_seq st ~node:o ~loc:l) ~stamp:(Flat.stamp_arena st ~node:o)
        ~stamp_off:(Flat.entry_off st ~node:o ~loc:l)
    in
    let i = ref 0 in
    let cycle () =
      incr i;
      let l = locs.(!i mod cached) in
      Flat.owner_write st ~node:(Flat.owner_of st l) ~loc:l ~value:!i;
      install l
    in
    for _ = 1 to cached do
      cycle ()
    done;
    cycle
  in
  let keep x = ignore (Sys.opaque_identity x) in
  let cases =
    [
      ("vclock.update_ns", fun () -> keep (Vclock.update a b));
      ("vclock.compare_ns", fun () -> keep (Vclock.compare_vt a b));
      ("vclock.increment_ns", fun () -> keep (Vclock.increment a 3));
      ( "vclock.flat256_merge_ns",
        fun () -> Vclock.Flat.merge_into ~dst:arena ~dst_off:w_b ~src:arena ~src_off:w_a ~dim:wide );
      ( "vclock.flat256_blit_ns",
        fun () -> Vclock.Flat.blit ~src:arena ~src_off:w_a ~dst:arena ~dst_off:w_c ~dim:wide );
      ("vclock.flat256_lt_ns", fun () -> keep (Vclock.Flat.lt arena ~a_off:w_a arena ~b_off:w_b ~dim:wide));
      ( "vclock.flat256_compare_ns",
        fun () -> keep (Vclock.Flat.compare_vt arena ~a_off:w_a arena ~b_off:w_b ~dim:wide) );
      ("engine.schedule_step_x64_ns", queue);
      ("bitrel.closure_80_ns", closure);
      ("checker.causal_fig2_ns", fun () -> keep (Dsm_checker.Causal_check.is_correct Dsm_checker.Histories.fig2));
      ("checker.sc_fig5_ns", fun () -> keep (Dsm_checker.Consistency.is_sc Dsm_checker.Histories.fig5));
      ("cluster.write_read_remote_ns", round_trip);
      ("protocol.step_hb_tick_ns", hb_tick);
      ("flat.remote_write_cycle_ns", remote_write_cycle);
      ("flat.remote_read_cycle_256_ns", remote_read_cycle);
    ]
  in
  {
    Report.name = "hot-paths";
    config = [ ("budget_s", Float budget) ];
    e2e = Report.e2e ();
    layers = List.map (fun (key, f) -> (key, Report.Float (time_ns ~budget f))) cases;
  }

let micro ~quick ~seed =
  let owner_write, owner_checks = owner_write_row ~iters:(if quick then 400_000 else 2_000_000) in
  let engine, engine_checks = engine_row ~seed:(Int64.to_int seed) in
  let online, online_checks =
    online_row ~seed:(Int64.to_int seed) ~target_ops:(if quick then 25_000 else 100_000)
  in
  let hot_paths = hot_paths_row ~budget:(if quick then 0.02 else 0.1) in
  ([ owner_write; engine; online; hot_paths ], owner_checks @ engine_checks @ online_checks)

(* {1 Core} *)

let sim_row ~name ~nodes ~seed ~target_ops ~domains =
  let t0 = now_s () in
  let eng = Par.create (sim_params ~nodes ~seed) in
  let setup_s = now_s () -. t0 in
  let t0 = now_s () in
  let stats = Par.run ~domains ~target_ops eng in
  let wall_s = now_s () -. t0 in
  let live_heap_mb = live_heap_mb () in
  ignore (Sys.opaque_identity eng);
  let ops_per_s = float_of_int stats.Par.completed /. wall_s in
  ( {
      Report.name;
      config = [ ("nodes", Int nodes); ("target_ops", Int target_ops); ("domains", Int domains) ];
      e2e = Report.e2e ~ops:stats.Par.completed ~ops_per_s ();
      layers =
        [
          ("par.epochs", Int stats.Par.epochs);
          ("par.digest", Int stats.Par.digest);
          ("par.setup_s", Float setup_s);
          ("par.wall_s", Float wall_s);
          ("gc.live_heap_mb", Float live_heap_mb);
        ];
    },
    (stats.Par.completed, stats.Par.digest, ops_per_s) )

let checked_row ~nodes ~seed ~target_ops ~window =
  let params = sim_params ~nodes ~seed in
  let eng = Par.create params in
  let ck = Online.create ~window () in
  let violations = ref 0 in
  let on_ops =
    checker_ops params (fun op -> violations := !violations + List.length (Online.add_op ck op))
  in
  let t0 = now_s () in
  let stats = Par.run ~domains:1 ~target_ops ~on_ops eng in
  let ops_per_s = float_of_int stats.Par.completed /. (now_s () -. t0) in
  ( {
      Report.name = "checked";
      config =
        [
          ("nodes", Int nodes); ("target_ops", Int target_ops); ("domains", Int 1); ("window", Int window);
        ];
      e2e = Report.e2e ~ops:stats.Par.completed ~ops_per_s ();
      layers =
        [
          ("online.ops", Int (Online.ops_seen ck));
          ("online.violations", Int !violations);
          ("online.pending", Int (Online.pending_reads ck));
          ("online.dropped", Int (Online.dropped_reads ck));
        ];
    },
    (ops_per_s, !violations, Online.pending_reads ck) )

let core ~quick ~seed =
  let seed = Int64.to_int seed in
  let nodes = if quick then 64 else 256 in
  let target_ops = if quick then 100_000 else 1_000_000 in
  let sim =
    List.map
      (fun domains ->
        sim_row ~name:(Printf.sprintf "sim-d%d" domains) ~nodes ~seed ~target_ops ~domains)
      [ 1; 2; 4 ]
  in
  let outcomes = List.map (fun (_, (ops, digest, _)) -> (ops, digest)) sim in
  (* A fresh unchecked run just before the checked one, on the same single
     domain: the ratio compares adjacent measurements under identical
     conditions, and no domain competes with another for a core. *)
  let unchecked, (_, _, unchecked_ops_per_s) =
    sim_row ~name:"unchecked" ~nodes ~seed ~target_ops ~domains:1
  in
  let checked, (checked_ops_per_s, violations, pending) =
    checked_row ~nodes ~seed ~target_ops ~window:64
  in
  ( List.map fst sim @ [ unchecked; checked ],
    [
      Report.check "digests_agree"
        (Bool (List.for_all (( = ) (List.hd outcomes)) outcomes))
        `Eq (Bool true);
      Report.check "sim.ops" (Int (List.fold_left (fun m (ops, _) -> min m ops) max_int outcomes))
        `Ge (Int target_ops);
      Report.check "checked.ratio" (Float (checked_ops_per_s /. unchecked_ops_per_s)) `Ge (Float 0.5);
      Report.check "checked.violations" (Int violations) `Eq (Int 0);
      Report.check "checked.pending" (Int pending) `Eq (Int 0);
    ] )
