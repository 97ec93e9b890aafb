(* B-MICRO: bechamel microbenchmarks of the hot paths — one Test.make per
   operation, results printed as a table of ns/op. *)

open Bechamel
open Toolkit

let vclock_pair =
  let a = Vclock.of_array (Array.init 16 (fun i -> i * 3 mod 7)) in
  let b = Vclock.of_array (Array.init 16 (fun i -> (i * 5) + (2 mod 9))) in
  (a, b)

let bench_vclock_update =
  let a, b = vclock_pair in
  Test.make ~name:"vclock.update (dim 16)" (Staged.stage (fun () -> ignore (Vclock.update a b)))

let bench_vclock_compare =
  let a, b = vclock_pair in
  Test.make ~name:"vclock.compare (dim 16)"
    (Staged.stage (fun () -> ignore (Vclock.compare_vt a b)))

let bench_vclock_increment =
  let a, _ = vclock_pair in
  Test.make ~name:"vclock.increment (dim 16)"
    (Staged.stage (fun () -> ignore (Vclock.increment a 3)))

let bench_engine_queue =
  Test.make ~name:"engine schedule_at+step x64"
    (Staged.stage (fun () ->
         let e = Dsm_sim.Engine.create () in
         for i = 63 downto 0 do
           Dsm_sim.Engine.schedule_at e (float_of_int i) ignore
         done;
         for _ = 0 to 63 do
           ignore (Dsm_sim.Engine.step e)
         done))

let bench_closure =
  Test.make ~name:"bitrel closure (80-node chain+skips)"
    (Staged.stage (fun () ->
         let r = Dsm_util.Bitrel.create 80 in
         for i = 0 to 78 do
           Dsm_util.Bitrel.add r i (i + 1);
           if i + 5 < 80 then Dsm_util.Bitrel.add r i (i + 5)
         done;
         Dsm_util.Bitrel.transitive_closure r))

let bench_checker_fig2 =
  Test.make ~name:"causal check (figure 2)"
    (Staged.stage (fun () ->
         ignore (Dsm_checker.Causal_check.is_correct Dsm_checker.Histories.fig2)))

let bench_sc_fig5 =
  Test.make ~name:"SC search (figure 5)"
    (Staged.stage (fun () ->
         ignore (Dsm_checker.Consistency.is_sc Dsm_checker.Histories.fig5)))

let bench_protocol_roundtrip =
  Test.make ~name:"protocol: write+read remote (2 nodes)"
    (Staged.stage (fun () ->
         let engine = Dsm_sim.Engine.create () in
         let sched = Dsm_runtime.Proc.scheduler engine in
         let cluster =
           Dsm_causal.Cluster.create ~sched
             ~owner:(Dsm_memory.Owner.by_index ~nodes:2)
             ~latency:(Dsm_net.Latency.Constant 1.0) ()
         in
         ignore
           (Dsm_runtime.Proc.spawn sched (fun () ->
                let h = Dsm_causal.Cluster.handle cluster 0 in
                Dsm_causal.Cluster.write h (Dsm_memory.Loc.indexed "v" 1)
                  (Dsm_memory.Value.Int 1);
                ignore (Dsm_causal.Cluster.read h (Dsm_memory.Loc.indexed "v" 1))));
         Dsm_sim.Engine.run engine))

(* The cost of the pure-core refactor's dispatch: one [Protocol.step] on a
   pre-built state, no shell, no network — an [Owner_write] (the cheapest
   full service path: certify + clock + action construction) and a no-op
   heartbeat tick.  Measures the event/action indirection the effect shell
   pays on every message relative to the old direct calls. *)
let bench_step_owner_write =
  let module P = Dsm_protocol.Protocol in
  let st =
    P.create
      ~owner:(Dsm_memory.Owner.by_index ~nodes:2)
      ~config:Dsm_protocol.Config.default ~now:0.0 ()
  in
  let loc = Dsm_memory.Loc.indexed "v" 0 in
  Test.make ~name:"protocol.step: owner write (pure core)"
    (Staged.stage (fun () ->
         ignore
           (P.step st
              (P.Owner_write { node = 0; loc; value = Dsm_memory.Value.Int 1; writer = 0 }))))

let bench_step_hb_tick =
  let module P = Dsm_protocol.Protocol in
  let st =
    P.create
      ~owner:(Dsm_memory.Owner.by_index ~nodes:4)
      ~config:Dsm_protocol.Config.default
      ~detector:{ Dsm_protocol.Detector.period = 5.0; suspect_after = 3 }
      ~now:0.0 ()
  in
  let now = ref 0.0 in
  Test.make ~name:"protocol.step: hb tick (4 nodes)"
    (Staged.stage (fun () ->
         now := !now +. 0.001;
         ignore (P.step st (P.Hb_tick { node = 0; now = !now }))))

(* The flattened data path on exactly the shape of [bench_step_owner_write]
   (2 nodes, one location): the tentpole's >=5x claim is this pair's ratio.
   Interning, arena sizing, and owner layout happen once outside the staged
   closure; the measured step allocates nothing. *)
let bench_flat_owner_write =
  let module F = Dsm_protocol.Flat in
  let interner = Dsm_memory.Loc.Interner.create () in
  let loc = Dsm_memory.Loc.Interner.intern interner (Dsm_memory.Loc.indexed "v" 0) in
  let st = F.create ~nodes:2 ~locs:1 ~owner:[| 0 |] () in
  Test.make ~name:"flat: owner write (2 nodes)"
    (Staged.stage (fun () -> F.owner_write st ~node:0 ~loc ~value:1))

(* One full remote-write round trip on the flat path: writer stamps with its
   own clock row, owner certifies (merge + policy + invalidation pass),
   writer adopts the certified entry.  Three services per iteration. *)
let bench_flat_remote_write_cycle =
  let module F = Dsm_protocol.Flat in
  let st = F.create ~nodes:4 ~locs:8 ~owner:(Array.init 8 (fun l -> l mod 4)) () in
  let clock = F.clock_arena st in
  let i = ref 0 in
  Test.make ~name:"flat: remote write cycle (4 nodes)"
    (Staged.stage (fun () ->
         incr i;
         let l = !i land 7 in
         let o = F.owner_of st l in
         let w = (o + 1) land 3 in
         Vclock.Flat.bump clock ~off:(F.clock_off st w) w;
         F.certify st ~node:o ~loc:l ~value:!i ~wid_node:w ~wid_seq:!i ~stamp:clock
           ~stamp_off:(F.clock_off st w);
         F.adopt_write_reply st ~node:w ~loc:l ~value:(F.last_value st ~node:o)
           ~wid_node:(F.last_wid_node st ~node:o) ~wid_seq:(F.last_wid_seq st ~node:o)
           ~stamp:(F.stamp_arena st ~node:o) ~stamp_off:(F.entry_off st ~node:o ~loc:l)))

let tests =
  [
    bench_vclock_update;
    bench_vclock_compare;
    bench_vclock_increment;
    bench_engine_queue;
    bench_closure;
    bench_checker_fig2;
    bench_sc_fig5;
    bench_protocol_roundtrip;
    bench_step_owner_write;
    bench_step_hb_tick;
    bench_flat_owner_write;
    bench_flat_remote_write_cycle;
  ]

let run () =
  print_endline (String.make 72 '=');
  print_endline "B-MICRO  bechamel microbenchmarks";
  print_endline (String.make 72 '=');
  print_newline ();
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  let instances = Instance.[ monotonic_clock ] in
  let table = Dsm_util.Table.create ~headers:[ "operation"; "ns/op"; "r^2" ] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
      in
      let analysis = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (est :: _) -> Printf.sprintf "%.1f" est
            | Some [] | None -> "n/a"
          in
          let r2 =
            match Analyze.OLS.r_square ols_result with
            | Some r -> Printf.sprintf "%.3f" r
            | None -> "n/a"
          in
          Dsm_util.Table.add_row table [ name; ns; r2 ])
        analysis)
    tests;
  Dsm_util.Table.print table
