(* Partition tolerance at the cluster and scenario level: the check-quorum
   voter rule under one-way link loss, the quorum-fenced partition and
   split-brain chaos scenarios, and the nemesis fault scheduler.  The
   protocol-level vote mechanics live in test_failover.ml; this file covers
   the paths only a real network cut exercises. *)

module Engine = Dsm_sim.Engine
module Proc = Dsm_runtime.Proc
module Latency = Dsm_net.Latency
module Cluster = Dsm_causal.Cluster
module Detector = Dsm_causal.Detector
module Owner = Dsm_memory.Owner
module Chaos = Dsm_apps.Chaos
module Nemesis = Dsm_apps.Nemesis

let fast_detector = { Detector.period = 5.0; suspect_after = 2 }

let setup ?detector ?(nodes = 3) () =
  let e = Engine.create () in
  let s = Proc.scheduler e in
  let c =
    Cluster.create ~sched:s ~owner:(Owner.by_index ~nodes) ?detector
      ~latency:(Latency.Constant 1.0) ()
  in
  (e, s, c)

(* {1 The check-quorum voter rule} *)

let test_false_suspicion_cannot_depose () =
  (* Cut only node 1's frames TO node 2: the designated backup of base 1
     falsely suspects a perfectly healthy owner and opens a vote canvass —
     but node 0 still hears node 1, so the check-quorum rule makes it
     refuse the vote, the canvass never reaches quorum, and nobody is
     deposed.  Without the rule, one node's one-sided packet loss would be
     enough to steal ownership from a live owner. *)
  let e, s, c = setup ~detector:fast_detector () in
  Engine.schedule_at e 2.0 (fun () -> Cluster.partition_oneway c [ 1 ] [ 2 ]);
  Engine.schedule_at e 60.0 (fun () -> Cluster.heal_all_links c);
  let checked = ref false in
  ignore
    (Proc.spawn s ~name:"observer" (fun () ->
         Proc.sleep 40.0;
         Alcotest.(check (list int))
           "the backup suspects the (to it) silent owner" [ 1 ]
           (Cluster.suspected_by c 2);
         Alcotest.(check (list int)) "the owner hears everyone" []
           (Cluster.suspected_by c 1);
         Alcotest.(check bool) "the owner never lost quorum contact" false
           (Cluster.partition_degraded c 1);
         Proc.sleep 40.0;
         Alcotest.(check (list int)) "the heal unsuspects" [] (Cluster.suspected_by c 2);
         checked := true));
  Engine.run e;
  Proc.check s;
  Alcotest.(check bool) "observer ran to completion" true !checked;
  Alcotest.(check int) "exactly one (false) suspicion" 1 (Cluster.suspect_events c);
  Alcotest.(check int) "cleared on heal" 1 (Cluster.unsuspect_events c);
  Alcotest.(check int) "no vote crossed the check-quorum rule" 0
    (Cluster.votes_granted c);
  Alcotest.(check int) "nobody was deposed" 0 (Cluster.takeovers c)

(* {1 Chaos scenarios} *)

let test_partition_scenario_report () =
  let r = Chaos.run ~seed:1L "partition" in
  Alcotest.(check bool) "healthy" true (Chaos.healthy r);
  Alcotest.(check int) "exactly one quorum takeover" 1 r.Chaos.takeovers;
  Alcotest.(check (list (triple int int int)))
    "the majority-side backup serves base 0 at epoch 1"
    [ (0, 1, 1) ]
    r.Chaos.view;
  Alcotest.(check bool) "the deposed owner resumed after the heal" true
    (Chaos.note_int r "partition_heals" >= 1);
  Alcotest.(check bool) "quorum needed at least two remote grants" true
    (Chaos.note_int r "votes_granted" >= 2);
  Alcotest.(check bool) "the nemesis plan is recorded in the notes" true
    (List.mem_assoc "nemesis_0" r.Chaos.notes)

let test_split_brain_scenario_report () =
  let r = Chaos.run ~seed:1L "split-brain" in
  Alcotest.(check bool) "healthy" true (Chaos.healthy r);
  Alcotest.(check int) "only the contested base is taken over" 1 r.Chaos.takeovers;
  Alcotest.(check (list (triple int int int)))
    "base 1 (minority-owned, majority successor) moves to node 2"
    [ (1, 1, 2) ]
    r.Chaos.view;
  (* Base 0's ring successor is node 1 — minority too, so no canvass can
     reach quorum for it: the base stays unavailable-but-consistent. *)
  Alcotest.(check bool) "base 0 is never taken over" true
    (not (List.exists (fun (b, _, _) -> b = 0) r.Chaos.view))

let test_scenario_soak () =
  List.iter
    (fun scenario ->
      let refused = ref 0 in
      List.iter
        (fun seed ->
          let r = Chaos.run ~seed scenario in
          refused := !refused + Chaos.note_int r "refused_writes";
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %Ld healthy" scenario seed)
            true (Chaos.healthy r);
          Alcotest.(check int)
            (Printf.sprintf "%s seed %Ld: exactly one takeover" scenario seed)
            1 r.Chaos.takeovers)
        [ 1L; 2L; 3L; 4L; 5L ];
      (* Any given seed's minority-side ops may all be reads, but across
         the seed set the degraded owners must have refused some writes. *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: degraded owners refused writes across the seeds" scenario)
        true (!refused > 0))
    [ "partition"; "split-brain" ]

let test_scenario_determinism () =
  let run () = Chaos.run ~seed:3L "split-brain" in
  Alcotest.(check bool) "identical reports on identical seeds" true (run () = run ())

(* {1 Nemesis} *)

let test_nemesis_counters_and_log () =
  let e, s, c = setup () in
  let plan =
    [
      { Nemesis.at = 2.0; fault = Nemesis.Cut { a = [ 0 ]; b = [ 1; 2 ] } };
      { Nemesis.at = 4.0; fault = Nemesis.Crash 1 };
      { Nemesis.at = 5.0; fault = Nemesis.Crash 1 } (* already down: no-op *);
      { Nemesis.at = 6.0; fault = Nemesis.Restart 1 };
      { Nemesis.at = 8.0; fault = Nemesis.Heal_all };
    ]
  in
  let nem = Nemesis.schedule e c plan in
  ignore (Proc.spawn s ~name:"clock" (fun () -> Proc.sleep 10.0));
  Engine.run e;
  Proc.check s;
  Alcotest.(check int) "one cut" 1 (Nemesis.cuts nem);
  Alcotest.(check int) "one heal" 1 (Nemesis.heals nem);
  Alcotest.(check int) "crashing a dead node is a counted no-op" 1 (Nemesis.crashes nem);
  Alcotest.(check int) "one restart" 1 (Nemesis.restarts nem);
  Alcotest.(check (list (pair (float 0.0) string)))
    "every step logged in firing order, no-ops included"
    [
      (2.0, "cut {0}|{1,2}");
      (4.0, "crash 1");
      (5.0, "crash 1");
      (6.0, "restart 1");
      (8.0, "heal-all");
    ]
    (Nemesis.log nem);
  Alcotest.(check (list (pair string string)))
    "notes name and timestamp each fault"
    [
      ("nemesis_0", "t=2.0 cut {0}|{1,2}");
      ("nemesis_1", "t=4.0 crash 1");
      ("nemesis_2", "t=5.0 crash 1");
      ("nemesis_3", "t=6.0 restart 1");
      ("nemesis_4", "t=8.0 heal-all");
    ]
    (Nemesis.notes nem)

let test_nemesis_window_helpers () =
  let render = List.map (fun { Nemesis.at; fault } -> (at, Nemesis.describe fault)) in
  Alcotest.(check (list (pair (float 0.0) string)))
    "partition window = cut then heal"
    [ (2.0, "cut {0}|{1,2}"); (8.0, "heal {0}|{1,2}") ]
    (render (Nemesis.partition_window ~from_:2.0 ~until:8.0 ~a:[ 0 ] ~b:[ 1; 2 ]));
  Alcotest.(check (list (pair (float 0.0) string)))
    "crash window = crash then restart"
    [ (3.0, "crash 4"); (9.0, "restart 4") ]
    (render (Nemesis.crash_window ~from_:3.0 ~until:9.0 4));
  Alcotest.(check string) "one-way cuts render their direction"
    "cut-oneway {0,1}->{2}"
    (Nemesis.describe (Nemesis.Cut_oneway { src = [ 0; 1 ]; dst = [ 2 ] }))

let suite =
  [
    Alcotest.test_case "check-quorum blocks false suspicion" `Quick
      test_false_suspicion_cannot_depose;
    Alcotest.test_case "partition scenario report" `Quick test_partition_scenario_report;
    Alcotest.test_case "split-brain scenario report" `Quick
      test_split_brain_scenario_report;
    Alcotest.test_case "scenario soak, seeds 1-5" `Quick test_scenario_soak;
    Alcotest.test_case "scenario determinism" `Quick test_scenario_determinism;
    Alcotest.test_case "nemesis counters and log" `Quick test_nemesis_counters_and_log;
    Alcotest.test_case "nemesis window helpers" `Quick test_nemesis_window_helpers;
  ]
