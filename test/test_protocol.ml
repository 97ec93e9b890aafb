(* The pure core's contract: [Protocol.step] is effect-free, so the same
   initial state fed the same event sequence must produce identical action
   lists — that is what makes recorded traces replayable and the golden
   traces stable.  The random closed-loop schedule generator lives in
   [Dsm_mc.Gen] (the model checker shares it); here we record one run,
   replay the recording against a fresh state and compare every action
   list structurally. *)

module P = Dsm_protocol.Protocol
module Message = Dsm_protocol.Message
module Node = Dsm_protocol.Node
module Config = Dsm_protocol.Config
module Stamped = Dsm_protocol.Stamped
module Loc = Dsm_memory.Loc
module Value = Dsm_memory.Value
module Wid = Dsm_memory.Wid
module Owner = Dsm_memory.Owner
module Gen = Dsm_mc.Gen

let fresh_state () = Gen.fresh_state ()

let generate ~seed ~steps = Gen.random_run ~seed ~steps ()

let summary st =
  ( P.dropped_at_crashed st,
    P.takeovers st,
    P.shadow_degraded st,
    P.suspect_events st,
    P.unsuspect_events st,
    P.view st )

let test_deterministic_replay () =
  List.iter
    (fun seed ->
      let events, recorded = generate ~seed ~steps:400 in
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld produced events" seed)
        true (events <> []);
      let issued = function P.Issue_read _ | P.Issue_write _ -> true | _ -> false in
      let taken = function P.Reply_taken _ -> true | _ -> false in
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld issues client operations and takes replies" seed)
        true
        (List.exists issued events && List.exists taken events);
      (* Replay the exact event sequence against a fresh identical state:
         every action list must match structurally (actions are pure data,
         so polymorphic equality is meaningful). *)
      let st = fresh_state () in
      let replayed = List.map (fun ev -> snd (P.step st ev)) events in
      List.iteri
        (fun i (a, b) ->
          if a <> b then
            Alcotest.failf "seed %Ld: event %d replayed to different actions" seed i)
        (List.combine recorded replayed);
      (* And a second generation from the same seed is bit-identical end to
         end, counters included. *)
      let events2, recorded2 = generate ~seed ~steps:400 in
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld regenerates the same events" seed)
        true
        (events = events2 && recorded = recorded2);
      let st2 = fresh_state () in
      List.iter (fun ev -> ignore (P.step st2 ev)) events;
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld replay reaches the same state summary" seed)
        true
        (summary st = summary st2))
    [ 1L; 2L; 3L; 7L; 42L; 1991L ]

let test_tracing_transparent () =
  (* Emit actions are the only difference tracing may introduce: with
     tracing on, stripping [Emit]s recovers the untraced action lists. *)
  let seed = 11L in
  let events, untraced = generate ~seed ~steps:300 in
  let st = fresh_state () in
  P.set_tracing st true;
  let traced = List.map (fun ev -> snd (P.step st ev)) events in
  let strip = List.filter (function P.Emit _ -> false | _ -> true) in
  List.iteri
    (fun i (a, b) ->
      if a <> strip b then
        Alcotest.failf "event %d: tracing changed the real actions" i)
    (List.combine untraced traced);
  let emits =
    List.concat_map (List.filter (function P.Emit _ -> true | _ -> false)) traced
  in
  Alcotest.(check bool) "tracing actually emitted something" true (emits <> [])

let test_crashed_nodes_drop () =
  (* A crashed node produces no actions for any event the shell could
     plausibly feed it (deliveries count as dropped, ticks are ignored). *)
  let st = fresh_state () in
  let _, acts = P.step st (P.Crash { node = 2 }) in
  Alcotest.(check bool) "crash itself is silent" true (acts = []);
  let before = P.dropped_at_crashed st in
  let _, acts =
    P.step st
      (P.Deliver
         { dst = 2; src = 0; now = 1.0; msg = Message.Heartbeat { view = [] } })
  in
  Alcotest.(check bool) "delivery to crashed node does nothing" true (acts = []);
  Alcotest.(check int) "and is counted" (before + 1) (P.dropped_at_crashed st);
  let _, acts = P.step st (P.Hb_tick { node = 2; now = 2.0 }) in
  Alcotest.(check bool) "tick at crashed node does nothing" true (acts = [])

(* {1 The client half, driven with no shell}

   Three nodes, [v.i] served by node [i mod 3]; node 1 is node 0's
   backup.  Each test feeds client events and checks the completions. *)

let v i = Loc.indexed "v" i

let client_state ?(config = Config.default) ?detector () =
  P.create ~owner:(Owner.by_index ~nodes:3) ~config ?detector ~now:0.0 ()

let stats st n = Node.stats (P.node st n)

let sends acts = List.filter_map (function P.Send s -> Some (s.dst, s.kind, s.msg) | _ -> None) acts

let entry_from ~node ~seq ~clock value =
  Stamped.make ~value:(Value.Int value) ~stamp:(Vclock.of_array clock) ~wid:(Wid.make ~node ~seq)

let read_reply ~req ~loc entry = Message.Read_reply { req; loc; entry; page = []; digest = [] }

let test_read_hit () =
  let st = client_state () in
  match snd (P.step st (P.Issue_read { node = 0; loc = v 0 })) with
  | [ P.Read_done { node = 0; entry; _ } ] ->
      Alcotest.(check bool) "initial value" true (Wid.is_initial entry.Stamped.wid);
      Alcotest.(check int) "a hit" 1 (stats st 0).read_hits
  | _ -> Alcotest.fail "a served location reads locally"

let test_read_miss () =
  let st = client_state () in
  let acts = snd (P.step st (P.Issue_read { node = 1; loc = v 0 })) in
  Alcotest.(check bool) "parks, then READs the owner under its epoch" true
    (acts
    = [
        P.Park { node = 1; req = 0 };
        P.Send
          {
            src = 1;
            dst = 0;
            kind = "READ";
            size = 1;
            msg = Message.Read_req { req = 0; loc = v 0; epoch = 0 };
          };
      ]);
  Alcotest.(check int) "a miss" 1 (stats st 1).read_misses;
  Alcotest.(check (list int)) "parked on tag 0" [ 0 ] (List.map fst (P.parked st 1));
  let entry = entry_from ~node:0 ~seq:0 ~clock:[| 1; 0; 0 |] 7 in
  (match snd (P.step st (P.Reply_taken { node = 1; req = 0; msg = read_reply ~req:0 ~loc:(v 0) entry })) with
  | [ P.Read_done { node = 1; entry = e; _ } ] -> Alcotest.(check bool) "the reply" true (e = entry)
  | _ -> Alcotest.fail "the reply completes the read");
  Alcotest.(check bool) "and is cached" true (Node.lookup (P.node st 1) (v 0) = Some entry);
  Alcotest.(check int) "no longer parked" 0 (List.length (P.parked st 1));
  Alcotest.(check bool) "a second copy is ignored" true
    (snd (P.step st (P.Reply_taken { node = 1; req = 0; msg = read_reply ~req:0 ~loc:(v 0) entry }))
    = [])

let test_stale_epoch_redirects () =
  let st = client_state () in
  ignore (P.step st (P.Issue_read { node = 1; loc = v 0 }));
  let stale req epoch = Message.Stale_epoch { req; base = 0; epoch; serving = 2 } in
  (* The first redirect learns base 0 moved to node 2 under epoch 1 and
     re-sends there under a fresh tag. *)
  let acts = snd (P.step st (P.Reply_taken { node = 1; req = 0; msg = stale 0 1 })) in
  Alcotest.(check bool) "re-sent to the new server under a fresh tag" true
    (List.mem (P.Park { node = 1; req = 1 }) acts
    && sends acts = [ (2, "READ", Message.Read_req { req = 1; loc = v 0; epoch = 1 }) ]);
  Alcotest.(check int) "view learned" 2 (Node.serving_of (P.node st 1) ~base:0);
  (* 2n = 6 redirects are followed; the seventh gives up. *)
  for req = 1 to 5 do
    ignore (P.step st (P.Reply_taken { node = 1; req; msg = stale req (req + 1) }))
  done;
  Alcotest.(check int) "six redirects followed" 6 (P.redirects st);
  let acts = snd (P.step st (P.Reply_taken { node = 1; req = 6; msg = stale 6 7 })) in
  Alcotest.(check bool) "then gave up" true
    (List.mem (P.Gave_up { node = 1; dst = 2; attempts = 1 }) acts && sends acts = []);
  Alcotest.(check int) "nothing parked" 0 (List.length (P.parked st 1))

(* Node 1's clock grows while its READ is in flight (it certifies its own
   write of v.1): the reply is used once and not cached — unless the
   [Figure4_literal] mutation drops the guard. *)
let stale_install config =
  let st = client_state ~config () in
  ignore (P.step st (P.Issue_read { node = 1; loc = v 0 }));
  ignore (P.step st (P.Issue_write { node = 1; loc = v 1; value = Value.Int 1 }));
  let entry = entry_from ~node:0 ~seq:0 ~clock:[| 1; 0; 0 |] 7 in
  let acts = snd (P.step st (P.Reply_taken { node = 1; req = 0; msg = read_reply ~req:0 ~loc:(v 0) entry })) in
  Alcotest.(check bool) "the read returns the reply" true
    (acts = [ P.Read_done { node = 1; loc = v 0; entry } ]);
  ((stats st 1).stale_drops, Node.lookup (P.node st 1) (v 0) <> None)

let test_stale_install_guard () =
  Alcotest.(check (pair int bool)) "guarded: dropped, not cached" (1, false)
    (stale_install Config.default);
  Alcotest.(check (pair int bool)) "figure4-literal: cached" (0, true)
    (stale_install (Config.with_mutation Config.Figure4_literal Config.default))

let test_degraded_shadow_read () =
  let st = client_state ~detector:Gen.default_detector () in
  (* Nodes 1 and 2 tick long after the last beat: both suspect node 0. *)
  ignore (P.step st (P.Hb_tick { node = 1; now = 100.0 }));
  ignore (P.step st (P.Hb_tick { node = 2; now = 100.0 }));
  (match snd (P.step st (P.Issue_read { node = 1; loc = v 0 })) with
  | [ P.Read_done { node = 1; entry; _ } ] ->
      Alcotest.(check bool) "the backup reads its own shadow" true (Wid.is_initial entry.Stamped.wid)
  | _ -> Alcotest.fail "the backup completes the read locally");
  Alcotest.(check int) "a shadow read" 1 (P.shadow_reads st);
  let acts = snd (P.step st (P.Issue_read { node = 2; loc = v 0 })) in
  Alcotest.(check bool) "anyone else asks the backup" true
    (sends acts = [ (1, "SH_READ", Message.Shadow_read_req { req = 0; loc = v 0 }) ]);
  let entry = entry_from ~node:0 ~seq:0 ~clock:[| 1; 0; 0 |] 7 in
  let acts =
    snd
      (P.step st
         (P.Reply_taken
            { node = 2; req = 0; msg = Message.Shadow_read_reply { req = 0; loc = v 0; entry } }))
  in
  Alcotest.(check bool) "its reply completes the read" true
    (acts = [ P.Read_done { node = 2; loc = v 0; entry } ]);
  Alcotest.(check int) "two shadow reads" 2 (P.shadow_reads st);
  Alcotest.(check bool) "installed transiently" true (Node.lookup (P.node st 2) (v 0) = None)

let test_write_reply () =
  let st = client_state () in
  let write value =
    match snd (P.step st (P.Issue_write { node = 1; loc = v 0; value = Value.Int value })) with
    | [ P.Write_stamped { writer = None; entry; _ }; P.Park { req; _ }; P.Send { dst = 0; kind = "WRITE"; _ } ]
      ->
        (req, entry)
    | _ -> Alcotest.fail "a remote write is stamped, parked and shipped"
  in
  let reply (req, (entry : Stamped.t)) ~accepted stored =
    snd
      (P.step st
         (P.Reply_taken
            {
              node = 1;
              req;
              msg = Message.Write_reply { req; loc = v 0; accepted; entry = stored; digest = [] };
            }))
    = [ P.Write_done { node = 1; wid = entry.wid; accepted } ]
  in
  let first = write 1 in
  let certified = entry_from ~node:1 ~seq:0 ~clock:[| 1; 1; 0 |] 1 in
  Alcotest.(check bool) "accepted" true (reply first ~accepted:true certified);
  Alcotest.(check bool) "the owner's entry is adopted" true
    (Node.lookup (P.node st 1) (v 0) = Some certified);
  Alcotest.(check bool) "rejected" true (reply (write 2) ~accepted:false certified);
  Alcotest.(check (pair int int)) "writes_remote, writes_rejected" (2, 1)
    ((stats st 1).writes_remote, (stats st 1).writes_rejected)

let test_crashed_sends_nothing () =
  let st = client_state () in
  ignore (P.step st (P.Issue_read { node = 1; loc = v 0 }));
  ignore (P.step st (P.Issue_read { node = 1; loc = v 2 }));
  (* A live node retries under a fresh tag and counts the attempt. *)
  let acts = snd (P.step st (P.Rpc_timeout { node = 1; req = 0; retry = true })) in
  Alcotest.(check int) "a live node retries" 1 (List.length (sends acts));
  ignore (P.step st (P.Crash { node = 1 }));
  let acts = snd (P.step st (P.Rpc_timeout { node = 1; req = 2; retry = true })) in
  Alcotest.(check bool) "no retry from a crashed node" true
    (acts = [ P.Gave_up { node = 1; dst = 0; attempts = 2 } ]);
  let stale = Message.Stale_epoch { req = 1; base = 2; epoch = 1; serving = 0 } in
  let acts = snd (P.step st (P.Reply_taken { node = 1; req = 1; msg = stale })) in
  Alcotest.(check bool) "no redirect either" true
    (acts = [ P.Gave_up { node = 1; dst = 2; attempts = 1 } ]);
  Alcotest.(check int) "and none counted" 0 (P.redirects st)

let test_crash_wakes_owner_writers () =
  (* Failover on: an owner write parks on its shadow ack until the crash. *)
  let st = client_state ~detector:Gen.default_detector () in
  let token acts = List.find_map (function P.Write_stamped { writer; _ } -> writer | _ -> None) acts in
  let first = token (snd (P.step st (P.Issue_write { node = 0; loc = v 0; value = Value.Int 1 }))) in
  let second = token (snd (P.step st (P.Issue_write { node = 0; loc = v 3; value = Value.Int 2 }))) in
  Alcotest.(check (pair (option int) (option int))) "core-allocated tokens" (Some 0, Some 1)
    (first, second);
  Alcotest.(check bool) "the crash wakes both, in order" true
    (snd (P.step st (P.Crash { node = 0 }))
    = [ P.Wake_writer { node = 0; writer = 0 }; P.Wake_writer { node = 0; writer = 1 } ])

let suite =
  [
    Alcotest.test_case "deterministic replay" `Quick test_deterministic_replay;
    Alcotest.test_case "tracing transparent" `Quick test_tracing_transparent;
    Alcotest.test_case "crashed nodes drop" `Quick test_crashed_nodes_drop;
    Alcotest.test_case "client read hit" `Quick test_read_hit;
    Alcotest.test_case "client read miss" `Quick test_read_miss;
    Alcotest.test_case "client follows stale epochs" `Quick test_stale_epoch_redirects;
    Alcotest.test_case "client stale-install guard" `Quick test_stale_install_guard;
    Alcotest.test_case "client degraded shadow read" `Quick test_degraded_shadow_read;
    Alcotest.test_case "client write reply" `Quick test_write_reply;
    Alcotest.test_case "crashed client sends nothing" `Quick test_crashed_sends_nothing;
    Alcotest.test_case "crash wakes owner writers" `Quick test_crash_wakes_owner_writers;
  ]
