(* Chaos soak: real application workloads over lossy, duplicating links with
   the reliable transport, RPC timeouts and crash-stop recovery interposed.
   Every run must complete (no process left blocked), stay causally correct,
   and reproduce bit-identically from its seed. *)

module Chaos = Dsm_apps.Chaos
module Workload = Dsm_apps.Workload
module Reliable = Dsm_net.Reliable
module Cluster = Dsm_causal.Cluster
module Check = Dsm_checker.Causal_check

let knobs ?(drop = 0.05) ?(duplicate = 0.01) () =
  { Chaos.default_knobs with Chaos.drop; duplicate }

let assert_healthy name (r : Chaos.report) =
  Alcotest.(check bool) (name ^ ": causally correct") true r.Chaos.causal_ok;
  Alcotest.(check (list (pair string (float 0.0))))
    (name ^ ": no process left blocked") [] r.Chaos.unfinished;
  Alcotest.(check int) (name ^ ": nothing abandoned") 0 r.Chaos.transport.Reliable.gave_up;
  List.iter
    (fun (k, v) ->
      if String.length k >= 7 && String.sub k 0 7 = "failed:" then
        Alcotest.failf "%s: process %s raised: %s" name k v)
    r.Chaos.notes

let test_mix_soak () =
  let r = Chaos.run ~knobs:(knobs ()) ~seed:2025L "mix" in
  assert_healthy "mix" r;
  Alcotest.(check bool) "loss actually injected" true (r.Chaos.dropped > 0);
  Alcotest.(check bool) "transport worked for it" true
    (r.Chaos.transport.Reliable.retransmissions > 0)

let test_dictionary_soak () =
  let r = Chaos.run ~knobs:(knobs ()) ~seed:5L ~clients:4 ~ops:6 "dictionary" in
  assert_healthy "dictionary" r;
  Alcotest.(check (option string))
    "all views converged" (Some "true")
    (List.assoc_opt "views_converged" r.Chaos.notes)

let test_solver_soak () =
  let r = Chaos.run ~knobs:(knobs ()) ~seed:3L ~clients:6 ~ops:4 "solver" in
  assert_healthy "solver" r;
  Alcotest.(check (option string))
    "still bit-exact Jacobi" (Some "true")
    (List.assoc_opt "bit_exact" r.Chaos.notes)

let test_heavy_loss_mix () =
  (* 10% loss, 5% duplication — the top of the issue's range. *)
  let r = Chaos.run ~knobs:(knobs ~drop:0.10 ~duplicate:0.05 ()) ~seed:77L "mix" in
  assert_healthy "heavy mix" r;
  Alcotest.(check bool) "duplicates injected and suppressed" true
    (r.Chaos.transport.Reliable.dup_dropped > 0)

let test_crash_restart_soak () =
  let r = Chaos.run ~knobs:(knobs ()) ~seed:11L "crash-restart" in
  assert_healthy "crash-restart" r;
  Alcotest.(check int) "one crash injected" 1 r.Chaos.crashes

let test_crash_restart_online_windowed () =
  (* The checker-leak half of this PR: a crash-restart soak with the
     {e windowed} online checker riding along must end with (almost) no
     reads still pending — reads from a crashed writer's unannounced wids
     are given up (note_crashed / window retirement), not leaked — and the
     windowed verdict must still be clean on the real protocol. *)
  let knobs =
    { (knobs ()) with Chaos.online_check = true; online_window = Some 64 }
  in
  let r = Chaos.run ~knobs ~seed:11L ~ops:60 "crash-restart" in
  assert_healthy "crash-restart windowed" r;
  Alcotest.(check (option string)) "windowed online clean" None r.Chaos.online_violation;
  let note name = int_of_string (List.assoc name r.Chaos.notes) in
  Alcotest.(check bool) "online saw the workload" true (note "online_ops" > 100);
  Alcotest.(check int) "no pending-read leak" 0 (note "online_pending")

let test_determinism () =
  (* Same (scenario, knobs, seed) must reproduce the identical report:
     identical history size, message counts and retransmission counts. *)
  List.iter
    (fun scenario ->
      let run () = Chaos.run ~knobs:(knobs ()) ~seed:42L scenario in
      let r1 = run () and r2 = run () in
      Alcotest.(check int) (scenario ^ ": same ops") r1.Chaos.ops r2.Chaos.ops;
      Alcotest.(check int) (scenario ^ ": same messages") r1.Chaos.messages r2.Chaos.messages;
      Alcotest.(check int)
        (scenario ^ ": same retransmissions")
        r1.Chaos.transport.Reliable.retransmissions
        r2.Chaos.transport.Reliable.retransmissions;
      Alcotest.(check (float 0.0)) (scenario ^ ": same sim time") r1.Chaos.sim_time
        r2.Chaos.sim_time)
    Chaos.scenarios

let test_histories_identical_across_runs () =
  let run () =
    let outcome, _ =
      Workload.run_causal ~seed:9L
        ~fault:(Dsm_net.Network.fault ~drop:0.05 ~duplicate:0.01 ())
        ~reliability:Reliable.default_config
        ~rpc:{ Cluster.timeout = 100.0; retries = 5 }
        Workload.default_spec
    in
    Dsm_memory.History.to_string outcome.Workload.history
  in
  Alcotest.(check string) "bit-identical histories" (run ()) (run ())

let test_fault_free_chaos_is_quiet () =
  (* With zero drop/duplicate the reliable layer must be pure overhead:
     no retransmissions, no duplicates, nothing reordered. *)
  let r = Chaos.run ~knobs:(knobs ~drop:0.0 ~duplicate:0.0 ()) ~seed:1L "mix" in
  assert_healthy "quiet" r;
  Alcotest.(check int) "no retransmissions" 0 r.Chaos.transport.Reliable.retransmissions;
  Alcotest.(check int) "no duplicates" 0 r.Chaos.transport.Reliable.dup_dropped;
  Alcotest.(check int) "nothing dropped" 0 r.Chaos.dropped

let test_online_clean_on_real_protocol () =
  (* The online checker riding along must agree the real protocol is
     correct, scenario by scenario. *)
  List.iter
    (fun scenario ->
      let knobs = { (knobs ()) with Chaos.online_check = true } in
      let r = Chaos.run ~knobs ~seed:13L scenario in
      Alcotest.(check bool) (scenario ^ ": online ran") true r.Chaos.online_checked;
      Alcotest.(check (option string))
        (scenario ^ ": online clean") None r.Chaos.online_violation;
      Alcotest.(check bool) (scenario ^ ": healthy") true (Chaos.healthy r))
    [ "mix"; "solver"; "crash-restart" ]

let test_online_catches_injected_bug () =
  (* Disable the Figure-4 invalidation rule: the solver's handshake then
     reads stale phase values it provably should not, and the online
     checker must flag the run mid-flight — on every seed, and in
     agreement with the post-hoc checker. *)
  List.iter
    (fun seed ->
      let knobs =
        {
          (knobs ()) with
          Chaos.online_check = true;
          mutation = Dsm_causal.Config.Skip_invalidation;
        }
      in
      let r = Chaos.run ~knobs ~seed "solver" in
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld: online violation found" seed)
        true
        (r.Chaos.online_violation <> None);
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld: post-hoc agrees" seed)
        false r.Chaos.causal_ok;
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld: run unhealthy" seed)
        false (Chaos.healthy r))
    [ 1L; 2L; 3L ]

let test_batching_soak () =
  (* The batching/ack-coalescing transport must preserve every health
     property the default transport has — same workload, same seeds, with
     the online checker riding along — while moving strictly fewer
     physical frames for (almost exactly) the same logical message
     count. *)
  List.iter
    (fun seed ->
      let run reliability =
        let knobs =
          { (knobs ()) with Chaos.reliability; online_check = true }
        in
        Chaos.run ~knobs ~seed "mix"
      in
      let off = run Reliable.default_config in
      let on_ = run Reliable.batching_config in
      assert_healthy (Printf.sprintf "seed %Ld batching off" seed) off;
      assert_healthy (Printf.sprintf "seed %Ld batching on" seed) on_;
      Alcotest.(check (option string))
        (Printf.sprintf "seed %Ld: online clean with batching" seed)
        None on_.Chaos.online_violation;
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld: fewer physical frames (%d vs %d)" seed
           on_.Chaos.messages off.Chaos.messages)
        true
        (on_.Chaos.messages < off.Chaos.messages);
      (* Logical counts may differ only through RPC retries drawing
         different loss patterns; they must stay in the same ballpark, not
         track the frame reduction. *)
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld: logical count comparable (%d vs %d)" seed
           on_.Chaos.logical_messages off.Chaos.logical_messages)
        true
        (abs (on_.Chaos.logical_messages - off.Chaos.logical_messages)
        <= off.Chaos.logical_messages / 4))
    [ 1L; 2L; 3L; 4L; 5L ]

let test_batching_off_reports_identical_wire () =
  (* Belt and braces for the golden traces: a cluster built with the
     default config must produce the identical report whether or not the
     batching code exists — pinned by comparing full report fields across
     two runs of the same seed (the determinism test covers run-to-run;
     this pins messages = logical with no batch frames at defaults). *)
  let r = Chaos.run ~knobs:(knobs ()) ~seed:2025L "mix" in
  (* [messages] counts frames that actually went live: every logical
     payload's first transmit, every retransmission and explicit ack, plus
     injected duplicates, minus the frames the fault model swallowed at
     the sender. *)
  Alcotest.(check int) "every frame is one logical payload + acks"
    r.Chaos.messages
    (r.Chaos.logical_messages + r.Chaos.transport.Reliable.acks
    + r.Chaos.transport.Reliable.retransmissions + r.Chaos.duplicated
    - r.Chaos.dropped);
  Alcotest.(check int) "logical = transport sent counter"
    r.Chaos.logical_messages r.Chaos.transport.Reliable.sent

let test_cluster_stats_consistent () =
  (* The unified stats record must agree with the bespoke accessor-based
     report fields it consolidates. *)
  let r = Chaos.run ~knobs:(knobs ()) ~seed:42L "owner-crash" in
  let s = r.Chaos.stats in
  Alcotest.(check int) "wire_dropped" r.Chaos.dropped s.Dsm_causal.Node_stats.wire_dropped;
  Alcotest.(check int) "duplicated" r.Chaos.duplicated s.Dsm_causal.Node_stats.wire_duplicated;
  Alcotest.(check int) "retransmissions"
    r.Chaos.transport.Reliable.retransmissions
    s.Dsm_causal.Node_stats.retransmissions;
  Alcotest.(check int) "rpc_timeouts" r.Chaos.rpc_timeouts s.Dsm_causal.Node_stats.rpc_timeouts;
  Alcotest.(check int) "stale_replies" r.Chaos.stale_replies s.Dsm_causal.Node_stats.stale_replies;
  Alcotest.(check int) "takeovers" r.Chaos.takeovers s.Dsm_causal.Node_stats.takeovers;
  Alcotest.(check int) "suspects" r.Chaos.suspects s.Dsm_causal.Node_stats.suspects;
  Alcotest.(check int) "unsuspects" r.Chaos.unsuspects s.Dsm_causal.Node_stats.unsuspects

let test_shard_seeds_healthy () =
  (* Node 0's client crash-stops its own node once its phase 2 is over, so
     the crash never lands mid-operation: a write the owner certified for
     a client whose operation then failed would be missing from the
     history when someone reads it. *)
  for seed = 1 to 20 do
    let knobs = { (knobs ()) with Chaos.online_check = true } in
    let r = Chaos.run ~knobs ~seed:(Int64.of_int seed) "shard" in
    let name = Printf.sprintf "seed %d" seed in
    Alcotest.(check bool) (name ^ ": healthy") true (Chaos.healthy r);
    Alcotest.(check int) (name ^ ": one crash injected") 1 r.Chaos.crashes;
    Alcotest.(check (option string))
      (name ^ ": fault isolated") (Some "true")
      (List.assoc_opt "fault_isolated" r.Chaos.notes)
  done

(* Every scenario of the table at ten seeds with the online checker on, one
   line per run: scenario, seed, health, recorded ops, failed processes and
   an MD5 of the whole report, so any byte change in any report moves its
   row.  bench/chaos_matrix.golden pins the lines.  On a mismatch the
   regenerated file is written to the test's working directory (under
   _build) and the first differing row is named: a deliberate update is one
   copy. *)
(* Past the 6,000-op cap the post-hoc causal check does not run, and the
   report says so instead of claiming the history causal.  This run also
   trips the online checker, so "true" there was wrong as well as unproven. *)
let test_long_history_reported_skipped () =
  let knobs =
    {
      (knobs ~drop:0.1 ()) with
      Chaos.detector = Some { Dsm_causal.Detector.period = 3.0; suspect_after = 2 };
    }
  in
  let r = Chaos.run ~knobs ~seed:1L "solver" in
  Alcotest.(check int) "recorded ops" 6290 r.Chaos.ops;
  let text = Format.asprintf "%a" Chaos.pp_report r in
  Alcotest.(check bool) "report says skipped" true
    (Str_contains.contains text "causally correct:  skipped (6290 ops)")

let matrix_seeds = [ 1; 2; 3; 4; 5; 7; 8; 9; 11; 16 ]

let matrix_line scenario seed =
  let knobs = { Chaos.default_knobs with Chaos.online_check = true } in
  let r = Chaos.run ~knobs ~seed:(Int64.of_int seed) scenario in
  let failed =
    List.length
      (List.filter (fun (k, _) -> String.starts_with ~prefix:"failed:" k) r.Chaos.notes)
  in
  Printf.sprintf "%s %d %s ops=%d failed=%d %s" scenario seed
    (if Chaos.healthy r then "OK" else "UNHEALTHY")
    r.Chaos.ops failed
    (Digest.to_hex (Digest.string (Format.asprintf "%a" Chaos.pp_report r)))

let rec find_up dir rel =
  let candidate = Filename.concat dir rel in
  if Sys.file_exists candidate then Some candidate
  else
    let parent = Filename.dirname dir in
    if parent = dir then None else find_up parent rel

let test_chaos_matrix_pinned () =
  let header = "# scenario seed health ops failed md5(pp_report) -- online check on" in
  let lines =
    header
    :: List.concat_map
         (fun s -> List.map (matrix_line s) matrix_seeds)
         Chaos.scenarios
  in
  let golden =
    match find_up (Sys.getcwd ()) (Filename.concat "bench" "chaos_matrix.golden") with
    | None -> []
    | Some path ->
        In_channel.with_open_text path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
  in
  if golden <> lines then begin
    let out = Filename.concat (Sys.getcwd ()) "chaos_matrix.golden" in
    Out_channel.with_open_text out (fun oc ->
        List.iter (fun l -> output_string oc (l ^ "\n")) lines);
    let rec first_diff = function
      | g :: gs, l :: ls -> if g = l then first_diff (gs, ls) else (g, l)
      | g :: _, [] -> (g, "(missing)")
      | [], l :: _ -> ("(missing)", l)
      | [], [] -> ("", "")
    in
    let want, got = first_diff (golden, lines) in
    Alcotest.failf
      "chaos matrix differs from bench/chaos_matrix.golden\n  golden: %s\n  run:    %s\nregenerated file: %s"
      want got out
  end

let suite =
  [
    Alcotest.test_case "mix soak at 5% loss" `Quick test_mix_soak;
    Alcotest.test_case "dictionary soak" `Quick test_dictionary_soak;
    Alcotest.test_case "solver soak" `Quick test_solver_soak;
    Alcotest.test_case "heavy loss (10%)" `Quick test_heavy_loss_mix;
    Alcotest.test_case "crash-restart soak" `Quick test_crash_restart_soak;
    Alcotest.test_case "crash-restart, windowed online checker" `Quick
      test_crash_restart_online_windowed;
    Alcotest.test_case "determinism" `Slow test_determinism;
    Alcotest.test_case "identical histories" `Quick test_histories_identical_across_runs;
    Alcotest.test_case "fault-free is quiet" `Quick test_fault_free_chaos_is_quiet;
    Alcotest.test_case "online check clean on real protocol" `Quick
      test_online_clean_on_real_protocol;
    Alcotest.test_case "online check catches injected bug" `Quick
      test_online_catches_injected_bug;
    Alcotest.test_case "batching soak, 5 seeds on/off" `Slow test_batching_soak;
    Alcotest.test_case "batching off: wire = logical + acks" `Quick
      test_batching_off_reports_identical_wire;
    Alcotest.test_case "cluster stats consistent" `Quick test_cluster_stats_consistent;
    Alcotest.test_case "shard seeds 1-20 healthy" `Quick test_shard_seeds_healthy;
    Alcotest.test_case "chaos matrix pinned" `Quick test_chaos_matrix_pinned;
    Alcotest.test_case "long history reported skipped" `Quick
      test_long_history_reported_skipped;
  ]
