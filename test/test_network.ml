(* Tests for Dsm_net: latency models and the FIFO reliable transport. *)

module Engine = Dsm_sim.Engine
module Latency = Dsm_net.Latency
module Network = Dsm_net.Network
module Prng = Dsm_util.Prng

let test_latency_constant () =
  let p = Prng.create 1L in
  Alcotest.(check (float 0.0)) "constant" 2.0 (Latency.sample (Latency.Constant 2.0) p)

let test_latency_positive () =
  let p = Prng.create 1L in
  Alcotest.(check bool) "clamped" true (Latency.sample (Latency.Constant (-5.0)) p > 0.0)

let test_latency_uniform () =
  let p = Prng.create 2L in
  for _ = 1 to 1000 do
    let v = Latency.sample (Latency.Uniform (1.0, 3.0)) p in
    Alcotest.(check bool) "in range" true (v >= 1.0 && v <= 3.0)
  done

let test_latency_exponential () =
  let p = Prng.create 3L in
  for _ = 1 to 1000 do
    let v = Latency.sample (Latency.Exponential { base = 2.0; mean = 1.0 }) p in
    Alcotest.(check bool) "above base" true (v >= 2.0)
  done

let setup ?(nodes = 3) ?latency () =
  let e = Engine.create () in
  let net = Network.create e ~nodes ?latency () in
  (e, net)

let test_delivery () =
  let e, net = setup ~latency:(Latency.Constant 1.0) () in
  let got = ref [] in
  Network.set_handler net ~node:1 (fun ~src msg -> got := (src, msg) :: !got);
  Network.send net ~src:0 ~dst:1 "hello";
  Engine.run e;
  Alcotest.(check bool) "delivered" true (!got = [ (0, "hello") ])

let test_fifo_per_link_even_with_reordering_latency () =
  (* A huge latency spread would reorder messages; FIFO must prevail. *)
  let e = Engine.create () in
  let net = Network.create e ~nodes:2 ~latency:(Latency.Uniform (0.1, 50.0)) () in
  let got = ref [] in
  Network.set_handler net ~node:1 (fun ~src:_ msg -> got := msg :: !got);
  for i = 1 to 50 do
    Network.send net ~src:0 ~dst:1 i
  done;
  Engine.run e;
  Alcotest.(check (list int)) "in order" (List.init 50 (fun i -> i + 1)) (List.rev !got)

let test_counters () =
  let e, net = setup ~latency:(Latency.Constant 1.0) () in
  Network.set_handler net ~node:1 (fun ~src:_ _ -> ());
  Network.set_handler net ~node:2 (fun ~src:_ _ -> ());
  Network.send net ~src:0 ~dst:1 ~kind:"A" ~size:10 "x";
  Network.send net ~src:0 ~dst:2 ~kind:"B" ~size:5 "y";
  Network.send net ~src:1 ~dst:2 ~kind:"A" ~size:1 "z";
  (* A kind built at run time is not the literal's string, but counts
     under the same entry. *)
  Network.send net ~src:2 ~dst:1 ~kind:(String.make 1 'A') ~size:4 "w";
  Engine.run e;
  let c = Network.counters net in
  Alcotest.(check int) "total" 4 c.Network.total;
  Alcotest.(check int) "bytes" 20 c.Network.bytes;
  Alcotest.(check (list (pair string int))) "kinds" [ ("A", 3); ("B", 1) ] c.Network.by_kind;
  Alcotest.(check (array int)) "sent_by" [| 2; 1; 1 |] c.Network.sent_by;
  Alcotest.(check (array int)) "received_by" [| 0; 2; 2 |] c.Network.received_by

let test_reset_counters () =
  let e, net = setup () in
  Network.set_handler net ~node:1 (fun ~src:_ _ -> ());
  Network.send net ~src:0 ~dst:1 "x";
  Engine.run e;
  Network.reset_counters net;
  let c = Network.counters net in
  Alcotest.(check int) "window empty" 0 c.Network.total;
  Alcotest.(check (list (pair string int))) "no kinds" [] c.Network.by_kind;
  Alcotest.(check int) "lifetime kept" 1 (Network.lifetime_total net)

let test_self_send_is_local () =
  let e, net = setup () in
  let got = ref false in
  Network.set_handler net ~node:0 (fun ~src msg ->
      got := src = 0 && msg = "me");
  Network.send net ~src:0 ~dst:0 "me";
  Engine.run e;
  Alcotest.(check bool) "delivered locally" true !got;
  let c = Network.counters net in
  Alcotest.(check int) "not a network message" 0 c.Network.total;
  Alcotest.(check int) "counted as local" 1 c.Network.local

let test_link_override () =
  let e = Engine.create () in
  let net = Network.create e ~nodes:2 ~latency:(Latency.Constant 1.0) () in
  Network.set_link_latency net ~src:0 ~dst:1 (Latency.Constant 10.0);
  let at = ref 0.0 in
  Network.set_handler net ~node:1 (fun ~src:_ _ -> at := Engine.now e);
  Network.set_handler net ~node:0 (fun ~src:_ _ -> at := Engine.now e);
  Network.send net ~src:0 ~dst:1 ();
  Engine.run e;
  Alcotest.(check (float 1e-6)) "slow link" 10.0 !at;
  (* The override is per directed link: the reverse link keeps the
     default. *)
  Network.send net ~src:1 ~dst:0 ();
  Engine.run e;
  Alcotest.(check (float 1e-6)) "reverse link at default latency" 11.0 !at

let test_missing_handler () =
  let e, net = setup () in
  Network.send net ~src:0 ~dst:1 "x";
  Alcotest.check_raises "fails at delivery" (Failure "Network: node 1 has no handler installed")
    (fun () -> Engine.run e)

let test_bad_node () =
  let _, net = setup () in
  Alcotest.check_raises "src oob" (Invalid_argument "Network: src node 9 out of range")
    (fun () -> Network.send net ~src:9 ~dst:0 "x")

let test_in_flight () =
  let e, net = setup ~latency:(Latency.Constant 1.0) () in
  Network.set_handler net ~node:1 (fun ~src:_ _ -> ());
  Network.send net ~src:0 ~dst:1 "x";
  Alcotest.(check int) "one in flight" 1 (Network.in_flight net);
  Engine.run e;
  Alcotest.(check int) "drained" 0 (Network.in_flight net)

let test_handlers_can_reply () =
  let e, net = setup ~latency:(Latency.Constant 1.0) () in
  let finished = ref 0.0 in
  Network.set_handler net ~node:1 (fun ~src msg ->
      if msg = "ping" then Network.send net ~src:1 ~dst:src "pong");
  Network.set_handler net ~node:0 (fun ~src:_ msg ->
      if msg = "pong" then finished := Engine.now e);
  Network.send net ~src:0 ~dst:1 "ping";
  Engine.run e;
  Alcotest.(check (float 1e-6)) "round trip" 2.0 !finished

let test_tracer () =
  let e, net = setup ~latency:(Latency.Constant 1.0) () in
  Network.set_handler net ~node:1 (fun ~src:_ _ -> ());
  let seen = ref [] in
  Network.set_tracer net (Some (fun ~time ~src ~dst ~kind msg ->
      seen := (time, src, dst, kind, msg) :: !seen));
  Network.send net ~src:0 ~dst:1 ~kind:"PING" "a";
  Network.set_tracer net None;
  Network.send net ~src:0 ~dst:1 ~kind:"PING" "b";
  Engine.run e;
  match !seen with
  | [ (time, 0, 1, "PING", "a") ] -> Alcotest.(check (float 0.0)) "at send time" 0.0 time
  | _ -> Alcotest.fail "tracer saw the wrong events"

(* One frame sent and delivered on a fault-free link with no per-link
   override, the path of every Cluster message.  Frames go one at a time,
   each delivered before the next is sent, so the engine's queue never
   grows.  [Gc.minor_words] is exact; [Gc.counters] on OCaml 5.1 reads
   the words allocated since the last minor collection at an eighth of
   their number. *)
let frame_words_bound = 22.0

let test_frame_allocation () =
  let e = Engine.create () in
  let net = Network.create e ~nodes:2 () in
  let got = ref 0 in
  Network.set_handler net ~node:1 (fun ~src:_ _ -> incr got);
  (* Variables, not constants, as at the Cluster's send site: a constant
     optional argument is a static [Some] and would hide that box. *)
  let kind = Sys.opaque_identity "DATA" and size = Sys.opaque_identity 8 in
  let frame () =
    Network.send net ~src:0 ~dst:1 ~kind ~size ();
    while Engine.step e do
      ()
    done
  in
  for _ = 1 to 100 do
    frame ()
  done;
  let frames = 20_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to frames do
    frame ()
  done;
  let per_frame = (Gc.minor_words () -. w0) /. float_of_int frames in
  Alcotest.(check int) "every frame delivered" (frames + 100) !got;
  if per_frame > frame_words_bound then
    Alcotest.failf "a frame allocated %.2f minor words (bound %.0f)" per_frame frame_words_bound

(* ------------------------------------------------------------------ *)
(* Latency.sample properties                                           *)
(* ------------------------------------------------------------------ *)

let arb_latency =
  let open QCheck.Gen in
  let gen =
    let* which = int_range 0 2 in
    match which with
    | 0 ->
        let* d = float_range (-5.0) 20.0 in
        return (Latency.Constant d)
    | 1 ->
        let* lo = float_range 0.0 10.0 in
        let* span = float_range 0.0 10.0 in
        return (Latency.Uniform (lo, lo +. span))
    | _ ->
        let* base = float_range 0.0 5.0 in
        let* mean = float_range 0.1 10.0 in
        return (Latency.Exponential { base; mean })
  in
  QCheck.make gen ~print:(Format.asprintf "%a" Latency.pp)

let prop_sample_strictly_positive =
  QCheck.Test.make ~name:"Latency.sample is strictly positive" ~count:200 arb_latency
    (fun model ->
      let p = Prng.create 11L in
      let ok = ref true in
      for _ = 1 to 100 do
        if Latency.sample model p <= 0.0 then ok := false
      done;
      !ok)

let prop_uniform_within_bounds =
  QCheck.Test.make ~name:"Uniform samples stay within [lo,hi]"
    ~count:100
    QCheck.(pair (float_bound_inclusive 10.0) (float_bound_inclusive 10.0))
    (fun (lo, span) ->
      let model = Latency.Uniform (lo, lo +. span) in
      let p = Prng.create 17L in
      let ok = ref true in
      for _ = 1 to 200 do
        let v = Latency.sample model p in
        (* The positivity clamp may lift a sample above a non-positive lo. *)
        if v > lo +. span +. 1e-9 || (v < lo && lo > 0.0) then ok := false
      done;
      !ok)

let test_exponential_mean_under_fixed_seed () =
  (* Fixed seed, many samples: the empirical mean of the exponential tail
     must land within a few percent of the configured mean. *)
  let base = 2.0 and mean = 5.0 in
  let p = Prng.create 42L in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. (Latency.sample (Latency.Exponential { base; mean }) p -. base)
  done;
  let empirical = !sum /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "empirical mean %.3f within 5%% of %.1f" empirical mean)
    true
    (Float.abs (empirical -. mean) /. mean < 0.05)

(* ------------------------------------------------------------------ *)
(* Fault model: probabilistic drop and duplication                     *)
(* ------------------------------------------------------------------ *)

let test_fault_validation () =
  Alcotest.check_raises "drop > 1" (Invalid_argument "Network.fault: drop must be in [0,1]")
    (fun () -> ignore (Network.fault ~drop:1.5 ()));
  Alcotest.check_raises "negative duplicate"
    (Invalid_argument "Network.fault: duplicate must be in [0,1]") (fun () ->
      ignore (Network.fault ~duplicate:(-0.1) ()))

let run_faulty ~fault ~n ~seed =
  let e = Engine.create () in
  let net = Network.create e ~nodes:2 ~latency:(Latency.Constant 1.0) ~fault ~seed () in
  let got = ref 0 in
  Network.set_handler net ~node:1 (fun ~src:_ _ -> incr got);
  for i = 1 to n do
    Network.send net ~src:0 ~dst:1 i
  done;
  Engine.run e;
  (net, !got)

let test_drop_fault_loses_messages () =
  let n = 400 in
  let net, got = run_faulty ~fault:(Network.fault ~drop:0.3 ()) ~n ~seed:5L in
  let dropped = Network.dropped net in
  Alcotest.(check int) "dropped + delivered = sent" n (dropped + got);
  (* 30% of 400 with a fixed seed: the count is deterministic and must be
     in the plausible band. *)
  Alcotest.(check bool) "plausible loss rate" true (dropped > 60 && dropped < 180);
  Alcotest.(check int) "per-link accounting agrees" dropped
    (Network.dropped_by_link net ~src:0 ~dst:1);
  Alcotest.(check int) "other links clean" 0 (Network.dropped_by_link net ~src:1 ~dst:0)

let test_duplicate_fault_injects_copies () =
  let n = 400 in
  let net, got = run_faulty ~fault:(Network.fault ~duplicate:0.2 ()) ~n ~seed:6L in
  let duplicated = Network.duplicated net in
  Alcotest.(check bool) "duplicates injected" true (duplicated > 0);
  Alcotest.(check int) "every copy delivered" (n + duplicated) got

let test_per_link_fault_override () =
  let e = Engine.create () in
  let net = Network.create e ~nodes:3 ~latency:(Latency.Constant 1.0) ~seed:7L () in
  let got = Array.make 3 0 in
  for node = 0 to 2 do
    Network.set_handler net ~node (fun ~src:_ _ -> got.(node) <- got.(node) + 1)
  done;
  Network.set_link_fault net ~src:0 ~dst:1 (Network.fault ~drop:1.0 ());
  for i = 1 to 20 do
    Network.send net ~src:0 ~dst:1 i;
    Network.send net ~src:0 ~dst:2 i
  done;
  Engine.run e;
  Alcotest.(check int) "lossy link lost everything" 0 got.(1);
  Alcotest.(check int) "clean link unaffected" 20 got.(2);
  Alcotest.(check int) "per-link drops" 20 (Network.dropped_by_link net ~src:0 ~dst:1);
  Network.clear_link_faults net;
  Network.send net ~src:0 ~dst:1 99;
  Engine.run e;
  Alcotest.(check int) "cleared override delivers again" 1 got.(1)

let test_fault_determinism () =
  let run () =
    let net, got = run_faulty ~fault:(Network.fault ~drop:0.2 ~duplicate:0.1 ()) ~n:200 ~seed:9L in
    (got, Network.dropped net, Network.duplicated net)
  in
  Alcotest.(check (triple int int int)) "same seed, same faults" (run ()) (run ())

let test_self_send_bypasses_faults () =
  let e = Engine.create () in
  let net =
    Network.create e ~nodes:2 ~fault:(Network.fault ~drop:1.0 ()) ~seed:1L ()
  in
  let got = ref 0 in
  Network.set_handler net ~node:0 (fun ~src:_ _ -> incr got);
  Network.send net ~src:0 ~dst:0 "me";
  Engine.run e;
  Alcotest.(check int) "self-send never dropped" 1 !got;
  Alcotest.(check int) "no drop counted" 0 (Network.dropped net)

let suite =
  [
    Alcotest.test_case "latency constant" `Quick test_latency_constant;
    Alcotest.test_case "latency positive" `Quick test_latency_positive;
    Alcotest.test_case "latency uniform" `Quick test_latency_uniform;
    Alcotest.test_case "latency exponential" `Quick test_latency_exponential;
    Alcotest.test_case "delivery" `Quick test_delivery;
    Alcotest.test_case "fifo per link" `Quick test_fifo_per_link_even_with_reordering_latency;
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "reset counters" `Quick test_reset_counters;
    Alcotest.test_case "self send" `Quick test_self_send_is_local;
    Alcotest.test_case "link override" `Quick test_link_override;
    Alcotest.test_case "missing handler" `Quick test_missing_handler;
    Alcotest.test_case "bad node" `Quick test_bad_node;
    Alcotest.test_case "in flight" `Quick test_in_flight;
    Alcotest.test_case "handler replies" `Quick test_handlers_can_reply;
    Alcotest.test_case "tracer" `Quick test_tracer;
    Alcotest.test_case "frame allocation" `Quick test_frame_allocation;
    QCheck_alcotest.to_alcotest prop_sample_strictly_positive;
    QCheck_alcotest.to_alcotest prop_uniform_within_bounds;
    Alcotest.test_case "exponential mean" `Quick test_exponential_mean_under_fixed_seed;
    Alcotest.test_case "fault validation" `Quick test_fault_validation;
    Alcotest.test_case "drop fault" `Quick test_drop_fault_loses_messages;
    Alcotest.test_case "duplicate fault" `Quick test_duplicate_fault_injects_copies;
    Alcotest.test_case "per-link fault override" `Quick test_per_link_fault_override;
    Alcotest.test_case "fault determinism" `Quick test_fault_determinism;
    Alcotest.test_case "self-send bypasses faults" `Quick test_self_send_bypasses_faults;
  ]
