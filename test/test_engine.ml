(* Tests for Dsm_sim.Engine: event ordering, determinism, limits, and the
   event queue against a list model. *)

module Engine = Dsm_sim.Engine

let test_runs_in_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule_at e 3.0 (fun () -> log := "c" :: !log);
  Engine.schedule_at e 1.0 (fun () -> log := "a" :: !log);
  Engine.schedule_at e 2.0 (fun () -> log := "b" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log)

let test_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule_at e 1.0 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_now_advances () =
  let e = Engine.create () in
  let seen = ref [] in
  Engine.schedule_at e 2.5 (fun () -> seen := Engine.now e :: !seen);
  Engine.schedule_at e 5.0 (fun () -> seen := Engine.now e :: !seen);
  Engine.run e;
  Alcotest.(check (list (float 0.0))) "times" [ 2.5; 5.0 ] (List.rev !seen)

let test_schedule_relative () =
  let e = Engine.create () in
  let fired_at = ref 0.0 in
  Engine.schedule_at e 10.0 (fun () ->
      Engine.schedule e ~delay:5.0 (fun () -> fired_at := Engine.now e));
  Engine.run e;
  Alcotest.(check (float 1e-9)) "relative" 15.0 !fired_at

let test_schedule_past_rejected () =
  let e = Engine.create () in
  Engine.schedule_at e 10.0 (fun () ->
      try
        Engine.schedule_at e 5.0 (fun () -> ());
        Alcotest.fail "expected rejection"
      with Invalid_argument _ -> ());
  Engine.run e

let test_negative_delay_rejected () =
  let e = Engine.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> Engine.schedule e ~delay:(-1.0) (fun () -> ()))

(* Regression: a NaN time used to be accepted and fire first ([Float.compare]
   puts NaN below every float); the clock then read NaN and every later
   past-time check was false. *)
let test_nan_rejected () =
  let e = Engine.create () in
  Alcotest.check_raises "NaN time" (Invalid_argument "Engine.schedule_at: time is NaN")
    (fun () -> Engine.schedule_at e Float.nan ignore);
  Alcotest.check_raises "NaN delay" (Invalid_argument "Engine.schedule: delay is NaN")
    (fun () -> Engine.schedule e ~delay:Float.nan ignore);
  Alcotest.(check int) "nothing queued" 0 (Engine.pending e);
  Engine.run e;
  Alcotest.(check (float 0.0)) "clock untouched" 0.0 (Engine.now e)

let test_run_until () =
  let e = Engine.create () in
  let fired = ref [] in
  List.iter (fun t -> Engine.schedule_at e t (fun () -> fired := t :: !fired)) [ 1.0; 2.0; 3.0 ];
  Engine.run_until e 2.0;
  Alcotest.(check (list (float 0.0))) "only <= 2" [ 1.0; 2.0 ] (List.rev !fired);
  Alcotest.(check int) "one pending" 1 (Engine.pending e);
  Alcotest.(check (float 0.0)) "clock at deadline" 2.0 (Engine.now e);
  Engine.run e;
  Alcotest.(check int) "drained" 0 (Engine.pending e)

(* Regression: a [run_until] whose queue drains before the deadline must
   still land the clock on the deadline, so a subsequent relative schedule
   measures its delay from the deadline — not from whenever the last event
   happened to fire.  (The old implementation only advanced the clock when
   events remained queued, so timers armed after an idle window fired
   early.) *)
let test_run_until_drained_clock () =
  let e = Engine.create () in
  Engine.schedule_at e 1.0 (fun () -> ());
  Engine.run_until e 10.0;
  Alcotest.(check int) "queue drained" 0 (Engine.pending e);
  Alcotest.(check (float 0.0)) "clock at deadline, not last event" 10.0 (Engine.now e);
  let fired_at = ref 0.0 in
  Engine.schedule e ~delay:5.0 (fun () -> fired_at := Engine.now e);
  Engine.run e;
  Alcotest.(check (float 1e-9)) "delay measured from deadline" 15.0 !fired_at;
  (* An empty run_until is pure time passage. *)
  Engine.run_until e 20.0;
  Alcotest.(check (float 0.0)) "idle window advances clock" 20.0 (Engine.now e)

let test_stop () =
  let e = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    Engine.schedule_at e 1.0 (fun () ->
        incr count;
        if !count = 3 then Engine.stop e)
  done;
  Engine.run e;
  Alcotest.(check int) "stopped after 3" 3 !count;
  Alcotest.(check int) "rest pending" 7 (Engine.pending e)

let test_step () =
  let e = Engine.create () in
  let hit = ref false in
  Engine.schedule_at e 1.0 (fun () -> hit := true);
  Alcotest.(check bool) "stepped" true (Engine.step e);
  Alcotest.(check bool) "fired" true !hit;
  Alcotest.(check bool) "empty now" false (Engine.step e)

let test_step_limit () =
  let e = Engine.create ~step_limit:100 () in
  let rec forever () = Engine.schedule e ~delay:1.0 forever in
  Engine.schedule e ~delay:1.0 forever;
  Alcotest.check_raises "limit"
    (Failure "Engine: step limit exceeded (livelock or runaway simulation?)") (fun () ->
      Engine.run e)

(* The limit counts dispatches over the engine's lifetime, not per run. *)
let test_step_limit_spans_runs () =
  let e = Engine.create ~step_limit:100 () in
  let burst () =
    for i = 1 to 60 do
      Engine.schedule e ~delay:(float_of_int i) ignore
    done
  in
  burst ();
  Engine.run e;
  Alcotest.(check int) "first run within the limit" 60 (Engine.events_processed e);
  burst ();
  Alcotest.check_raises "second run crosses it"
    (Failure "Engine: step limit exceeded (livelock or runaway simulation?)") (fun () ->
      Engine.run e);
  Alcotest.(check int) "raised on dispatch 101" 101 (Engine.events_processed e)

(* Regression: the queue used to keep every dispatched event's closure (and
   all it captured) reachable until its array cell was reused. *)
let test_fired_closure_released () =
  let e = Engine.create () in
  let w = Weak.create 1 in
  let[@inline never] arm () =
    let block = Bytes.make 64 'x' in
    Weak.set w 0 (Some block);
    Engine.schedule_at e 1.0 (fun () -> ignore (Sys.opaque_identity (Bytes.length block)))
  in
  arm ();
  Engine.run e;
  Gc.full_major ();
  Alcotest.(check int) "no events pending" 0 (Engine.pending e);
  Alcotest.(check bool) "closure released" false (Weak.check w 0)

let test_events_processed () =
  let e = Engine.create () in
  for i = 1 to 4 do
    Engine.schedule_at e (float_of_int i) (fun () -> ())
  done;
  Engine.run e;
  Alcotest.(check int) "count" 4 (Engine.events_processed e)

let test_cascading_events () =
  let e = Engine.create () in
  let depth = ref 0 in
  let rec cascade n = if n > 0 then Engine.schedule e ~delay:0.5 (fun () -> incr depth; cascade (n - 1)) in
  cascade 10;
  Engine.run e;
  Alcotest.(check int) "all cascaded" 10 !depth;
  Alcotest.(check (float 1e-9)) "time accumulated" 5.0 (Engine.now e)

(* A random script run against a list model sorted by (time, scheduling
   index).  Events are ids [0 ..]: a root is scheduled from outside the
   engine at [now + offset] when its stage starts, a child from its parent's
   handler at [~delay].  Stage [s] schedules its roots, then runs
   [run_until] to [deadlines.(s)]; a last stage runs to quiescence.  Times
   sit on a half-unit grid, so ties are common, and with over 1,000 events,
   hundreds of them queued at once, the queue grows several times. *)
type origin = Root of { stage : int; offset : float } | Child of { parent : int; delay : float }

type script = { events : origin array; deadlines : float array }

type record =
  | Dispatch of { id : int; now : float; pending : int; processed : int }
  | Settled of { now : float; pending : int; processed : int }

let gen_script =
  let open QCheck.Gen in
  let half = map (fun k -> float_of_int k /. 2.0) in
  let* deadlines = array_size (int_range 1 6) (half (int_range 0 16)) in
  let stages = Array.length deadlines + 1 in
  let* roots = int_range 600 1100 and* children = int_range 400 700 in
  let root =
    let* stage = oneof [ pure 0; int_range 0 (stages - 1) ] and* offset = half (int_range 0 6) in
    pure (Root { stage; offset })
  in
  let child id =
    let* parent = int_bound (id - 1) and* delay = oneofl [ 0.0; 0.0; 0.5; 1.5 ] in
    pure (Child { parent; delay })
  in
  let* roots = array_repeat roots root in
  let* children = flatten_a (Array.init children (fun j -> child (Array.length roots + j))) in
  pure { events = Array.append roots children; deadlines }

let print_script s =
  Printf.sprintf "%d events, deadlines [%s]" (Array.length s.events)
    (String.concat "; " (Array.to_list (Array.map string_of_float s.deadlines)))

(* Each event's children, in scheduling (id) order. *)
let children_of s =
  let children = Array.make (Array.length s.events) [] in
  for id = Array.length s.events - 1 downto 0 do
    match s.events.(id) with
    | Child { parent; delay } -> children.(parent) <- (id, delay) :: children.(parent)
    | Root _ -> ()
  done;
  children

(* Runs [s] on the engine or the model, whichever supplies the operations,
   and logs every dispatch and every stage's end. *)
let drive s ~now ~pending ~processed ~schedule_at ~schedule ~run_until ~run =
  let children = children_of s and log = ref [] in
  let rec fire id () =
    log := Dispatch { id; now = now (); pending = pending (); processed = processed () } :: !log;
    List.iter (fun (c, delay) -> schedule ~delay (fire c)) children.(id)
  in
  let last = Array.length s.deadlines in
  for stage = 0 to last do
    Array.iteri
      (fun id -> function
        | Root r when r.stage = stage -> schedule_at (now () +. r.offset) (fire id)
        | Root _ | Child _ -> ())
      s.events;
    if stage < last then run_until s.deadlines.(stage) else run ();
    log := Settled { now = now (); pending = pending (); processed = processed () } :: !log
  done;
  List.rev !log

let run_engine s =
  let e = Engine.create () in
  drive s
    ~now:(fun () -> Engine.now e)
    ~pending:(fun () -> Engine.pending e)
    ~processed:(fun () -> Engine.events_processed e)
    ~schedule_at:(Engine.schedule_at e) ~schedule:(Engine.schedule e)
    ~run_until:(Engine.run_until e)
    ~run:(fun () -> Engine.run e)

let run_model s =
  let queue = ref [] and size = ref 0 and next = ref 0 and now = ref 0.0 and count = ref 0 in
  let schedule_at time f =
    let idx = !next in
    let before (t, i, _) = t < time || (t = time && i < idx) in
    let rec insert = function x :: rest when before x -> x :: insert rest | l -> (time, idx, f) :: l in
    queue := insert !queue;
    incr next;
    incr size
  in
  let rec drain upto =
    match !queue with
    | (time, _, f) :: rest when time <= upto ->
        queue := rest;
        decr size;
        now := time;
        incr count;
        f ();
        drain upto
    | _ -> ()
  in
  drive s
    ~now:(fun () -> !now)
    ~pending:(fun () -> !size)
    ~processed:(fun () -> !count)
    ~schedule_at
    ~schedule:(fun ~delay f -> schedule_at (!now +. delay) f)
    ~run_until:(fun deadline ->
      drain deadline;
      if !now < deadline then now := deadline)
    ~run:(fun () -> drain infinity)

let prop_matches_model =
  QCheck.Test.make ~name:"dispatch matches list model" ~count:40
    (QCheck.make ~print:print_script gen_script) (fun s ->
      let got = run_engine s and want = run_model s in
      got = want
      ||
      let rec first i = function
        | g :: gs, w :: ws -> if g = w then first (i + 1) (gs, ws) else i
        | _ -> i
      in
      QCheck.Test.fail_reportf "engine and model diverge at record %d of %d/%d" (first 0 (got, want))
        (List.length got) (List.length want))

(* The event queue is a binary min-heap on (time, seq); these cases drive
   it through the engine's API: order, FIFO ties, interleaved push and pop,
   growth past its initial capacity, and a sorted drain. *)
let fire_log e times =
  let log = ref [] in
  List.iteri (fun i t -> Engine.schedule_at e t (fun () -> log := (t, i) :: !log)) times;
  log

let test_heap_empty () =
  let e = Engine.create () in
  Alcotest.(check int) "nothing pending" 0 (Engine.pending e);
  Alcotest.(check bool) "step on empty" false (Engine.step e);
  Engine.run e;
  Alcotest.(check int) "nothing dispatched" 0 (Engine.events_processed e);
  Alcotest.(check (float 0.0)) "clock untouched" 0.0 (Engine.now e)

let test_heap_ordering () =
  let e = Engine.create () in
  let log = fire_log e [ 5.0; 1.0; 4.0; 2.0; 3.0 ] in
  Engine.run e;
  Alcotest.(check (list (float 0.0))) "sorted" [ 1.0; 2.0; 3.0; 4.0; 5.0 ]
    (List.rev_map fst !log)

let test_heap_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  let at t name = Engine.schedule_at e t (fun () -> log := name :: !log) in
  at 1.0 "first";
  at 1.0 "second";
  at 0.0 "zero";
  at 1.0 "third";
  Engine.run e;
  Alcotest.(check (list string)) "min first, then ties in order"
    [ "zero"; "first"; "second"; "third" ] (List.rev !log)

let test_heap_interleaved () =
  let e = Engine.create () in
  let last = ref "" in
  let at t name = Engine.schedule_at e t (fun () -> last := name) in
  let step () = ignore (Engine.step e : bool); !last in
  at 3.0 "c";
  at 1.0 "a";
  Alcotest.(check string) "pop a" "a" (step ());
  at 2.0 "b";
  Alcotest.(check string) "pop b" "b" (step ());
  Alcotest.(check string) "pop c" "c" (step ());
  Alcotest.(check int) "drained" 0 (Engine.pending e)

let test_heap_growth () =
  let e = Engine.create () in
  let log = fire_log e (List.init 1000 (fun i -> float_of_int (1000 - i))) in
  Alcotest.(check int) "all in" 1000 (Engine.pending e);
  Engine.run e;
  let times = List.rev_map fst !log in
  Alcotest.(check int) "all out" 1000 (List.length times);
  ignore
    (List.fold_left
       (fun prev t ->
         Alcotest.(check bool) "monotone" true (t > prev);
         t)
       0.0 times
      : float)

let prop_heap_drain_sorted =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list small_int)
    (fun xs ->
      let e = Engine.create () in
      let log = fire_log e (List.map float_of_int xs) in
      Engine.run e;
      let indexed = List.mapi (fun i x -> (float_of_int x, i)) xs in
      List.rev !log = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) indexed)

let heap_suite =
  [
    Alcotest.test_case "empty" `Quick test_heap_empty;
    Alcotest.test_case "ordering" `Quick test_heap_ordering;
    Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
    Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
    Alcotest.test_case "growth" `Quick test_heap_growth;
    QCheck_alcotest.to_alcotest prop_heap_drain_sorted;
  ]

let suite =
  [
    Alcotest.test_case "time order" `Quick test_runs_in_time_order;
    Alcotest.test_case "same-time fifo" `Quick test_same_time_fifo;
    Alcotest.test_case "now advances" `Quick test_now_advances;
    Alcotest.test_case "relative schedule" `Quick test_schedule_relative;
    Alcotest.test_case "past rejected" `Quick test_schedule_past_rejected;
    Alcotest.test_case "negative delay" `Quick test_negative_delay_rejected;
    Alcotest.test_case "run_until" `Quick test_run_until;
    Alcotest.test_case "run_until drained clock" `Quick test_run_until_drained_clock;
    Alcotest.test_case "stop" `Quick test_stop;
    Alcotest.test_case "step" `Quick test_step;
    Alcotest.test_case "step limit" `Quick test_step_limit;
    Alcotest.test_case "step limit spans runs" `Quick test_step_limit_spans_runs;
    Alcotest.test_case "NaN rejected" `Quick test_nan_rejected;
    Alcotest.test_case "fired closure released" `Quick test_fired_closure_released;
    Alcotest.test_case "events processed" `Quick test_events_processed;
    Alcotest.test_case "cascading" `Quick test_cascading_events;
    QCheck_alcotest.to_alcotest ~speed_level:`Quick prop_matches_model;
  ]
