(* Tests for Dsm_util.Prng: determinism, ranges, distribution sanity. *)

module Prng = Dsm_util.Prng

let test_deterministic () =
  let a = Prng.create 7L and b = Prng.create 7L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_distinct_seeds () =
  let a = Prng.create 1L and b = Prng.create 2L in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next_int64 a = Prng.next_int64 b then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_copy_independent () =
  let a = Prng.create 3L in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  let va = Prng.next_int64 a in
  let vb = Prng.next_int64 b in
  Alcotest.(check int64) "copy resumes at same point" va vb

let test_split_independent () =
  let a = Prng.create 5L in
  let b = Prng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next_int64 a = Prng.next_int64 b then incr same
  done;
  Alcotest.(check bool) "split stream differs" true (!same < 4)

let test_int_range () =
  let p = Prng.create 11L in
  for _ = 1 to 10_000 do
    let v = Prng.int p 7 in
    Alcotest.(check bool) "0 <= v < 7" true (v >= 0 && v < 7)
  done

let test_int_rejects_bad_bound () =
  let p = Prng.create 1L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int p 0))

let test_int_covers_values () =
  let p = Prng.create 13L in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    seen.(Prng.int p 5) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all Fun.id seen)

let test_int_in () =
  let p = Prng.create 17L in
  for _ = 1 to 1000 do
    let v = Prng.int_in p (-3) 3 in
    Alcotest.(check bool) "in [-3,3]" true (v >= -3 && v <= 3)
  done

let test_int_in_degenerate () =
  let p = Prng.create 17L in
  Alcotest.(check int) "singleton interval" 5 (Prng.int_in p 5 5)

let test_float_range () =
  let p = Prng.create 19L in
  for _ = 1 to 10_000 do
    let v = Prng.float p 2.5 in
    Alcotest.(check bool) "in [0, 2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_chance_extremes () =
  let p = Prng.create 23L in
  Alcotest.(check bool) "p=0 never" false (Prng.chance p 0.0);
  Alcotest.(check bool) "p=1 always" true (Prng.chance p 1.0)

let test_chance_rate () =
  let p = Prng.create 29L in
  let hits = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    if Prng.chance p 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool) "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.02)

let test_exponential_positive_and_mean () =
  let p = Prng.create 31L in
  let total = ref 0.0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    let v = Prng.exponential p ~mean:4.0 in
    Alcotest.(check bool) "positive" true (v >= 0.0);
    total := !total +. v
  done;
  let mean = !total /. float_of_int trials in
  Alcotest.(check bool) "mean near 4" true (Float.abs (mean -. 4.0) < 0.25)

let test_shuffle_is_permutation () =
  let p = Prng.create 37L in
  let a = Array.init 50 Fun.id in
  Prng.shuffle p a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

let test_pick_empty () =
  let p = Prng.create 41L in
  Alcotest.check_raises "empty pick" (Invalid_argument "Prng.pick: empty array") (fun () ->
      ignore (Prng.pick p [||]))

let test_pick_member () =
  let p = Prng.create 43L in
  let a = [| "a"; "b"; "c" |] in
  for _ = 1 to 100 do
    let v = Prng.pick p a in
    Alcotest.(check bool) "member" true (Array.exists (String.equal v) a)
  done

(* The SplitMix64 stream pinned value by value: the state's
   representation may change, the numbers it draws may not.  Seed 0's
   first output is the published SplitMix64 reference value. *)
let test_pinned_stream () =
  let p = Prng.create 42L in
  Alcotest.(check int64) "draw 1" 0xBDD732262FEB6E95L (Prng.next_int64 p);
  Alcotest.(check int64) "draw 2" 0x28EFE333B266F103L (Prng.next_int64 p);
  Alcotest.(check int64) "draw 3" 0x47526757130F9F52L (Prng.next_int64 p);
  let child = Prng.split p in
  Alcotest.(check int64) "split child" 0x3304D23DB2A8B503L (Prng.next_int64 child);
  Alcotest.(check (float 0.0)) "float" 0.038030168540246212 (Prng.float p 1.0);
  Alcotest.(check int) "int" 350 (Prng.int p 1000);
  Alcotest.(check int64) "seed 0" 0xE220A8397B1DCDAFL (Prng.next_int64 (Prng.create 0L))

(* A draw is on the path of every simulated message, so it must not box.
   [next_int64] hands its caller a boxed [int64] (the build compiles each
   module opaquely, so it cannot inline across modules), but the draws
   that return an immediate allocate nothing.  [Gc.minor_words] is exact
   and unboxed ([Gc.counters] on OCaml 5.1 reads words allocated since the
   last minor collection at an eighth of their number). *)
let minor_words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_draws_allocate_nothing () =
  let p = Prng.create 7L in
  let acc = ref 0 in
  let draws name draw =
    let words =
      minor_words_of (fun () ->
          for _ = 1 to 10_000 do
            acc := !acc + draw ()
          done)
    in
    Alcotest.(check (float 0.0)) (name ^ ": minor words over 10k draws") 0.0 words
  in
  draws "int" (fun () -> Prng.int p 1000);
  draws "int_in" (fun () -> Prng.int_in p (-5) 5);
  draws "bool" (fun () -> Bool.to_int (Prng.bool p));
  draws "chance" (fun () -> Bool.to_int (Prng.chance p 0.3));
  ignore (Sys.opaque_identity !acc)

let prop_int_bounds =
  QCheck.Test.make ~name:"prng int always within bound" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let p = Prng.create (Int64.of_int seed) in
      let v = Prng.int p bound in
      v >= 0 && v < bound)

let suite =
  [
    Alcotest.test_case "deterministic" `Quick test_deterministic;
    Alcotest.test_case "distinct seeds" `Quick test_distinct_seeds;
    Alcotest.test_case "copy independent" `Quick test_copy_independent;
    Alcotest.test_case "split independent" `Quick test_split_independent;
    Alcotest.test_case "int range" `Quick test_int_range;
    Alcotest.test_case "int bad bound" `Quick test_int_rejects_bad_bound;
    Alcotest.test_case "int covers values" `Quick test_int_covers_values;
    Alcotest.test_case "int_in range" `Quick test_int_in;
    Alcotest.test_case "int_in degenerate" `Quick test_int_in_degenerate;
    Alcotest.test_case "float range" `Quick test_float_range;
    Alcotest.test_case "chance extremes" `Quick test_chance_extremes;
    Alcotest.test_case "chance rate" `Quick test_chance_rate;
    Alcotest.test_case "exponential" `Quick test_exponential_positive_and_mean;
    Alcotest.test_case "shuffle permutes" `Quick test_shuffle_is_permutation;
    Alcotest.test_case "pick empty" `Quick test_pick_empty;
    Alcotest.test_case "pick member" `Quick test_pick_member;
    Alcotest.test_case "pinned stream" `Quick test_pinned_stream;
    Alcotest.test_case "draws allocate nothing" `Quick test_draws_allocate_nothing;
    QCheck_alcotest.to_alcotest prop_int_bounds;
  ]
