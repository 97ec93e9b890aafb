(* Tests for Vclock: the paper's writestamp operations and their laws. *)

let vt = Alcotest.testable Vclock.pp Vclock.equal

let test_zero () =
  let z = Vclock.zero 3 in
  Alcotest.(check int) "dim" 3 (Vclock.dim z);
  for i = 0 to 2 do
    Alcotest.(check int) "component" 0 (Vclock.get z i)
  done

let test_zero_rejects () =
  Alcotest.check_raises "bad dim" (Invalid_argument "Vclock.zero: dimension must be >= 1")
    (fun () -> ignore (Vclock.zero 0))

let test_increment () =
  let a = Vclock.increment (Vclock.zero 3) 1 in
  Alcotest.check vt "only i bumped" (Vclock.of_array [| 0; 1; 0 |]) a;
  let b = Vclock.increment a 1 in
  Alcotest.(check int) "bumped again" 2 (Vclock.get b 1);
  (* immutability *)
  Alcotest.(check int) "original intact" 1 (Vclock.get a 1)

let test_increment_bounds () =
  Alcotest.check_raises "oob" (Invalid_argument "Vclock.increment: index out of range")
    (fun () -> ignore (Vclock.increment (Vclock.zero 2) 2))

let test_update_is_componentwise_max () =
  let a = Vclock.of_array [| 3; 0; 2 |] and b = Vclock.of_array [| 1; 4; 2 |] in
  Alcotest.check vt "max" (Vclock.of_array [| 3; 4; 2 |]) (Vclock.update a b)

let test_update_dim_mismatch () =
  Alcotest.check_raises "mismatch" (Invalid_argument "Vclock.update: dimension mismatch")
    (fun () -> ignore (Vclock.update (Vclock.zero 2) (Vclock.zero 3)))

let test_compare_cases () =
  let check name a b expected =
    Alcotest.(check bool)
      name true
      (Vclock.compare_vt (Vclock.of_array a) (Vclock.of_array b) = expected)
  in
  check "equal" [| 1; 2 |] [| 1; 2 |] Vclock.Equal;
  check "before" [| 1; 2 |] [| 1; 3 |] Vclock.Before;
  check "after" [| 2; 2 |] [| 1; 2 |] Vclock.After;
  check "concurrent" [| 1; 0 |] [| 0; 1 |] Vclock.Concurrent

let test_lt_strict () =
  let a = Vclock.of_array [| 1; 1 |] in
  Alcotest.(check bool) "not lt self" false (Vclock.lt a a);
  Alcotest.(check bool) "leq self" true (Vclock.leq a a)

let test_of_array_copies () =
  let arr = [| 1; 2 |] in
  let a = Vclock.of_array arr in
  arr.(0) <- 99;
  Alcotest.(check int) "insulated" 1 (Vclock.get a 0)

let test_to_array_copies () =
  let a = Vclock.of_array [| 1; 2 |] in
  let arr = Vclock.to_array a in
  arr.(0) <- 99;
  Alcotest.(check int) "insulated" 1 (Vclock.get a 0)

let test_sum () =
  Alcotest.(check int) "sum" 6 (Vclock.sum (Vclock.of_array [| 1; 2; 3 |]))

let test_pp () =
  Alcotest.(check string) "rendering" "[1;0;2]" (Vclock.to_string (Vclock.of_array [| 1; 0; 2 |]))

let test_total_compare_refines () =
  let a = Vclock.of_array [| 0; 1 |] and b = Vclock.of_array [| 1; 0 |] in
  Alcotest.(check bool) "orders concurrents" true (Vclock.total_compare a b <> 0);
  Alcotest.(check int) "reflexive" 0 (Vclock.total_compare a a)

let test_dim_mismatch_names_caller () =
  (* The longer clock goes second too: a kernel run to the first argument's
     dimension would otherwise ignore the extra component silently. *)
  let short = Vclock.zero 3 and long = Vclock.increment (Vclock.zero 4) 3 in
  let case name f =
    let exn = Invalid_argument (name ^ ": dimension mismatch") in
    Alcotest.check_raises (name ^ " 3 vs 4") exn (fun () -> ignore (f short long));
    Alcotest.check_raises (name ^ " 4 vs 3") exn (fun () -> ignore (f long short))
  in
  case "Vclock.update" Vclock.update;
  case "Vclock.compare_vt" Vclock.compare_vt;
  case "Vclock.lt" Vclock.lt;
  case "Vclock.leq" Vclock.leq;
  case "Vclock.equal" Vclock.equal;
  case "Vclock.concurrent" Vclock.concurrent;
  case "Vclock.total_compare" Vclock.total_compare

(* {2 Generators}

   Dimensions 1–300, past the 256-node stamps the simulator runs.  Two
   random wide clocks are almost always concurrent, which lets a kernel
   stop early; equal pairs and pairs one tick apart (in either direction,
   often at the last component) make every scan run to the end. *)

let small = QCheck.Gen.int_range 0 5

let gen_array ?(comp = small) dim = QCheck.Gen.(array_size (return dim) comp)

let gen_raw_clock = QCheck.Gen.(int_range 1 300 >>= gen_array)

let gen_raw_pair_of comp =
  let open QCheck.Gen in
  let* dim = int_range 1 300 in
  let* a = gen_array ~comp dim in
  let tick_at i =
    let b = Array.copy a in
    b.(i) <- b.(i) + 1;
    b
  in
  let* i = oneof [ return (dim - 1); int_range 0 (dim - 1) ] in
  oneof
    [
      map (fun b -> (a, b)) (gen_array ~comp dim);
      return (a, Array.copy a);
      return (a, tick_at i);
      return (tick_at i, a);
    ]

let gen_raw_pair = gen_raw_pair_of small

let show a = Vclock.to_string (Vclock.of_array a)

let gen_clock = QCheck.make ~print:show gen_raw_clock

let print_pair (a, b) = Printf.sprintf "(%s, %s)" (show a) (show b)

let gen_pair = QCheck.make ~print:print_pair gen_raw_pair

(* Components anywhere in [0, max_int - 1], clustered at both ends, so a
   tick stays non-negative and differences of either sign reach their
   extremes. *)
let gen_big_pair =
  let big = max_int - 1 in
  QCheck.make ~print:print_pair
    (gen_raw_pair_of
       QCheck.Gen.(
         oneof [ small; int_range (big - 5) big; return (big / 2); int_range 0 big ]))

let gen_triple =
  QCheck.make
    ~print:(fun (a, b, c) -> Printf.sprintf "(%s, %s, %s)" (show a) (show b) (show c))
    QCheck.Gen.(
      let* a, b = gen_raw_pair in
      map (fun c -> (a, b, c)) (gen_array (Array.length a)))

(* The product order, written out independently of [Vclock]: the
   reference both the flat kernels and the copying API are checked
   against. *)
let ref_order a b =
  let le x y = Array.for_all2 ( <= ) x y in
  match (le a b, le b a) with
  | true, true -> Vclock.Equal
  | true, false -> Vclock.Before
  | false, true -> Vclock.After
  | false, false -> Vclock.Concurrent

let ref_merge a b = Array.map2 max a b

let prop_update_upper_bound =
  QCheck.Test.make ~name:"update dominates both arguments" ~count:300 gen_pair (fun (a, b) ->
      let a = Vclock.of_array a and b = Vclock.of_array b in
      let u = Vclock.update a b in
      Vclock.leq a u && Vclock.leq b u)

let prop_update_least =
  QCheck.Test.make ~name:"update is the least upper bound" ~count:300 gen_pair (fun (a, b) ->
      let a = Vclock.of_array a and b = Vclock.of_array b in
      let u = Vclock.update a b in
      (* every component comes from one of the inputs *)
      let ok = ref true in
      for i = 0 to Vclock.dim u - 1 do
        if Vclock.get u i <> max (Vclock.get a i) (Vclock.get b i) then ok := false
      done;
      !ok)

let prop_increment_after =
  QCheck.Test.make ~name:"increment strictly dominates" ~count:300 gen_clock (fun a ->
      let a = Vclock.of_array a in
      let i = Vclock.dim a - 1 in
      Vclock.compare_vt (Vclock.increment a i) a = Vclock.After
      && Vclock.compare_vt (Vclock.increment a 0) a = Vclock.After)

let prop_compare_antisymmetric =
  QCheck.Test.make ~name:"compare antisymmetry" ~count:300 gen_pair (fun (a, b) ->
      let a = Vclock.of_array a and b = Vclock.of_array b in
      match Vclock.compare_vt a b with
      | Vclock.Before -> Vclock.compare_vt b a = Vclock.After
      | Vclock.After -> Vclock.compare_vt b a = Vclock.Before
      | Vclock.Equal -> Vclock.compare_vt b a = Vclock.Equal
      | Vclock.Concurrent -> Vclock.compare_vt b a = Vclock.Concurrent)

let prop_update_commutative =
  QCheck.Test.make ~name:"update commutative" ~count:200 gen_pair (fun (a, b) ->
      let a = Vclock.of_array a and b = Vclock.of_array b in
      Vclock.equal (Vclock.update a b) (Vclock.update b a))

let prop_update_associative =
  QCheck.Test.make ~name:"update associative" ~count:200 gen_triple (fun (a, b, c) ->
      let a = Vclock.of_array a and b = Vclock.of_array b and c = Vclock.of_array c in
      Vclock.equal
        (Vclock.update (Vclock.update a b) c)
        (Vclock.update a (Vclock.update b c)))

let prop_update_idempotent =
  QCheck.Test.make ~name:"update idempotent" ~count:200 gen_clock (fun a ->
      let a = Vclock.of_array a in
      Vclock.equal (Vclock.update a a) a)

(* {2 Kernels and copying API against the reference}

   The copying API is the flat kernels at offset 0, so each property
   checks both against the product-order reference above rather than
   against each other.  Windows are planted at a nonzero offset inside a
   larger arena so an off-by-one against the offset arithmetic can't
   hide. *)

let flat_pair_arena (a, b) =
  (* One arena holding garbage, then [a], then [b]: offsets 1 and 1+dim. *)
  let dim = Array.length a in
  let arena = Array.make (1 + (2 * dim) + 1) 999 in
  Array.blit a 0 arena 1 dim;
  Array.blit b 0 arena (1 + dim) dim;
  (arena, 1, 1 + dim, dim)

let prop_flat_compare_agrees =
  QCheck.Test.make ~name:"flat compare agrees with compare_vt" ~count:300 gen_pair (fun (a, b) ->
      let arena, ao, bo, dim = flat_pair_arena (a, b) in
      let va = Vclock.of_array a and vb = Vclock.of_array b in
      let r = ref_order a b in
      Vclock.Flat.compare_vt arena ~a_off:ao arena ~b_off:bo ~dim = r
      && Vclock.compare_vt va vb = r
      && Vclock.equal va vb = (r = Vclock.Equal)
      && Vclock.concurrent va vb = (r = Vclock.Concurrent))

let prop_flat_lt_leq_agree =
  QCheck.Test.make ~name:"flat lt/leq agree with lt/leq" ~count:300 gen_pair (fun (a, b) ->
      let arena, ao, bo, dim = flat_pair_arena (a, b) in
      let va = Vclock.of_array a and vb = Vclock.of_array b in
      let r = ref_order a b in
      let lt = r = Vclock.Before and leq = r = Vclock.Before || r = Vclock.Equal in
      Vclock.Flat.lt arena ~a_off:ao arena ~b_off:bo ~dim = lt
      && Vclock.lt va vb = lt
      && Vclock.Flat.leq arena ~a_off:ao arena ~b_off:bo ~dim = leq
      && Vclock.leq va vb = leq)

let prop_flat_merge_agrees =
  QCheck.Test.make ~name:"flat merge_into agrees with update" ~count:300 gen_pair (fun (a, b) ->
      let arena, ao, bo, dim = flat_pair_arena (a, b) in
      Vclock.Flat.merge_into ~dst:arena ~dst_off:ao ~src:arena ~src_off:bo ~dim;
      let expect = ref_merge a b in
      Array.sub arena ao dim = expect
      && Vclock.to_array (Vclock.update (Vclock.of_array a) (Vclock.of_array b)) = expect
      && (* the source window and the guard words are untouched *)
      Array.sub arena bo dim = b
      && arena.(0) = 999
      && arena.(Array.length arena - 1) = 999)

let prop_flat_bump_agrees =
  QCheck.Test.make ~name:"flat bump agrees with increment" ~count:300 gen_clock (fun a ->
      let dim = Array.length a in
      let i = dim - 1 in
      let expect = Array.copy a in
      expect.(i) <- expect.(i) + 1;
      let arena = Array.make (dim + 2) 999 in
      Array.blit a 0 arena 1 dim;
      Vclock.Flat.bump arena ~off:1 i;
      Array.sub arena 1 dim = expect
      && Vclock.to_array (Vclock.increment (Vclock.of_array a) i) = expect)

(* Windows of one arena, often overlapping by a word or two in either
   direction, or a copy into a second arena; [Array.blit] is the
   reference. *)
let gen_blit =
  let open QCheck.Gen in
  let* len = int_range 1 600 in
  let* dim = int_range 0 len in
  let* src_off = int_range 0 (len - dim) in
  let clamp o = max 0 (min (len - dim) o) in
  let* dst_off =
    oneof [ int_range 0 (len - dim); map (fun d -> clamp (src_off + d)) (int_range (-3) 3) ]
  in
  let* same = bool in
  return (len, dim, src_off, dst_off, same)

let prop_flat_blit_agrees =
  QCheck.Test.make ~name:"flat blit agrees with Array.blit" ~count:500
    (QCheck.make
       ~print:(fun (len, dim, so, d, same) ->
         Printf.sprintf "len=%d dim=%d src_off=%d dst_off=%d same=%b" len dim so d same)
       gen_blit)
    (fun (len, dim, src_off, dst_off, same) ->
      let src = Array.init len (fun i -> i) in
      let dst = if same then src else Array.make len (-1) in
      let src' = Array.copy src in
      let dst' = if same then src' else Array.copy dst in
      Vclock.Flat.blit ~src ~src_off ~dst ~dst_off ~dim;
      Array.blit src' src_off dst' dst_off dim;
      src = src' && dst = dst')

(* The kernels' sign-bit folds subtract components; on non-negative
   components no difference overflows, up to [max_int]. *)
let prop_flat_big_components =
  QCheck.Test.make ~name:"flat kernels on components up to max_int" ~count:300 gen_big_pair
    (fun (a, b) ->
      let arena, ao, bo, dim = flat_pair_arena (a, b) in
      let r = ref_order a b in
      let verdicts =
        Vclock.Flat.compare_vt arena ~a_off:ao arena ~b_off:bo ~dim = r
        && Vclock.Flat.lt arena ~a_off:ao arena ~b_off:bo ~dim = (r = Vclock.Before)
        && Vclock.Flat.leq arena ~a_off:ao arena ~b_off:bo ~dim
           = (r = Vclock.Before || r = Vclock.Equal)
      in
      Vclock.Flat.merge_into ~dst:arena ~dst_off:ao ~src:arena ~src_off:bo ~dim;
      verdicts && Array.sub arena ao dim = ref_merge a b)

(* [merge_blit] is [merge_into] then [Array.blit] of the same source, in
   either of the two shapes Flat uses: a message window merged into a
   clock row and copied into a pool, and the clock row itself as the
   source. *)
let prop_flat_merge_blit_agrees =
  QCheck.Test.make ~name:"flat merge_blit agrees with update and blit" ~count:300
    (QCheck.pair gen_pair QCheck.bool)
    (fun ((a, b), from_clock) ->
      let arena, ao, bo, dim = flat_pair_arena (a, b) in
      let copy = Array.make (dim + 3) 999 in
      let src_off = if from_clock then ao else bo in
      let src = Array.sub arena src_off dim in
      Vclock.Flat.merge_blit ~src:arena ~src_off ~dst:arena ~dst_off:ao ~copy ~copy_off:2 ~dim;
      let merged = if from_clock then a else ref_merge a b in
      Array.sub arena ao dim = merged
      && Array.sub copy 2 dim = src
      && Array.sub arena bo dim = b
      && arena.(0) = 999
      && arena.(Array.length arena - 1) = 999
      && copy.(0) = 999
      && copy.(1) = 999
      && copy.(dim + 2) = 999)

(* A window that starts before its array or runs past its end raises
   before the kernel reads or writes anything: every array keeps its
   contents.  [hi]'s components exceed [lo]'s, so any merge or copy into
   [lo] would show, and [lt] and [leq] would stop at the first block
   without reaching the bad window. *)
let test_window_out_of_range () =
  let len = 10 and dim = 6 in
  let check name offsets run =
    List.iter
      (fun offs ->
        let hi = Array.init len (fun i -> 100 + i)
        and lo = Array.init len (fun i -> i)
        and third = Array.make len (-7) in
        let hi' = Array.copy hi and lo' = Array.copy lo and third' = Array.copy third in
        let label = Printf.sprintf "%s at (%s)" name (String.concat ", " (List.map string_of_int offs)) in
        Alcotest.check_raises label (Invalid_argument (name ^ ": window out of range")) (fun () ->
            run hi lo third offs);
        Alcotest.(check (array int)) (label ^ ": hi") hi' hi;
        Alcotest.(check (array int)) (label ^ ": lo") lo' lo;
        Alcotest.(check (array int)) (label ^ ": third") third' third)
      offsets
  in
  let two = [ [ 0; 5 ]; [ 5; 0 ]; [ -1; 0 ]; [ 0; -1 ]; [ 5; 5 ] ] in
  let ab = function [ a; b ] -> (a, b) | _ -> assert false in
  check "Vclock.Flat.merge_into" two (fun hi lo _ offs ->
      let s, d = ab offs in
      Vclock.Flat.merge_into ~dst:lo ~dst_off:d ~src:hi ~src_off:s ~dim);
  check "Vclock.Flat.blit" two (fun hi lo _ offs ->
      let s, d = ab offs in
      Vclock.Flat.blit ~src:hi ~src_off:s ~dst:lo ~dst_off:d ~dim);
  check "Vclock.Flat.compare_vt" two (fun hi lo _ offs ->
      let a, b = ab offs in
      ignore (Vclock.Flat.compare_vt hi ~a_off:a lo ~b_off:b ~dim));
  check "Vclock.Flat.lt" two (fun hi lo _ offs ->
      let a, b = ab offs in
      ignore (Vclock.Flat.lt hi ~a_off:a lo ~b_off:b ~dim));
  check "Vclock.Flat.leq" two (fun hi lo _ offs ->
      let a, b = ab offs in
      ignore (Vclock.Flat.leq hi ~a_off:a lo ~b_off:b ~dim));
  check "Vclock.Flat.merge_blit"
    [ [ 0; 0; 5 ]; [ 0; 5; 0 ]; [ 5; 0; 0 ]; [ -1; 0; 0 ]; [ 0; 0; -1 ] ]
    (fun hi lo third offs ->
      match offs with
      | [ s; d; c ] ->
          Vclock.Flat.merge_blit ~src:hi ~src_off:s ~dst:lo ~dst_off:d ~copy:third ~copy_off:c ~dim
      | _ -> assert false)

let suite =
  [
    Alcotest.test_case "zero" `Quick test_zero;
    Alcotest.test_case "zero rejects" `Quick test_zero_rejects;
    Alcotest.test_case "increment" `Quick test_increment;
    Alcotest.test_case "increment bounds" `Quick test_increment_bounds;
    Alcotest.test_case "update max" `Quick test_update_is_componentwise_max;
    Alcotest.test_case "update mismatch" `Quick test_update_dim_mismatch;
    Alcotest.test_case "compare cases" `Quick test_compare_cases;
    Alcotest.test_case "lt strict" `Quick test_lt_strict;
    Alcotest.test_case "of_array copies" `Quick test_of_array_copies;
    Alcotest.test_case "to_array copies" `Quick test_to_array_copies;
    Alcotest.test_case "sum" `Quick test_sum;
    Alcotest.test_case "pp" `Quick test_pp;
    Alcotest.test_case "total_compare" `Quick test_total_compare_refines;
    Alcotest.test_case "dimension mismatch names caller" `Quick test_dim_mismatch_names_caller;
    Alcotest.test_case "flat window out of range" `Quick test_window_out_of_range;
    QCheck_alcotest.to_alcotest prop_update_upper_bound;
    QCheck_alcotest.to_alcotest prop_update_least;
    QCheck_alcotest.to_alcotest prop_increment_after;
    QCheck_alcotest.to_alcotest prop_compare_antisymmetric;
    QCheck_alcotest.to_alcotest prop_update_commutative;
    QCheck_alcotest.to_alcotest prop_update_associative;
    QCheck_alcotest.to_alcotest prop_update_idempotent;
    QCheck_alcotest.to_alcotest prop_flat_compare_agrees;
    QCheck_alcotest.to_alcotest prop_flat_lt_leq_agree;
    QCheck_alcotest.to_alcotest prop_flat_merge_agrees;
    QCheck_alcotest.to_alcotest prop_flat_bump_agrees;
    QCheck_alcotest.to_alcotest prop_flat_blit_agrees;
    QCheck_alcotest.to_alcotest prop_flat_merge_blit_agrees;
    QCheck_alcotest.to_alcotest prop_flat_big_components;
  ]
