(* Tests for Dsm_util.Bitrel: membership, closure, row unions. *)

module Bitrel = Dsm_util.Bitrel

let test_empty () =
  let r = Bitrel.create 5 in
  Alcotest.(check int) "size" 5 (Bitrel.size r);
  Alcotest.(check int) "no pairs" 0 (Bitrel.count_pairs r);
  Alcotest.(check bool) "not mem" false (Bitrel.mem r 0 1)

let test_add_mem () =
  let r = Bitrel.create 10 in
  Bitrel.add r 3 7;
  Alcotest.(check bool) "added" true (Bitrel.mem r 3 7);
  Alcotest.(check bool) "directed" false (Bitrel.mem r 7 3);
  Alcotest.(check int) "one pair" 1 (Bitrel.count_pairs r)

let test_bounds () =
  let r = Bitrel.create 4 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitrel: index out of range") (fun () ->
      Bitrel.add r 0 4)

let test_closure_chain () =
  let r = Bitrel.create 5 in
  Bitrel.add r 0 1;
  Bitrel.add r 1 2;
  Bitrel.add r 2 3;
  Bitrel.add r 3 4;
  Bitrel.transitive_closure r;
  for i = 0 to 4 do
    for j = 0 to 4 do
      Alcotest.(check bool) (Printf.sprintf "reach %d %d" i j) (i < j) (Bitrel.mem r i j)
    done
  done

let test_closure_cycle () =
  let r = Bitrel.create 3 in
  Bitrel.add r 0 1;
  Bitrel.add r 1 2;
  Bitrel.add r 2 0;
  Bitrel.transitive_closure r;
  for i = 0 to 2 do
    for j = 0 to 2 do
      Alcotest.(check bool) "fully connected" true (Bitrel.mem r i j)
    done
  done

let test_closure_diamond () =
  let r = Bitrel.create 4 in
  Bitrel.add r 0 1;
  Bitrel.add r 0 2;
  Bitrel.add r 1 3;
  Bitrel.add r 2 3;
  Bitrel.transitive_closure r;
  Alcotest.(check bool) "0->3" true (Bitrel.mem r 0 3);
  Alcotest.(check bool) "1 and 2 unrelated" false (Bitrel.mem r 1 2 || Bitrel.mem r 2 1)

let test_union_row () =
  let r = Bitrel.create 4 in
  Bitrel.add r 2 0;
  Bitrel.add r 2 3;
  Bitrel.union_row_into r ~src:2 ~dst:1;
  Alcotest.(check bool) "1->0" true (Bitrel.mem r 1 0);
  Alcotest.(check bool) "1->3" true (Bitrel.mem r 1 3);
  Alcotest.(check bool) "src intact" true (Bitrel.mem r 2 0);
  Bitrel.add r 1 2;
  Bitrel.diff_row_into r ~src:2 ~dst:1;
  Alcotest.(check (list int)) "diff keeps only 1->2" [ 2 ] (Bitrel.successors r 1);
  Bitrel.clear_row r 2;
  Alcotest.(check (list int)) "cleared row" [] (Bitrel.successors r 2);
  Alcotest.(check (list int)) "other rows untouched" [ 2 ] (Bitrel.successors r 1)

let test_copy_equal () =
  let r = Bitrel.create 6 in
  Bitrel.add r 1 2;
  let c = Bitrel.copy r in
  Alcotest.(check bool) "equal" true (Bitrel.equal r c);
  Bitrel.add c 3 4;
  Alcotest.(check bool) "diverged" false (Bitrel.equal r c);
  Alcotest.(check bool) "original untouched" false (Bitrel.mem r 3 4)

let test_successors () =
  let r = Bitrel.create 8 in
  Bitrel.add r 2 7;
  Bitrel.add r 2 1;
  Bitrel.add r 2 4;
  Alcotest.(check (list int)) "ascending" [ 1; 4; 7 ] (Bitrel.successors r 2)

let random_rel rand n density =
  let r = Bitrel.create n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && QCheck.Gen.float_bound_inclusive 1.0 rand < density then Bitrel.add r i j
    done
  done;
  r

let gen_rel =
  QCheck.make
    (QCheck.Gen.map (fun rand_pair -> rand_pair)
       (QCheck.Gen.pair (QCheck.Gen.int_range 1 12) (QCheck.Gen.float_bound_inclusive 0.3)))

let prop_closure_idempotent =
  QCheck.Test.make ~name:"closure is idempotent" ~count:100 gen_rel (fun (n, density) ->
      let rand = Random.State.make [| n; int_of_float (density *. 1000.0) |] in
      let r = random_rel rand n density in
      Bitrel.transitive_closure r;
      let once = Bitrel.copy r in
      Bitrel.transitive_closure r;
      Bitrel.equal once r)

let prop_closure_extends =
  QCheck.Test.make ~name:"closure contains original edges" ~count:100 gen_rel
    (fun (n, density) ->
      let rand = Random.State.make [| n + 77; int_of_float (density *. 1000.0) |] in
      let original = random_rel rand n density in
      let closed = Bitrel.copy original in
      Bitrel.transitive_closure closed;
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if Bitrel.mem original i j && not (Bitrel.mem closed i j) then ok := false
        done
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "empty" `Quick test_empty;
    Alcotest.test_case "add/mem" `Quick test_add_mem;
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "closure chain" `Quick test_closure_chain;
    Alcotest.test_case "closure cycle" `Quick test_closure_cycle;
    Alcotest.test_case "closure diamond" `Quick test_closure_diamond;
    Alcotest.test_case "union row" `Quick test_union_row;
    Alcotest.test_case "copy/equal" `Quick test_copy_equal;
    Alcotest.test_case "successors" `Quick test_successors;
    QCheck_alcotest.to_alcotest prop_closure_idempotent;
    QCheck_alcotest.to_alcotest prop_closure_extends;
  ]
