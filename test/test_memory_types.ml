(* Tests for Dsm_memory base types: Loc, Value, Wid, Op, Owner. *)

module Loc = Dsm_memory.Loc
module Value = Dsm_memory.Value
module Wid = Dsm_memory.Wid
module Op = Dsm_memory.Op
module Owner = Dsm_memory.Owner

let test_loc_to_string () =
  Alcotest.(check string) "named" "x" (Loc.to_string (Loc.named "x"));
  Alcotest.(check string) "indexed" "x.3" (Loc.to_string (Loc.indexed "x" 3));
  Alcotest.(check string) "cell" "dict.2.5" (Loc.to_string (Loc.cell "dict" 2 5))

let test_loc_of_string_roundtrip () =
  let cases = [ Loc.named "foo"; Loc.indexed "x" 0; Loc.cell "dict" 9 1 ] in
  List.iter
    (fun loc ->
      Alcotest.(check bool)
        (Loc.to_string loc) true
        (Loc.equal loc (Loc.of_string (Loc.to_string loc))))
    cases

let test_loc_of_string_fallback () =
  Alcotest.(check bool) "non-numeric suffix" true
    (Loc.equal (Loc.named "a.b") (Loc.of_string "a.b"))

let test_loc_compare_total () =
  let a = Loc.named "a" and b = Loc.indexed "a" 1 in
  Alcotest.(check bool) "antisymmetric" true (Loc.compare a b = -Loc.compare b a);
  Alcotest.(check int) "reflexive" 0 (Loc.compare a a)

(* The interner hashes contents: keys built apart but equal find the id
   their twin was given. *)
let test_loc_interner_equal_keys () =
  let module I = Loc.Interner in
  let fresh s = String.init (String.length s) (String.get s) in
  let copy = function
    | Loc.Named s -> Loc.Named (fresh s)
    | Loc.Indexed (s, i) -> Loc.Indexed (fresh s, i)
    | Loc.Cell (s, i, j) -> Loc.Cell (fresh s, i, j)
  in
  let keys =
    List.init 100 (fun i -> Loc.named ("n" ^ string_of_int i))
    @ List.init 100 (Loc.indexed "x")
    @ List.init 100 (Loc.cell "d" 3)
  in
  let i = I.create () in
  List.iter (fun loc -> ignore (I.intern i loc)) keys;
  List.iteri
    (fun k loc ->
      Alcotest.(check (option int)) (Loc.to_string loc) (Some k) (I.find_opt i (copy loc));
      Alcotest.(check int) (Loc.to_string loc ^ " interned again") k (I.intern i (copy loc)))
    keys;
  Alcotest.(check int) "no new ids" 300 (I.count i)

let test_loc_containers () =
  let set = Loc.Set.of_list [ Loc.named "x"; Loc.named "x"; Loc.indexed "x" 1 ] in
  Alcotest.(check int) "dedup" 2 (Loc.Set.cardinal set);
  let table = Loc.Table.create 4 in
  Loc.Table.replace table (Loc.named "y") 1;
  Alcotest.(check bool) "table" true (Loc.Table.mem table (Loc.named "y"))

let test_value_to_string () =
  Alcotest.(check string) "int" "5" (Value.to_string (Value.Int 5));
  Alcotest.(check string) "bool" "T" (Value.to_string (Value.Bool true));
  Alcotest.(check string) "bool f" "F" (Value.to_string (Value.Bool false));
  Alcotest.(check string) "free" "λ" (Value.to_string Value.Free);
  Alcotest.(check string) "str" "\"hi\"" (Value.to_string (Value.Str "hi"))

let test_value_initial () =
  Alcotest.(check bool) "zero" true (Value.equal Value.initial (Value.Int 0))

let test_value_coercions () =
  Alcotest.(check int) "int" 7 (Value.to_int (Value.Int 7));
  Alcotest.(check (float 0.0)) "float" 2.5 (Value.to_float (Value.Float 2.5));
  Alcotest.(check (float 0.0)) "int promotes" 3.0 (Value.to_float (Value.Int 3));
  Alcotest.(check bool) "bool" true (Value.to_bool (Value.Bool true));
  Alcotest.(check string) "str" "s" (Value.to_str (Value.Str "s"));
  Alcotest.(check bool) "is_free" true (Value.is_free Value.Free);
  Alcotest.(check bool) "not free" false (Value.is_free (Value.Int 0))

let test_value_coercion_errors () =
  Alcotest.check_raises "int of bool" (Invalid_argument "Value: expected Int, got T")
    (fun () -> ignore (Value.to_int (Value.Bool true)));
  Alcotest.check_raises "float of str" (Invalid_argument "Value: expected Float, got \"x\"")
    (fun () -> ignore (Value.to_float (Value.Str "x")))

let test_wid () =
  let w = Wid.make ~node:2 ~seq:5 in
  Alcotest.(check string) "to_string" "w#2.5" (Wid.to_string w);
  Alcotest.(check bool) "not initial" false (Wid.is_initial w);
  Alcotest.(check bool) "initial" true (Wid.is_initial Wid.initial);
  Alcotest.(check string) "initial name" "w#init" (Wid.to_string Wid.initial);
  Alcotest.(check bool) "equal" true (Wid.equal w (Wid.make ~node:2 ~seq:5));
  Alcotest.check_raises "negative node" (Invalid_argument "Wid.make: negative node")
    (fun () -> ignore (Wid.make ~node:(-1) ~seq:0))

let test_op_printing () =
  let w =
    Op.write ~pid:2 ~index:0 ~loc:(Loc.named "x") ~value:(Value.Int 5)
      ~wid:(Wid.make ~node:2 ~seq:0)
  in
  Alcotest.(check string) "write" "w2(x)5" (Op.to_string w);
  let r =
    Op.read ~pid:1 ~index:3 ~loc:(Loc.indexed "y" 2) ~value:(Value.Bool true) ~from:Wid.initial
  in
  Alcotest.(check string) "read" "r1(y.2)T" (Op.to_string r);
  Alcotest.(check bool) "is_read" true (Op.is_read r);
  Alcotest.(check bool) "is_write" true (Op.is_write w)

let test_owner_by_index () =
  let o = Owner.by_index ~nodes:4 in
  Alcotest.(check int) "x.1" 1 (Owner.owner o (Loc.indexed "x" 1));
  Alcotest.(check int) "x.5 wraps" 1 (Owner.owner o (Loc.indexed "x" 5));
  Alcotest.(check int) "cell row" 2 (Owner.owner o (Loc.cell "d" 2 7));
  let named = Owner.owner o (Loc.named "flag") in
  Alcotest.(check bool) "named in range" true (named >= 0 && named < 4)

let test_owner_by_hash () =
  let o = Owner.by_hash ~nodes:3 in
  for i = 0 to 20 do
    let node = Owner.owner o (Loc.indexed "v" i) in
    Alcotest.(check bool) "in range" true (node >= 0 && node < 3)
  done

let test_owner_all_to () =
  let o = Owner.all_to ~nodes:3 1 in
  Alcotest.(check int) "fixed" 1 (Owner.owner o (Loc.named "anything"));
  Alcotest.check_raises "oob" (Invalid_argument "Owner.all_to: node out of range") (fun () ->
      ignore (Owner.all_to ~nodes:3 3))

let test_owner_range_check () =
  let o = Owner.make ~nodes:2 (fun _ -> 5) in
  Alcotest.(check bool) "detects bad map" true
    (try
       ignore (Owner.owner o (Loc.named "x"));
       false
     with Failure _ -> true)

let test_loc_interner () =
  let module I = Dsm_memory.Loc.Interner in
  let i = I.create ~capacity:2 () in
  let a = Dsm_memory.Loc.indexed "x" 0 in
  let b = Dsm_memory.Loc.cell "d" 1 2 in
  Alcotest.(check int) "first id" 0 (I.intern i a);
  Alcotest.(check int) "second id" 1 (I.intern i b);
  Alcotest.(check int) "idempotent" 0 (I.intern i a);
  Alcotest.(check int) "count" 2 (I.count i);
  (* Growth past the initial capacity keeps earlier ids stable. *)
  for k = 2 to 40 do
    Alcotest.(check int) "dense" k (I.intern i (Dsm_memory.Loc.indexed "g" k))
  done;
  Alcotest.(check bool) "of_id roundtrip" true (Dsm_memory.Loc.equal a (I.of_id i 0));
  Alcotest.(check bool) "of_id roundtrip 2" true (Dsm_memory.Loc.equal b (I.of_id i 1));
  Alcotest.(check (option int)) "find_opt" (Some 1) (I.find_opt i b);
  Alcotest.(check (option int)) "find_opt miss" None
    (I.find_opt i (Dsm_memory.Loc.named "zz"));
  Alcotest.check_raises "of_id range" (Invalid_argument "Loc.Interner.of_id: unknown id")
    (fun () -> ignore (I.of_id i 99))

let suite =
  [
    Alcotest.test_case "loc to_string" `Quick test_loc_to_string;
    Alcotest.test_case "loc interner" `Quick test_loc_interner;
    Alcotest.test_case "loc roundtrip" `Quick test_loc_of_string_roundtrip;
    Alcotest.test_case "loc fallback" `Quick test_loc_of_string_fallback;
    Alcotest.test_case "loc compare" `Quick test_loc_compare_total;
    Alcotest.test_case "loc containers" `Quick test_loc_containers;
    Alcotest.test_case "loc interner equal keys" `Quick test_loc_interner_equal_keys;
    Alcotest.test_case "value to_string" `Quick test_value_to_string;
    Alcotest.test_case "value initial" `Quick test_value_initial;
    Alcotest.test_case "value coercions" `Quick test_value_coercions;
    Alcotest.test_case "value coercion errors" `Quick test_value_coercion_errors;
    Alcotest.test_case "wid" `Quick test_wid;
    Alcotest.test_case "op printing" `Quick test_op_printing;
    Alcotest.test_case "owner by_index" `Quick test_owner_by_index;
    Alcotest.test_case "owner by_hash" `Quick test_owner_by_hash;
    Alcotest.test_case "owner all_to" `Quick test_owner_all_to;
    Alcotest.test_case "owner range check" `Quick test_owner_range_check;
  ]
