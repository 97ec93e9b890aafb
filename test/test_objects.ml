(* Tests for the causal-object layer: the [Causal_object] functor's spec
   folds, the end-to-end clients under chaos at several seeds, and the
   generalized checkers — the post-hoc [Causal_check.check_objects] and the
   incremental [Online.add_query] must both flag a merge that drops an
   observed update, and neither may perturb register-level verdicts. *)

module Loc = Dsm_memory.Loc
module Value = Dsm_memory.Value
module Wid = Dsm_memory.Wid
module History = Dsm_memory.History
module Check = Dsm_checker.Causal_check
module Obj_check = Dsm_checker.Obj_check
module Online = Dsm_checker.Online
module Histories = Dsm_checker.Histories
module Registry = Dsm_objects.Registry
module Chaos = Dsm_apps.Chaos
module Prng = Dsm_util.Prng

let sem name =
  match Registry.find name with
  | Some s -> s
  | None -> Alcotest.failf "registry has no %S" name

let test_registry_complete () =
  Alcotest.(check (list string))
    "every shipped instance registered"
    [ "ctr"; "gset"; "tpset"; "oque"; "odict"; "oboard" ]
    Registry.names;
  Alcotest.(check int) "names unique" (List.length Registry.names)
    (List.length (List.sort_uniq compare Registry.names));
  Alcotest.(check bool) "op-log cells born Free" true
    (Value.is_free (Registry.init (Loc.cell "ctr" 0 0)));
  Alcotest.(check bool) "register locations keep the default" true
    (Value.equal (Registry.init (Loc.named "x")) Value.initial)

(* A pool of valid encoded updates per family, for the fold laws. *)
let pool = function
  | "ctr" -> [| "inc"; "add:3"; "add:-2"; "add:10"; "inc" |]
  | "gset" -> [| "add:a"; "add:b"; "add:c"; "add:a"; "add:d" |]
  | "tpset" -> [| "add:a"; "rem:a"; "add:b"; "add:c"; "rem:c" |]
  | "oque" -> [| "push:a"; "push:b"; "push:c"; "push:d" |]
  | "odict" -> [| "ins:k:1"; "ins:k:2"; "ins:j:5"; "del:k"; "ins:j:6" |]
  | "oboard" -> [| "post:p:hi"; "post:q:yo"; "post:p:bye"; "post:r:x" |]
  | other -> Alcotest.failf "no pool for %S" other

(* Commutative instances must fold every permutation of a payload multiset
   to the same return — the property that lets the checker skip the
   linearization search for them.  Multi-seed, random subsets. *)
let test_commutative_folds_permutation_invariant () =
  List.iter
    (fun name ->
      let s = sem name in
      Alcotest.(check bool) (name ^ " declared commutative") false s.Obj_check.order_sensitive;
      List.iter
        (fun seed ->
          let prng = Prng.create seed in
          for _trial = 1 to 20 do
            let src = pool name in
            let n = 1 + Prng.int prng (Array.length src) in
            let payloads = Array.init n (fun _ -> Prng.pick prng src) in
            let reference = s.Obj_check.fold (Array.to_list payloads) in
            let shuffled = Array.copy payloads in
            Prng.shuffle prng shuffled;
            Alcotest.(check string)
              (Printf.sprintf "%s seed %Ld permutation-invariant" name seed)
              reference
              (s.Obj_check.fold (Array.to_list shuffled))
          done)
        [ 1L; 2L; 3L; 4L; 5L ])
    [ "ctr"; "gset"; "tpset"; "oboard" ]

let test_order_sensitive_folds () =
  let q = sem "oque" and d = sem "odict" in
  Alcotest.(check bool) "oque order-sensitive" true q.Obj_check.order_sensitive;
  Alcotest.(check bool) "odict order-sensitive" true d.Obj_check.order_sensitive;
  Alcotest.(check string) "queue appends in order" "a|b"
    (q.Obj_check.fold [ "push:a"; "push:b" ]);
  Alcotest.(check string) "queue reversed differs" "b|a"
    (q.Obj_check.fold [ "push:b"; "push:a" ]);
  Alcotest.(check string) "dict last writer wins" "k=2"
    (d.Obj_check.fold [ "ins:k:1"; "ins:k:2" ]);
  Alcotest.(check string) "dict reversed differs" "k=1"
    (d.Obj_check.fold [ "ins:k:2"; "ins:k:1" ])

let test_folds_total_on_garbage () =
  List.iter
    (fun name ->
      let s = sem name in
      (* Undecodable payloads are skipped, never raised on. *)
      Alcotest.(check string)
        (name ^ " ignores garbage")
        (s.Obj_check.fold [])
        (s.Obj_check.fold [ "nonsense"; "f=;;;"; "" ]))
    Registry.names

(* End to end, per instance, multi-seed: every shipped client run under the
   default chaos knobs (5% loss, 1% duplication) must stay healthy — the
   register history causally correct, every recorded query spec-legal, and
   the final returns converged. *)
let test_clients_healthy_under_chaos_multi_seed () =
  List.iter
    (fun scenario ->
      List.iter
        (fun seed ->
          let r = Chaos.run ~seed ~clients:3 ~ops:3 scenario in
          Alcotest.(check bool)
            (Printf.sprintf "%s seed %Ld healthy" scenario seed)
            true (Chaos.healthy r);
          Alcotest.(check (option string))
            (Printf.sprintf "%s seed %Ld object_ok" scenario seed)
            (Some "true")
            (List.assoc_opt "object_ok" r.Chaos.notes);
          Alcotest.(check (option string))
            (Printf.sprintf "%s seed %Ld converged" scenario seed)
            (Some "true")
            (List.assoc_opt "views_converged" r.Chaos.notes))
        [ 3L; 11L ])
    (List.filter (String.starts_with ~prefix:"obj-") Chaos.scenarios)

(* ------------------------------------------------------------------ *)
(* Negative tests: a merge that drops an observed update must be flagged
   by BOTH checker layers on the same hand-built history.               *)
(* ------------------------------------------------------------------ *)

let c00 = Loc.cell "ctr" 0 0

let c01 = Loc.cell "ctr" 0 1

let w00 = Wid.make ~node:0 ~seq:1

let w01 = Wid.make ~node:0 ~seq:2

(* p0 appends two increments to its op log; p1 probes both. *)
let two_incr_recorder () =
  let r = History.Recorder.create ~processes:2 in
  let ops = ref [] in
  let push op = ops := op :: !ops in
  push (History.Recorder.record_write r ~pid:0 ~loc:c00 ~value:(Value.Str "inc") ~wid:w00);
  push (History.Recorder.record_write r ~pid:0 ~loc:c01 ~value:(Value.Str "inc") ~wid:w01);
  push (History.Recorder.record_read r ~pid:1 ~loc:c00 ~value:(Value.Str "inc") ~from:w00);
  push (History.Recorder.record_read r ~pid:1 ~loc:c01 ~value:(Value.Str "inc") ~from:w01);
  (History.Recorder.history r, List.rev !ops)

let query ~ret =
  {
    Obj_check.q_pid = 1;
    q_obj = "ctr";
    q_ret = ret;
    q_anchor = 1;
    q_observed = Some [ (c00, w00); (c01, w01) ];
  }

let test_dropped_op_flagged_posthoc () =
  let h, _ = two_incr_recorder () in
  (match Check.check_objects ~lookup:Registry.find h [ query ~ret:"1" ] with
  | [ v ] ->
      Alcotest.(check string) "the query" "1" v.Obj_check.v_query.Obj_check.q_ret;
      Alcotest.(check bool) "reason names the object" true
        (Str_contains.contains v.Obj_check.v_reason "ctr")
  | vs -> Alcotest.failf "expected exactly one violation, got %d" (List.length vs));
  Alcotest.(check (list unit)) "the full fold is legal" []
    (List.map ignore (Check.check_objects ~lookup:Registry.find h [ query ~ret:"2" ]))

let test_dropped_op_flagged_online () =
  let h, ops = two_incr_recorder () in
  ignore h;
  let o = Online.create () in
  List.iter (fun op -> ignore (Online.add_op o op)) ops;
  let ask ret =
    Online.add_query o ~sem:(sem "ctr") ~pid:1 ~observed:[ (c00, w00); (c01, w01) ] ~ret
  in
  (match ask "1" with
  | Some reason ->
      Alcotest.(check bool) "online reason names the object" true
        (Str_contains.contains reason "ctr")
  | None -> Alcotest.fail "online checker must flag the dropped increment");
  Alcotest.(check (option string)) "legal return accepted" None (ask "2");
  (* An observed source the prefix has not seen defers to post hoc. *)
  Alcotest.(check (option string)) "unseen source defers" None
    (Online.add_query o ~sem:(sem "ctr") ~pid:1
       ~observed:[ (Loc.cell "ctr" 1 0, Wid.make ~node:1 ~seq:9) ]
       ~ret:"0")

(* Cross-cell closure: observing a post whose causal prerequisite lives in
   another writer's op log forces the prerequisite into every candidate
   fold — the object-level form of "no reply before its post". *)
let test_closure_pulls_prerequisites () =
  let b00 = Loc.cell "oboard" 0 0 in
  let b10 = Loc.cell "oboard" 1 0 in
  let wa = Wid.make ~node:0 ~seq:1 in
  let wb = Wid.make ~node:1 ~seq:1 in
  let r = History.Recorder.create ~processes:3 in
  ignore (History.Recorder.record_write r ~pid:0 ~loc:b00 ~value:(Value.Str "post:p:a") ~wid:wa);
  (* p1 reads the post, then replies: the reply is causally after it. *)
  ignore (History.Recorder.record_read r ~pid:1 ~loc:b00 ~value:(Value.Str "post:p:a") ~from:wa);
  ignore
    (History.Recorder.record_write r ~pid:1 ~loc:b10 ~value:(Value.Str "post:q:b") ~wid:wb);
  (* p2 probes only the reply's cell. *)
  ignore (History.Recorder.record_read r ~pid:2 ~loc:b10 ~value:(Value.Str "post:q:b") ~from:wb);
  let h = History.Recorder.history r in
  let q ret =
    { Obj_check.q_pid = 2; q_obj = "oboard"; q_ret = ret; q_anchor = 0;
      q_observed = Some [ (b10, wb) ] }
  in
  Alcotest.(check int) "reply without its post is illegal" 1
    (List.length (Check.check_objects ~lookup:Registry.find h [ q "q:b" ]));
  Alcotest.(check int) "closed fold is legal" 0
    (List.length (Check.check_objects ~lookup:Registry.find h [ q "p:a;q:b" ]))

(* The object layer must not move register-level verdicts: every catalog
   history keeps its classification, and a query-free object pass flags
   nothing on any of them. *)
let test_register_verdicts_unchanged () =
  List.iter
    (fun (name, h, expected) ->
      Alcotest.(check bool) (name ^ " register verdict") (expected = `Causal_ok)
        (Check.is_correct h);
      if expected = `Causal_ok then
        Alcotest.(check int) (name ^ " no object flags without queries") 0
          (List.length (Check.check_objects ~lookup:Registry.find h [])))
    Histories.all

let suite =
  [
    Alcotest.test_case "registry complete" `Quick test_registry_complete;
    Alcotest.test_case "commutative folds permutation-invariant" `Quick
      test_commutative_folds_permutation_invariant;
    Alcotest.test_case "order-sensitive folds" `Quick test_order_sensitive_folds;
    Alcotest.test_case "folds total on garbage" `Quick test_folds_total_on_garbage;
    Alcotest.test_case "clients healthy under chaos, multi-seed" `Slow
      test_clients_healthy_under_chaos_multi_seed;
    Alcotest.test_case "dropped op flagged post hoc" `Quick test_dropped_op_flagged_posthoc;
    Alcotest.test_case "dropped op flagged online" `Quick test_dropped_op_flagged_online;
    Alcotest.test_case "closure pulls prerequisites" `Quick test_closure_pulls_prerequisites;
    Alcotest.test_case "register verdicts unchanged" `Quick test_register_verdicts_unchanged;
  ]
