(* Tests for Dsm_memory.Shard: ring layout, share-sets and the induced
   owner map. *)

module Shard = Dsm_memory.Shard
module Membership = Dsm_memory.Membership
module Loc = Dsm_memory.Loc
module Owner = Dsm_memory.Owner

let test_contiguous_rings () =
  let s = Shard.make ~nodes:9 ~shards:3 in
  Alcotest.(check int) "count" 3 (Shard.count s);
  Alcotest.(check (list int)) "ring 0" [ 0; 1; 2 ] (Shard.ring s 0);
  Alcotest.(check (list int)) "ring 1" [ 3; 4; 5 ] (Shard.ring s 1);
  Alcotest.(check (list int)) "ring 2" [ 6; 7; 8 ] (Shard.ring s 2)

let test_uneven_rings_cover () =
  let s = Shard.make ~nodes:7 ~shards:3 in
  let all = List.concat_map (Shard.ring s) [ 0; 1; 2 ] in
  Alcotest.(check (list int)) "partition of the cluster" [ 0; 1; 2; 3; 4; 5; 6 ]
    (List.sort compare all)

let test_full_is_one_ring () =
  let s = Shard.full ~nodes:4 in
  Alcotest.(check int) "one shard" 1 (Shard.count s);
  Alcotest.(check (list int)) "everyone rings" [ 0; 1; 2; 3 ] (Shard.ring s 0);
  Alcotest.(check int) "full width" 4 (Shard.width s 0)

let test_ring_successor () =
  let s = Shard.make ~nodes:6 ~shards:2 in
  Alcotest.(check (option int)) "middle" (Some 2) (Shard.ring_successor s ~node:1);
  Alcotest.(check (option int)) "wraps inside the ring" (Some 0) (Shard.ring_successor s ~node:2);
  Alcotest.(check (option int)) "second ring wraps" (Some 3) (Shard.ring_successor s ~node:5);
  let singleton = Shard.make ~nodes:2 ~shards:2 in
  Alcotest.(check (option int)) "singleton ring" None (Shard.ring_successor singleton ~node:0)

let test_subscribe_unsubscribe () =
  let s = Shard.make ~nodes:6 ~shards:2 in
  Alcotest.(check bool) "ring member born subscribed" true (Shard.subscribed s ~shard:0 ~node:1);
  Alcotest.(check bool) "outsider not subscribed" false (Shard.subscribed s ~shard:0 ~node:4);
  (* [subscribers] is cached: every read below follows a change. *)
  Alcotest.(check (list int)) "ring only" [ 0; 1; 2 ] (Shard.subscribers s 0);
  Shard.subscribe s ~shard:0 ~node:4;
  Alcotest.(check bool) "joined" true (Shard.subscribed s ~shard:0 ~node:4);
  Alcotest.(check (list int)) "share-set" [ 0; 1; 2; 4 ] (Shard.subscribers s 0);
  Alcotest.(check int) "width grew" 4 (Shard.width s 0);
  Shard.unsubscribe s ~shard:0 ~node:4;
  Alcotest.(check bool) "left" false (Shard.subscribed s ~shard:0 ~node:4);
  Alcotest.(check (list int)) "share-set after leave" [ 0; 1; 2 ] (Shard.subscribers s 0);
  Shard.unsubscribe s ~shard:0 ~node:1;
  Alcotest.(check bool) "ring member cannot leave" true (Shard.subscribed s ~shard:0 ~node:1)

let test_membership_matches_subscribers () =
  let s = Shard.make ~nodes:6 ~shards:3 in
  Shard.subscribe s ~shard:1 ~node:0;
  let m = Shard.membership s 1 in
  Alcotest.(check (list int)) "membership = share-set" (Shard.subscribers s 1)
    (Membership.members m);
  Alcotest.(check int) "width agrees" (Shard.width s 1) (Membership.width m)

(* The induced owner map is consistent with the shard assignment: every
   location's base owner is a ring member of the location's own shard. *)
let test_induced_owner_consistent () =
  let s = Shard.make ~nodes:9 ~shards:3 in
  let owner = Shard.owner s in
  let locs =
    Loc.named "x" :: Loc.named "alpha"
    :: List.concat_map (fun i -> [ Loc.indexed "v" i; Loc.cell "m" i (i + 1) ]) (List.init 12 Fun.id)
  in
  List.iter
    (fun loc ->
      let shard = Shard.of_loc s loc in
      let base = Owner.owner owner loc in
      Alcotest.(check int)
        (Printf.sprintf "base of %s rings its shard" (Loc.to_string loc))
        shard (Shard.of_base s base);
      Alcotest.(check bool) "ring member" true (Shard.in_ring s ~shard ~node:base))
    locs

let test_subscriptions_canonical () =
  let s = Shard.make ~nodes:4 ~shards:2 in
  Shard.subscribe s ~shard:1 ~node:0;
  Alcotest.(check (list (pair int (list int))))
    "canonical form"
    [ (0, [ 0; 1 ]); (1, [ 0; 2; 3 ]) ]
    (Shard.subscriptions s)

(* Share-set garbage collection, end to end: an outsider's read grows the
   share-set via subscribe-on-access; after [unsubscribe_idle] of access
   quiet the cluster's GC sweep unsubscribes it again (the share-set
   shrinks back to the ring) and drops its cached copies, so the next
   access misses, fetches the owner's current value and resubscribes —
   the catch-up is causally safe and the recorded history stays correct. *)
let test_share_set_gc () =
  let e = Dsm_sim.Engine.create () in
  let sched = Dsm_runtime.Proc.scheduler e in
  let module Proc = Dsm_runtime.Proc in
  let module Cluster = Dsm_causal.Cluster in
  let module Value = Dsm_memory.Value in
  let s = Shard.make ~nodes:6 ~shards:2 in
  let c =
    Cluster.create ~sched ~owner:(Shard.owner s) ~sharding:s ~unsubscribe_idle:10.0
      ~latency:(Dsm_net.Latency.Constant 1.0) ()
  in
  (* A location in shard 0, so node 4 (a ring-1 member) is an outsider. *)
  let x =
    let rec find i =
      let loc = Loc.indexed "v" i in
      if Shard.of_loc s loc = 0 then loc else find (i + 1)
    in
    find 0
  in
  let owner_pid = Owner.owner (Shard.owner s) x in
  let h_owner = Cluster.handle c owner_pid in
  let h4 = Cluster.handle c 4 in
  let grown = ref false and shrunk = ref false and resub = ref false in
  let second_read = ref Value.Free in
  ignore
    (Proc.spawn sched (fun () ->
         Cluster.write h_owner x (Value.Int 1);
         Alcotest.(check bool) "first read" true
           (Value.equal (Cluster.read h4 x) (Value.Int 1));
         grown := Shard.subscribed s ~shard:0 ~node:4;
         (* Three idle windows: the sweep (period window/2) must collect. *)
         Proc.sleep 30.0;
         shrunk := not (Shard.subscribed s ~shard:0 ~node:4);
         Alcotest.(check (list int)) "share-set back to the ring" [ 0; 1; 2 ]
           (Shard.subscribers s 0);
         (* A write the collected node never saw an invalidation for ... *)
         Cluster.write h_owner x (Value.Int 2);
         (* ... is still what its next read returns: the cached copy went
            with the subscription, so the read misses and catches up. *)
         second_read := Cluster.read h4 x;
         resub := Shard.subscribed s ~shard:0 ~node:4));
  Dsm_sim.Engine.run e;
  Proc.check sched;
  Alcotest.(check bool) "subscribe-on-access grew the share-set" true !grown;
  Alcotest.(check bool) "idle subscriber collected" true !shrunk;
  Alcotest.(check bool) "re-access resubscribed" true !resub;
  Alcotest.(check bool) "catch-up read is current" true
    (Value.equal !second_read (Value.Int 2));
  Alcotest.(check bool) "history causally correct" true
    (Dsm_checker.Causal_check.is_correct (Cluster.history c))

(* The detectors' watch masks are updated incrementally on share-set joins
   and leaves; after any sequence of them they must still equal the
   reference definition of the directed relation: [a] watches [b <> a]
   iff [b] rings some shard [a] subscribes to, a heartbeat tick at [a]
   beacons exactly its own shard's share-set minus [a], ascending, and so
   [a] beats [b] iff [b] watches [a]. *)
let test_watch_masks_track_rings () =
  let module P = Dsm_protocol.Protocol in
  let module Message = Dsm_protocol.Message in
  let module Prng = Dsm_util.Prng in
  let nodes = 12 and shards = 4 in
  let s = Shard.make ~nodes ~shards in
  let owner = Shard.owner s in
  let t =
    P.create ~owner ~config:Dsm_protocol.Config.default
      ~detector:{ Dsm_protocol.Detector.period = 5.0; suspect_after = 3 }
      ~sharding:s ~now:0.0 ()
  in
  let step ev = ignore (P.step t ev) in
  let rings_of a =
    List.concat_map (Shard.ring s)
      (List.filter (fun k -> Shard.subscribed s ~shard:k ~node:a) (List.init shards Fun.id))
  in
  let check what =
    let hb =
      Array.init nodes (fun a ->
          let _, acts = P.step t (P.Hb_tick { node = a; now = 0.0 }) in
          List.filter_map (function P.Send { dst; kind = "HB"; _ } -> Some dst | _ -> None) acts)
    in
    for a = 0 to nodes - 1 do
      let rings = rings_of a in
      for b = 0 to nodes - 1 do
        if b <> a && P.watched t ~me:a ~peer:b <> List.mem b rings then
          Alcotest.failf "%s: node %d watches %d is %b" what a b (P.watched t ~me:a ~peer:b);
        if b <> a && List.mem b hb.(a) <> P.watched t ~me:b ~peer:a then
          Alcotest.failf "%s: node %d beats %d is %b" what a b (List.mem b hb.(a))
      done;
      Alcotest.(check (list int))
        (Printf.sprintf "%s: HB fan-out of %d" what a)
        (List.filter (( <> ) a) (Shard.subscribers s (Shard.of_base s a)))
        hb.(a)
    done
  in
  check "initial";
  (* Rings are {0,1,2} {3,4,5} {6,7,8} {9,10,11}.  Outsiders 6 and 9 both
     join shards 0 and 1: each now watches both rings, which beat it but
     do not watch it, and the two co-subscribers ignore each other. *)
  List.iter
    (fun (node, shard) -> step (P.Subscribe { node; shard }))
    [ (6, 0); (6, 1); (9, 0); (9, 1) ];
  Alcotest.(check bool) "subscriber watches the ring" true (P.watched t ~me:9 ~peer:0);
  Alcotest.(check bool) "the ring does not watch it" false (P.watched t ~me:0 ~peer:9);
  Alcotest.(check bool) "co-subscribers unwatched" false
    (P.watched t ~me:9 ~peer:6 || P.watched t ~me:6 ~peer:9);
  check "joins";
  step (P.Unsubscribe { node = 9; shard = 0 });
  Alcotest.(check bool) "left ring 0" false (P.watched t ~me:9 ~peer:0);
  Alcotest.(check bool) "still watches ring 1" true (P.watched t ~me:9 ~peer:3);
  check "leave one of two shards";
  step (P.Unsubscribe { node = 9; shard = 1 });
  Alcotest.(check bool) "back to its own ring" false (P.watched t ~me:9 ~peer:3);
  check "leave the last shard";
  (* Random joins and leaves through every path that changes a share-set:
     explicit Subscribe/Unsubscribe, SUB_REQ deliveries and reads served
     to outsiders (subscribe-on-access). *)
  let prng = Prng.create 12L in
  for i = 1 to 300 do
    let node = Prng.int prng nodes and shard = Prng.int prng shards in
    (match Prng.int prng 4 with
    | 0 -> step (P.Subscribe { node; shard })
    | 1 -> step (P.Unsubscribe { node; shard })
    | 2 ->
        let base = List.nth (Shard.ring s shard) (Prng.int prng (Shard.ring_size s shard)) in
        step (P.Deliver { dst = base; src = node; now = 0.0; msg = Message.Sub_req { base } })
    | _ ->
        let loc = Loc.indexed "v" (Prng.int prng (4 * nodes)) in
        step
          (P.Deliver
             {
               dst = Owner.owner owner loc;
               src = node;
               now = 0.0;
               msg = Message.Read_req { req = i; loc; epoch = 0 };
             }));
    check (Printf.sprintf "step %d" i)
  done

let test_make_validates () =
  Alcotest.check_raises "zero shards" (Invalid_argument "Shard.make: need 1 <= shards <= nodes")
    (fun () -> ignore (Shard.make ~nodes:4 ~shards:0));
  Alcotest.check_raises "too many" (Invalid_argument "Shard.make: need 1 <= shards <= nodes")
    (fun () -> ignore (Shard.make ~nodes:4 ~shards:5));
  Alcotest.check_raises "unsubscribe checks the node" (Invalid_argument "Shard: node id out of range")
    (fun () -> Shard.unsubscribe (Shard.make ~nodes:4 ~shards:2) ~shard:0 ~node:999)

let suite =
  [
    Alcotest.test_case "contiguous rings" `Quick test_contiguous_rings;
    Alcotest.test_case "uneven rings cover" `Quick test_uneven_rings_cover;
    Alcotest.test_case "full = one ring" `Quick test_full_is_one_ring;
    Alcotest.test_case "ring successor" `Quick test_ring_successor;
    Alcotest.test_case "subscribe/unsubscribe" `Quick test_subscribe_unsubscribe;
    Alcotest.test_case "membership matches subscribers" `Quick test_membership_matches_subscribers;
    Alcotest.test_case "induced owner consistent" `Quick test_induced_owner_consistent;
    Alcotest.test_case "subscriptions canonical" `Quick test_subscriptions_canonical;
    Alcotest.test_case "share-set GC collects idle subscribers" `Quick test_share_set_gc;
    Alcotest.test_case "watch masks track rings" `Quick test_watch_masks_track_rings;
    Alcotest.test_case "make validates" `Quick test_make_validates;
  ]
