(* Tests for Dsm_causal.Node: the in-memory protocol state transitions. *)

module Node = Dsm_causal.Node
module Stamped = Dsm_causal.Stamped
module Config = Dsm_causal.Config
module Policy = Dsm_causal.Policy
module Node_stats = Dsm_causal.Node_stats
module Loc = Dsm_memory.Loc
module Value = Dsm_memory.Value
module Wid = Dsm_memory.Wid
module Owner = Dsm_memory.Owner

(* Two nodes; node 0 owns even indices, node 1 odd. *)
let owner2 = Owner.by_index ~nodes:2

let make ?(config = Config.default) id = Node.create ~id ~owner:owner2 ~config

let even i = Loc.indexed "v" (2 * i)

let odd i = Loc.indexed "v" ((2 * i) + 1)

let test_owned_lazily_initialised () =
  let n = make 0 in
  match Node.lookup n (even 0) with
  | Some e ->
      Alcotest.(check bool) "initial value" true (Value.equal e.Stamped.value Value.initial);
      Alcotest.(check bool) "initial wid" true (Wid.is_initial e.Stamped.wid)
  | None -> Alcotest.fail "owned location must be present"

let test_unowned_invalid () =
  let n = make 0 in
  Alcotest.(check bool) "bottom" true (Node.lookup n (odd 0) = None)

let test_local_write_increments_clock () =
  let n = make 0 in
  let e = Node.local_write n (even 0) (Value.Int 5) in
  Alcotest.(check int) "clock bumped" 1 (Vclock.get (Node.vt n) 0);
  Alcotest.(check bool) "stamp is clock" true (Vclock.equal e.Stamped.stamp (Node.vt n));
  Alcotest.(check int) "stat" 1 (Node.stats n).Node_stats.writes_owned;
  let e2 = Node.local_write n (even 0) (Value.Int 6) in
  Alcotest.(check bool) "second write newer" true (Stamped.newer_than e2 e);
  Alcotest.(check bool) "wids differ" false (Wid.equal e.Stamped.wid e2.Stamped.wid)

let test_local_write_requires_ownership () =
  let n = make 0 in
  Alcotest.check_raises "not owned" (Invalid_argument "Node.local_write: location not owned")
    (fun () -> ignore (Node.local_write n (odd 0) (Value.Int 1)))

let test_install_remote_updates_clock_and_invalidates () =
  let n = make 0 in
  (* Cache an old entry for odd 0. *)
  let old_entry =
    Stamped.make ~value:(Value.Int 1) ~stamp:(Vclock.of_array [| 0; 1 |])
      ~wid:(Wid.make ~node:1 ~seq:0)
  in
  Node.install_remote n (odd 0) old_entry;
  Alcotest.(check int) "cached" 1 (Node.cache_size n);
  (* Introduce a strictly newer entry for odd 1: the old cache entry must be
     invalidated (Figure 4's rule). *)
  let newer =
    Stamped.make ~value:(Value.Int 2) ~stamp:(Vclock.of_array [| 0; 3 |])
      ~wid:(Wid.make ~node:1 ~seq:2)
  in
  Node.install_remote n (odd 1) newer;
  Alcotest.(check bool) "old invalidated" true (Node.lookup n (odd 0) = None);
  Alcotest.(check int) "stat" 1 (Node.stats n).Node_stats.invalidations;
  Alcotest.(check bool) "clock merged" true (Vclock.get (Node.vt n) 1 = 3)

let test_install_remote_keeps_concurrent () =
  let n = make 0 in
  Node.install_remote n (odd 0)
    (Stamped.make ~value:(Value.Int 1) ~stamp:(Vclock.of_array [| 0; 1 |])
       ~wid:(Wid.make ~node:1 ~seq:0));
  (* Entry with a concurrent stamp: must NOT invalidate the first. *)
  ignore (Node.local_write n (even 0) (Value.Int 9));
  (* A concurrent stamp has node-0 component but no node-1 component. *)
  Node.install_remote n (odd 1)
    (Stamped.make ~value:(Value.Int 2) ~stamp:(Vclock.of_array [| 1; 0 |])
       ~wid:(Wid.make ~node:1 ~seq:5));
  Alcotest.(check bool) "concurrent kept" true (Node.lookup n (odd 0) <> None)

let test_install_remote_rejects_owned () =
  let n = make 0 in
  Alcotest.check_raises "owned" (Invalid_argument "Node.install_remote: location is owned")
    (fun () ->
      Node.install_remote n (even 0) (Stamped.initial ~processes:2 Value.initial))

let test_owned_never_invalidated () =
  let n = make 0 in
  ignore (Node.local_write n (even 0) (Value.Int 5));
  Node.install_remote n (odd 0)
    (Stamped.make ~value:(Value.Int 1) ~stamp:(Vclock.of_array [| 9; 9 |])
       ~wid:(Wid.make ~node:1 ~seq:0));
  (match Node.lookup n (even 0) with
  | Some e -> Alcotest.(check bool) "owned survives" true (Value.equal e.Stamped.value (Value.Int 5))
  | None -> Alcotest.fail "owned location vanished")

let test_adopt_write_reply_no_invalidation () =
  let n = make 0 in
  (* Cache something old. *)
  Node.install_remote n (odd 0)
    (Stamped.make ~value:(Value.Int 1) ~stamp:(Vclock.of_array [| 0; 1 |])
       ~wid:(Wid.make ~node:1 ~seq:0));
  (* Adopting a W_REPLY with a dominating stamp must NOT invalidate (the
     write path of Figure 4 performs no invalidations at the writer). *)
  Node.adopt_write_reply n (odd 1)
    (Stamped.make ~value:(Value.Int 2) ~stamp:(Vclock.of_array [| 1; 5 |])
       ~wid:(Wid.make ~node:0 ~seq:0));
  Alcotest.(check bool) "no invalidation" true (Node.lookup n (odd 0) <> None);
  Alcotest.(check bool) "clock adopted" true (Vclock.get (Node.vt n) 1 = 5)

let test_certify_write_accept () =
  let n = make 0 in
  let incoming =
    Stamped.make ~value:(Value.Int 7) ~stamp:(Vclock.of_array [| 0; 1 |])
      ~wid:(Wid.make ~node:1 ~seq:0)
  in
  let accepted = ref false in
  let stored = Node.certify_write n (even 0) incoming ~accepted in
  Alcotest.(check bool) "accepted" true !accepted;
  Alcotest.(check bool) "value stored" true (Value.equal stored.Stamped.value (Value.Int 7));
  (* The certified stamp is the owner's merged clock (>= incoming). *)
  Alcotest.(check bool) "stamp dominates incoming" true
    (Vclock.leq incoming.Stamped.stamp stored.Stamped.stamp);
  Alcotest.(check bool) "stored at owner" true
    (match Node.lookup n (even 0) with
    | Some e -> Wid.equal e.Stamped.wid incoming.Stamped.wid
    | None -> false);
  Alcotest.(check int) "stat" 1 (Node.stats n).Node_stats.writes_certified

let test_certify_write_owner_favored_reject () =
  let config = Config.with_policy Policy.Owner_favored Config.default in
  let n = make ~config 0 in
  ignore (Node.local_write n (even 0) (Value.Int 5));
  (* Incoming write concurrent with the owner's own value. *)
  let incoming =
    Stamped.make ~value:(Value.Int 7) ~stamp:(Vclock.of_array [| 0; 1 |])
      ~wid:(Wid.make ~node:1 ~seq:0)
  in
  let accepted = ref true in
  let stored = Node.certify_write n (even 0) incoming ~accepted in
  Alcotest.(check bool) "rejected" false !accepted;
  Alcotest.(check bool) "owner value survives" true
    (Value.equal stored.Stamped.value (Value.Int 5));
  (* Clock still merged so future stamps dominate the rejected write. *)
  Alcotest.(check int) "clock merged" 1 (Vclock.get (Node.vt n) 1)

let test_certify_write_invalidates_cache () =
  let n = make 0 in
  Node.install_remote n (odd 0)
    (Stamped.make ~value:(Value.Int 1) ~stamp:(Vclock.of_array [| 0; 1 |])
       ~wid:(Wid.make ~node:1 ~seq:0));
  let incoming =
    Stamped.make ~value:(Value.Int 7) ~stamp:(Vclock.of_array [| 0; 2 |])
      ~wid:(Wid.make ~node:1 ~seq:1)
  in
  let accepted = ref false in
  ignore (Node.certify_write n (even 0) incoming ~accepted);
  Alcotest.(check bool) "older cached entry invalidated" true (Node.lookup n (odd 0) = None)

let test_discard_all_only_cached () =
  let n = make 0 in
  ignore (Node.local_write n (even 0) (Value.Int 1));
  Node.install_remote n (odd 0)
    (Stamped.make ~value:(Value.Int 2) ~stamp:(Vclock.of_array [| 0; 1 |])
       ~wid:(Wid.make ~node:1 ~seq:0));
  Alcotest.(check int) "dropped one" 1 (Node.discard_all n);
  Alcotest.(check bool) "owned kept" true (Node.lookup n (even 0) <> None);
  Alcotest.(check int) "stat" 1 (Node.stats n).Node_stats.discards

let test_discard_one () =
  let n = make 0 in
  Node.install_remote n (odd 0)
    (Stamped.make ~value:(Value.Int 2) ~stamp:(Vclock.of_array [| 0; 1 |])
       ~wid:(Wid.make ~node:1 ~seq:0));
  Alcotest.(check bool) "dropped" true (Node.discard_one n (odd 0));
  Alcotest.(check bool) "absent now" false (Node.discard_one n (odd 0));
  ignore (Node.local_write n (even 0) (Value.Int 1));
  Alcotest.(check bool) "owned refused" false (Node.discard_one n (even 0))

let test_capacity_eviction_lru () =
  let config = Config.with_discard (Config.Capacity 2) Config.default in
  let n = make ~config 0 in
  let install i stamp =
    Node.install_remote n (odd i)
      (Stamped.make ~value:(Value.Int i) ~stamp:(Vclock.of_array [| 0; stamp |])
         ~wid:(Wid.make ~node:1 ~seq:i))
  in
  (* Concurrent-ish stamps won't invalidate each other... they are ordered
     here, so use the same stamp component to keep all three live: install
     in increasing stamp order would invalidate.  Use touch order instead:
     install three entries with equal stamps via distinct locations. *)
  install 0 1;
  (* Touch odd 0 so odd 1 becomes the LRU candidate later. *)
  install 1 1;
  install 2 1;
  ignore (Node.lookup n (odd 0));
  Node.enforce_capacity n;
  Alcotest.(check int) "capacity respected" 2 (Node.cache_size n);
  Alcotest.(check bool) "recently used kept" true (Node.lookup n (odd 0) <> None)

let test_page_entries () =
  let config = Config.with_granularity (Config.Page 2) Config.default in
  let n = make ~config 0 in
  (* Node 0 owns even indices; page of v.0 under size 2 is {v.0, v.1} but
     v.1 is owned by node 1, so only co-paged owned locations count. *)
  ignore (Node.local_write n (Loc.indexed "v" 0) (Value.Int 1));
  Alcotest.(check int) "no co-paged owned" 0 (List.length (Node.page_entries n (Loc.indexed "v" 0)));
  (* With page size 4, v.0 and v.2 share a page and both are owned. *)
  let config4 = Config.with_granularity (Config.Page 4) Config.default in
  let n4 = Node.create ~id:0 ~owner:owner2 ~config:config4 in
  ignore (Node.local_write n4 (Loc.indexed "v" 0) (Value.Int 1));
  ignore (Node.local_write n4 (Loc.indexed "v" 2) (Value.Int 2));
  let page = Node.page_entries n4 (Loc.indexed "v" 0) in
  Alcotest.(check int) "one co-paged entry" 1 (List.length page);
  let other, entry = List.hd page in
  Alcotest.(check bool) "it is v.2" true (Loc.equal other (Loc.indexed "v" 2));
  Alcotest.(check bool) "right value" true (Value.equal entry.Stamped.value (Value.Int 2))

let test_install_batch_spares_itself () =
  let n = make 0 in
  (* A batch of two owner-current entries with ordered stamps must survive
     together, while an older unrelated cached entry is invalidated. *)
  Node.install_remote n (odd 0)
    (Stamped.make ~value:(Value.Int 1) ~stamp:(Vclock.of_array [| 0; 1 |])
       ~wid:(Wid.make ~node:1 ~seq:0));
  Node.install_batch n
    [
      ( odd 1,
        Stamped.make ~value:(Value.Int 2) ~stamp:(Vclock.of_array [| 0; 2 |])
          ~wid:(Wid.make ~node:1 ~seq:1) );
      ( odd 2,
        Stamped.make ~value:(Value.Int 3) ~stamp:(Vclock.of_array [| 0; 3 |])
          ~wid:(Wid.make ~node:1 ~seq:2) );
    ];
  Alcotest.(check bool) "older entry invalidated" true (Node.lookup n (odd 0) = None);
  Alcotest.(check bool) "batch member 1 kept" true (Node.lookup n (odd 1) <> None);
  Alcotest.(check bool) "batch member 2 kept" true (Node.lookup n (odd 2) <> None);
  Alcotest.(check int) "clock merged to max" 3 (Vclock.get (Node.vt n) 1)

let test_install_batch_singleton_is_install_remote () =
  let n1 = make 0 and n2 = make 0 in
  let seed_old node =
    Node.install_remote node (odd 0)
      (Stamped.make ~value:(Value.Int 1) ~stamp:(Vclock.of_array [| 0; 1 |])
         ~wid:(Wid.make ~node:1 ~seq:0))
  in
  seed_old n1;
  seed_old n2;
  let entry =
    Stamped.make ~value:(Value.Int 2) ~stamp:(Vclock.of_array [| 0; 2 |])
      ~wid:(Wid.make ~node:1 ~seq:1)
  in
  Node.install_remote n1 (odd 1) entry;
  Node.install_batch n2 [ (odd 1, entry) ];
  Alcotest.(check bool) "same cache contents" true
    (List.sort compare (List.map Loc.to_string (Node.cached_locs n1))
    = List.sort compare (List.map Loc.to_string (Node.cached_locs n2)));
  Alcotest.(check bool) "same clock" true (Vclock.equal (Node.vt n1) (Node.vt n2));
  (* They differ on a re-install.  Over 3 nodes, node 1 writes x.1 and
     node 0 installs it, then node 0 writes x.0.  A reader installs x.0,
     then the older x.1, then x.0 again: the batch skips x.0, which is
     cached as new, and keeps both; install_remote runs its pass again
     and invalidates x.1. *)
  let owner3 = Owner.by_index ~nodes:3 and x i = Loc.indexed "x" i in
  let node id = Node.create ~id ~owner:owner3 ~config:Config.default in
  let n0 = node 0 and n1 = node 1 in
  let x1 = Node.local_write n1 (x 1) (Value.Int 1) in
  Node.install_remote n0 (x 1) x1;
  let x0 = Node.local_write n0 (x 0) (Value.Int 2) in
  let reinstall again =
    let r = node 2 in
    Node.install_remote r (x 0) x0;
    Node.install_remote r (x 1) x1;
    again r;
    (Node.cache_size r, (Node.stats r).Node_stats.invalidations)
  in
  Alcotest.(check (pair int int)) "batch: 2 cached, 0 invalidated" (2, 0)
    (reinstall (fun r -> Node.install_batch r [ (x 0, x0) ]));
  Alcotest.(check (pair int int)) "install_remote: 1 cached, 1 invalidated" (1, 1)
    (reinstall (fun r -> Node.install_remote r (x 0) x0))

let test_fresh_wid_sequence () =
  let n = make 0 in
  let a = Node.fresh_wid n and b = Node.fresh_wid n in
  Alcotest.(check bool) "distinct" false (Wid.equal a b)

let test_set_vt_monotone () =
  let n = make 0 in
  ignore (Node.local_write n (even 0) (Value.Int 1));
  Alcotest.(check bool) "cannot shrink" true
    (try
       Node.set_vt n (Vclock.zero 2);
       false
     with Failure _ -> true)

let suite =
  [
    Alcotest.test_case "owned lazily initialised" `Quick test_owned_lazily_initialised;
    Alcotest.test_case "unowned invalid" `Quick test_unowned_invalid;
    Alcotest.test_case "local write clock" `Quick test_local_write_increments_clock;
    Alcotest.test_case "local write ownership" `Quick test_local_write_requires_ownership;
    Alcotest.test_case "install invalidates older" `Quick test_install_remote_updates_clock_and_invalidates;
    Alcotest.test_case "install keeps concurrent" `Quick test_install_remote_keeps_concurrent;
    Alcotest.test_case "install rejects owned" `Quick test_install_remote_rejects_owned;
    Alcotest.test_case "owned never invalidated" `Quick test_owned_never_invalidated;
    Alcotest.test_case "adopt no invalidation" `Quick test_adopt_write_reply_no_invalidation;
    Alcotest.test_case "certify accept" `Quick test_certify_write_accept;
    Alcotest.test_case "certify owner-favored reject" `Quick test_certify_write_owner_favored_reject;
    Alcotest.test_case "certify invalidates cache" `Quick test_certify_write_invalidates_cache;
    Alcotest.test_case "discard_all cached only" `Quick test_discard_all_only_cached;
    Alcotest.test_case "discard_one" `Quick test_discard_one;
    Alcotest.test_case "capacity LRU" `Quick test_capacity_eviction_lru;
    Alcotest.test_case "page entries" `Quick test_page_entries;
    Alcotest.test_case "install_batch spares itself" `Quick test_install_batch_spares_itself;
    Alcotest.test_case "install_batch singleton" `Quick test_install_batch_singleton_is_install_remote;
    Alcotest.test_case "fresh wid" `Quick test_fresh_wid_sequence;
    Alcotest.test_case "set_vt monotone" `Quick test_set_vt_monotone;
  ]
