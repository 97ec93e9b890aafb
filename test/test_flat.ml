(* Tests for Dsm_protocol.Flat: the flattened Figure-4 data path.

   Two pillars:

   - {e agreement}: random service-call sequences applied both to an array
     of reference {!Node}s (Config.default) and to one {!Flat} state must
     leave identical clocks, identical per-(node, location) entries, and
     report identical per-call verdicts.  The flat engine is only allowed
     to be a faster spelling of the same machine.

   - {e the ALLOC=0 gate}: once every node's stamp pool has reached its
     peak occupancy, a sustained mix of every hot operation must not grow
     the minor or the major heap.  This is the property the microbench
     speedup rests on; the test fails if anyone adds an allocating step to
     the hot path. *)

module Node = Dsm_protocol.Node
module Config = Dsm_protocol.Config
module Flat = Dsm_protocol.Flat
module Stamped = Dsm_protocol.Stamped
module Loc = Dsm_memory.Loc
module Value = Dsm_memory.Value
module Wid = Dsm_memory.Wid
module Owner = Dsm_memory.Owner

let loc_of id = Loc.indexed "x" id

(* One reference cluster + one flat state of [nodes] nodes over the
   locations of [owners], location [l] owned by [owners.(l)] on both
   sides. *)
let make_pair ~nodes ~owners =
  let owner =
    Owner.make ~nodes (function
      | Loc.Indexed ("x", l) -> owners.(l)
      | loc -> invalid_arg ("make_pair: " ^ Loc.to_string loc))
  in
  let ref_nodes = Array.init nodes (fun id -> Node.create ~id ~owner ~config:Config.default) in
  let flat = Flat.create ~nodes ~locs:(Array.length owners) ~owner:owners () in
  (ref_nodes, flat)

(* {2 The op language}

   Encoded as plain int tuples so QCheck can generate, shrink, and print
   them.  [stamp] entries ride along for Certify; other ops ignore them. *)

type op = int * int * int * int list

let interpret_stamp raw = List.map (fun x -> abs x mod 5) raw

let pp_op (tag, a, b, stamp) =
  Printf.sprintf "(%d,%d,%d,[%s])" tag a b
    (String.concat ";" (List.map string_of_int (interpret_stamp stamp)))

(* A case is a node count, an owner for each location and an op
   sequence.  The stamp kernels work in blocks of four components and a
   tail: 4 nodes is one block, 7 a block and a tail, 10 two blocks and a
   tail, and stamp windows then start at offsets that are not multiples of
   four.  There are 6 to 32 locations.  Each goes to one heavy node with
   weight [bias] (0 to 3) against 1 for a uniform draw, so layouts run
   from uniform to one node owning nearly all, and many cases have nodes
   that own nothing: a node's cached entries start after however many
   slots its owned ones take.  On some cases a node caches more locations
   than its initial pool holds, and the pool grows mid-sequence. *)
let gen_case =
  QCheck.make
    ~print:(fun (nodes, owners, ops) ->
      Printf.sprintf "nodes %d, owners [%s]: %s" nodes
        (String.concat ";" (Array.to_list (Array.map string_of_int owners)))
        (String.concat " " (List.map pp_op ops)))
    QCheck.Gen.(
      let* nodes = oneofl [ 4; 7; 10 ] in
      let* locs = int_range 6 32 and* heavy = int_bound (nodes - 1) and* bias = int_range 0 3 in
      triple (return nodes)
        (array_repeat locs (frequency [ (bias, return heavy); (1, int_bound (nodes - 1)) ]))
        (list_size (int_range 1 100)
           (quad (int_range 0 5) (int_range 0 95) (int_range 0 99)
              (list_size (return nodes) (int_range 0 4)))))

(* [node]'s entry for [loc] carries the wid [(wn, ws)]. *)
let carries flat ~node ~loc (wn, ws) =
  Flat.entry_wid_node flat ~node ~loc = wn && Flat.entry_wid_seq flat ~node ~loc = ws

let wid_of (entry : Stamped.t) = (entry.Stamped.wid.Wid.node, entry.Stamped.wid.Wid.seq)

(* Apply one op to both sides; return false on any verdict mismatch. *)
let apply (ref_nodes : Node.t array) (flat : Flat.t) ((tag, a, b, stamp) : op) : bool =
  let nodes = Flat.nodes flat in
  let l = a mod Flat.locations flat in
  let o = Flat.owner_of flat l in
  let v = b mod 10 in
  match tag with
  | 0 ->
      (* Owner write. *)
      let entry = Node.local_write ref_nodes.(o) (loc_of l) (Value.Int v) in
      Flat.owner_write flat ~node:o ~loc:l ~value:v;
      Flat.entry_value flat ~node:o ~loc:l = v && carries flat ~node:o ~loc:l (wid_of entry)
  | 1 ->
      (* Certify an externally stamped write (covers After / Before / Equal /
         Concurrent against whatever the owner currently stores).  Flat
         accepted it exactly when the entry now carries its wid. *)
      let st = Array.of_list (interpret_stamp stamp) in
      let wid_node = b mod nodes and wid_seq = a mod 7 in
      let incoming =
        Stamped.make ~value:(Value.Int v) ~stamp:(Vclock.of_array st)
          ~wid:(Wid.make ~node:wid_node ~seq:wid_seq)
      in
      let accepted = ref false in
      let stored = Node.certify_write ref_nodes.(o) (loc_of l) incoming ~accepted in
      Flat.certify flat ~node:o ~loc:l ~value:v ~wid_node ~wid_seq ~stamp:st ~stamp_off:0;
      carries flat ~node:o ~loc:l (wid_node, wid_seq) = !accepted
      && carries flat ~node:o ~loc:l (wid_of stored)
  | 2 | 3 ->
      (* Ship the owner's current entry to a non-owner: R_REPLY install
         (tag 2) or W_REPLY adoption (tag 3).  The entry is read from the
         reference side; entry agreement at the end catches divergence. *)
      let n = b mod nodes in
      if n = o then true
      else begin
        match Node.lookup ref_nodes.(o) (loc_of l) with
        | None -> true (* owner entries are always present; unreachable *)
        | Some entry ->
            let st = Vclock.to_array entry.Stamped.stamp in
            let ev = Value.to_int entry.Stamped.value in
            let wn = entry.Stamped.wid.Wid.node and ws = entry.Stamped.wid.Wid.seq in
            if tag = 2 then begin
              Node.install_remote ref_nodes.(n) (loc_of l) entry;
              Flat.install_remote flat ~node:n ~loc:l ~value:ev ~wid_node:wn ~wid_seq:ws
                ~stamp:st ~stamp_off:0
            end
            else begin
              Node.adopt_write_reply ref_nodes.(n) (loc_of l) entry;
              Flat.adopt_write_reply flat ~node:n ~loc:l ~value:ev ~wid_node:wn ~wid_seq:ws
                ~stamp:st ~stamp_off:0
            end;
            true
      end
  | 4 ->
      (* Duplicate certification: re-submit exactly what the owner stores
         (the RPC-retry branch). *)
      ( match Node.lookup ref_nodes.(o) (loc_of l) with
      | None -> true
      | Some entry when Wid.is_initial entry.Stamped.wid -> true
      | Some entry ->
          let st = Vclock.to_array entry.Stamped.stamp in
          let accepted = ref false in
          let _ = Node.certify_write ref_nodes.(o) (loc_of l) entry ~accepted in
          Flat.certify flat ~node:o ~loc:l
            ~value:(Value.to_int entry.Stamped.value)
            ~wid_node:entry.Stamped.wid.Wid.node ~wid_seq:entry.Stamped.wid.Wid.seq ~stamp:st
            ~stamp_off:0;
          !accepted && carries flat ~node:o ~loc:l (wid_of entry) )
  | _ ->
      (* Read. *)
      let n = b mod nodes in
      Flat.read flat ~node:n ~loc:l;
      let hit = Flat.cached_hit flat ~node:n ~loc:l in
      ( match Node.lookup ref_nodes.(n) (loc_of l) with
      | None -> not hit
      | Some entry ->
          hit
          && Flat.entry_value flat ~node:n ~loc:l = Value.to_int entry.Stamped.value
          && carries flat ~node:n ~loc:l (wid_of entry) )

(* Full-state agreement: clocks, cache sizes, and every (node, loc)
   entry. *)
let states_agree (ref_nodes : Node.t array) (flat : Flat.t) : bool =
  let ok = ref true in
  for n = 0 to Array.length ref_nodes - 1 do
    if Vclock.to_array (Node.vt ref_nodes.(n)) <> Flat.clock_of flat n then ok := false;
    if Node.cache_size ref_nodes.(n) <> Flat.cached_count flat n then ok := false;
    for l = 0 to Flat.locations flat - 1 do
      match (Node.lookup ref_nodes.(n) (loc_of l), Flat.entry_view flat ~node:n ~loc:l) with
      | None, None -> ()
      | Some entry, Some (v, st, wn, ws) ->
          if
            Value.to_int entry.Stamped.value <> v
            || Vclock.to_array entry.Stamped.stamp <> st
            || entry.Stamped.wid.Wid.node <> wn
            || entry.Stamped.wid.Wid.seq <> ws
          then ok := false
      | None, Some _ | Some _, None -> ok := false
    done
  done;
  !ok

let prop_flat_agrees_with_node =
  QCheck.Test.make ~name:"flat data path agrees with Node step for step" ~count:600 gen_case
    (fun (nodes, owners, ops) ->
      let ref_nodes, flat = make_pair ~nodes ~owners in
      List.for_all (apply ref_nodes flat) ops && states_agree ref_nodes flat)

let prop_flat_counters_consistent =
  QCheck.Test.make ~name:"flat counters add up" ~count:200 gen_case (fun (nodes, owners, ops) ->
      let ref_nodes, flat = make_pair ~nodes ~owners in
      List.iter (fun op -> ignore (apply ref_nodes flat op)) ops;
      let c = Flat.counters flat in
      c.Flat.writes_owned >= 0
      && c.Flat.writes_rejected <= c.Flat.writes_certified
      && c.Flat.read_hits + c.Flat.read_misses >= 0
      && c.Flat.invalidations >= 0)

(* {2 The ALLOC=0 gate}

   Drives every hot operation — owner writes, remote-write round trips
   (bump / certify / adopt), installs, reads — and asserts that neither
   heap grew.  Arrays over 256 words go straight to the major heap, so a
   256-wide stamp pool that kept growing, or was reallocated on every
   install, would show only there.  [Gc.minor_words] and [Gc.counters]'s
   major words are exact ([Gc.quick_stat] on OCaml 5 lags until the next
   collection, and [Gc.counters] on OCaml 5.1 reads the minor words
   allocated since the last minor collection at an eighth of their
   number); [Gc.counters]'s boxed result is a small constant independent
   of the iteration count, and anything an inner-loop allocation would
   add scales with that count and trips the bound. *)

let alloc_bound_words = 256.0

let drive_hot_loop flat ~iters =
  let n = Flat.nodes flat in
  let locs = Flat.locations flat in
  let clock = Flat.clock_arena flat in
  for i = 0 to iters - 1 do
    let l = i mod locs in
    let o = Flat.owner_of flat l in
    let w = (o + 1 + (i mod (n - 1))) mod n in
    (* Owner write on the hot location. *)
    Flat.owner_write flat ~node:o ~loc:l ~value:i;
    (* Remote write round trip: the writer stamps with its own clock row,
       the owner certifies, the writer adopts the certified entry. *)
    Vclock.Flat.bump clock ~off:(Flat.clock_off flat w) w;
    Flat.certify flat ~node:o ~loc:l ~value:(i + 1) ~wid_node:w ~wid_seq:i ~stamp:clock
      ~stamp_off:(Flat.clock_off flat w);
    (* The owner's pool: only the owner's own installs could replace it. *)
    let stamps = Flat.stamp_arena flat ~node:o in
    let e = Flat.entry_off flat ~node:o ~loc:l in
    let value = Flat.entry_value flat ~node:o ~loc:l
    and wid_node = Flat.entry_wid_node flat ~node:o ~loc:l
    and wid_seq = Flat.entry_wid_seq flat ~node:o ~loc:l in
    Flat.adopt_write_reply flat ~node:w ~loc:l ~value ~wid_node ~wid_seq ~stamp:stamps ~stamp_off:e;
    (* R_REPLY install at a third node, then reads everywhere. *)
    let r = (w + 1) mod n in
    if r <> o then
      Flat.install_remote flat ~node:r ~loc:l ~value ~wid_node ~wid_seq ~stamp:stamps ~stamp_off:e;
    Flat.read flat ~node:o ~loc:l;
    Flat.read flat ~node:w ~loc:l;
    Flat.read flat ~node:r ~loc:((l + 1) mod locs)
  done

(* Every node caches the initial entries of up to 16 locations it does
   not own.  Their stamps are all zero, so no install invalidates another,
   and each pool doubles to the peak the hot loop then runs in (sim-256's
   nodes hold at most 16 entries); the loop's first installs free those
   slots for reuse. *)
let cache_initial_entries flat =
  let nodes = Flat.nodes flat and locs = Flat.locations flat in
  for node = 0 to nodes - 1 do
    for k = 1 to min 16 (locs - 1) do
      let l = (node + k) mod locs in
      let o = Flat.owner_of flat l in
      if o <> node then
        Flat.install_remote flat ~node ~loc:l ~value:(Flat.entry_value flat ~node:o ~loc:l)
          ~wid_node:(Flat.entry_wid_node flat ~node:o ~loc:l)
          ~wid_seq:(Flat.entry_wid_seq flat ~node:o ~loc:l)
          ~stamp:(Flat.stamp_arena flat ~node:o) ~stamp_off:(Flat.entry_off flat ~node:o ~loc:l)
    done
  done

(* The warm-up brings every pool to its peak size and faults in every
   branch; the measured run must then allocate nothing on either heap. *)
let check_alloc_free ~nodes ~locs ~iters =
  let flat = Flat.create ~nodes ~locs ~owner:(Array.init locs (fun l -> l mod nodes)) () in
  cache_initial_entries flat;
  drive_hot_loop flat ~iters:1_000;
  let minor0 = Gc.minor_words () and _, _, major0 = Gc.counters () in
  drive_hot_loop flat ~iters;
  let minor1 = Gc.minor_words () and _, _, major1 = Gc.counters () in
  let minor = minor1 -. minor0 and major = major1 -. major0 in
  if minor > alloc_bound_words || major > alloc_bound_words then
    Alcotest.failf "hot path allocated at %d nodes: %.0f minor and %.0f major words over %d iterations"
      nodes minor major iters;
  let c = Flat.counters flat in
  Alcotest.(check bool) "did real work" true (c.Flat.writes_owned > iters)

let test_alloc_free_hot_path () =
  check_alloc_free ~nodes:8 ~locs:16 ~iters:200_000;
  check_alloc_free ~nodes:256 ~locs:256 ~iters:20_000

(* A focused semantic check the property above covers statistically:
   certification of a stale stamp must reject and must not clobber. *)
let test_certify_rejects_stale () =
  let flat = Flat.create ~nodes:2 ~locs:1 ~owner:[| 0 |] () in
  Flat.owner_write flat ~node:0 ~loc:0 ~value:7;
  let stale = [| 0; 0 |] in
  Flat.certify flat ~node:0 ~loc:0 ~value:9 ~wid_node:1 ~wid_seq:0 ~stamp:stale ~stamp_off:0;
  Alcotest.(check bool) "rejected" false (carries flat ~node:0 ~loc:0 (1, 0));
  Alcotest.(check int) "value kept" 7 (Flat.entry_value flat ~node:0 ~loc:0);
  match Flat.entry_view flat ~node:0 ~loc:0 with
  | Some (v, _, _, _) -> Alcotest.(check int) "stored kept" 7 v
  | None -> Alcotest.fail "owner entry missing"

let test_install_invalidates_older () =
  (* Node 2 caches an old x.0; installing a newer y (owned elsewhere) whose
     stamp dominates must invalidate the cached x.0. *)
  let flat = Flat.create ~nodes:3 ~locs:2 ~owner:[| 0; 1 |] () in
  Flat.owner_write flat ~node:0 ~loc:0 ~value:1;
  let e0 = Flat.entry_off flat ~node:0 ~loc:0 in
  Flat.install_remote flat ~node:2 ~loc:0 ~value:1 ~wid_node:0 ~wid_seq:0
    ~stamp:(Flat.stamp_arena flat ~node:0) ~stamp_off:e0;
  Alcotest.(check bool) "cached" true (Flat.cached_hit flat ~node:2 ~loc:0);
  Alcotest.(check int) "one cached" 1 (Flat.cached_count flat 2);
  (* A later write at node 1 whose stamp has heard node 0's write. *)
  let dom = [| 1; 1; 0 |] in
  Flat.certify flat ~node:1 ~loc:1 ~value:5 ~wid_node:2 ~wid_seq:0 ~stamp:dom ~stamp_off:0;
  Alcotest.(check bool) "accepted" true (carries flat ~node:1 ~loc:1 (2, 0));
  let e1 = Flat.entry_off flat ~node:1 ~loc:1 in
  Flat.install_remote flat ~node:2 ~loc:1 ~value:5 ~wid_node:2 ~wid_seq:0
    ~stamp:(Flat.stamp_arena flat ~node:1) ~stamp_off:e1;
  Alcotest.(check bool) "older cache invalidated" false (Flat.cached_hit flat ~node:2 ~loc:0);
  Alcotest.(check bool) "new cache present" true (Flat.cached_hit flat ~node:2 ~loc:1);
  Alcotest.(check int) "freed slot not counted" 1 (Flat.cached_count flat 2)

(* Node 0 owns all 64 locations, so node 1's pool starts with a few spare
   slots only.  Node 1 caches every location (newest first, so no install
   invalidates an earlier one), and its pool doubles on the way; one
   install with a dominating stamp frees 63 slots; caching the 63 again
   must reuse them without growing the pool.  The reference Node pair
   checks every entry and cache size after each install. *)
let test_pool_grows_and_reuses_slots () =
  let locs = 64 in
  let owner = Owner.all_to ~nodes:2 0 in
  let ref_nodes = Array.init 2 (fun id -> Node.create ~id ~owner ~config:Config.default) in
  let flat = Flat.create ~nodes:2 ~locs ~owner:(Array.make locs 0) () in
  let owner_write l =
    ignore (Node.local_write ref_nodes.(0) (loc_of l) (Value.Int l));
    Flat.owner_write flat ~node:0 ~loc:l ~value:l
  in
  let install l =
    match Node.lookup ref_nodes.(0) (loc_of l) with
    | None -> Alcotest.fail "owner entry missing"
    | Some entry ->
        Node.install_remote ref_nodes.(1) (loc_of l) entry;
        Flat.install_remote flat ~node:1 ~loc:l ~value:(Value.to_int entry.Stamped.value)
          ~wid_node:entry.Stamped.wid.Wid.node ~wid_seq:entry.Stamped.wid.Wid.seq
          ~stamp:(Vclock.to_array entry.Stamped.stamp) ~stamp_off:0;
        if not (states_agree ref_nodes flat) then Alcotest.failf "diverged after installing x.%d" l
  in
  (* A slot is a four-word header and a 2-node stamp. *)
  let pool_slots () = Array.length (Flat.stamp_arena flat ~node:1) / (4 + 2) in
  let initial = pool_slots () in
  for l = 0 to locs - 1 do
    owner_write l
  done;
  for l = locs - 1 downto 0 do
    install l
  done;
  Alcotest.(check int) "all cached" locs (Flat.cached_count flat 1);
  let grown = pool_slots () in
  Alcotest.(check bool) "pool grew" true (initial < locs && grown >= locs);
  owner_write 0;
  install 0;
  Alcotest.(check int) "dominating install leaves one" 1 (Flat.cached_count flat 1);
  for l = locs - 1 downto 1 do
    install l
  done;
  Alcotest.(check int) "all cached again" locs (Flat.cached_count flat 1);
  Alcotest.(check int) "freed slots reused" grown (pool_slots ())

let suite =
  [
    Alcotest.test_case "certify rejects stale" `Quick test_certify_rejects_stale;
    Alcotest.test_case "install invalidates older" `Quick test_install_invalidates_older;
    Alcotest.test_case "pool grows and reuses slots" `Quick test_pool_grows_and_reuses_slots;
    Alcotest.test_case "hot path is allocation-free" `Quick test_alloc_free_hot_path;
    QCheck_alcotest.to_alcotest prop_flat_agrees_with_node;
    QCheck_alcotest.to_alcotest prop_flat_counters_consistent;
  ]
