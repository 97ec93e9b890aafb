(* Tests for Dsm_sim.Par_engine: the conservative domain-parallel
   simulation of the flat data path.

   The load-bearing property is {e domain-count independence}: logical
   shards and all processing orders are fixed per run, so 1-, 2-, and
   4-domain executions of the same parameters must produce the same final
   memory (digest), the same epoch count, and the same op stream, bit for
   bit.  On top of that, the generated histories must actually be causal —
   the online checker rejects nothing. *)

module Par = Dsm_sim.Par_engine
module Flat = Dsm_protocol.Flat
module Online = Dsm_checker.Online
module Op = Dsm_memory.Op
module Loc = Dsm_memory.Loc
module Value = Dsm_memory.Value
module Wid = Dsm_memory.Wid

let base_params =
  { (Par.default_params ~nodes:12) with locs = 18; shards = 5; seed = 42; remote_pct = 40 }

(* An [on_ops] consumer: one line per op-log record, node id first. *)
let record stream ~node ~buf ~len =
  for o = 0 to (len / Par.log_stride) - 1 do
    Buffer.add_string stream (string_of_int node);
    for k = 0 to Par.log_stride - 1 do
      Buffer.add_char stream ',';
      Buffer.add_string stream (string_of_int buf.((o * Par.log_stride) + k))
    done;
    Buffer.add_char stream '\n'
  done

(* Capture the entire barrier-ordered op stream as one string plus the run
   stats. *)
let capture ?(params = base_params) ~domains ~target_ops () =
  let eng = Par.create params in
  let stream = Buffer.create 4096 in
  let stats = Par.run ~domains ~target_ops ~on_ops:(record stream) eng in
  (stats, Buffer.contents stream)

let test_domain_count_independence () =
  let s1, ops1 = capture ~domains:1 ~target_ops:2_000 () in
  let s2, ops2 = capture ~domains:2 ~target_ops:2_000 () in
  let s4, ops4 = capture ~domains:4 ~target_ops:2_000 () in
  Alcotest.(check int) "2-domain digest" s1.Par.digest s2.Par.digest;
  Alcotest.(check int) "4-domain digest" s1.Par.digest s4.Par.digest;
  Alcotest.(check int) "2-domain epochs" s1.Par.epochs s2.Par.epochs;
  Alcotest.(check int) "4-domain epochs" s1.Par.epochs s4.Par.epochs;
  Alcotest.(check int) "2-domain completed" s1.Par.completed s2.Par.completed;
  Alcotest.(check int) "4-domain completed" s1.Par.completed s4.Par.completed;
  Alcotest.(check bool) "2-domain op stream" true (String.equal ops1 ops2);
  Alcotest.(check bool) "4-domain op stream" true (String.equal ops1 ops4);
  Alcotest.(check int) "domains used" 4 s4.Par.domains_used

let test_run_completes_all_issued () =
  let eng = Par.create base_params in
  let stats = Par.run ~domains:2 ~target_ops:1_500 eng in
  Alcotest.(check bool) "hit target" true (stats.Par.completed >= 1_500);
  Alcotest.(check int) "no op lost in flight" stats.Par.issued stats.Par.completed;
  Alcotest.(check bool) "remote traffic happened" true (stats.Par.remote_ops > 0);
  Alcotest.(check bool) "epochs advanced" true (stats.Par.epochs > 1)

let test_single_shot () =
  let eng = Par.create base_params in
  ignore (Par.run ~target_ops:100 eng);
  Alcotest.check_raises "reruns rejected" (Invalid_argument "Par_engine.run: engine already ran")
    (fun () -> ignore (Par.run ~target_ops:100 eng))

(* The generated histories must be causal: feed the barrier-ordered op
   stream (which preserves per-process program order) to the online
   checker and expect silence.  Wid node -1 in the log is the virtual
   initial write. *)
let feed_checker ~domains ~target_ops params =
  let eng = Par.create params in
  let ck = Online.create () in
  let indices = Array.make params.Par.nodes 0 in
  let violations = ref 0 in
  let stats =
    Par.run ~domains ~target_ops
      ~on_ops:(fun ~node ~buf ~len ->
        for o = 0 to (len / Par.log_stride) - 1 do
          let b = o * Par.log_stride in
          let kind = buf.(b)
          and loc = Loc.indexed "x" buf.(b + 1)
          and value = Value.Int buf.(b + 2)
          and wn = buf.(b + 3)
          and ws = buf.(b + 4) in
          let index = indices.(node) in
          indices.(node) <- index + 1;
          let op =
            if kind = 0 then
              Op.read ~pid:node ~index ~loc ~value
                ~from:(if wn < 0 then Wid.initial else Wid.make ~node:wn ~seq:ws)
            else Op.write ~pid:node ~index ~loc ~value ~wid:(Wid.make ~node:wn ~seq:ws)
          in
          violations := !violations + List.length (Online.add_op ck op)
        done)
      eng
  in
  (stats, ck, !violations)

let test_history_is_causal () =
  let stats, ck, violations = feed_checker ~domains:2 ~target_ops:2_500 base_params in
  Alcotest.(check int) "no violations" 0 violations;
  Alcotest.(check int) "checker saw every op" stats.Par.completed (Online.ops_seen ck)

let test_larger_scale_smoke () =
  (* A taste of the bench shape: more nodes than shards, a few thousand
     ops, parallel run must stay deterministic vs the reference. *)
  let params =
    { (Par.default_params ~nodes:48) with seed = 7; shards = 8; remote_pct = 35 }
  in
  let a = Par.run ~domains:1 ~target_ops:4_000 (Par.create params) in
  let b = Par.run ~domains:4 ~target_ops:4_000 (Par.create params) in
  Alcotest.(check int) "digest" a.Par.digest b.Par.digest;
  Alcotest.(check int) "completed" a.Par.completed b.Par.completed;
  Alcotest.(check int) "epochs" a.Par.epochs b.Par.epochs

(* {2 Pinned output}

   The tests above compare runs with each other, so a slip that every
   domain count shares would pass them.  This one pins a single 256-node
   run's final digest, an MD5 of the op logs handed to [on_ops] and Flat's
   counters as literals: a faster kernel or a cheaper mailbox record must
   reproduce them exactly. *)

let test_pinned_run () =
  let eng = Par.create { (Par.default_params ~nodes:256) with seed = 1 } in
  let stream = Buffer.create 4096 in
  let stats = Par.run ~domains:1 ~target_ops:100_000 ~on_ops:(record stream) eng in
  let c = Flat.counters (Par.flat eng) in
  Alcotest.(check int) "digest" 2055887741507107083 stats.Par.digest;
  Alcotest.(check string) "op logs" "15f9d2bf9e26878db08eb0c258396020" (Digest.to_hex (Digest.string (Buffer.contents stream)));
  Alcotest.(check string) "counters"
    "owned=29773 certified=14028 rejected=0 invalidations=31882 installs=19051 hits=37727 misses=0"
    (Printf.sprintf "owned=%d certified=%d rejected=%d invalidations=%d installs=%d hits=%d misses=%d"
       c.Flat.writes_owned c.Flat.writes_certified c.Flat.writes_rejected c.Flat.invalidations
       c.Flat.installs c.Flat.read_hits c.Flat.read_misses)

let suite =
  [
    Alcotest.test_case "domain-count independence" `Quick test_domain_count_independence;
    Alcotest.test_case "all issued ops complete" `Quick test_run_completes_all_issued;
    Alcotest.test_case "single shot" `Quick test_single_shot;
    Alcotest.test_case "history is causal" `Quick test_history_is_causal;
    Alcotest.test_case "48-node parallel determinism" `Quick test_larger_scale_smoke;
    Alcotest.test_case "pinned 256-node run" `Quick test_pinned_run;
  ]
