(* The incremental online checker: same Definition-1 verdicts as the
   post-hoc checker when operations arrive in a causally sensible order,
   deferred reads-from resolution, and the soundness half of the contract
   (every reported violation is real). *)

module Online = Dsm_checker.Online
module Check = Dsm_checker.Causal_check
module Histories = Dsm_checker.Histories
module History = Dsm_memory.History
module Op = Dsm_memory.Op
module Loc = Dsm_memory.Loc
module Value = Dsm_memory.Value
module Wid = Dsm_memory.Wid

let rows h = (h : History.t :> Op.t array array)

(* Feed a history's operations round-robin across processes (per-process
   program order preserved, which is all the checker requires). *)
let feed_round_robin ck h =
  let rows = rows h in
  let cursors = Array.map (fun _ -> 0) rows in
  let vs = ref [] in
  let progress = ref true in
  while !progress do
    progress := false;
    Array.iteri
      (fun pid row ->
        if cursors.(pid) < Array.length row then begin
          vs := Online.add_op ck row.(cursors.(pid)) @ !vs;
          cursors.(pid) <- cursors.(pid) + 1;
          progress := true
        end)
      rows
  done;
  List.rev !vs

let test_correct_histories_clean () =
  List.iter
    (fun (name, h, verdict) ->
      if verdict = `Causal_ok then begin
        let ck = Online.create () in
        let vs = feed_round_robin ck h in
        Alcotest.(check int) (name ^ ": no violations") 0 (List.length vs);
        Alcotest.(check int) (name ^ ": nothing pending") 0 (Online.pending_reads ck);
        Alcotest.(check int)
          (name ^ ": every op ingested")
          (History.op_count h) (Online.ops_seen ck)
      end)
    Histories.all

let test_stale_read_detected () =
  (* The message-passing litmus: P0 writes x then y; P1 sees the new y but
     then reads the old x.  Fed in real-time order the final read is
     checked with the full causal context and must be rejected. *)
  let ck = Online.create () in
  let w1 = Op.write ~pid:0 ~index:0 ~loc:(Loc.named "x") ~value:(Value.Int 1)
      ~wid:(Wid.make ~node:0 ~seq:0)
  and w2 = Op.write ~pid:0 ~index:1 ~loc:(Loc.named "y") ~value:(Value.Int 1)
      ~wid:(Wid.make ~node:0 ~seq:1)
  and r1 = Op.read ~pid:1 ~index:0 ~loc:(Loc.named "y") ~value:(Value.Int 1)
      ~from:(Wid.make ~node:0 ~seq:1)
  and r2 = Op.read ~pid:1 ~index:1 ~loc:(Loc.named "x") ~value:Value.initial
      ~from:Wid.initial
  in
  Alcotest.(check int) "w(x)1 clean" 0 (List.length (Online.add_op ck w1));
  Alcotest.(check int) "w(y)1 clean" 0 (List.length (Online.add_op ck w2));
  Alcotest.(check int) "r(y)1 clean" 0 (List.length (Online.add_op ck r1));
  match Online.add_op ck r2 with
  | [ v ] ->
      Alcotest.(check bool) "flags the stale read" true
        (v.Online.v_op = r2);
      Alcotest.(check bool) "reason mentions the initial value" true
        (String.length v.Online.v_reason > 0)
  | other -> Alcotest.failf "expected exactly one violation, got %d" (List.length other)

let test_deferred_reads_from () =
  (* A read can arrive before the write it read from (the reader's node
     returned before the writer's op completed): the verdict is deferred
     and delivered when the write shows up. *)
  let ck = Online.create () in
  let w = Wid.make ~node:0 ~seq:0 in
  let r = Op.read ~pid:1 ~index:0 ~loc:(Loc.named "x") ~value:(Value.Int 7) ~from:w in
  Alcotest.(check int) "read defers" 0
    (List.length (Online.add_op ck r));
  Alcotest.(check int) "one read pending" 1 (Online.pending_reads ck);
  let write =
    Op.write ~pid:0 ~index:0 ~loc:(Loc.named "x") ~value:(Value.Int 7) ~wid:w
  in
  Alcotest.(check int) "write resolves it cleanly" 0
    (List.length (Online.add_op ck write));
  Alcotest.(check int) "nothing pending" 0 (Online.pending_reads ck)

let test_deferred_overwritten_detected () =
  (* Deferred resolution must still reject: the read's source write turns
     out to be causally overwritten for it by the time it arrives. *)
  let ck = Online.create () in
  let wa = Wid.make ~node:0 ~seq:0 and wb = Wid.make ~node:0 ~seq:1 in
  let x = Loc.named "x" in
  (* P1 reads the newer value, then (program-order later!) the older one,
     whose write has not arrived yet. *)
  let ops_before =
    [
      Op.write ~pid:0 ~index:0 ~loc:x ~value:(Value.Int 1) ~wid:wa;
      Op.read ~pid:1 ~index:0 ~loc:x ~value:(Value.Int 2) ~from:wb;
      Op.read ~pid:1 ~index:1 ~loc:x ~value:(Value.Int 1) ~from:wa;
    ]
  in
  List.iter (fun op -> ignore (Online.add_op ck op)) ops_before;
  Alcotest.(check int) "first read still pending" 1 (Online.pending_reads ck);
  (* Now w#0.1 arrives: r(x)2 resolves legally, but that retroactive rf
     edge is exactly what makes the second read's source overwritten —
     the next check must catch the violation that was already latent. *)
  let late = Op.write ~pid:0 ~index:1 ~loc:x ~value:(Value.Int 2) ~wid:wb in
  ignore (Online.add_op ck late);
  Alcotest.(check int) "nothing pending" 0 (Online.pending_reads ck);
  (* A third read repeating the stale value is checked with full context. *)
  let again = Op.read ~pid:1 ~index:2 ~loc:x ~value:(Value.Int 1) ~from:wa in
  (match Online.add_op ck again with
  | [ v ] ->
      Alcotest.(check bool) "stale re-read rejected" true (v.Online.v_op = again)
  | other -> Alcotest.failf "expected one violation, got %d" (List.length other));
  Alcotest.(check bool) "violations accumulate" true
    (List.length (Online.violations ck) >= 1)

let test_future_read_detected () =
  (* A read whose source write causally follows the read itself: the write
     arrives later on the same process, after the read.  Definition 1
     forbids it; the deferred path must reject without wiring a cycle. *)
  let ck = Online.create () in
  let w = Wid.make ~node:0 ~seq:0 in
  let x = Loc.named "x" in
  let r = Op.read ~pid:0 ~index:0 ~loc:x ~value:(Value.Int 1) ~from:w in
  ignore (Online.add_op ck r);
  let write = Op.write ~pid:0 ~index:1 ~loc:x ~value:(Value.Int 1) ~wid:w in
  match Online.add_op ck write with
  | [ v ] ->
      Alcotest.(check bool) "future read flagged" true (v.Online.v_op = r)
  | other -> Alcotest.failf "expected one violation, got %d" (List.length other)

let test_pending_evidence_deferred () =
  (* A read must not be condemned on the evidence of another read whose own
     reads-from edge is still deferred: until that write arrives, the
     evidence read's causal position is unvalidated.  Schedule (the shape a
     crash/restart re-delivery produces): P1's r(x)1 arrives before its
     source write W; P1 then writes y, P2 reads it and reads x=0.  With W
     unseen, r2(x)0 must stay clean — only W's arrival (an older write of x
     now causally preceding the read) turns it into a genuine violation. *)
  let ck = Online.create () in
  let x = Loc.named "x" and y = Loc.named "y" in
  let w = Wid.make ~node:0 ~seq:0 in
  let wy = Wid.make ~node:1 ~seq:0 in
  let r1 = Op.read ~pid:1 ~index:0 ~loc:x ~value:(Value.Int 1) ~from:w in
  let w2 = Op.write ~pid:1 ~index:1 ~loc:y ~value:(Value.Int 2) ~wid:wy in
  let r_y = Op.read ~pid:2 ~index:0 ~loc:y ~value:(Value.Int 2) ~from:wy in
  let r2 = Op.read ~pid:2 ~index:1 ~loc:x ~value:Value.initial ~from:Wid.initial in
  Alcotest.(check int) "r1(x)1 defers" 0 (List.length (Online.add_op ck r1));
  Alcotest.(check int) "w1(y)2 clean" 0 (List.length (Online.add_op ck w2));
  Alcotest.(check int) "r2(y)2 clean" 0 (List.length (Online.add_op ck r_y));
  (* The buggy behavior: r2(x)0 flagged here, on the pending read alone. *)
  Alcotest.(check int) "r2(x)0 not flagged while W is pending" 0
    (List.length (Online.add_op ck r2));
  (* W arrives: r1 resolves cleanly, and the provisional verdict on r2(x)0
     is re-checked — now W itself causally precedes it.  One violation. *)
  let late = Op.write ~pid:0 ~index:0 ~loc:x ~value:(Value.Int 1) ~wid:w in
  (match Online.add_op ck late with
  | [ v ] -> Alcotest.(check bool) "re-check flags r2(x)0" true (v.Online.v_op = r2)
  | other -> Alcotest.failf "expected one violation, got %d" (List.length other));
  Alcotest.(check int) "nothing pending" 0 (Online.pending_reads ck)

let test_pending_evidence_cycle_variant () =
  (* Same prefix, but the pending source turns out to be P2's own later
     write: the reads-from edge would close a causality cycle.  The culprit
     is r1 (it read from its own causal future); r2(x)0 stays clean — the
     premature flagging the deferred-evidence rule prevents would have
     blamed the wrong operation here. *)
  let ck = Online.create () in
  let x = Loc.named "x" and y = Loc.named "y" in
  let w = Wid.make ~node:2 ~seq:0 in
  let wy = Wid.make ~node:1 ~seq:0 in
  let r1 = Op.read ~pid:1 ~index:0 ~loc:x ~value:(Value.Int 1) ~from:w in
  let w2 = Op.write ~pid:1 ~index:1 ~loc:y ~value:(Value.Int 2) ~wid:wy in
  let r_y = Op.read ~pid:2 ~index:0 ~loc:y ~value:(Value.Int 2) ~from:wy in
  let r2 = Op.read ~pid:2 ~index:1 ~loc:x ~value:Value.initial ~from:Wid.initial in
  let w_cycle = Op.write ~pid:2 ~index:2 ~loc:x ~value:(Value.Int 1) ~wid:w in
  List.iter (fun op -> ignore (Online.add_op ck op)) [ r1; w2; r_y ];
  Alcotest.(check int) "r2(x)0 not flagged while W is pending" 0
    (List.length (Online.add_op ck r2));
  (match Online.add_op ck w_cycle with
  | [ v ] -> Alcotest.(check bool) "r1 flagged as the future read" true (v.Online.v_op = r1)
  | other -> Alcotest.failf "expected one violation, got %d" (List.length other));
  (* r2's re-check runs with W in place: W does not precede it, so the
     initial value was live — no second violation. *)
  Alcotest.(check int) "exactly one violation overall" 1
    (List.length (Online.violations ck))

let test_agrees_with_posthoc_on_corpus () =
  (* Soundness across the whole figure corpus under round-robin arrival:
     an online violation implies the post-hoc checker rejects too. *)
  List.iter
    (fun (name, h, _) ->
      let ck = Online.create () in
      let vs = feed_round_robin ck h in
      if vs <> [] then
        Alcotest.(check bool)
          (name ^ ": online violation implies post-hoc violation")
          false (Check.is_correct h))
    Histories.all

(* ------------------------------------------------------------------ *)
(* Windowed checking                                                   *)
(* ------------------------------------------------------------------ *)

let violation_ops ck =
  List.map (fun v -> v.Online.v_op) (Online.violations ck)

(* With a window at least as large as the history, compaction never fires:
   the windowed checker must be {e identical} to the unbounded one on the
   whole figure corpus. *)
let test_windowed_identical_when_window_covers () =
  List.iter
    (fun (name, h, _) ->
      let full = Online.create () in
      let windowed = Online.create ~window:64 () in
      let vs_full = feed_round_robin full h in
      let vs_win = feed_round_robin windowed h in
      Alcotest.(check int)
        (name ^ ": same incremental verdicts")
        (List.length vs_full) (List.length vs_win);
      Alcotest.(check bool)
        (name ^ ": same violation ops")
        true
        (violation_ops full = violation_ops windowed);
      Alcotest.(check int) (name ^ ": nothing retired") 0 (Online.retired_ops windowed);
      Alcotest.(check int)
        (name ^ ": ops_seen counts every op")
        (Online.ops_seen full) (Online.ops_seen windowed))
    Histories.all

(* A tiny window that definitely compacts on the corpus: the windowed
   checker may miss violations (evidence retired) but must never invent
   one — every violation it reports is also reported unbounded. *)
let test_windowed_sound_on_corpus () =
  List.iter
    (fun (name, h, _) ->
      let full = Online.create () in
      let windowed = Online.create ~window:2 () in
      ignore (feed_round_robin full h);
      ignore (feed_round_robin windowed h);
      let full_ops = violation_ops full in
      List.iter
        (fun op ->
          Alcotest.(check bool)
            (name ^ ": windowed violation also found unbounded")
            true
            (List.exists (fun o -> o = op) full_ops))
        (violation_ops windowed))
    Histories.all

(* Randomized equivalence/soundness: random multiprograms with reads wired
   to arbitrary writes (including not-yet-delivered ones and a stale-prone
   mix), delivered in a random program-order-preserving interleaving. *)
let gen_history_and_order =
  let open QCheck.Gen in
  let pids = 3 and locs = 2 in
  let* lens = list_repeat pids (int_range 2 8) in
  let* skeleton =
    (* true = write *)
    flatten_l (List.map (fun len -> list_repeat len bool) lens)
  in
  let seq = ref 0 in
  let shaped =
    List.mapi
      (fun pid row ->
        List.mapi
          (fun index is_write ->
            if is_write then begin
              incr seq;
              `W (pid, index, !seq)
            end
            else `R (pid, index))
          row)
      skeleton
  in
  let wids =
    List.concat_map
      (List.filter_map (function `W (p, _, s) -> Some (Wid.make ~node:p ~seq:s) | `R _ -> None))
      shaped
  in
  let* rows =
    flatten_l
      (List.map
         (fun row ->
           flatten_l
             (List.map
                (fun cell ->
                  let loc_of i = Loc.indexed "w" i in
                  let* l = int_range 0 (locs - 1) in
                  match cell with
                  | `W (pid, index, s) ->
                      return
                        (Op.write ~pid ~index ~loc:(loc_of l) ~value:(Value.Int s)
                           ~wid:(Wid.make ~node:pid ~seq:s))
                  | `R (pid, index) ->
                      let* from =
                        if wids = [] then return Wid.initial
                        else
                          let* use_initial = frequency [ (1, return true); (3, return false) ] in
                          if use_initial then return Wid.initial else oneofl wids
                      in
                      return
                        (Op.read ~pid ~index ~loc:(loc_of l) ~value:(Value.Int 0) ~from))
                row))
         shaped)
  in
  (* Random interleaving preserving per-pid program order: repeatedly pick a
     nonempty row. *)
  let* picks = list_repeat (List.fold_left (fun a r -> a + List.length r) 0 rows) (int_bound 1000) in
  let rows = Array.of_list (List.map ref rows) in
  let order =
    List.map
      (fun pick ->
        let nonempty =
          Array.to_list rows |> List.filter (fun r -> !r <> []) |> Array.of_list
        in
        let r = nonempty.(pick mod Array.length nonempty) in
        match !r with
        | op :: rest ->
            r := rest;
            op
        | [] -> assert false)
      picks
  in
  return order

let print_order order =
  String.concat "\n"
    (List.map
       (fun (o : Op.t) ->
         Printf.sprintf "%s wid=%s loc=%s" (Op.to_string o) (Wid.to_string o.Op.wid)
           (Loc.to_string o.Op.loc))
       order)

let prop_windowed_sound_and_bounded =
  QCheck.Test.make ~count:300 ~name:"windowed checker: sound and bounded vs unbounded"
    (QCheck.make ~print:print_order gen_history_and_order)
    (fun order ->
      let n = List.length order in
      let full = Online.create () in
      let big = Online.create ~window:(2 * n) () in
      let w = 4 in
      let small = Online.create ~window:w () in
      List.iter
        (fun op ->
          ignore (Online.add_op full op);
          ignore (Online.add_op big op);
          ignore (Online.add_op small op))
        order;
      (* Window covering the whole run: bit-identical verdicts. *)
      if violation_ops big <> violation_ops full then
        QCheck.Test.fail_report "covering window diverged from unbounded";
      if Online.retired_ops big <> 0 then QCheck.Test.fail_report "covering window compacted";
      (* Small window: sound (subset) and bounded. *)
      let full_ops = violation_ops full in
      List.iter
        (fun op ->
          if not (List.exists (fun o -> o = op) full_ops) then
            QCheck.Test.fail_report "windowed checker invented a violation")
        (violation_ops small);
      if Online.ops_seen small <> n then QCheck.Test.fail_report "ops_seen must count retired ops";
      let bound = (2 * w) + 3 + 2 + Online.pending_reads small + 1 in
      if Online.live_ops small > bound then
        QCheck.Test.fail_report
          (Printf.sprintf "live ops %d exceeded bound %d" (Online.live_ops small) bound);
      true)

(* Regression, found by [prop_windowed_sound_and_bounded]: a causal cycle
   whose only witness was a pending read dropped at compaction.  The
   windowed checker's no-cycle answer for the late write w#1.3 was stale,
   and wiring the reads-from edge anyway asserted causality running
   backward through the real cycle — deriving w#1.3 -> w#2.5 and inventing
   an "already overwritten" verdict on pid 2's fourth read, which the
   unbounded checker never flags.  Resolution must drop the waiting reader
   once any evidence has been severed. *)
let test_windowed_no_invented_violation_on_severed_cycle () =
  let loc i = Loc.indexed "w" i in
  let w ~pid ~index ~l ~seq =
    Op.write ~pid ~index ~loc:(loc l) ~value:(Value.Int seq) ~wid:(Wid.make ~node:pid ~seq)
  in
  let r ~pid ~index ~l ~from = Op.read ~pid ~index ~loc:(loc l) ~value:(Value.Int 0) ~from in
  let wid node seq = Wid.make ~node ~seq in
  let order =
    [
      r ~pid:1 ~index:0 ~l:0 ~from:(wid 1 3);
      r ~pid:1 ~index:1 ~l:1 ~from:(wid 2 5);
      r ~pid:0 ~index:0 ~l:1 ~from:(wid 2 4);
      w ~pid:0 ~index:1 ~l:0 ~seq:1;
      w ~pid:2 ~index:0 ~l:1 ~seq:4;
      r ~pid:2 ~index:1 ~l:1 ~from:(wid 1 3);
      w ~pid:1 ~index:2 ~l:1 ~seq:2;
      r ~pid:1 ~index:3 ~l:0 ~from:(wid 2 6);
      r ~pid:2 ~index:2 ~l:0 ~from:Wid.initial;
      r ~pid:1 ~index:4 ~l:0 ~from:(wid 2 4);
      w ~pid:2 ~index:3 ~l:1 ~seq:5;
      w ~pid:1 ~index:5 ~l:1 ~seq:3;
      r ~pid:2 ~index:4 ~l:1 ~from:(wid 1 3);
      r ~pid:2 ~index:5 ~l:0 ~from:Wid.initial;
      w ~pid:2 ~index:6 ~l:1 ~seq:6;
    ]
  in
  let full = Online.create () in
  let small = Online.create ~window:4 () in
  List.iter
    (fun op ->
      ignore (Online.add_op full op);
      ignore (Online.add_op small op))
    order;
  let full_ops = violation_ops full in
  List.iter
    (fun op ->
      Alcotest.(check bool) "windowed violation also flagged unbounded" true
        (List.exists (fun o -> o = op) full_ops))
    (violation_ops small);
  Alcotest.(check bool) "pid 2's fourth read not flagged" true
    (not
       (List.exists
          (fun (o : Op.t) -> o.Op.pid = 2 && o.Op.index = 4)
          (violation_ops small)))

(* The leak this PR fixes: reads pending on writes that never arrive must
   not accumulate without bound in a windowed checker — once their source
   sinks below the stable frontier they are given up and counted. *)
let test_pending_reads_bounded () =
  let w = 8 in
  let ck = Online.create ~window:w () in
  let x = Loc.named "x" in
  let total = 200 in
  for i = 0 to total - 1 do
    let pid = i mod 3 in
    let op =
      Op.read ~pid ~index:(i / 3) ~loc:x ~value:(Value.Int 1)
        ~from:(Wid.make ~node:5 ~seq:(1000 + i))
    in
    ignore (Online.add_op ck op)
  done;
  Alcotest.(check int) "every op counted" total (Online.ops_seen ck);
  Alcotest.(check bool) "pending bounded by the window" true
    (Online.pending_reads ck <= (2 * w) + 3);
  Alcotest.(check bool) "live bounded by the window" true
    (Online.live_ops ck <= (2 * w) + 3);
  Alcotest.(check bool) "the rest were given up" true
    (Online.dropped_reads ck >= total - ((2 * w) + 3));
  Alcotest.(check int) "rechecks do not leak either" 0 (Online.pending_rechecks ck);
  Alcotest.(check bool) "no violation invented" true (Online.first_violation ck = None)

(* Crash accounting: a crashed node's in-flight writes never arrive, so its
   pending readers are given up immediately — and if a WAL replay does
   resurface the wid later, it is a fresh write, not a resolution. *)
let test_note_crashed_clears_pending () =
  let ck = Online.create () in
  let x = Loc.named "x" in
  let r1 = Op.read ~pid:1 ~index:0 ~loc:x ~value:(Value.Int 1) ~from:(Wid.make ~node:3 ~seq:1) in
  let r2 = Op.read ~pid:2 ~index:0 ~loc:x ~value:(Value.Int 2) ~from:(Wid.make ~node:3 ~seq:2) in
  let r3 = Op.read ~pid:1 ~index:1 ~loc:x ~value:(Value.Int 9) ~from:(Wid.make ~node:4 ~seq:1) in
  List.iter (fun op -> ignore (Online.add_op ck op)) [ r1; r2; r3 ];
  Alcotest.(check int) "three reads pending" 3 (Online.pending_reads ck);
  Online.note_crashed ck ~node:3;
  Alcotest.(check int) "node-3 wids given up" 1 (Online.pending_reads ck);
  Alcotest.(check int) "given-up reads counted" 2 (Online.dropped_reads ck);
  (* The crashed node's write replayed later: treated as a fresh write, no
     resolution of the given-up readers, no violation. *)
  let replay = Op.write ~pid:3 ~index:0 ~loc:x ~value:(Value.Int 1) ~wid:(Wid.make ~node:3 ~seq:1) in
  Alcotest.(check int) "replay resolves nothing" 0 (List.length (Online.add_op ck replay));
  Alcotest.(check int) "node-4 wid still pending" 1 (Online.pending_reads ck);
  Online.note_crashed ck ~node:4;
  Alcotest.(check int) "nothing pending" 0 (Online.pending_reads ck)

let test_first_violation_is_oldest () =
  let ck = Online.create () in
  let x = Loc.named "x" in
  let mk_stale pid =
    (* Same message-passing shape as [test_stale_read_detected], one per pid. *)
    let wx = Wid.make ~node:pid ~seq:1 and wy = Wid.make ~node:pid ~seq:2 in
    let y = Loc.indexed "y" pid in
    [
      Op.write ~pid ~index:0 ~loc:x ~value:(Value.Int pid) ~wid:wx;
      Op.write ~pid ~index:1 ~loc:y ~value:(Value.Int 1) ~wid:wy;
      Op.read ~pid:(pid + 4) ~index:0 ~loc:y ~value:(Value.Int 1) ~from:wy;
      Op.read ~pid:(pid + 4) ~index:1 ~loc:x ~value:Value.initial ~from:Wid.initial;
    ]
  in
  List.iter (fun op -> ignore (Online.add_op ck op)) (mk_stale 0 @ mk_stale 1);
  Alcotest.(check int) "both stale reads flagged" 2 (List.length (Online.violations ck));
  match (Online.first_violation ck, Online.violations ck) with
  | Some first, oldest :: _ ->
      Alcotest.(check bool) "first_violation is the oldest" true (first.Online.v_op = oldest.Online.v_op);
      Alcotest.(check int) "oldest is pid 4's read" 4 first.Online.v_op.Op.pid
  | _ -> Alcotest.fail "expected two violations"

(* {2 Pinned windowed behaviour}

   Every counter and the ordered violation list of the windowed checker,
   pinned on two inputs that compact many times: a Par_engine op stream and
   a seeded corpus of small random histories.  The figures were taken from
   the checker that rebuilt its survivors at each compaction; a checker that
   retires ops another way must reproduce them op for op. *)

(* One line per run: the counters, the violation count and an MD5 of the
   violating ops in the order they were reported. *)
let summary ~checks ~edges ~retired ~dropped ~pending ~rechecks ~live vs =
  Printf.sprintf
    "checks=%d edges=%d retired=%d dropped=%d pending=%d rechecks=%d live=%d violations=%d md5=%s"
    checks edges retired dropped pending rechecks live (List.length vs)
    (Digest.to_hex
       (Digest.string
          (String.concat ";"
             (List.map (fun (o : Op.t) -> Op.to_string o ^ "@" ^ string_of_int o.Op.index) vs))))

let summarize ck =
  summary ~checks:(Online.checks ck) ~edges:(Online.edges ck) ~retired:(Online.retired_ops ck)
    ~dropped:(Online.dropped_reads ck) ~pending:(Online.pending_reads ck)
    ~rechecks:(Online.pending_rechecks ck) ~live:(Online.live_ops ck) (violation_ops ck)

(* A 32-node Par_engine run's ops, in the order its barriers hand them
   over. *)
let par_stream ~target_ops =
  let module Par = Dsm_sim.Par_engine in
  let params = { (Par.default_params ~nodes:32) with seed = 1; shards = 16; remote_pct = 30 } in
  let locs = Array.init params.Par.locs (Loc.indexed "x") in
  let indices = Array.make params.Par.nodes 0 in
  let ops = ref [] in
  ignore
    (Par.run ~domains:1 ~target_ops
       ~on_ops:(fun ~node ~buf ~len ->
         for o = 0 to (len / Par.log_stride) - 1 do
           let b = o * Par.log_stride in
           let loc = locs.(buf.(b + 1)) and value = Value.Int buf.(b + 2) in
           let wn = buf.(b + 3) and ws = buf.(b + 4) in
           let index = indices.(node) in
           indices.(node) <- index + 1;
           ops :=
             (if buf.(b) = 0 then
                Op.read ~pid:node ~index ~loc ~value
                  ~from:(if wn < 0 then Wid.initial else Wid.make ~node:wn ~seq:ws)
              else Op.write ~pid:node ~index ~loc ~value ~wid:(Wid.make ~node:wn ~seq:ws))
             :: !ops
         done)
       (Par.create params));
  List.rev !ops

let test_pinned_par_stream () =
  let stream = par_stream ~target_ops:20_000 in
  Alcotest.(check int) "stream length" 20_038 (List.length stream);
  List.iter
    (fun (window, expected) ->
      let ck = Online.create ~window () in
      List.iter (fun op -> ignore (Online.add_op ck op)) stream;
      Alcotest.(check string) (Printf.sprintf "window %d" window) expected (summarize ck))
    [
      (8, 
        "checks=2954 edges=12932 retired=20008 dropped=8912 pending=0 rechecks=0 live=30 violations=0 md5=d41d8cd98f00b204e9800998ecf8427e");
      (64, 
        "checks=10571 edges=22836 retired=19948 dropped=1404 pending=0 rechecks=0 live=90 violations=0 md5=d41d8cd98f00b204e9800998ecf8427e");
    ]

(* Four processes, three locations, 6-14 ops each.  A read names the
   initial value, a write that never arrives, or any write of its location,
   wherever that write sits: an older one (a stale read), one not yet
   delivered (a deferred reads-from), or one later in the reader's own
   program (a causal cycle).  Delivery is a random interleaving that keeps
   each program's order. *)
let random_history rng =
  let module Prng = Dsm_util.Prng in
  let pids = 4 and locs = 3 in
  let seq = ref 0 in
  let shape =
    Array.init pids (fun pid ->
        Array.init (Prng.int_in rng 6 14) (fun _ ->
            let l = Prng.int rng locs in
            if Prng.int rng 5 < 2 then begin
              incr seq;
              (l, Some (Wid.make ~node:pid ~seq:!seq))
            end
            else (l, None)))
  in
  let writes_on l =
    Array.of_list
      (List.concat_map
         (fun row ->
           List.filter_map
             (function l', Some w when l' = l -> Some w | _ -> None)
             (Array.to_list row))
         (Array.to_list shape))
  in
  let writes = Array.init locs writes_on in
  let rows =
    Array.mapi
      (fun pid row ->
        Array.mapi
          (fun index (l, w) ->
            let loc = Loc.indexed "w" l in
            match w with
            | Some wid -> Op.write ~pid ~index ~loc ~value:(Value.Int wid.Wid.seq) ~wid
            | None -> (
                let ws = writes.(l) in
                match Prng.int rng 8 with
                | 0 -> Op.read ~pid ~index ~loc ~value:Value.initial ~from:Wid.initial
                | 1 ->
                    (* A write of a process that never delivers one. *)
                    Op.read ~pid ~index ~loc ~value:(Value.Int 0)
                      ~from:(Wid.make ~node:pids ~seq:(Prng.int rng 4))
                | _ when Array.length ws = 0 ->
                    Op.read ~pid ~index ~loc ~value:Value.initial ~from:Wid.initial
                | _ ->
                    let from = Prng.pick rng ws in
                    Op.read ~pid ~index ~loc ~value:(Value.Int from.Wid.seq) ~from))
          row)
      shape
  in
  let cursors = Array.make pids 0 in
  let total = Array.fold_left (fun a r -> a + Array.length r) 0 rows in
  List.init total (fun _ ->
      let open_pids = List.filter (fun p -> cursors.(p) < Array.length rows.(p)) (List.init pids Fun.id) in
      let p = List.nth open_pids (Prng.int rng (List.length open_pids)) in
      cursors.(p) <- cursors.(p) + 1;
      rows.(p).(cursors.(p) - 1))

let test_pinned_random_corpus () =
  let rng = Dsm_util.Prng.create 2024L in
  let corpus = List.init 400 (fun _ -> random_history rng) in
  List.iter
    (fun (window, expected) ->
      let sum = Array.make 7 0 and vs = ref [] in
      List.iter
        (fun order ->
          let ck = Online.create ?window () in
          List.iter (fun op -> ignore (Online.add_op ck op)) order;
          List.iteri
            (fun k v -> sum.(k) <- sum.(k) + v)
            [
              Online.checks ck; Online.edges ck; Online.retired_ops ck; Online.dropped_reads ck;
              Online.pending_reads ck; Online.pending_rechecks ck; Online.live_ops ck;
            ];
          vs := List.rev_append (violation_ops ck) !vs)
        corpus;
      Alcotest.(check string)
        (match window with Some w -> Printf.sprintf "window %d" w | None -> "unwindowed")
        expected
        (summary ~checks:sum.(0) ~edges:sum.(1) ~retired:sum.(2) ~dropped:sum.(3) ~pending:sum.(4)
           ~rechecks:sum.(5) ~live:sum.(6) (List.rev !vs)))
    [
      (None, 
        "checks=12693 edges=17938 retired=0 dropped=0 pending=1240 rechecks=13329 live=15894 violations=3614 md5=21e195d5abdd45aab0d1b9f533342a06");
      (Some 2, 
        "checks=2566 edges=14225 retired=13531 dropped=6995 pending=145 rechecks=8 live=2363 violations=455 md5=019798074be4babd6e8fdf97458210fc");
      (Some 4, 
        "checks=3467 edges=15476 retired=11969 dropped=6107 pending=264 rechecks=79 live=3925 violations=730 md5=1044466bef7522248d8a0756a8bca35d");
      (Some 8, 
        "checks=4943 edges=16000 retired=10214 dropped=4977 pending=417 rechecks=394 live=5680 violations=1207 md5=ef908a5dfcd1808ea20aed030c263bf7");
      (Some 16, 
        "checks=9636 edges=17255 retired=6207 dropped=2002 pending=753 rechecks=3589 live=9687 violations=2646 md5=eca45df8bd15b8778925c48e5106464e");
    ]

let suite =
  [
    Alcotest.test_case "correct histories stay clean" `Quick test_correct_histories_clean;
    Alcotest.test_case "stale read detected" `Quick test_stale_read_detected;
    Alcotest.test_case "deferred reads-from" `Quick test_deferred_reads_from;
    Alcotest.test_case "deferred overwrite detected" `Quick test_deferred_overwritten_detected;
    Alcotest.test_case "future read detected" `Quick test_future_read_detected;
    Alcotest.test_case "pending evidence deferred" `Quick test_pending_evidence_deferred;
    Alcotest.test_case "pending evidence cycle variant" `Quick
      test_pending_evidence_cycle_variant;
    Alcotest.test_case "sound on corpus" `Quick test_agrees_with_posthoc_on_corpus;
    Alcotest.test_case "windowed = unbounded when window covers" `Quick
      test_windowed_identical_when_window_covers;
    Alcotest.test_case "windowed sound on corpus" `Quick test_windowed_sound_on_corpus;
    QCheck_alcotest.to_alcotest prop_windowed_sound_and_bounded;
    Alcotest.test_case "no invented violation on severed cycle" `Quick
      test_windowed_no_invented_violation_on_severed_cycle;
    Alcotest.test_case "pending reads bounded under windowing" `Quick
      test_pending_reads_bounded;
    Alcotest.test_case "note_crashed clears pending" `Quick test_note_crashed_clears_pending;
    Alcotest.test_case "first violation is the oldest" `Quick test_first_violation_is_oldest;
    Alcotest.test_case "pinned counters on a Par_engine stream" `Quick test_pinned_par_stream;
    Alcotest.test_case "pinned counters on a random corpus" `Quick test_pinned_random_corpus;
  ]
