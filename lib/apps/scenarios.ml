module Loc = Dsm_memory.Loc
module Value = Dsm_memory.Value
module Owner = Dsm_memory.Owner
module Proc = Dsm_runtime.Proc
module Engine = Dsm_sim.Engine
module Latency = Dsm_net.Latency
module Bmem = Dsm_broadcast.Bmem
module Cbcast = Dsm_broadcast.Cbcast
module Causal = Dsm_causal.Cluster

let x = Loc.named "x"

let y = Loc.named "y"

let z = Loc.named "z"

(* Poll a location until it shows the wanted integer. *)
let await_value read loc wanted =
  let rec go () =
    if not (Value.equal (read loc) (Value.Int wanted)) then begin
      Proc.yield ();
      go ()
    end
  in
  go ()

type fig3_result = {
  f3_history : Dsm_memory.History.t;
  f3_causal_ok : bool;
  f3_pram_ok : bool;
  f3_final_x : Value.t array;
}

let fig3_broadcast ?(mode = `Causal) () =
  let engine = Engine.create () in
  let sched = Proc.scheduler ~poll_interval:0.25 engine in
  let b = Bmem.create ~sched ~processes:3 ~mode ~latency:(Latency.Constant 1.0) () in
  (* Make P1's w(x)5 slow to reach P2 (so P2's own w(x)2 is overwritten by
     it) but P2's broadcasts slow to reach P3 (so at P3 the concurrent
     w(x)2 arrives after w(x)5 and wins). *)
  Cbcast.set_link_latency (Bmem.bcast b) ~src:0 ~dst:1 (Latency.Constant 3.0);
  Cbcast.set_link_latency (Bmem.bcast b) ~src:1 ~dst:2 (Latency.Constant 5.0);
  let h0 = Bmem.handle b 0 and h1 = Bmem.handle b 1 and h2 = Bmem.handle b 2 in
  ignore
    (Proc.spawn sched ~name:"P1" (fun () ->
         Bmem.write h0 x (Value.Int 5);
         Proc.sleep 0.2;
         Bmem.write h0 y (Value.Int 3)));
  ignore
    (Proc.spawn sched ~name:"P2" (fun () ->
         Bmem.write h1 x (Value.Int 2);
         await_value (Bmem.read h1) y 3;
         ignore (Bmem.read h1 x);
         Bmem.write h1 z (Value.Int 4)));
  ignore
    (Proc.spawn sched ~name:"P3" (fun () ->
         await_value (Bmem.read h2) z 4;
         ignore (Bmem.read h2 x)));
  Engine.run engine;
  Proc.check sched;
  let history = Bmem.history b in
  {
    f3_history = history;
    f3_causal_ok = Dsm_checker.Causal_check.is_correct history;
    f3_pram_ok = Dsm_checker.Consistency.is_pram history;
    f3_final_x = Array.init 3 (fun i -> Bmem.read (Bmem.handle b i) x);
  }

type fig5_result = {
  f5_history : Dsm_memory.History.t;
  f5_causal_ok : bool;
  f5_sc_ok : bool;
}

let fig5_owner_protocol () =
  let owner =
    Owner.make ~nodes:2 (fun loc -> if Loc.equal loc x then 0 else 1)
  in
  let engine = Engine.create () in
  let sched = Proc.scheduler engine in
  let c = Causal.create ~sched ~owner ~latency:(Latency.Constant 1.0) () in
  let h0 = Causal.handle c 0 and h1 = Causal.handle c 1 in
  (* Both processes read the other's location first (remote miss, returning
     the initial 0), then write their own, then re-read the now-stale cached
     copy — Figure 5 verbatim. *)
  ignore
    (Proc.spawn sched ~name:"P1" (fun () ->
         ignore (Causal.read h0 y);
         Causal.write h0 x (Value.Int 1);
         ignore (Causal.read h0 y)));
  ignore
    (Proc.spawn sched ~name:"P2" (fun () ->
         ignore (Causal.read h1 x);
         Causal.write h1 y (Value.Int 1);
         ignore (Causal.read h1 x)));
  Engine.run engine;
  Proc.check sched;
  let history = Causal.history c in
  {
    f5_history = history;
    f5_causal_ok = Dsm_checker.Causal_check.is_correct history;
    f5_sc_ok = Dsm_checker.Consistency.is_sc history;
  }

type board_result = {
  br_early_posts : int;
  br_early_orphans : int;
  br_final_posts : int;
  br_final_orphans : int;
}

(* The reply-overtakes-parent schedule: P0 posts a root; P1 sees it (t~5)
   and replies (t~25 on the DSM after its scan); P2's transport from P0 is
   slow (40), so the reply's path to P2 beats the parent's.  P2 reads early
   (t=60, slow transfers still in flight on push-based memories) and again
   after quiescence. *)

let board_schedule (type b)
    ~(attach : int -> b)
    ~(post : b -> ?reply_to:Board.post_id -> string -> Board.post_id option)
    ~(read : b -> Board.post list)
    ~(refresh : b -> unit) ~sched ~engine =
  let early = ref [] and final = ref [] in
  ignore
    (Proc.spawn sched ~name:"P0" (fun () ->
         let b = attach 0 in
         ignore (post b "root post")));
  ignore
    (Proc.spawn sched ~name:"P1" (fun () ->
         let b = attach 1 in
         Proc.sleep 5.0;
         refresh b;
         match List.filter (fun p -> p.Board.id.Board.author = 0) (read b) with
         | parent :: _ -> ignore (post b ~reply_to:parent.Board.id "reply!")
         | [] -> failwith "P1 could not see the root post"));
  ignore
    (Proc.spawn sched ~name:"P2-early" (fun () ->
         let b = attach 2 in
         Proc.sleep 20.0;
         refresh b;
         early := read b));
  Engine.run engine;
  Proc.check sched;
  (* After quiescence everything has arrived everywhere. *)
  ignore
    (Proc.spawn sched ~name:"P2-final" (fun () ->
         let b = attach 2 in
         refresh b;
         final := read b));
  Engine.run engine;
  Proc.check sched;
  {
    br_early_posts = List.length !early;
    br_early_orphans = List.length (Board.orphans !early);
    br_final_posts = List.length !final;
    br_final_orphans = List.length (Board.orphans !final);
  }

module Board_on_causal = Board.Make (Causal.Mem)

let board_on_causal_dsm () =
  let processes = 3 in
  let owner = Owner.by_index ~nodes:processes in
  let engine = Engine.create () in
  let sched = Proc.scheduler ~poll_interval:0.5 engine in
  let c = Causal.create ~sched ~owner ~latency:(Latency.Constant 1.0) () in
  Dsm_net.Network.set_link_latency (Causal.net c) ~src:0 ~dst:2 (Latency.Constant 40.0);
  board_schedule
    ~attach:(fun i -> Board_on_causal.attach (Causal.handle c i) ~slots:4)
    ~post:Board_on_causal.post ~read:Board_on_causal.read_board
    ~refresh:Board_on_causal.refresh ~sched ~engine

module Board_on_bmem = Board.Make (Dsm_broadcast.Bmem.Mem)

let board_on_broadcast ~mode =
  let processes = 3 in
  let engine = Engine.create () in
  let sched = Proc.scheduler ~poll_interval:0.5 engine in
  let b = Bmem.create ~sched ~processes ~mode ~latency:(Latency.Constant 1.0) () in
  Cbcast.set_link_latency (Bmem.bcast b) ~src:0 ~dst:2 (Latency.Constant 40.0);
  board_schedule
    ~attach:(fun i -> Board_on_bmem.attach (Bmem.handle b i) ~slots:4)
    ~post:Board_on_bmem.post ~read:Board_on_bmem.read_board ~refresh:Board_on_bmem.refresh
    ~sched ~engine

type stale_install_result = {
  si_history : Dsm_memory.History.t;
  si_causal_ok : bool;
  si_stale_drops : int;
}

let stale_install_race ?config () =
  let owner = Owner.make ~nodes:3 (fun loc -> if Loc.equal loc x then 1 else 2) in
  let engine = Engine.create () in
  let sched = Proc.scheduler engine in
  let c = Causal.create ~sched ~owner ?config ~latency:(Latency.Constant 1.0) () in
  (* P2 -> P1 is slow, so P1's read of y is still in flight when P1
     certifies P0's write of x. *)
  Dsm_net.Network.set_link_latency (Causal.net c) ~src:2 ~dst:1 (Latency.Constant 50.0);
  ignore
    (Proc.spawn sched ~name:"P1" (fun () ->
         let h = Causal.handle c 1 in
         ignore (Causal.read h y);
         ignore (Causal.read h x);
         ignore (Causal.read h y)));
  ignore
    (Proc.spawn sched ~name:"P2" (fun () ->
         let h = Causal.handle c 2 in
         Proc.sleep 2.0;
         Causal.write h y (Value.Int 1);
         Causal.write h y (Value.Int 3)));
  ignore
    (Proc.spawn sched ~name:"P0" (fun () ->
         let h = Causal.handle c 0 in
         Proc.sleep 5.0;
         ignore (Causal.read h y);
         Causal.write h x (Value.Int 5)));
  Engine.run engine;
  Proc.check sched;
  let history = Causal.history c in
  let stats = Causal.total_stats c in
  {
    si_history = history;
    si_causal_ok = Dsm_checker.Causal_check.is_correct history;
    si_stale_drops = stats.Dsm_causal.Node_stats.stale_drops;
  }

type dictionary_race_result = {
  dr_delete_outcome : [ `Deleted | `Rejected | `Not_found ];
  dr_items_at_owner : string list;
  dr_history_causal_ok : bool;
}

let dictionary_race ~policy =
  let processes = 2 in
  let owner = Dictionary.owner_map ~processes in
  let config = Dsm_causal.Config.with_policy policy Dictionary.config in
  let engine = Engine.create () in
  let sched = Proc.scheduler engine in
  let c = Causal.create ~sched ~owner ~config ~latency:(Latency.Constant 1.0) () in
  let d0 = Dictionary.attach (Causal.handle c 0) ~cols:4 in
  let d1 = Dictionary.attach (Causal.handle c 1) ~cols:4 in
  let outcome = ref `Not_found in
  ignore
    (Proc.spawn sched ~name:"owner" (fun () ->
         (* t=0: insert "a" into own row. *)
         ignore (Dictionary.insert d0 "a");
         Proc.sleep 10.0;
         (* t=10: delete "a" and reuse the cell for "b". *)
         ignore (Dictionary.delete d0 "a");
         ignore (Dictionary.insert d0 "b")));
  ignore
    (Proc.spawn sched ~name:"deleter" (fun () ->
         Proc.sleep 5.0;
         (* t=5: observe "a" (cache the cell). *)
         assert (Dictionary.lookup d1 "a");
         Proc.sleep 10.0;
         (* t=15: stale delete of "a" races with the owner's "b". *)
         outcome := Dictionary.delete d1 "a"));
  Engine.run engine;
  Proc.check sched;
  let items = ref [] in
  ignore
    (Proc.spawn sched ~name:"collect" (fun () ->
         Dictionary.refresh d0;
         items := Dictionary.items d0));
  Engine.run engine;
  Proc.check sched;
  Causal.shutdown c;
  {
    dr_delete_outcome = !outcome;
    dr_items_at_owner = !items;
    dr_history_causal_ok = Dsm_checker.Causal_check.is_correct (Causal.history c);
  }
