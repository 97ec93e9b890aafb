module Engine = Dsm_sim.Engine
module Proc = Dsm_runtime.Proc
module Network = Dsm_net.Network
module Reliable = Dsm_net.Reliable
module Latency = Dsm_net.Latency
module Causal = Dsm_causal.Cluster
module Config = Dsm_causal.Config
module Owner = Dsm_memory.Owner
module Shard = Dsm_memory.Shard
module History = Dsm_memory.History
module Value = Dsm_memory.Value
module Check = Dsm_checker.Causal_check
module Online = Dsm_checker.Online
module Trace = Dsm_causal.Trace
module Op = Dsm_memory.Op
module Prng = Dsm_util.Prng

type knobs = {
  drop : float;
  duplicate : float;
  reliability : Reliable.config;
  rpc : Causal.rpc option;
  detector : Dsm_causal.Detector.config option;
  online_check : bool;
  online_window : int option;
  mutation : Config.mutation;
  trace : Trace.t option;
}

let default_knobs =
  {
    drop = 0.05;
    duplicate = 0.01;
    reliability = Reliable.default_config;
    rpc = Some { Causal.timeout = 100.0; retries = 5 };
    detector = None;
    online_check = false;
    online_window = None;
    mutation = Config.No_mutation;
    trace = None;
  }

type proc = Seeded of string * (Prng.t -> unit) | Unseeded of string * (unit -> unit)

type program = {
  procs : proc list;
  collect : (unit -> unit) option;
  notes : unit -> (string * string) list;
  verdict : unit -> bool;
}

type env = {
  cluster : Causal.t;
  engine : Engine.t;
  nemesis : Nemesis.t;
  seed : int64;
  clients : int;
  ops : int;
  knobs : knobs;
}

type shape = {
  owner : Owner.t;
  sharding : Shard.t option;
  config : Config.t option;
  detector : Dsm_causal.Detector.config option;
  checkpoint_every : float option;
  plan : Nemesis.step list;
}

type row = {
  name : string;
  seed : int64;
  clients : int;
  min_clients : int;
  ops : int;
  shape : int -> shape;
  program : env -> program;
}

type report = {
  scenario : string;
  processes : int;
  ops : int;
  latencies : float list;
  causal_ok : bool;
  history_checked : bool;
  sim_time : float;
  messages : int;
  logical_messages : int;
  dropped : int;
  duplicated : int;
  transport : Reliable.counters;
  rpc_timeouts : int;
  stale_replies : int;
  crashes : int;
  suspects : int;
  unsuspects : int;
  takeovers : int;
  view : (int * int * int) list;
  unfinished : (string * float) list;
  stats : Dsm_causal.Node_stats.cluster;
  online_checked : bool;
  online_violation : string option;
  notes : (string * string) list;
}

let note_int r key =
  match List.assoc_opt key r.notes with
  | Some v -> Option.value (int_of_string_opt v) ~default:0
  | None -> 0

(* {1 The table} *)

let shape ?sharding ?config ?detector ?checkpoint_every ?(plan = []) owner =
  { owner; sharding; config; detector; checkpoint_every; plan }

let program ?collect ?(notes = fun () -> []) ?(verdict = fun () -> true) procs =
  { procs; collect; notes; verdict }

let failover_detector = { Dsm_causal.Detector.period = 5.0; suspect_after = 3 }

let client pid body = Seeded (Printf.sprintf "client%d" pid, body)

let sleep_until env at = Proc.sleep (Float.max 0.0 (at -. Engine.now env.engine))

(* Steps [from..upto] of a client, one time unit apart. *)
let paced ~from ~upto step =
  for k = from to upto do
    step k;
    Proc.sleep 1.0
  done

(* [pid]'s [k]-th step: a write of a value unique to it, or a read, at even
   odds. *)
let read_or_write h prng ~pid ~k target =
  if Prng.chance prng 0.5 then Causal.write h target (Value.Int ((pid * 1_000_000) + k))
  else ignore (Causal.read h target)

let workload_client env spec pid prng =
  let h = Causal.handle env.cluster pid in
  Workload.client ~spec ~prng ~pid ~read:(Causal.read h) ~write:(Causal.write h)
    ~refresh:(Causal.Mem.refresh h) ()

let mix =
  let spec = Workload.default_spec in
  { name = "mix"; seed = 1L; clients = spec.Workload.processes; min_clients = 1;
    ops = spec.Workload.ops_per_process;
    shape = (fun n -> shape (Owner.by_index ~nodes:n));
    program =
      (fun env ->
        let spec = { spec with Workload.processes = env.clients; ops_per_process = env.ops } in
        program (List.init env.clients (fun pid -> client pid (workload_client env spec pid))));
  }

(* Each process inserts unique items into its own row, looks up and
   occasionally deletes a neighbour's earlier item, and refreshes so its
   view converges: the paper's usage pattern.  After quiescence every
   process refreshes and reads the whole dictionary. *)
let dictionary =
  { name = "dictionary"; seed = 2L; clients = 4; min_clients = 2; ops = 6;
    shape = (fun n -> shape ~config:Dictionary.config (Dictionary.owner_map ~processes:n));
    program =
      (fun env ->
        let n = env.clients in
        let attach pid = Dictionary.attach (Causal.handle env.cluster pid) ~cols:(env.ops + 2) in
        let body pid prng =
          let dict = attach pid in
          for round = 1 to env.ops do
            Proc.sleep (Prng.exponential prng ~mean:2.0);
            ignore (Dictionary.insert dict (Printf.sprintf "item-%d-%d" pid round));
            if round > 1 then begin
              let target = Printf.sprintf "item-%d-%d" ((pid + 1) mod n) (round - 1) in
              Dictionary.refresh dict;
              if Dictionary.lookup dict target && Prng.chance prng 0.5 then
                ignore (Dictionary.delete dict target)
            end
          done
        in
        let views = Array.make n [] in
        program
          (List.init n (fun pid -> Seeded (Printf.sprintf "dict%d" pid, body pid)))
          ~collect:(fun () ->
            for pid = 0 to n - 1 do
              let dict = attach pid in
              Dictionary.refresh dict;
              views.(pid) <- Dictionary.items dict
            done)
          ~notes:(fun () ->
            let same v = List.sort compare v = List.sort compare views.(0) in
            [
              ("final_items", string_of_int (List.length views.(0)));
              ("views_converged", string_of_bool (Array.for_all same views));
            ]));
  }

module Solver_on_causal = Solver.Make (Causal.Mem)

(* [clients] workers and a coordinator on node [clients]; the collected
   solution is compared with the sequential Jacobi iterate. *)
let solver =
  { name = "solver"; seed = 3L; clients = 6; min_clients = 1; ops = 4;
    shape = (fun n -> shape (Solver.owner_map ~workers:n));
    program =
      (fun env ->
        let n = env.clients and iters = env.ops and handle = Causal.handle env.cluster in
        let problem = Linalg.random_diagonally_dominant (Prng.create env.seed) ~n in
        let solution = ref [||] in
        let worker i () = Solver_on_causal.worker (handle i) problem ~me:i ~iters in
        program
          (List.init n (fun i -> Unseeded (Printf.sprintf "worker%d" i, worker i))
          @ [ Unseeded ("coordinator", fun () ->
                  Solver_on_causal.coordinator (handle n) ~workers:n ~iters) ])
          ~collect:(fun () -> solution := Solver_on_causal.read_solution (handle n) ~n)
          ~notes:(fun () ->
            let max_diff =
              if Array.length !solution = n then
                Linalg.max_diff !solution (Linalg.jacobi problem ~iters)
              else infinity
            in
            [ ("max_diff", Printf.sprintf "%g" max_diff); ("bit_exact", string_of_bool (max_diff = 0.0)) ]));
  }

(* The clients own the namespace between them; one extra node (the victim)
   owns nothing, so it can crash and restart with its volatile state
   discarded.  It warms its cache, schedules its own crash/restart window
   inside the sleep that follows, then resumes on a fresh restart. *)
let crash_restart =
  { name = "crash-restart"; seed = 4L; clients = 3; min_clients = 1; ops = 10;
    shape = (fun n -> shape (Owner.make ~nodes:(n + 1) (Owner.owner (Owner.by_index ~nodes:n))));
    program =
      (fun env ->
        let victim = env.clients in
        let spec =
          { Workload.default_spec with
            Workload.processes = victim + 1; ops_per_process = env.ops; locations = 2 * victim }
        in
        let victim_body prng =
          let h = Causal.handle env.cluster victim in
          let step k = read_or_write h prng ~pid:victim ~k (Workload.loc (Prng.int prng (2 * victim))) in
          paced ~from:1 ~upto:env.ops step;
          let now = Engine.now env.engine in
          Nemesis.add env.nemesis (Nemesis.crash_window ~from_:(now +. 5.0) ~until:(now +. 35.0) victim);
          Proc.sleep 50.0;
          paced ~from:(env.ops + 1) ~upto:(2 * env.ops) step
        in
        program
          (List.init victim (fun pid -> client pid (workload_client env spec pid))
          @ [ Seeded ("victim", victim_body) ])
          ~notes:(fun () ->
            [
              ("victim", string_of_int victim);
              ( "victim_cache_after",
                string_of_int (Dsm_causal.Node.cache_size (Causal.node env.cluster victim)) );
              ("dropped_at_crashed", string_of_int (Causal.dropped_at_crashed env.cluster));
            ]));
  }

(* Node 0 (the victim) owns part of the namespace, warms it with writes and
   crashes 2 time units after its last one; [clients] other nodes sleep
   across the outage.  Its designated backup, node 1, shadowed every
   acknowledged write: it suspects the silence, promotes itself under epoch
   1, and the clients' phase-2 operations on victim-owned locations
   re-route to it.  [revive] restarts the victim after the takeover: log
   replay resurrects its pre-crash state, heartbeat gossip demotes it to a
   client of the new owner, and it resumes. *)
let owner_crash ~name ~revive =
  { name; seed = 5L; clients = 3; min_clients = 2; ops = 8;
    shape = (fun n -> shape ~detector:failover_detector (Owner.by_index ~nodes:(n + 1)));
    program =
      (fun env ->
        let c = env.cluster and processes = env.clients + 1 in
        (* Victim-owned locations are the indices congruent to 0 mod [processes]. *)
        let victim_loc k = Workload.loc (processes * (k mod 2)) in
        let victim () =
          let h = Causal.handle c 0 in
          paced ~from:1 ~upto:env.ops (fun k -> Causal.write h (victim_loc k) (Value.Int k));
          let now = Engine.now env.engine in
          Nemesis.add env.nemesis
            (if revive then Nemesis.crash_window ~from_:(now +. 2.0) ~until:(now +. 45.0) 0
             else [ { Nemesis.at = now +. 2.0; fault = Nemesis.Crash 0 } ]);
          if revive then begin
            (* Resume once gossip has carried the takeover epoch back and
               demoted this node. *)
            Proc.sleep 70.0;
            paced ~from:1 ~upto:env.ops (fun k ->
                if k mod 2 = 0 then Causal.write h (victim_loc k) (Value.Int (2_000_000 + k))
                else ignore (Causal.read h (victim_loc k)))
          end
        in
        let body pid prng =
          let h = Causal.handle c pid in
          (* Half the traffic hits victim-owned locations, so the outage and
             the handoff are on the critical path. *)
          let step k =
            read_or_write h prng ~pid ~k
              (if k mod 2 = 0 then victim_loc k else Workload.loc (Prng.int prng (2 * processes)))
          in
          paced ~from:1 ~upto:env.ops step;
          (* Across the crash, the detection window and the takeover. *)
          Proc.sleep 60.0;
          paced ~from:(env.ops + 1) ~upto:(2 * env.ops) step
        in
        program
          (Unseeded ("victim-owner", victim)
          :: List.init env.clients (fun i -> client (i + 1) (body (i + 1))))
          ~notes:(fun () ->
            [
              ("victim", "0");
              ("takeover_epoch", string_of_int (Causal.epoch_of c ~base:0));
              ("new_owner", string_of_int (Causal.serving_of c ~base:0));
              ( "victim_demoted",
                string_of_bool (Dsm_causal.Node.serving_of (Causal.node c 0) ~base:0 <> 0) );
              ("shadow_reads", string_of_int (Causal.shadow_reads c));
              ("redirects", string_of_int (Causal.redirects c));
              ("shadow_degraded", string_of_int (Causal.shadow_degraded c));
              ("dropped_at_crashed", string_of_int (Causal.dropped_at_crashed c));
            ]));
  }

(* Every node owns a slice of the namespace and runs a client.  Periodic
   checkpoints compact each log, and one coordinated round early in phase 1
   sets a cluster-wide recovery line.  The last client to finish phase 1
   pulls the plug: every node crashes at once, between its client's
   operations, and restarts 30 time units later from its latest complete
   snapshot plus the log suffix behind it; the clients resume 15 after
   that.  Every certified write hits the log before its reply leaves, so
   recovery restores the exact durable frontier. *)
let power_failure =
  { name = "power-failure"; seed = 6L; clients = 4; min_clients = 2; ops = 8;
    shape = (fun n -> shape ~checkpoint_every:4.0 (Owner.by_index ~nodes:n));
    program =
      (fun env ->
        let c = env.cluster and n = env.clients in
        (* The round starts at t = (ops + 2) / 2; the outage never fires
           before t = ops + 7, which leaves the round time to finish. *)
        Engine.schedule_at env.engine ((float_of_int env.ops +. 2.0) /. 2.0) (fun () ->
            Causal.begin_checkpoint c 0);
        let finished = ref 0 and power_back = Proc.ivar (Causal.sched c) in
        let phase1_done () =
          incr finished;
          if !finished = n then begin
            let at = Float.max (Engine.now env.engine) (float_of_int env.ops +. 7.0) in
            let nodes = List.init n Fun.id in
            Nemesis.add env.nemesis
              (List.map (fun pid -> { Nemesis.at; fault = Nemesis.Crash pid }) nodes
              @ List.map (fun pid -> { Nemesis.at = at +. 30.0; fault = Nemesis.Restart pid }) nodes);
            Proc.fill power_back (at +. 30.0)
          end
        in
        let body pid prng =
          let h = Causal.handle c pid in
          let step k = read_or_write h prng ~pid ~k (Workload.loc (Prng.int prng (2 * n))) in
          (* A client that raised is done too: the outage does not wait for it. *)
          Fun.protect (fun () -> paced ~from:1 ~upto:env.ops step) ~finally:phase1_done;
          sleep_until env (Proc.await power_back +. 15.0);
          paced ~from:(env.ops + 1) ~upto:(2 * env.ops) step
        in
        program
          (List.init n (fun pid -> client pid (body pid)))
          ~notes:(fun () ->
            (* No [recovery_seconds]: that is host time, and reports are
               bit-identical per seed.  [dsm bench recovery] owns timing. *)
            [
              ("recoveries", string_of_int (Causal.recoveries c));
              ("replayed_records", string_of_int (Causal.replayed_records c));
              ("recovery_lines", string_of_int (Causal.recovery_lines c));
              ("dropped_at_crashed", string_of_int (Causal.dropped_at_crashed c));
            ]));
  }

(* The plan cuts [minority] off at t=10 and heals at t=50.  Phase 1 runs on
   the whole cluster, phase 2 inside the window (from t=35, after the
   majority's takeover has propagated), phase 3 after the heal (from t=60).
   Minority owners lose quorum and degrade to read-only: their clients'
   local writes are refused while reads keep serving the Definition-2-safe
   local copies.  The majority elects a replacement for every cut-off base
   whose ring-successor backup it holds.  On heal the deposed owners demote
   and reconcile via FRONTIER, and the whole history must still be causal:
   no split-brain write was double-certified. *)
let partition ~name ~minority =
  (* The majority must hold a quorum: more than twice the minority. *)
  { name; seed = 7L; clients = 5; min_clients = (2 * List.length minority) + 1; ops = 3;
    shape =
      (fun n ->
        let majority = List.filter (fun b -> not (List.mem b minority)) (List.init n Fun.id) in
        shape ~detector:failover_detector
          ~plan:(Nemesis.partition_window ~from_:10.0 ~until:50.0 ~a:minority ~b:majority)
          (Owner.by_index ~nodes:n));
    program =
      (fun env ->
        let c = env.cluster and processes = env.clients in
        let all_bases = List.init processes Fun.id in
        let majority = List.filter (fun n -> not (List.mem n minority)) all_bases in
        (* Bases the majority can take over: served from the minority,
           ring-successor backup on the majority side. *)
        let contested = List.filter (fun b -> List.mem ((b + 1) mod processes) majority) minority in
        let refused = ref 0 and window_ok = ref 0 in
        (* Phase-2 availability per side, which the partition bench
           aggregates: the majority must keep serving through the cut. *)
        let maj_attempts = ref 0 and maj_ok = ref 0 in
        let min_attempts = ref 0 and min_ok = ref 0 in
        let body pid prng =
          let h = Causal.handle c pid in
          let cut_off = List.mem pid minority in
          let pick bases = List.nth bases (Prng.int prng (List.length bases)) in
          let base_loc ~k base = Workload.loc (base + (processes * (k mod 2))) in
          let value phase k = Value.Int ((pid * 1_000_000) + (phase * 1_000) + k) in
          let do_op ~phase ~k ~write_bases ~read_bases =
            let record ok =
              if phase = 2 then begin
                let attempts, oks = if cut_off then (min_attempts, min_ok) else (maj_attempts, maj_ok) in
                incr attempts;
                if ok then incr oks
              end
            in
            if Prng.chance prng 0.5 then begin
              match Causal.write_result h (base_loc ~k (pick write_bases)) (value phase k) with
              | Ok _ ->
                  record true;
                  if phase = 2 then incr window_ok
              | Error _ ->
                  record false;
                  incr refused
            end
            else record (Result.is_ok (Causal.read_result h (base_loc ~k (pick read_bases))))
          in
          paced ~from:1 ~upto:env.ops (fun k ->
              do_op ~phase:1 ~k ~write_bases:all_bases ~read_bases:all_bases);
          sleep_until env 35.0;
          (* Same-side traffic only: a minority client's writes to its own
             degraded owner are refused on the spot, the majority exercises
             the freshly elected servers, and cross-side requests would just
             park in the frozen links until the heal. *)
          let reachable = contested @ majority in
          paced ~from:1 ~upto:env.ops (fun k ->
              if cut_off then do_op ~phase:2 ~k ~write_bases:[ pid ] ~read_bases:minority
              else do_op ~phase:2 ~k ~write_bases:reachable ~read_bases:reachable);
          sleep_until env 60.0;
          paced ~from:1 ~upto:env.ops (fun k ->
              do_op ~phase:3 ~k ~write_bases:all_bases ~read_bases:all_bases)
        in
        program
          (List.init processes (fun pid -> client pid (body pid)))
          ~notes:(fun () ->
            [
              ("contested", String.concat "," (List.map string_of_int contested));
              ("refused_writes", string_of_int !refused);
              ("window_writes_ok", string_of_int !window_ok);
              ("window_majority_ok", string_of_int !maj_ok);
              ("window_majority_attempts", string_of_int !maj_attempts);
              ("window_minority_ok", string_of_int !min_ok);
              ("window_minority_attempts", string_of_int !min_attempts);
              ("partition_heals", string_of_int (Causal.partition_heals c));
              ("votes_granted", string_of_int (Causal.votes_granted c));
              ("degraded_refusals", string_of_int (Causal.degraded_refusals c));
              ("resyncs", string_of_int (Causal.resyncs c));
              ("quorum", string_of_int (Causal.quorum c));
            ]));
  }

(* Nine nodes in three shard rings of three (quorum 2 per ring), a skewed
   workload where every client mostly touches its own shard, and two faults
   aimed only at shard 0: the plan isolates ring member 2 (t=10..30), then
   node 0's client crash-stops its own node at t=40 (or after its phase 2,
   if later), and ring successor 1 must win a shard-local canvass.  Clients
   of shards 1 and 2 must sail through both faults: the fault isolation
   partial replication buys.  Node 8's explicit subscribe into shard 0 in
   phase 3 exercises the SUB_REQ/SUB_REPLY catch-up path. *)
let shard =
  let nodes = 9 and shards = 3 in
  { name = "shard"; seed = 11L; clients = nodes; min_clients = nodes; ops = 3;
    shape =
      (fun n ->
        if n <> nodes then invalid_arg "Chaos.run: shard runs exactly 9 clients";
        let layout = Shard.make ~nodes ~shards in
        let rest = List.filter (( <> ) 2) (List.init nodes Fun.id) in
        shape ~sharding:layout ~detector:failover_detector
          ~plan:
            [
              { Nemesis.at = 10.0; fault = Nemesis.Cut { a = [ 2 ]; b = rest } };
              { at = 30.0; fault = Nemesis.Heal_all };
            ]
          (Shard.owner layout));
    program =
      (fun env ->
        let c = env.cluster in
        let layout = Option.get (Causal.sharding c) in
        let owner = Shard.owner layout in
        (* Location i lives in shard [i mod 3] and is served by ring member
           [(i/3) mod 3] of that ring; 36 locations give each base four. *)
        let all_locs = List.init 36 Fun.id in
        let locs_of sh = List.filter (fun i -> Shard.of_loc layout (Workload.loc i) = sh) all_locs in
        (* Availability inside each fault window, by the shard of the client
           attempting the operation. *)
        let att = Array.make_matrix 2 shards 0 and ok = Array.make_matrix 2 shards 0 in
        let body pid prng =
          let h = Causal.handle c pid in
          let my_shard = Shard.of_base layout pid in
          let own = locs_of my_shard in
          let foreign = List.filter (fun i -> not (List.mem i own)) all_locs in
          let pick locs = Workload.loc (List.nth locs (Prng.int prng (List.length locs))) in
          (* Mostly own-shard traffic, and a trickle across shard lines that
             drives subscribe-on-access. *)
          let skewed () = if Prng.chance prng 0.85 then pick own else pick foreign in
          let value phase k = Value.Int ((pid * 1_000_000) + (phase * 1_000) + k) in
          let do_op ~phase ~window ~k loc =
            let done_ok =
              if Prng.chance prng 0.5 then Result.is_ok (Causal.write_result h loc (value phase k))
              else Result.is_ok (Causal.read_result h loc)
            in
            Option.iter
              (fun w ->
                att.(w).(my_shard) <- att.(w).(my_shard) + 1;
                if done_ok then ok.(w).(my_shard) <- ok.(w).(my_shard) + 1)
              window
          in
          let phases_1_2 () =
            paced ~from:1 ~upto:env.ops (fun k -> do_op ~phase:1 ~window:None ~k (skewed ()));
            sleep_until env 14.0;
            (* Own-shard traffic only while node 2 is cut off.  Shard 0's
               surviving majority {0,1} steers around the isolated base; the
               isolated client hammers its own shard and takes the
               refusals. *)
            paced ~from:1 ~upto:env.ops (fun k ->
                let loc =
                  if my_shard = 0 && pid <> 2 then
                    pick (List.filter (fun i -> Owner.owner owner (Workload.loc i) <> 2) own)
                  else pick own
                in
                do_op ~phase:2 ~window:(Some 0) ~k loc)
          in
          if pid = 0 then
            (* Node 0's client retires by crash-stopping its own node between
               operations, also if one of its operations raised. *)
            Fun.protect phases_1_2 ~finally:(fun () ->
                sleep_until env 40.0;
                Nemesis.inject env.nemesis (Nemesis.Crash 0))
          else begin
            phases_1_2 ();
            sleep_until env 70.0;
            if pid = 8 then Causal.subscribe c ~node:8 ~shard:0;
            paced ~from:1 ~upto:env.ops (fun k ->
                (* Node 8's first read reads back the catch-up. *)
                let loc = if pid = 8 && k = 1 then pick (locs_of 0) else skewed () in
                do_op ~phase:3 ~window:(Some 1) ~k loc)
          end
        in
        program
          (List.init nodes (fun pid -> client pid (body pid)))
          ~notes:(fun () ->
            let pct w sh = Printf.sprintf "%d/%d" ok.(w).(sh) att.(w).(sh) in
            let clean w sh = ok.(w).(sh) = att.(w).(sh) && att.(w).(sh) > 0 in
            [
              ("layout", Format.asprintf "%a" Shard.pp layout);
              ("ring_quorum", string_of_int (Causal.quorum_for c ~base:0));
              ("partition_shard0", pct 0 0);
              ("partition_shard1", pct 0 1);
              ("partition_shard2", pct 0 2);
              ("crash_shard0", pct 1 0);
              ("crash_shard1", pct 1 1);
              ("crash_shard2", pct 1 2);
              ("fault_isolated", string_of_bool (clean 0 1 && clean 0 2 && clean 1 1 && clean 1 2));
              ( "shard0_subscribers",
                String.concat "," (List.map string_of_int (Shard.subscribers layout 0)) );
              ("votes_granted", string_of_int (Causal.votes_granted c));
              ("partition_heals", string_of_int (Causal.partition_heals c));
            ]));
  }

(* {2 Causal objects}

   One row per shipped [Causal_object] instance.  Each process attaches a
   client, interleaves spec-level updates ([next] picks each round's) with
   queries, and queries once more after quiescence.  Health is judged at
   two levels: the register history must be causal as always, and every
   recorded query return must be spec-legal under some causal-past
   linearization of its observed context; the final returns must also
   agree.  Under [Merge_drops_op] the clients' merge drops the causally
   greatest observed update: every probe read stays register-legal, so
   only the object-level check flags it. *)

module type CLIENT = sig
  type t
  type op
  val attach : ?buggy_merge:bool -> Causal.handle -> t
  val update : t -> op -> unit
  val query : t -> string
  val queries : t -> Dsm_checker.Obj_check.query list
end

let object_row (type op) name ~obj (module C : CLIENT with type op = op)
    (next : Prng.t -> pid:int -> round:int -> op) =
  { name; seed = 12L; clients = 3; min_clients = 2; ops = 4;
    shape =
      (fun n ->
        (* Op-log cells read [Free] until written: the probes' end-of-log
           marker. *)
        shape
          ~config:(Config.with_init Dsm_objects.Registry.init Config.default)
          (Owner.by_index ~nodes:n));
    program =
      (fun env ->
        let c = env.cluster and n = env.clients in
        (* Queries are client-side folds, invisible to the cluster: publish
           each one onto the bus so traced runs show them. *)
        let query pid t =
          let ret = C.query t in
          Option.iter
            (fun bus ->
              Trace.emit bus ~time:(Engine.now env.engine)
                ~clock:(Dsm_causal.Node.vt (Causal.node c pid))
                (Trace.Op_query { node = pid; obj; ret }))
            (Causal.trace c);
          ret
        in
        let buggy_merge = env.knobs.mutation = Config.Merge_drops_op in
        let clients = Array.make n None and finals = Array.make n "" in
        let body pid prng =
          let t = C.attach ~buggy_merge (Causal.handle c pid) in
          clients.(pid) <- Some t;
          for round = 1 to env.ops do
            Proc.sleep (Prng.exponential prng ~mean:2.0);
            C.update t (next prng ~pid ~round);
            if Prng.chance prng 0.5 then ignore (query pid t)
          done
        in
        let checked =
          lazy
            (let queries =
               Array.to_list clients |> List.concat_map (function Some t -> C.queries t | None -> [])
             in
             ( queries,
               Check.check_objects ~lookup:Dsm_objects.Registry.find (Causal.history c) queries,
               Array.for_all (String.equal finals.(0)) finals ))
        in
        program
          (List.init n (fun pid -> Seeded (Printf.sprintf "obj%d" pid, body pid)))
          ~collect:(fun () ->
            Array.iteri (fun pid -> Option.iter (fun t -> finals.(pid) <- query pid t)) clients)
          ~notes:(fun () ->
            let queries, violations, converged = Lazy.force checked in
            ("object_queries", string_of_int (List.length queries))
            :: ("object_ok", string_of_bool (violations = []))
            :: ("views_converged", string_of_bool converged)
            :: ("final_view", finals.(0))
            ::
            (match violations with
            | [] -> []
            | v :: _ -> [ ("object_violation", v.Dsm_checker.Obj_check.v_reason) ]))
          ~verdict:(fun () ->
            let _, violations, converged = Lazy.force checked in
            violations = [] && converged));
  }

let table =
  let open Dsm_objects in
  let elt p pid round = Printf.sprintf "%s%d-%d" p pid round in
  [
    mix;
    dictionary;
    solver;
    crash_restart;
    owner_crash ~name:"owner-crash" ~revive:false;
    owner_crash ~name:"failover" ~revive:true;
    power_failure;
    partition ~name:"partition" ~minority:[ 0 ];
    partition ~name:"split-brain" ~minority:[ 0; 1 ];
    shard;
    object_row "obj-counter" ~obj:Counter.name
      (module struct include Counter.Client (Causal.Mem) type op = Counter.S.op end)
      (fun prng ~pid:_ ~round:_ -> if Prng.chance prng 0.3 then Counter.add 2 else Counter.incr);
    object_row "obj-gset" ~obj:Gset.name
      (module struct include Gset.Client (Causal.Mem) type op = Gset.S.op end)
      (fun _ ~pid ~round -> Gset.of_elt (elt "e" pid round));
    object_row "obj-2pset" ~obj:Tpset.name
      (module struct include Tpset.Client (Causal.Mem) type op = Tpset.S.op end)
      (fun _ ~pid ~round ->
        if round mod 2 = 0 then Tpset.remove (elt "e" pid (round - 1)) else Tpset.add (elt "e" pid round));
    object_row "obj-queue" ~obj:Oqueue.name
      (module struct include Oqueue.Client (Causal.Mem) type op = Oqueue.S.op end)
      (fun _ ~pid ~round -> Oqueue.push (elt "m" pid round));
    object_row "obj-dict" ~obj:Odict.name
      (module struct include Odict.Client (Causal.Mem) type op = Odict.S.op end)
      (fun prng ~pid ~round ->
        let key = Printf.sprintf "k%d" (round mod 3) in
        if round > 1 && Prng.chance prng 0.25 then Odict.delete key
        else Odict.insert key (elt "v" pid round));
    object_row "obj-board" ~obj:Oboard.name
      (module struct include Oboard.Client (Causal.Mem) type op = Oboard.S.op end)
      (fun _ ~pid ~round ->
        Oboard.post ~author:(Printf.sprintf "p%d" pid) ~text:(Printf.sprintf "t%d" round));
  ]

let scenarios = List.map (fun r -> r.name) table

(* {1 The runner} *)

(* Rebuild Op.t values from the bus's application-level events (per-pid
   indices recount program order, which is how the recorder assigned them)
   and feed them to the incremental checker as they complete.  A violation
   is published back onto the same bus, so a trace dump shows it in
   place. *)
let attach_online ?window bus =
  let ck = Online.create ?window () in
  let next = Hashtbl.create 8 in
  let index pid =
    let i = match Hashtbl.find_opt next pid with Some i -> i | None -> 0 in
    Hashtbl.replace next pid (i + 1);
    i
  in
  let feed time node op =
    match Online.add_op ck op with
    | [] -> ()
    | v :: _ -> Trace.emit bus ~time (Trace.Violation { node; reason = v.Online.v_reason })
  in
  Trace.subscribe bus (fun ev ->
      match ev.Trace.body with
      | Trace.Op_read { node; loc; value; from } ->
          feed ev.Trace.time node (Op.read ~pid:node ~index:(index node) ~loc ~value ~from)
      | Trace.Op_write { node; loc; value; wid } ->
          feed ev.Trace.time node (Op.write ~pid:node ~index:(index node) ~loc ~value ~wid)
      (* A crashed node's uncertified writes never arrive: give up the reads
         pending on them so the checker's deferred state stays bounded over
         a crash-heavy run. *)
      | Trace.Crash { node } -> Online.note_crashed ck ~node
      | _ -> ());
  ck

let build_report ~scenario ~sched ~engine ~crashes ~notes ?online c =
  Causal.shutdown c;
  let history = Causal.history c in
  let verdict = Harness.causal_verdict history in
  let notes =
    match online with
    | None -> notes
    | Some ck ->
        ("online_ops", string_of_int (Online.ops_seen ck))
        :: ("online_checks", string_of_int (Online.checks ck))
        :: ("online_edges", string_of_int (Online.edges ck))
        :: ("online_pending", string_of_int (Online.pending_reads ck))
        :: ("online_dropped", string_of_int (Online.dropped_reads ck))
        :: notes
  in
  {
    scenario;
    processes = Causal.processes c;
    ops = History.op_count history;
    latencies = List.map (fun (_, start, stop) -> stop -. start) (Causal.timed_history c);
    causal_ok = verdict <> Some false;
    history_checked = verdict <> None;
    stats = Causal.cluster_stats c;
    online_checked = online <> None;
    online_violation =
      Option.bind online (fun ck ->
          Option.map (fun v -> v.Online.v_reason) (Online.first_violation ck));
    sim_time = Engine.now engine;
    messages = Causal.messages_total c;
    logical_messages = Causal.logical_messages c;
    dropped = Causal.wire_dropped c;
    duplicated = Causal.wire_duplicated c;
    transport =
      (match Causal.reliable c with
      | Some r -> Reliable.counters r
      | None ->
          { Reliable.sent = 0; payloads = 0; retransmissions = 0; acks = 0; dup_dropped = 0;
            reordered = 0; gave_up = 0 });
    rpc_timeouts = Causal.rpc_timeouts c;
    stale_replies = Causal.stale_replies c;
    crashes;
    suspects = Causal.suspect_events c;
    unsuspects = Causal.unsuspect_events c;
    takeovers = Causal.takeovers c;
    view = Causal.view c;
    unfinished = Proc.unfinished_since sched;
    notes;
  }

let run ?(knobs = default_knobs) ?seed ?clients ?ops name =
  let row =
    match List.find_opt (fun r -> r.name = name) table with
    | Some r -> r
    | None ->
        invalid_arg
          (Printf.sprintf "Chaos.run: unknown scenario %s (expected one of %s)" name
             (String.concat ", " scenarios))
  in
  let seed = Option.value seed ~default:row.seed in
  let clients = Option.value clients ~default:row.clients in
  let ops = Option.value ops ~default:row.ops in
  if clients < row.min_clients || ops < 1 then
    invalid_arg (Printf.sprintf "Chaos.run: %s needs clients >= %d and ops >= 1" name row.min_clients);
  let shape = row.shape clients in
  let config =
    if knobs.mutation = Config.No_mutation then shape.config
    else Some { (Option.value shape.config ~default:Config.default) with mutation = knobs.mutation }
  in
  let trace =
    match knobs.trace with
    | Some _ as t -> t
    | None -> if knobs.online_check then Some (Trace.create ~record:false ()) else None
  in
  let online =
    if knobs.online_check then Option.map (attach_online ?window:knobs.online_window) trace
    else None
  in
  let engine = Engine.create () in
  let sched = Proc.scheduler engine in
  let c =
    Causal.create ~sched ~owner:shape.owner ?config ~latency:Latency.lan
      ~fault:(Network.fault ~drop:knobs.drop ~duplicate:knobs.duplicate ())
      ~reliability:knobs.reliability ?rpc:knobs.rpc
      ?detector:(if knobs.detector = None then shape.detector else knobs.detector)
      ?sharding:shape.sharding ?checkpoint_every:shape.checkpoint_every ?trace ~seed ()
  in
  let nemesis = Nemesis.schedule engine c shape.plan in
  let p = row.program { cluster = c; engine; nemesis; seed; clients; ops; knobs } in
  let master = Prng.create seed in
  List.iter
    (function
      | Seeded (name, body) ->
          let prng = Prng.split master in
          ignore (Proc.spawn sched ~name (fun () -> body prng))
      | Unseeded (name, body) -> ignore (Proc.spawn sched ~name body))
    p.procs;
  (* Unlike [Proc.check], a failed process does not abort the run: the
     report says what happened. *)
  Engine.run engine;
  let failed =
    List.map (fun (name, exn) -> ("failed:" ^ name, Printexc.to_string exn)) (Proc.failures sched)
  in
  Option.iter
    (fun body ->
      ignore (Proc.spawn sched ~name:"collect" body);
      Engine.run engine)
    p.collect;
  let notes = p.notes () @ Nemesis.notes nemesis @ failed in
  let r = build_report ~scenario:name ~sched ~engine ~crashes:(Nemesis.crashes nemesis) ~notes ?online c in
  { r with causal_ok = r.causal_ok && p.verdict () }

let pp_report ppf r =
  let line fmt = Format.fprintf ppf fmt in
  line "scenario:          %s (%d processes)@." r.scenario r.processes;
  line "recorded ops:      %d@." r.ops;
  if r.causal_ok && not r.history_checked then
    line "causally correct:  skipped (%d ops)@." r.ops
  else line "causally correct:  %b@." r.causal_ok;
  line "sim time:          %.1f@." r.sim_time;
  line "wire messages:     %d (dropped %d, duplicated %d)@." r.messages r.dropped
    r.duplicated;
  if r.logical_messages <> r.messages then
    line "logical messages:  %d (%d physical frames on the wire)@." r.logical_messages
      r.messages;
  line "transport:         %d payloads, %d rexmit, %d acks, %d dup-dropped, %d reordered, %d gave up@."
    r.transport.Reliable.payloads r.transport.Reliable.retransmissions
    r.transport.Reliable.acks r.transport.Reliable.dup_dropped
    r.transport.Reliable.reordered r.transport.Reliable.gave_up;
  line "rpc timeouts:      %d (stale replies %d)@." r.rpc_timeouts r.stale_replies;
  line "counters:          %a@." Dsm_causal.Node_stats.pp_cluster r.stats;
  if r.online_checked then begin
    match r.online_violation with
    | None -> line "online check:      clean@."
    | Some reason -> line "online check:      VIOLATION — %s@." reason
  end;
  if r.crashes > 0 then line "crashes injected:  %d@." r.crashes;
  if r.suspects > 0 || r.unsuspects > 0 || r.takeovers > 0 then
    line "failover:          %d suspects, %d unsuspects, %d takeovers@." r.suspects
      r.unsuspects r.takeovers;
  List.iter
    (fun (base, epoch, serving) ->
      line "view:              base %d served by %d under epoch %d@." base serving epoch)
    r.view;
  (match r.unfinished with
  | [] -> line "unfinished procs:  none@."
  | stuck ->
      line "unfinished procs:  %d@." (List.length stuck);
      List.iter
        (fun (name, since) -> line "  %s (blocked since t=%.1f)@." name since)
        stuck);
  List.iter (fun (k, v) -> line "%-18s %s@." (k ^ ":") v) r.notes

let healthy r = r.causal_ok && r.unfinished = [] && r.online_violation = None
