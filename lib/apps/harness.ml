module Engine = Dsm_sim.Engine
module Proc = Dsm_runtime.Proc
module Network = Dsm_net.Network
module Causal = Dsm_causal.Cluster
module Atomic = Dsm_atomic.Cluster

module Solver_on_causal = Solver.Make (Causal.Mem)
module Solver_on_atomic = Solver.Make (Atomic.Mem)

type solver_result = {
  workers : int;
  iters : int;
  solution : float array;
  reference : float array;
  max_diff : float;
  residual : float;
  messages_total : int;
  bytes_total : int;
  by_kind : (string * int) list;
  history_correct : bool;
  sim_time : float;
}

let run_procs ?(poll_interval = 2.0) ?step_limit build =
  let engine = Engine.create ?step_limit () in
  let sched = Proc.scheduler ~poll_interval engine in
  let procs = build sched in
  List.iter (fun (name, body) -> ignore (Proc.spawn sched ~name body)) procs;
  Engine.run engine;
  Proc.check sched;
  (engine, sched)

(* Run one extra process after quiescence (e.g. to read results back through
   the memory API, which must happen inside a process). *)
let run_one sched engine name body =
  ignore (Proc.spawn sched ~name body);
  Engine.run engine;
  Proc.check sched

let causal_verdict history =
  if Dsm_memory.History.op_count history > 6_000 then None
  else Some (Dsm_checker.Causal_check.is_correct history)

let check_history history = Option.value (causal_verdict history) ~default:true

let problem_for ~seed ~n =
  Linalg.random_diagonally_dominant (Dsm_util.Prng.create seed) ~n

let solver_causal ?(seed = 42L) ?latency ?poll_interval ~n ~iters () =
  let problem = problem_for ~seed ~n in
  let owner = Solver.owner_map ~workers:n in
  let cluster = ref None in
  let engine, sched =
    run_procs ?poll_interval (fun sched ->
        let c = Causal.create ~sched ~owner ?latency ~seed () in
        cluster := Some c;
        let worker i () =
          Solver_on_causal.worker (Causal.handle c i) problem ~me:i ~iters
        in
        let coord () = Solver_on_causal.coordinator (Causal.handle c n) ~workers:n ~iters in
        ("coordinator", coord)
        :: List.init n (fun i -> (Printf.sprintf "worker%d" i, worker i)))
  in
  let c = Option.get !cluster in
  let messages_total = Network.lifetime_total (Causal.net c) in
  let solution = ref [||] in
  run_one sched engine "collect" (fun () ->
      solution := Solver_on_causal.read_solution (Causal.handle c n) ~n);
  let reference = Linalg.jacobi problem ~iters in
  let counters = Network.counters (Causal.net c) in
  {
    workers = n;
    iters;
    solution = !solution;
    reference;
    max_diff = Linalg.max_diff !solution reference;
    residual = Linalg.residual problem !solution;
    messages_total;
    bytes_total = counters.Network.bytes;
    by_kind = counters.Network.by_kind;
    history_correct = check_history (Causal.history c);
    sim_time = Engine.now engine;
  }

let solver_atomic ?(seed = 42L) ?latency ?poll_interval ?(mode = `Counted) ~n ~iters () =
  let problem = problem_for ~seed ~n in
  let owner = Solver.owner_map ~workers:n in
  let cluster = ref None in
  let engine, sched =
    run_procs ?poll_interval (fun sched ->
        let c = Atomic.create ~sched ~owner ~mode ?latency ~seed () in
        cluster := Some c;
        let worker i () =
          Solver_on_atomic.worker (Atomic.handle c i) problem ~me:i ~iters
        in
        let coord () = Solver_on_atomic.coordinator (Atomic.handle c n) ~workers:n ~iters in
        ("coordinator", coord)
        :: List.init n (fun i -> (Printf.sprintf "worker%d" i, worker i)))
  in
  let c = Option.get !cluster in
  let messages_total = Network.lifetime_total (Atomic.net c) in
  let solution = ref [||] in
  run_one sched engine "collect" (fun () ->
      solution := Solver_on_atomic.read_solution (Atomic.handle c n) ~n);
  let reference = Linalg.jacobi problem ~iters in
  let counters = Network.counters (Atomic.net c) in
  {
    workers = n;
    iters;
    solution = !solution;
    reference;
    max_diff = Linalg.max_diff !solution reference;
    residual = Linalg.residual problem !solution;
    messages_total;
    bytes_total = counters.Network.bytes;
    by_kind = counters.Network.by_kind;
    history_correct = check_history (Atomic.history c);
    sim_time = Engine.now engine;
  }

let solver_causal_blocks ?(seed = 42L) ?latency ?poll_interval ?config ~n ~workers ~iters () =
  if workers > n then invalid_arg "Harness.solver_causal_blocks: workers > n";
  let problem = problem_for ~seed ~n in
  let owner = Solver.block_owner_map ~workers ~n in
  let cluster = ref None in
  let engine, sched =
    run_procs ?poll_interval (fun sched ->
        let c = Causal.create ~sched ~owner ?config ?latency ~seed () in
        cluster := Some c;
        let worker w () =
          Solver_on_causal.worker_block (Causal.handle c w) problem ~me:w ~workers ~iters
        in
        let coord () =
          Solver_on_causal.coordinator (Causal.handle c workers) ~workers ~iters
        in
        ("coordinator", coord)
        :: List.init workers (fun w -> (Printf.sprintf "worker%d" w, worker w)))
  in
  let c = Option.get !cluster in
  let messages_total = Network.lifetime_total (Causal.net c) in
  let solution = ref [||] in
  run_one sched engine "collect" (fun () ->
      solution := Solver_on_causal.read_solution (Causal.handle c workers) ~n);
  let reference = Linalg.jacobi problem ~iters in
  let counters = Network.counters (Causal.net c) in
  {
    workers;
    iters;
    solution = !solution;
    reference;
    max_diff = Linalg.max_diff !solution reference;
    residual = Linalg.residual problem !solution;
    messages_total;
    bytes_total = counters.Network.bytes;
    by_kind = counters.Network.by_kind;
    history_correct = check_history (Causal.history c);
    sim_time = Engine.now engine;
  }

module Barrier_on_causal = Solver_barrier.Make (Causal.Mem)

let solver_causal_barrier ?(seed = 42L) ?latency ?poll_interval ~n ~iters () =
  let problem = problem_for ~seed ~n in
  let owner = Solver_barrier.owner_map ~workers:n in
  let cluster = ref None in
  let engine, sched =
    run_procs ?poll_interval (fun sched ->
        let c = Causal.create ~sched ~owner ?latency ~seed () in
        cluster := Some c;
        List.init n (fun i ->
            ( Printf.sprintf "worker%d" i,
              fun () ->
                Barrier_on_causal.worker (Causal.handle c i) problem ~me:i ~workers:n ~iters )))
  in
  let c = Option.get !cluster in
  let messages_total = Network.lifetime_total (Causal.net c) in
  let solution = ref [||] in
  run_one sched engine "collect" (fun () ->
      solution := Barrier_on_causal.read_solution (Causal.handle c 0) ~n);
  let reference = Linalg.jacobi problem ~iters in
  let counters = Network.counters (Causal.net c) in
  {
    workers = n;
    iters;
    solution = !solution;
    reference;
    max_diff = Linalg.max_diff !solution reference;
    residual = Linalg.residual problem !solution;
    messages_total;
    bytes_total = counters.Network.bytes;
    by_kind = counters.Network.by_kind;
    history_correct = check_history (Causal.history c);
    sim_time = Engine.now engine;
  }

let steady_rate ~run ~iters_lo ~iters_hi =
  if iters_hi <= iters_lo then invalid_arg "Harness.steady_rate: need iters_hi > iters_lo";
  let lo = run ~iters:iters_lo in
  let hi = run ~iters:iters_hi in
  float_of_int (hi.messages_total - lo.messages_total)
  /. float_of_int (iters_hi - iters_lo)
  /. float_of_int lo.workers

type async_result = {
  a_workers : int;
  a_sweeps : int;
  a_refresh_every : int;
  a_solution : float array;
  a_error : float;
  a_messages_total : int;
  a_history_correct : bool;
}

let solver_async ?(seed = 42L) ?latency ~n ~sweeps ~refresh_every () =
  let problem = problem_for ~seed ~n in
  let owner = Async_solver.owner_map ~workers:n in
  let cluster = ref None in
  let engine, sched =
    run_procs (fun sched ->
        let c = Causal.create ~sched ~owner ?latency ~seed () in
        cluster := Some c;
        List.init n (fun i ->
            ( Printf.sprintf "async%d" i,
              fun () ->
                Async_solver.worker (Causal.handle c i) problem ~me:i ~sweeps ~refresh_every )))
  in
  let c = Option.get !cluster in
  let messages_total = Network.lifetime_total (Causal.net c) in
  let solution = ref [||] in
  run_one sched engine "collect" (fun () ->
      solution := Async_solver.read_solution (Causal.handle c 0) ~n);
  let exact = Linalg.solve_exact problem in
  {
    a_workers = n;
    a_sweeps = sweeps;
    a_refresh_every = refresh_every;
    a_solution = !solution;
    a_error = Linalg.max_diff !solution exact;
    a_messages_total = messages_total;
    a_history_correct = check_history (Causal.history c);
  }
