(* dsm — command-line driver for the causal DSM library.

   Subcommands:
     check     check a history file (paper notation) against the memory models
     fig       print and check one of the paper's figures
     solver    run the Figure 6 solver on causal/atomic memory
     dict      run the distributed-dictionary demo
     anomaly   reproduce the Figure 3 broadcast anomaly
     workload  run a random workload and classify its execution
     chaos     run a workload over lossy links with the reliable transport
     bench     run one benchmark workload, write its BENCH_<W>.json report
*)

open Cmdliner

module Check = Dsm_checker.Causal_check
module Consistency = Dsm_checker.Consistency
module History = Dsm_memory.History
module Table = Dsm_util.Table

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

let classify_and_print history =
  print_endline "History:";
  print_endline (History.to_string history);
  print_newline ();
  let c = Consistency.classify history in
  let t = Table.create ~headers:[ "consistency model"; "satisfied" ] in
  Table.add_row t [ "causal memory (Definitions 1-2)"; (if c.Consistency.causal then "yes" else "NO") ];
  Table.add_row t [ "sequential consistency"; (if c.Consistency.sc then "yes" else "no") ];
  Table.add_row t [ "PRAM"; (if c.Consistency.pram then "yes" else "no") ];
  Table.add_row t [ "slow memory"; (if c.Consistency.slow then "yes" else "no") ];
  Table.add_row t [ "coherence (per-location SC)"; (if c.Consistency.coherent then "yes" else "no") ];
  (match Dsm_checker.Session.check history with
  | Ok r ->
      let mark b = if b then "yes" else "no" in
      Table.add_row t [ "session: read-your-writes"; mark r.Dsm_checker.Session.ryw ];
      Table.add_row t [ "session: monotonic reads"; mark r.Dsm_checker.Session.mr ];
      Table.add_row t [ "session: monotonic writes"; mark r.Dsm_checker.Session.mw ];
      Table.add_row t [ "session: writes-follow-reads"; mark r.Dsm_checker.Session.wfr ]
  | Error _ -> ());
  Table.print t;
  if not c.Consistency.causal then begin
    print_endline "Causal violations:";
    List.iter
      (fun (v : Check.violation) -> Printf.printf "  %s\n" v.Check.reason)
      (Check.violations history);
    print_newline ();
    print_endline "Witness chains:";
    List.iter
      (fun (e : Check.explanation) -> Printf.printf "  %s\n" e.Check.x_rendered)
      (Check.explain_all history);
    print_newline ()
  end;
  c.Consistency.causal

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_cmd =
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"History file in the paper's notation (one 'P<n>: op op ...' line per process).")
  in
  let run path =
    match History.parse (read_file path) with
    | Error e ->
        Printf.eprintf "parse error: %s\n" e;
        exit 2
    | Ok history -> if classify_and_print history then exit 0 else exit 1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Check a recorded execution against the consistency hierarchy")
    Term.(const run $ path)

(* ------------------------------------------------------------------ *)
(* fig                                                                 *)
(* ------------------------------------------------------------------ *)

let fig_cmd =
  let which =
    Arg.(required & pos 0 (some (enum [ ("1", `F1); ("2", `F2); ("3", `F3); ("5", `F5) ])) None
         & info [] ~docv:"FIGURE" ~doc:"Paper figure number: 1, 2, 3 or 5.")
  in
  let run which =
    let history =
      match which with
      | `F1 -> Dsm_checker.Histories.fig1
      | `F2 -> Dsm_checker.Histories.fig2
      | `F3 -> Dsm_checker.Histories.fig3
      | `F5 -> Dsm_checker.Histories.fig5
    in
    ignore (classify_and_print history)
  in
  Cmd.v (Cmd.info "fig" ~doc:"Print and classify one of the paper's example executions")
    Term.(const run $ which)

(* ------------------------------------------------------------------ *)
(* solver                                                              *)
(* ------------------------------------------------------------------ *)

let solver_cmd =
  let n = Arg.(value & opt int 8 & info [ "n" ] ~doc:"Number of unknowns / worker processes.") in
  let iters = Arg.(value & opt int 10 & info [ "iters" ] ~doc:"Jacobi phases.") in
  let memory =
    Arg.(value & opt (enum [ ("causal", `Causal); ("atomic", `Atomic); ("both", `Both) ]) `Both
         & info [ "memory" ] ~doc:"Which DSM to run on: causal, atomic or both.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic seed.") in
  let run n iters memory seed =
    let seed = Int64.of_int seed in
    let t =
      Table.create ~headers:[ "memory"; "max|x-jacobi|"; "residual"; "messages"; "causal" ]
    in
    let row name (r : Dsm_apps.Harness.solver_result) =
      Table.add_row t
        [
          name;
          Printf.sprintf "%.1e" r.Dsm_apps.Harness.max_diff;
          Printf.sprintf "%.2e" r.Dsm_apps.Harness.residual;
          string_of_int r.Dsm_apps.Harness.messages_total;
          (if r.Dsm_apps.Harness.history_correct then "yes" else "NO");
        ]
    in
    if memory = `Causal || memory = `Both then
      row "causal" (Dsm_apps.Harness.solver_causal ~seed ~n ~iters ());
    if memory = `Atomic || memory = `Both then
      row "atomic" (Dsm_apps.Harness.solver_atomic ~seed ~n ~iters ());
    Table.print ~title:(Printf.sprintf "Figure 6 solver, n=%d, %d phases" n iters) t
  in
  Cmd.v (Cmd.info "solver" ~doc:"Run the synchronous iterative linear solver (Figure 6)")
    Term.(const run $ n $ iters $ memory $ seed)

(* ------------------------------------------------------------------ *)
(* dict                                                                *)
(* ------------------------------------------------------------------ *)

let dict_cmd =
  let processes = Arg.(value & opt int 3 & info [ "processes" ] ~doc:"Cooperating processes.") in
  let items = Arg.(value & opt int 6 & info [ "items" ] ~doc:"Items inserted per process.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Deterministic seed.") in
  let run processes items seed =
    let module Engine = Dsm_sim.Engine in
    let module Proc = Dsm_runtime.Proc in
    let module Cluster = Dsm_causal.Cluster in
    let module Dictionary = Dsm_apps.Dictionary in
    let engine = Engine.create () in
    let sched = Proc.scheduler engine in
    let cluster =
      Cluster.create ~sched ~owner:(Dictionary.owner_map ~processes)
        ~config:Dictionary.config ~latency:(Dsm_net.Latency.Constant 1.0)
        ~seed:(Int64.of_int seed) ()
    in
    let d =
      Array.init processes (fun i -> Dictionary.attach (Cluster.handle cluster i) ~cols:(items * 2))
    in
    for p = 0 to processes - 1 do
      for k = 0 to items - 1 do
        ignore
          (Proc.spawn sched ~delay:(float_of_int k) (fun () ->
               ignore (Dictionary.insert d.(p) (Printf.sprintf "p%d-%d" p k))))
      done
    done;
    Engine.run engine;
    Proc.check sched;
    let t = Table.create ~headers:[ "process"; "items visible after refresh" ] in
    Array.iteri
      (fun i di ->
        ignore
          (Proc.spawn sched (fun () ->
               Dictionary.refresh di;
               Table.add_row t
                 [ Printf.sprintf "P%d" i; String.concat " " (Dictionary.items di) ]));
        Engine.run engine;
        Proc.check sched)
      d;
    Table.print ~title:"Distributed dictionary (Section 4.2)" t;
    Printf.printf "messages: %d\n" (Dsm_net.Network.lifetime_total (Cluster.net cluster));
    Printf.printf "history causally correct: %b\n"
      (Check.is_correct (Cluster.history cluster))
  in
  Cmd.v (Cmd.info "dict" ~doc:"Run the distributed dictionary (Section 4.2)")
    Term.(const run $ processes $ items $ seed)

(* ------------------------------------------------------------------ *)
(* anomaly                                                             *)
(* ------------------------------------------------------------------ *)

let anomaly_cmd =
  let run () =
    let r = Dsm_apps.Scenarios.fig3_broadcast () in
    print_endline "Figure 3 on the broadcast-based memory:";
    print_endline (History.to_string r.Dsm_apps.Scenarios.f3_history);
    Printf.printf "\ncausal memory: %s   PRAM: %s\n"
      (if r.Dsm_apps.Scenarios.f3_causal_ok then "satisfied" else "VIOLATED")
      (if r.Dsm_apps.Scenarios.f3_pram_ok then "satisfied" else "violated")
  in
  Cmd.v (Cmd.info "anomaly" ~doc:"Reproduce the Figure 3 broadcast anomaly")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* workload                                                            *)
(* ------------------------------------------------------------------ *)

let workload_cmd =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Deterministic seed.") in
  let memory =
    Arg.(value
         & opt (enum [ ("causal", `Causal); ("atomic", `Atomic); ("broadcast", `Broadcast) ]) `Causal
         & info [ "memory" ] ~doc:"Memory implementation: causal, atomic or broadcast.")
  in
  let processes = Arg.(value & opt int 3 & info [ "processes" ] ~doc:"Process count.") in
  let ops = Arg.(value & opt int 12 & info [ "ops" ] ~doc:"Operations per process.") in
  let writes = Arg.(value & opt float 0.5 & info [ "write-ratio" ] ~doc:"Write probability.") in
  let run seed memory processes ops writes =
    let spec =
      {
        Dsm_apps.Workload.default_spec with
        Dsm_apps.Workload.processes;
        ops_per_process = ops;
        write_ratio = writes;
      }
    in
    let seed = Int64.of_int seed in
    let outcome =
      match memory with
      | `Causal -> fst (Dsm_apps.Workload.run_causal ~seed spec)
      | `Atomic -> Dsm_apps.Workload.run_atomic ~seed spec
      | `Broadcast -> Dsm_apps.Workload.run_bmem ~seed spec
    in
    Printf.printf "messages: %d   simulated time: %.1f\n\n" outcome.Dsm_apps.Workload.messages
      outcome.Dsm_apps.Workload.sim_time;
    ignore (classify_and_print outcome.Dsm_apps.Workload.history)
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Run a random workload and classify the recorded execution")
    Term.(const run $ seed $ memory $ processes $ ops $ writes)

(* ------------------------------------------------------------------ *)
(* chaos                                                               *)
(* ------------------------------------------------------------------ *)

(* [--mutation], shared by chaos and mc: every [Config.mutation] by its
   CLI name, listed in the manual by [doc] (given the alternatives). *)
let mutation_arg doc =
  let alts = ("none", Dsm_causal.Config.No_mutation) :: Dsm_causal.Config.mutations in
  Arg.(value & opt (enum alts) Dsm_causal.Config.No_mutation
       & info [ "mutation" ] ~docv:"MUTATION" ~doc:(doc (Arg.doc_alts_enum alts)))

let chaos_cmd =
  let module Chaos = Dsm_apps.Chaos in
  let scenario =
    let all = List.map (fun s -> (s, s)) Chaos.scenarios in
    Arg.(value & pos 0 (enum all) "mix"
         & info [] ~docv:"SCENARIO"
             ~doc:(Printf.sprintf "Scenario to run: %s." (String.concat ", " Chaos.scenarios)))
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Deterministic seed.") in
  let drop =
    Arg.(value & opt float 0.05
         & info [ "drop" ] ~doc:"Per-message loss probability (default 0.05).")
  in
  let duplicate =
    Arg.(value & opt float 0.01
         & info [ "dup" ] ~doc:"Per-message duplication probability (default 0.01).")
  in
  let timeout =
    Arg.(value & opt float 100.0
         & info [ "timeout" ] ~doc:"RPC timeout in simulated time (default 100.0).")
  in
  let retries =
    Arg.(value & opt int 5 & info [ "retries" ] ~doc:"RPC retries per operation (default 5).")
  in
  let hb_period =
    Arg.(value & opt (some float) None
         & info [ "hb-period" ]
             ~doc:"Heartbeat period; enables failure detection and owner failover on any \
                   scenario (owner-crash, failover, partition, split-brain and shard default \
                   to 5.0).")
  in
  let suspect_after =
    Arg.(value & opt int 3
         & info [ "suspect-after" ]
             ~doc:"Silent heartbeat periods tolerated before suspicion (default 3; used \
                   with --hb-period).")
  in
  let online_check =
    Arg.(value & flag
         & info [ "online-check" ]
             ~doc:"Run the incremental causal checker against the event bus while the \
                   scenario executes; the first illegal read fails the run immediately.")
  in
  let mutation =
    (* Hidden fault injection: proves the checkers catch real protocol
       bugs, not just synthetic histories. *)
    mutation_arg
      (Printf.sprintf
         "TEST ONLY: break one protocol rule (%s), deliberately compromising causal \
          consistency or durability.")
  in
  let batching =
    Arg.(value & flag
         & info [ "batching" ]
             ~doc:"Use the frame-batching / ack-coalescing transport configuration \
                   (Reliable.batching_config) instead of the default one-frame-per-message \
                   transport.  Logical message counts are unaffected; physical frame \
                   counts drop.")
  in
  let run scenario seed drop duplicate timeout retries hb_period suspect_after
      online_check mutation batching =
    let detector =
      Option.map
        (fun period -> { Dsm_causal.Detector.period; suspect_after })
        hb_period
    in
    let knobs =
      {
        Chaos.default_knobs with
        Chaos.drop;
        duplicate;
        reliability =
          (if batching then Dsm_net.Reliable.batching_config
           else Dsm_net.Reliable.default_config);
        rpc = Some { Dsm_causal.Cluster.timeout; retries };
        detector;
        online_check;
        mutation;
      }
    in
    let r = Chaos.run ~knobs ~seed:(Int64.of_int seed) scenario in
    Format.printf "%a" Chaos.pp_report r;
    Printf.printf "health:            %s (gave_up %d, suspects %d, unsuspects %d)\n"
      (if Chaos.healthy r then "OK" else "UNHEALTHY")
      r.Chaos.transport.Dsm_net.Reliable.gave_up r.Chaos.suspects r.Chaos.unsuspects;
    if Chaos.healthy r then exit 0 else exit 1
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Run a workload over lossy, duplicating links with the reliable transport, \
             RPC timeouts, crash-stop recovery and (for owner-crash and failover) \
             heartbeat-driven ownership handoff; exits nonzero if the recorded history \
             is not causally correct or a process is left blocked")
    Term.(const run $ scenario $ seed $ drop $ duplicate $ timeout $ retries $ hb_period
          $ suspect_after $ online_check $ mutation $ batching)

(* ------------------------------------------------------------------ *)
(* bench                                                               *)
(* ------------------------------------------------------------------ *)

let bench_cmd =
  let module Bench = Dsm_apps.Bench in
  let module Report = Dsm_apps.Report in
  let workload =
    Arg.(required
         & pos 0 (some (enum (List.map (fun (w : Bench.workload) -> (w.name, w)) Bench.table))) None
         & info [] ~docv:"W"
             ~doc:(String.concat "; "
                     (List.map (fun (w : Bench.workload) -> Printf.sprintf "$(b,%s): %s" w.name w.doc)
                        Bench.table)))
  in
  let quick =
    Arg.(value & flag
         & info [ "quick" ] ~doc:"The workload's smaller shape, the one the CI jobs run.")
  in
  let seeds =
    Arg.(value & opt (some (list int)) None
         & info [ "seeds" ] ~docv:"S1,S2,..."
             ~doc:"Seeds to run instead of the workload's default; a workload that runs a \
                   single seed takes exactly one.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Where to write the JSON report (default BENCH_$(i,W).json; \"-\" writes \
                   no file).")
  in
  let run (w : Bench.workload) quick seeds out =
    match Bench.run ?seeds:(Option.map (List.map Int64.of_int) seeds) ~quick w with
    | exception Invalid_argument msg -> `Error (false, msg)
    | r ->
        Format.printf "%a" Report.pp r;
        let out = Option.value out ~default:("BENCH_" ^ w.name ^ ".json") in
        if out <> "-" then begin
          Out_channel.with_open_bin out (fun oc -> output_string oc (Report.to_json r));
          Printf.printf "wrote %s\n" out
        end;
        exit (if Report.healthy r then 0 else 1)
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"Run one benchmark workload $(i,W) and write its report, the same schema for \
             every workload (host, rows of end-to-end and per-layer figures, checks); \
             exits 1 when a check fails")
    Term.(ret (const run $ workload $ quick $ seeds $ out))

(* ------------------------------------------------------------------ *)
(* mc                                                                  *)
(* ------------------------------------------------------------------ *)

let mc_cmd =
  let module Gen = Dsm_mc.Gen in
  let module Explore = Dsm_mc.Explore in
  let scope =
    let names = List.map (fun (s : Gen.scope) -> (s.Gen.sname, s.Gen.sname)) Gen.presets in
    Arg.(value & opt (some (enum names)) None
         & info [ "scope" ] ~docv:"PRESET"
             ~doc:(Printf.sprintf
                     "Explore a named small-scope preset (%s) instead of the generic \
                      --nodes/--ops scope."
                     (String.concat ", " (List.map fst names))))
  in
  let nodes = Arg.(value & opt int 2 & info [ "nodes" ] ~doc:"Generic scope: node count (default 2).") in
  let ops = Arg.(value & opt int 2 & info [ "ops" ] ~doc:"Generic scope: operations per node (default 2).") in
  let faults =
    Arg.(value
         & opt (enum [ ("none", `None); ("crash", `Crash); ("crash-restart", `Crash_restart); ("drop", `Drop) ]) `None
         & info [ "faults" ]
             ~doc:"Generic scope adversary: none, crash (victim 0, takeover), crash-restart \
                   (plus log-replay restart), or drop (one drop + one duplication).")
  in
  let max_states =
    Arg.(value & opt int 200_000
         & info [ "max-states" ] ~doc:"Distinct states to explore before truncating (default 200000).")
  in
  let mutation =
    mutation_arg
      (Printf.sprintf
         "Break one protocol rule (%s); the checker is then expected to find a \
          counterexample.")
  in
  let matrix =
    Arg.(value & flag
         & info [ "matrix" ]
             ~doc:"Run the full oracle-validation matrix: every preset unmutated (expecting \
                   no violation) and every mutation in its designated scope (expecting a \
                   counterexample); exits nonzero unless all pass.")
  in
  let no_reduction =
    Arg.(value & flag
         & info [ "no-reduction" ] ~doc:"Disable the sleep-set partial-order reduction.")
  in
  let cex_file =
    Arg.(value & opt (some string) None
         & info [ "cex" ] ~docv:"FILE"
             ~doc:"Write the shrunk counterexample (if any) as Trace JSONL to FILE, \
                   diffable with $(b,dsm trace).")
  in
  let print_report (r : Explore.report) =
    Format.printf "%s: %a@." r.Explore.scope.Gen.sname Explore.pp_stats r.Explore.stats;
    match r.Explore.cex with
    | None -> ()
    | Some c ->
        let node, reason = c.Explore.cex_violation in
        Format.printf "  counterexample (%d steps, %s at node %d): %s@."
          (List.length c.Explore.schedule)
          (if c.Explore.online then "flagged online" else "post-hoc")
          node reason;
        Format.printf "  schedule: %a@." Explore.pp_schedule c.Explore.schedule
  in
  let run scope nodes ops faults max_states mutation matrix no_reduction cex_file =
    if matrix then begin
      let entries = Explore.run_matrix ~max_states () in
      let failed =
        List.filter
          (fun (e : Explore.matrix_entry) ->
            let verdict =
              match (e.Explore.ok, e.Explore.mutation) with
              | true, Dsm_causal.Config.No_mutation -> "clean"
              | true, _ -> "caught"
              | false, Dsm_causal.Config.No_mutation -> "FALSE POSITIVE"
              | false, _ -> "MISSED"
            in
            Format.printf "%-24s %-24s %-14s %a@." e.Explore.scope_name
              (Dsm_causal.Config.mutation_name e.Explore.mutation)
              verdict Explore.pp_stats e.Explore.report.Explore.stats;
            not e.Explore.ok)
          entries
      in
      if failed = [] then begin
        Format.printf "matrix OK: %d runs@." (List.length entries);
        exit 0
      end
      else begin
        Format.printf "matrix FAILED: %d of %d runs@." (List.length failed) (List.length entries);
        exit 1
      end
    end
    else begin
      let base =
        match scope with
        | Some name -> Option.get (Gen.preset name)
        | None ->
            let fault =
              match faults with
              | `None -> Gen.No_faults
              | `Crash -> Gen.Crash { victim = 0; restart = false }
              | `Crash_restart -> Gen.Crash { victim = 0; restart = true }
              | `Drop -> Gen.Drop { drops = 1; dups = 1 }
            in
            Gen.generic ~nodes ~ops ~fault
      in
      let scope = { base with Gen.mutation } in
      let report = Explore.run ~reduction:(not no_reduction) ~max_states scope in
      print_report report;
      (match (report.Explore.cex, cex_file) with
      | Some c, Some path ->
          let n = Explore.write_counterexample scope c.Explore.schedule path in
          Format.printf "  wrote %d events to %s@." n path
      | _ -> ());
      let expected_violation = mutation <> Dsm_causal.Config.No_mutation in
      let found = report.Explore.cex <> None in
      if found = expected_violation then exit 0 else exit 1
    end
  in
  Cmd.v
    (Cmd.info "mc"
       ~doc:"Exhaustively model-check a small-scope system through the pure protocol core: \
             enumerate every schedule (deliveries, faults, operation issues) with \
             state-fingerprint de-duplication and sleep-set reduction, judge each execution \
             with the causal-memory checkers, and shrink any violation to a minimal \
             counterexample; exits nonzero on an unexpected verdict")
    Term.(const run $ scope $ nodes $ ops $ faults $ max_states $ mutation $ matrix
          $ no_reduction $ cex_file)

(* ------------------------------------------------------------------ *)
(* trace                                                               *)
(* ------------------------------------------------------------------ *)

let trace_cmd =
  let module Chaos = Dsm_apps.Chaos in
  let module Trace = Dsm_causal.Trace in
  let scenario =
    let all = List.map (fun s -> (s, s)) Chaos.scenarios in
    Arg.(value & pos 0 (enum all) "owner-crash"
         & info [] ~docv:"SCENARIO"
             ~doc:(Printf.sprintf "Scenario to trace: %s." (String.concat ", " Chaos.scenarios)))
  in
  let seed = Arg.(value & opt int 5 & info [ "seed" ] ~doc:"Deterministic seed.") in
  let milestones =
    Arg.(value & flag
         & info [ "milestones" ]
             ~doc:"Keep only the scheduling-robust milestone events (crashes, suspicions, \
                   promotions, application operations, violations) — the subset golden \
                   traces are diffed on.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the JSONL dump here instead of stdout.")
  in
  let online_check =
    Arg.(value & flag & info [ "online-check" ] ~doc:"Also run the online checker on the bus.")
  in
  let run scenario seed milestones out online_check =
    let bus = Trace.create () in
    let knobs = { Chaos.default_knobs with Chaos.trace = Some bus; online_check } in
    let r = Chaos.run ~knobs ~seed:(Int64.of_int seed) scenario in
    let events =
      Trace.events bus
      |> List.filter (fun (ev : Trace.event) ->
             (not milestones) || Trace.milestone ev.Trace.body)
    in
    let dump oc =
      List.iter (fun ev -> output_string oc (Trace.to_json ev ^ "\n")) events
    in
    (match out with
    | None -> dump stdout
    | Some path ->
        let oc = open_out path in
        Fun.protect ~finally:(fun () -> close_out oc) (fun () -> dump oc);
        Printf.eprintf "wrote %d events (%d on the bus) to %s\n" (List.length events)
          (Trace.count bus) path);
    if Chaos.healthy r then exit 0 else exit 1
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Run a chaos scenario with the structured event bus attached and dump the \
             stream as JSONL (one event per line): wire sends and drops, protocol \
             applies and invalidations, failover milestones, application operations")
    Term.(const run $ scenario $ seed $ milestones $ out $ online_check)

(* ------------------------------------------------------------------ *)
(* alpha                                                               *)
(* ------------------------------------------------------------------ *)

let alpha_cmd =
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"History file in the paper's notation.")
  in
  let run path =
    match History.parse (read_file path) with
    | Error e ->
        Printf.eprintf "parse error: %s\n" e;
        exit 2
    | Ok history -> (
        match Dsm_checker.Causality.build history with
        | Error e ->
            Printf.eprintf "malformed history: %s\n" e;
            exit 2
        | Ok g ->
            print_endline "History:";
            print_endline (History.to_string history);
            print_newline ();
            let t = Table.create ~headers:[ "read"; "returned"; "live set (alpha)"; "legal" ] in
            for io = 0 to Dsm_checker.Causality.op_count g - 1 do
              let op = Dsm_checker.Causality.op g io in
              if Dsm_memory.Op.is_read op then begin
                let live = Check.alpha g io in
                let values =
                  live
                  |> List.map (fun (l : Check.live) -> Dsm_memory.Value.to_string l.Check.value)
                  |> List.sort compare |> String.concat ","
                in
                let legal =
                  List.exists
                    (fun (l : Check.live) -> Dsm_memory.Wid.equal l.Check.wid op.Dsm_memory.Op.wid)
                    live
                in
                Table.add_row t
                  [
                    Dsm_memory.Op.to_string op;
                    Dsm_memory.Value.to_string op.Dsm_memory.Op.value;
                    "{" ^ values ^ "}";
                    (if legal then "yes" else "VIOLATION");
                  ]
              end
            done;
            Table.print ~title:"Live sets per Definition 1" t;
            List.iter
              (fun (e : Check.explanation) -> Printf.printf "%s\n" e.Check.x_rendered)
              (Check.explain_all history))
  in
  Cmd.v
    (Cmd.info "alpha"
       ~doc:"Print every read's live set α(o) (Definition 1) for a history file")
    Term.(const run $ path)

(* ------------------------------------------------------------------ *)
(* diagram                                                             *)
(* ------------------------------------------------------------------ *)

let diagram_cmd =
  let path =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"History file in the paper's notation.")
  in
  let run path =
    match History.parse (read_file path) with
    | Error e ->
        Printf.eprintf "parse error: %s\n" e;
        exit 2
    | Ok history -> Dsm_checker.Diagram.print history
  in
  Cmd.v
    (Cmd.info "diagram" ~doc:"Render a history as an ASCII space-time diagram")
    Term.(const run $ path)

(* ------------------------------------------------------------------ *)
(* model                                                               *)
(* ------------------------------------------------------------------ *)

(* A node program is a whitespace-separated list of "w(loc)value" and
   "r(loc)" tokens, e.g. "w(x)1 r(y)". *)
let parse_program text =
  let parse_token token =
    let fail msg = Error (Printf.sprintf "bad op %S: %s" token msg) in
    if String.length token < 4 then fail "too short"
    else if token.[1] <> '(' then fail "expected '('"
    else
      match (token.[0], String.index_opt token ')') with
      | _, None -> fail "missing ')'"
      | 'r', Some close when close = String.length token - 1 ->
          Ok (Dsm_model.Model.Read (Dsm_memory.Loc.of_string (String.sub token 2 (close - 2))))
      | 'r', Some _ -> fail "reads take no value"
      | 'w', Some close -> (
          let loc = Dsm_memory.Loc.of_string (String.sub token 2 (close - 2)) in
          let rest = String.sub token (close + 1) (String.length token - close - 1) in
          match int_of_string_opt rest with
          | Some v -> Ok (Dsm_model.Model.Write (loc, Dsm_memory.Value.Int v))
          | None -> fail "write needs an integer value")
      | _, _ -> fail "ops start with r or w"
  in
  let tokens = String.split_on_char ' ' text |> List.filter (fun t -> t <> "") in
  List.fold_left
    (fun acc token ->
      match (acc, parse_token token) with
      | Error e, _ -> Error e
      | Ok ops, Ok op -> Ok (op :: ops)
      | Ok _, Error e -> Error e)
    (Ok []) tokens
  |> Result.map List.rev

let model_cmd =
  let progs =
    Arg.(non_empty & opt_all string []
         & info [ "prog"; "p" ] ~docv:"PROGRAM"
             ~doc:"One node's program, e.g. \"w(x)1 r(y)\".  Repeat per node.")
  in
  let variant =
    Arg.(value
         & opt
             (enum
                [
                  ("faithful", Dsm_model.Model.Faithful);
                  ("literal", Dsm_model.Model.Figure4_literal);
                  ("no-invalidation", Dsm_model.Model.Skip_invalidation);
                  ("no-certify-merge", Dsm_model.Model.Skip_certify_merge);
                  ("no-install-merge", Dsm_model.Model.Skip_install_merge);
                ])
             Dsm_model.Model.Faithful
         & info [ "variant" ]
             ~doc:"Protocol variant: faithful (patched), literal (published Figure 4), or a mutation.")
  in
  let show = Arg.(value & flag & info [ "histories" ] ~doc:"Print every distinct execution.") in
  let run progs variant show =
    let programs =
      List.map
        (fun text ->
          match parse_program text with
          | Ok ops -> ops
          | Error e ->
              Printf.eprintf "%s\n" e;
              exit 2)
        progs
    in
    let nodes = List.length programs in
    let cfg =
      { Dsm_model.Model.owner_of = (fun l -> Dsm_memory.Loc.hash l mod nodes); programs; policy = Dsm_model.Model.Lww }
    in
    let stats = Dsm_model.Model.explore ~variant cfg in
    Printf.printf "states explored:     %d\n" stats.Dsm_model.Model.states_explored;
    Printf.printf "distinct executions: %d\n" stats.Dsm_model.Model.terminal_histories;
    Printf.printf "causal violations:   %d\n" (List.length stats.Dsm_model.Model.violations);
    List.iter
      (fun (h, reason) ->
        Printf.printf "\nVIOLATION (%s):\n%s\n" reason (History.to_string h))
      stats.Dsm_model.Model.violations;
    if show then begin
      print_newline ();
      List.iteri
        (fun i h ->
          Printf.printf "--- execution %d %s\n%s\n" (i + 1)
            (if Check.is_correct h then "(causal)" else "(VIOLATES)")
            (History.to_string h))
        (Dsm_model.Model.distinct_terminal_histories cfg)
    end;
    if stats.Dsm_model.Model.violations <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "model"
       ~doc:"Exhaustively model-check the owner protocol on a small configuration")
    Term.(const run $ progs $ variant $ show)

let () =
  let info =
    Cmd.info "dsm" ~version:"1.0.0"
      ~doc:"Causal distributed shared memory (Hutto, Ahamad & John, ICDCS 1991)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ check_cmd; alpha_cmd; diagram_cmd; fig_cmd; solver_cmd; dict_cmd; anomaly_cmd; workload_cmd; chaos_cmd; bench_cmd; mc_cmd; trace_cmd; model_cmd ]))
