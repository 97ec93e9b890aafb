(* One benchmark command:

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--quick]

   builds one workload from its seed, runs one warm-up round (which also
   runs the slower correctness checks), then repeats rounds on the same
   input for at least S wall seconds.  It prints every metric by name with
   its unit, the checks, a host record, and as the last line one JSON
   object; it exits 1 if any check failed.  With --trace 1 rounds alternate
   untraced and traced: the per-layer metrics from the traced rounds are
   printed too and replace the end-to-end ones in the JSON,
   [trace_overhead_frac] compares the two kinds, and the first traced
   round's spans go to bench-trace/WORKLOAD-seedN.jsonl. *)

type metric = { name : string; unit : string; exact : bool }

(* [exact]: counted in simulation, so it repeats exactly for a seed. *)
let m ?(exact = false) name unit = { name; unit; exact }

let end_to_end =
  [
    m "ops_per_s" "1/s";
    m "setup_s" "s";
    m "live_heap_mb" "MB";
    m ~exact:true "latency_mean" "lat";
    m ~exact:true "msgs_per_op" "msg/op";
    m ~exact:true "frames_per_op" "frame/op";
    m ~exact:true "wire_bytes_per_op" "B/op";
  ]

let per_layer =
  [
    m ~exact:true "engine.events_per_op" "event/op";
    m "engine.host_ns_per_event" "ns";
    m ~exact:true "engine.queue_depth_p99" "event";
    m ~exact:true "proc.unfinished" "count";
    m ~exact:true "proc.timed_out" "count";
    m ~exact:true "cluster.latency_p50" "lat";
    m ~exact:true "cluster.latency_p999" "lat";
    m ~exact:true "cluster.latency_samples" "count";
    m ~exact:true "cluster.read_latency_p50" "lat";
    m ~exact:true "cluster.read_latency_p999" "lat";
    m ~exact:true "cluster.write_latency_p50" "lat";
    m ~exact:true "cluster.write_latency_p999" "lat";
    m ~exact:true "cluster.local_op_frac" "frac";
    m ~exact:true "cluster.rpc_timeouts_per_op" "1/op";
    m ~exact:true "cluster.stale_replies" "count";
    m ~exact:true "protocol.read_hit_ratio" "frac";
    m ~exact:true "protocol.invalidations_per_op" "1/op";
    m ~exact:true "protocol.remote_write_frac" "frac";
    m ~exact:true "protocol.writes_rejected" "count";
    m ~exact:true "protocol.redundant_fetches" "count";
    m ~exact:true "protocol.stale_drops" "count";
    m "protocol.step_owner_write_ns" "ns";
    m ~exact:true "reliable.retransmissions_per_op" "1/op";
    m ~exact:true "reliable.fast_rexmits" "count";
    m ~exact:true "reliable.acks_per_op" "1/op";
    m ~exact:true "reliable.goodput_ratio" "frac";
    m ~exact:true "reliable.dup_dropped" "count";
    m ~exact:true "reliable.reordered" "count";
    m ~exact:true "reliable.gave_up" "count";
  ]
  @ List.concat_map
      (fun kind ->
        [
          m ~exact:true ("network.frames_per_op." ^ kind) "frame/op";
          m ~exact:true ("network.bytes_per_op." ^ kind) "B/op";
        ])
      Cluster_wl.wire_kinds
  @ [
      m ~exact:true "network.dropped" "count";
      m ~exact:true "network.duplicated" "count";
      m ~exact:true "par.epochs" "count";
      m ~exact:true "par.ops_per_epoch" "op";
      m "par.epoch_us_p50" "us";
      m "par.epoch_us_p99" "us";
      m ~exact:true "par.remote_frac" "frac";
      m ~exact:true "par.domains_used" "count";
      m "par.domain_speedup" "x";
      m ~exact:true "flat.read_hit_ratio" "frac";
      m ~exact:true "flat.invalidations_per_op" "1/op";
      m ~exact:true "flat.installs_per_op" "1/op";
      m ~exact:true "flat.writes_rejected" "count";
      m "flat.owner_write_ns" "ns";
      m "flat.certify_ns" "ns";
      m "online.ns_per_op" "ns";
      m "online.wall_share" "frac";
      m ~exact:true "online.checks_per_op" "1/op";
      m ~exact:true "online.edges_per_op" "1/op";
      m ~exact:true "online.live_ops_max" "op";
      m ~exact:true "online.retired_ops" "count";
      m ~exact:true "online.dropped_reads" "count";
      m ~exact:true "online.pending_reads_end" "count";
      m "online.minor_words_per_op" "word/op";
      m ~exact:true "online.unvalidated_read_frac" "frac";
      m "gc.minor_words_per_op" "word/op";
      m "gc.major_collections" "count";
      m "trace_overhead_frac" "frac";
    ]

(* Each workload generates its input and returns the round runner, and the
   extra per-layer metrics and checks of a traced run.  All rounds run on
   one domain (see Sim_wl). *)
let workloads =
  [
    ("sim-256", fun ~seed ~quick -> Sim_wl.prepare ~checked:false ~seed ~quick);
    ("sim-256-checked", fun ~seed ~quick -> Sim_wl.prepare ~checked:true ~seed ~quick);
    ("cluster-lossy-64", fun ~seed ~quick -> Cluster_wl.prepare (Cluster_wl.lossy ~quick) ~seed);
    ("cluster-shard-128", fun ~seed ~quick -> Cluster_wl.prepare (Cluster_wl.sharded ~quick) ~seed);
  ]

let usage =
  "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--quick]\nworkloads: "
  ^ String.concat ", " (List.map fst workloads)

(* One warm-up round, then rounds until [seconds] have passed: at least
   two, and with tracing alternately untraced and traced. *)
let run_rounds round ~trace ~seconds =
  let spans = Spans.create () in
  let warmup = round ~traced:false ~spans:None ~verify:true in
  Gc.compact ();
  let t0 = Host.wall () in
  let rec loop i acc =
    if i >= (if trace then 4 else 2) && Host.wall () -. t0 >= seconds then List.rev acc
    else begin
      let traced = trace && i mod 2 = 1 in
      let r = round ~traced ~spans:(if i = 1 && traced then Some spans else None) ~verify:false in
      Gc.compact ();
      loop (i + 1) ((traced, r) :: acc)
    end
  in
  (warmup, loop 0 [], spans)

let fmt_float f = Printf.sprintf "%.17g" f

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 and quick = ref false in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME  the workload to run");
      ("--seed", Arg.Set_int seed, "N  input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  measure for at least S wall seconds (default 10)");
      ("--trace", Arg.Set_int trace, "0|1  report per-layer metrics from traced rounds (default 0)");
      ("--quick", Arg.Set quick, " tiny inputs, for the smoke test");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let prepare =
    match List.assoc_opt !workload workloads with
    | Some prepare -> prepare
    | None ->
        prerr_endline usage;
        exit 2
  in
  if (!trace <> 0 && !trace <> 1) || !seconds < 0.0 then begin
    prerr_endline usage;
    exit 2
  end;
  let trace = !trace = 1 in
  let scale = if !quick then 100 else 1 in
  let calib_before = Host.calibrate ~scale in
  let round, extra = prepare ~seed:!seed ~quick:!quick in
  let warmup, rounds, spans = run_rounds round ~trace ~seconds:!seconds in
  let extra_layers, extra_checks = if trace then extra () else ([], []) in
  let calib_after = Host.calibrate ~scale in
  let micro = if trace then Micro.measure ~scale else [] in
  let all = warmup :: List.map snd rounds in
  let timed traced = List.filter_map (fun (t, r) -> if t = traced then Some r else None) rounds in
  let median f rs = Stats.median (Array.of_list (List.map f rs)) in
  let ops_per_s (r : Round.t) = float_of_int r.completed /. r.run_s in
  let untraced = timed false and traced = timed true in
  let e2e_values =
    [
      ("ops_per_s", median ops_per_s untraced);
      ("setup_s", Stats.median (Array.concat (List.map (fun r -> r.Round.setup_s) untraced)));
      ("live_heap_mb", median (fun r -> r.Round.live_mb) untraced);
    ]
    @ warmup.sim
  in
  (* A layer a workload leaves idle reports 0. *)
  let layer_values =
    let overhead = 1.0 -. (median ops_per_s traced /. median ops_per_s untraced) in
    List.map
      (fun { name; _ } ->
        let v r = Option.value (List.assoc_opt name r.Round.layers) ~default:0.0 in
        match List.assoc_opt name (micro @ extra_layers) with
        | Some x -> (name, x)
        | None when name = "trace_overhead_frac" -> (name, overhead)
        | None -> (name, median v traced))
      per_layer
  in
  let printed = if trace then end_to_end @ per_layer else end_to_end in
  let values = e2e_values @ if trace then layer_values else [] in
  let declared_name k = List.exists (fun d -> d.name = k) (per_layer @ end_to_end) in
  let checks =
    List.concat_map (fun (r : Round.t) -> r.checks) all
    @ extra_checks
    @ [
        ( "every round repeats the warm-up's simulated metrics and digest",
          List.for_all (fun (r : Round.t) -> r.sim = warmup.sim && r.digest = warmup.digest) all );
        ( "every metric a round reports is declared",
          List.for_all (fun (r : Round.t) -> List.for_all (fun (k, _) -> declared_name k) (r.layers @ r.sim)) all
        );
        ("every metric is finite", List.for_all (fun (_, v) -> Float.is_finite v) values);
      ]
  in
  let check_names = List.fold_left (fun acc (n, _) -> if List.mem n acc then acc else acc @ [ n ]) [] checks in
  let holds n = List.for_all (fun (n', ok) -> n' <> n || ok) checks in
  let correct = List.for_all holds check_names in
  Printf.printf "workload %s seed %d quick %b trace %d rounds %d+1\n" !workload !seed !quick
    (Bool.to_int trace) (List.length rounds);
  List.iteri
    (fun i (t, (r : Round.t)) ->
      Printf.printf "round %d %s setup_s %.6f run_s %.6f ops_per_s %.1f\n" (i + 1)
        (if t then "traced" else "untraced")
        (Stats.median r.setup_s) r.run_s (ops_per_s r))
    rounds;
  let value d = fmt_float (List.assoc d.name values) in
  List.iter
    (fun d -> Printf.printf "metric %s %s %s %s\n" d.name (value d) d.unit (if d.exact then "exact" else "host"))
    printed;
  Printf.printf "digest %s\n" warmup.digest;
  List.iter (fun n -> Printf.printf "check %s: %s\n" n (if holds n then "ok" else "FAILED")) check_names;
  Printf.printf
    "host {\"nproc\": %d, \"ocaml\": %S, \"commit\": %S, \"domains\": %d, \"calib_before_mops\": %s, \
     \"calib_after_mops\": %s}\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version (Host.commit ()) Sim_wl.domains (fmt_float calib_before)
    (fmt_float calib_after);
  if trace then begin
    let path = Printf.sprintf "bench-trace/%s-seed%d.jsonl" !workload !seed in
    Spans.write spans path;
    Printf.printf "spans %s\n" path
  end;
  let attempted = List.fold_left (fun n (_, r) -> n + r.Round.attempted) 0 rounds in
  let completed = List.fold_left (fun n (_, r) -> n + r.Round.completed) 0 rounds in
  (* The result line carries the end-to-end metrics, or with --trace 1 the
     per-layer ones; the lines above print both. *)
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct attempted
    (attempted - completed)
    (String.concat ", "
       (List.map
          (fun d -> Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" d.name (value d) d.unit)
          (if trace then per_layer else end_to_end)));
  exit (if correct then 0 else 1)
