type scenario_result = {
  scenario : string;
  seeds : int;
  healthy : int;
  takeovers : int;
  partition_heals : int;
  refused_writes : int;
  resyncs : int;
  maj_attempts : int;
  maj_ok : int;
  min_attempts : int;
  min_ok : int;
  majority_availability : float;
  minority_availability : float;
}

type result = {
  seeds : int64 list;
  quick : bool;
  partition : scenario_result;
  split_brain : scenario_result;
}

let run_scenario ~scenario ~seeds =
  let reports = List.map (fun seed -> Chaos.run ~seed scenario) seeds in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 reports in
  let ratio ok attempts =
    if attempts = 0 then Float.nan else float_of_int ok /. float_of_int attempts
  in
  let maj_attempts = sum (fun r -> Chaos.note_int r "window_majority_attempts") in
  let maj_ok = sum (fun r -> Chaos.note_int r "window_majority_ok") in
  let min_attempts = sum (fun r -> Chaos.note_int r "window_minority_attempts") in
  let min_ok = sum (fun r -> Chaos.note_int r "window_minority_ok") in
  {
    scenario;
    seeds = List.length seeds;
    healthy = List.length (List.filter Chaos.healthy reports);
    takeovers = sum (fun r -> r.Chaos.takeovers);
    partition_heals = sum (fun r -> Chaos.note_int r "partition_heals");
    refused_writes = sum (fun r -> Chaos.note_int r "refused_writes");
    resyncs = sum (fun r -> Chaos.note_int r "resyncs");
    maj_attempts;
    maj_ok;
    min_attempts;
    min_ok;
    majority_availability = ratio maj_ok maj_attempts;
    minority_availability = ratio min_ok min_attempts;
  }

let default_seeds ~quick =
  let n = if quick then 3 else 10 in
  List.init n (fun i -> Int64.of_int (i + 1))

let run ?(quick = false) ?seeds () =
  let seeds = match seeds with Some s -> s | None -> default_seeds ~quick in
  if seeds = [] then invalid_arg "Partition_bench.run: need at least one seed";
  {
    seeds;
    quick;
    partition = run_scenario ~scenario:"partition" ~seeds;
    split_brain = run_scenario ~scenario:"split-brain" ~seeds;
  }

let scenario_healthy (s : scenario_result) =
  s.healthy = s.seeds && s.majority_availability >= 0.9

let healthy r = scenario_healthy r.partition && scenario_healthy r.split_brain

(* Hand-rolled JSON, like {!Bench.to_json}: flat, byte-stable, no
   dependency. *)

let json_float f = if Float.is_nan f then "null" else Printf.sprintf "%.6f" f

let json_scenario b (s : scenario_result) =
  let field fmt = Printf.bprintf b fmt in
  field "    {\n";
  field "      \"scenario\": %S,\n" s.scenario;
  field "      \"seeds\": %d,\n" s.seeds;
  field "      \"healthy\": %d,\n" s.healthy;
  field "      \"takeovers\": %d,\n" s.takeovers;
  field "      \"partition_heals\": %d,\n" s.partition_heals;
  field "      \"refused_writes\": %d,\n" s.refused_writes;
  field "      \"resyncs\": %d,\n" s.resyncs;
  field "      \"window\": { \"majority_ok\": %d, \"majority_attempts\": %d, \"minority_ok\": %d, \"minority_attempts\": %d },\n"
    s.maj_ok s.maj_attempts s.min_ok s.min_attempts;
  field "      \"majority_availability\": %s,\n" (json_float s.majority_availability);
  field "      \"minority_availability\": %s\n" (json_float s.minority_availability);
  field "    }"

let to_json r =
  let b = Buffer.create 1024 in
  let field fmt = Printf.bprintf b fmt in
  field "{\n";
  field "  \"benchmark\": \"partition\",\n";
  field "  \"quick\": %b,\n" r.quick;
  field "  \"seeds\": [%s],\n" (String.concat ", " (List.map Int64.to_string r.seeds));
  field "  \"scenarios\": [\n";
  json_scenario b r.partition;
  field ",\n";
  json_scenario b r.split_brain;
  field "\n  ]\n";
  field "}\n";
  Buffer.contents b

let pp_scenario ppf (s : scenario_result) =
  Format.fprintf ppf
    "%-12s %d/%d healthy  takeovers %2d  heals %2d  refused %2d  majority %3.0f%% (%d/%d)  minority %3.0f%% (%d/%d)"
    s.scenario s.healthy s.seeds s.takeovers s.partition_heals s.refused_writes
    (100.0 *. s.majority_availability)
    s.maj_ok s.maj_attempts
    (100.0 *. s.minority_availability)
    s.min_ok s.min_attempts

let pp ppf r =
  Format.fprintf ppf "partition bench: %d seeds%s@." (List.length r.seeds)
    (if r.quick then " (quick)" else "");
  Format.fprintf ppf "  %a@." pp_scenario r.partition;
  Format.fprintf ppf "  %a@." pp_scenario r.split_brain;
  Format.fprintf ppf "  majority-side availability gate: >= 90%% inside the partition window@."
