(* The bench report: one JSON emitter for every workload, the table's seed
   rules, and the deterministic workloads healthy at their quick shape. *)

module Bench = Dsm_apps.Bench
module Report = Dsm_apps.Report

let contains = Str_contains.contains

let report checks =
  {
    Report.benchmark = "a \"quoted\" back\\slash\nname";
    quick = true;
    seeds = [ 1L; 2L ];
    host = { Report.cores = 2; ocaml = "5.1.1"; commit = "abc1234"; profile = "dev" };
    rows =
      [
        {
          Report.name = "row";
          config = [ ("window", Int 8) ];
          e2e = Report.e2e ~ops:3 ~msgs_per_op:Float.nan ();
          layers = [ ("net.bytes", Int 42); ("net.ratio", Float Float.nan) ];
        };
      ];
    checks;
  }

let test_emitter () =
  let pass = Report.check "frames" (Int 3) `Le (Int 4) in
  let json = Report.to_json (report [ pass ]) in
  List.iter
    (fun needle -> Alcotest.(check bool) needle true (contains json needle))
    [
      "\"benchmark\": \"a \\\"quoted\\\" back\\\\slash\\u000aname\"";
      "\"ops\": 3";
      "\"ops_per_s\": null";
      "\"msgs_per_op\": null";
      "\"net.ratio\": null";
      "\"net.bytes\": 42";
      "{ \"name\": \"frames\", \"value\": 3, \"bound\": \"<= 4\", \"pass\": true }";
    ];
  Alcotest.(check bool) "no NaN in the JSON" false (contains json "nan");
  let host_line =
    List.find (fun l -> contains l "\"host\"") (String.split_on_char '\n' json)
  in
  Alcotest.(check bool) "host on one line" true (contains host_line "\"profile\": \"dev\" }");
  Alcotest.(check bool) "passing checks: healthy" true (Report.healthy (report [ pass ]));
  let fail = Report.check "ratio" (Float 0.3) `Ge (Float 0.5) in
  Alcotest.(check bool) "a failed check: unhealthy" false
    (Report.healthy (report [ pass; fail ]));
  Alcotest.(check bool) "NaN fails its bound" false
    (Report.check "nan" (Float Float.nan) `Ge (Float 0.0)).Report.pass

let workload name = List.find (fun (w : Bench.workload) -> w.name = name) Bench.table

let test_seeds () =
  let rejects seeds name =
    match Bench.run ~seeds ~quick:true (workload name) with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted %d seeds" name (List.length seeds)
  in
  rejects [ 1L; 2L ] "shard";
  rejects [] "transport"

let test_quick_workloads_healthy () =
  List.iter
    (fun name ->
      let r = Bench.run ~quick:true (workload name) in
      List.iter
        (fun (c : Report.check) -> if not c.pass then Alcotest.failf "%s: %s failed" name c.name)
        r.checks;
      Alcotest.(check bool) (name ^ " has rows") true (r.rows <> []))
    [ "transport"; "recovery"; "partition"; "shard"; "objects" ]

let suite =
  [
    Alcotest.test_case "report emitter" `Quick test_emitter;
    Alcotest.test_case "seed rules" `Quick test_seeds;
    Alcotest.test_case "deterministic workloads healthy at quick" `Quick
      test_quick_workloads_healthy;
  ]
