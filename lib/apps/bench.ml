type workload = {
  name : string;
  doc : string;
  seed : int64 option;
  run : quick:bool -> seeds:int64 list -> Report.row list * Report.check list;
}

let one run ~quick ~seeds = run ~quick ~seed:(List.hd seeds)

let table =
  [
    {
      name = "transport";
      doc = "the chaos mix at 5% loss with frame batching and ack coalescing off and on";
      seed = None;
      run = Chaos_bench.transport;
    };
    {
      name = "recovery";
      doc = "whole-cluster restart replay with and without checkpointing";
      seed = Some 7L;
      run = one Recovery_bench.run;
    };
    {
      name = "partition";
      doc = "majority-side availability through a quorum-fenced partition window";
      seed = None;
      run = Chaos_bench.partition;
    };
    {
      name = "shard";
      doc = "full vs partial replication on messages/op and bytes/op at 16-64 nodes";
      seed = Some 1L;
      run = one Shard_bench.run;
    };
    {
      name = "objects";
      doc = "wire cost and checker verdicts per causal-object family";
      seed = Some 1L;
      run = one Chaos_bench.objects;
    };
    {
      name = "core";
      doc = "the domain-parallel engine at 1/2/4 domains and the windowed checker's overhead";
      seed = Some 1L;
      run = one Core_bench.core;
    };
    {
      name = "micro";
      doc = "flat owner write vs Protocol.step with its allocation gates, a fresh engine's \
             heap, and the other hot paths";
      seed = Some 1L;
      run = one Core_bench.micro;
    };
  ]

let run ?seeds ~quick w =
  let seeds =
    match (seeds, w.seed) with
    | None, Some s -> [ s ]
    | None, None -> List.init (if quick then 3 else 10) (fun i -> Int64.of_int (i + 1))
    | Some [], _ -> invalid_arg "Bench.run: need at least one seed"
    | Some (_ :: _ :: _), Some _ ->
        invalid_arg (Printf.sprintf "Bench.run: %s runs a single seed" w.name)
    | Some seeds, _ -> seeds
  in
  let rows, checks = w.run ~quick ~seeds in
  { Report.benchmark = w.name; quick; seeds; host = Report.host (); rows; checks }
