(** The [dsm bench] workloads, as one table, and the run that turns one of
    them into a {!Report.t}. *)

type workload = {
  name : string;  (** the report's [benchmark] and its file, [BENCH_<name>.json] *)
  doc : string;
  seed : int64 option;
      (** [Some s]: the workload runs one seed, [s] by default; [None]: it
          runs a list, seeds 1–10 by default (1–3 with [quick]) *)
  run : quick:bool -> seeds:int64 list -> Report.row list * Report.check list;
}

val table : workload list
(** transport, recovery, partition, shard, objects, core and micro. *)

val run : ?seeds:int64 list -> quick:bool -> workload -> Report.t
(** Run a workload at its default seeds or at [seeds].  [Invalid_argument]
    on an empty list, or on more than one seed for a single-seed
    workload. *)
