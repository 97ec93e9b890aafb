(** Partition-availability benchmark: the [partition] and [split-brain]
    rows of {!Chaos.table} run over a seed set, summarised as the
    numbers the quorum-fenced failover design promises — above all the
    fraction of operations the {e majority} side completed inside the
    partition window (its backup must take over and keep serving), next to
    the minority side's read-only degradation and the reconciliation
    counters.

    The [dsm bench partition] subcommand wraps {!run} and writes
    {!to_json} to [BENCH_partition.json], the artifact the CI
    partition-soak run uploads.  Everything is seed-deterministic. *)

type scenario_result = {
  scenario : string;  (** ["partition"] or ["split-brain"] *)
  seeds : int;  (** runs aggregated into this row *)
  healthy : int;  (** runs that passed {!Chaos.healthy} — must equal [seeds] *)
  takeovers : int;  (** quorum-authorised promotions, all runs *)
  partition_heals : int;  (** degraded owners that resumed service *)
  refused_writes : int;  (** writes refused by degraded minority owners *)
  resyncs : int;  (** heal-time link resynchronisations *)
  maj_attempts : int;  (** majority-side operations inside the window *)
  maj_ok : int;
  min_attempts : int;  (** minority-side operations inside the window *)
  min_ok : int;
  majority_availability : float;  (** [maj_ok / maj_attempts] *)
  minority_availability : float;
      (** [min_ok / min_attempts] — reads still serve, local writes are
          refused, so this sits well below the majority's *)
}

type result = {
  seeds : int64 list;
  quick : bool;
  partition : scenario_result;
  split_brain : scenario_result;
}

val run : ?quick:bool -> ?seeds:int64 list -> unit -> result
(** Default seeds: 1-10, or 1-3 with [~quick:true]; an explicit [?seeds]
    overrides both. *)

val healthy : result -> bool
(** Every run healthy and both majority availabilities >= 0.9 — the
    acceptance gate [dsm bench partition] exits nonzero on. *)

val to_json : result -> string
(** Stable, hand-rolled JSON, newline-terminated. *)

val pp : Format.formatter -> result -> unit
