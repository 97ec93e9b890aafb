(** E-CORE: the hot-path benchmark — flat data path vs [Protocol.step],
    the domain-parallel engine at 1/2/4 domains, and the windowed online
    checker's overhead on the same workload.

    The [dsm bench core] subcommand wraps {!run} and writes {!to_json} to
    [BENCH_core.json], the artifact the CI core-bench job uploads.  The
    acceptance gates of the flattening tentpole live in {!healthy}:
    flat owner-write at least 5x faster than the boxed [Protocol.step]
    with ~0 minor- and major-heap words per op, at most 32 MB held by a
    fresh 256-node engine and at most 1 minor word per op in its first
    100k ops, bit-identical digests across domain counts,
    and online-checked throughput at least half of unchecked. *)

type micro = {
  iters : int;
  step_ns : float;
  flat_ns : float;
  speedup : float;
  flat_minor_words_per_op : float;
  flat_major_words_per_op : float;
  engine_heap_mb : float;
      (** live heap held by a fresh 256-node {!Dsm_sim.Par_engine}, after a
          full major collection *)
  engine_minor_words_per_op : float;
      (** minor words per op that engine allocates over its first 100k ops,
          on one domain *)
}

type sim_cell = {
  domains : int;
  setup_s : float;  (** seconds its [Par_engine.create] took *)
  wall_s : float;
  live_heap_mb : float;  (** after its run and a full major, engine still reachable *)
  ops : int;
  ops_per_s : float;
  epochs : int;
  digest : int;
}

type checked = {
  window : int;
  unchecked_ops_per_s : float;
  checked_ops_per_s : float;
  ratio : float;
  violations : int;
  checker_ops : int;
  pending : int;
  dropped : int;
}

type result = {
  quick : bool;
  seed : int;
  nodes : int;
  target_ops : int;
  micro : micro;
  sim : sim_cell list;
  digests_agree : bool;
  checked : checked;
}

val run : ?quick:bool -> ?seed:int -> unit -> result
(** 256 nodes and 1M ops over 2M-iteration micro loops, or 64 nodes and
    100k ops over 400k iterations under [~quick:true] (the CI shape). *)

val run_micro : ?quick:bool -> unit -> micro
(** Just the flat-vs-[Protocol.step] microbenchmark and the fresh engine's
    heap and first round — the ALLOC=0 gates and the heap ceiling without
    the minutes-long sim cells, for the blocking CI step. *)

val micro_healthy : micro -> bool
(** Speedup at least 5x, at most 0.01 minor- and 0.01 major-heap words per
    flat op, at most 32 MB held by the 256-node engine, and at most 1 minor
    word per op in its first 100k ops. *)

val micro_line : micro -> string
(** The micro figures on one line, as {!pp} and the CLI print them. *)

val healthy : result -> bool

val to_json : result -> string
(** Stable, hand-rolled JSON, newline-terminated. *)

val pp : Format.formatter -> result -> unit
