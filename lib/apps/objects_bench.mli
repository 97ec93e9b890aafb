(** Causal-objects benchmark: every shipped [Causal_object] instance runs
    the same seeded update/query mix over loss-free links, and each cell
    reports the wire cost of the object embedding (logical messages per
    spec-level update) next to three correctness verdicts — the register
    history's causal check, the generalized object checker over every
    recorded query, and convergence of the final returns across
    processes.  [dsm bench objects] wraps {!run} and writes
    [BENCH_objects.json]. *)

type cell = {
  obj : string;  (** scenario name, [obj-<family>] *)
  processes : int;
  updates : int;  (** spec-level updates issued *)
  queries : int;  (** recorded object queries, all certified post hoc *)
  ops : int;  (** register ops in the history: probes + op-log writes *)
  logical_messages : int;
  messages_per_update : float;
  object_ok : bool;  (** every query spec-legal (the generalized checker) *)
  converged : bool;  (** all final query returns agree *)
  healthy : bool;  (** the full chaos health verdict for the cell *)
  unfinished : int;
}

type result = { quick : bool; seed : int64; cells : cell list }

val run : ?quick:bool -> ?seed:int64 -> unit -> result
(** Run every [obj-*] row of {!Chaos.table}: 3 processes and 3
    update rounds each with [~quick:true] (the CI soak), 4 and 6
    otherwise.  Bit-identical per [(quick, seed)]. *)

val healthy : result -> bool
(** Every cell spec-legal, converged, chaos-healthy and with no blocked
    process — the bench's pass/fail gate. *)

val to_json : result -> string

val pp : Format.formatter -> result -> unit
