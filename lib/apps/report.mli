(** The one schema every [dsm bench] workload reports in: a report is a
    list of rows, each with the same end-to-end figures and its own
    [layer.metric] figures, plus the named checks the workload gates on.
    {!to_json} is the only JSON writer and {!pp} the only printer. *)

type value = Int of int | Float of float | Bool of bool
(** A JSON scalar.  [Float nan] prints as [null]. *)

type e2e = {
  ops : float;  (** completed operations (a count) *)
  ops_per_s : float;  (** per host second *)
  ops_per_sim_time : float;  (** per unit of simulated time *)
  latency_p50 : float;  (** operation latency, in simulated time *)
  latency_p95 : float;
  latency_p99 : float;
  msgs_per_op : float;  (** logical protocol messages, the paper's unit *)
  bytes_per_op : float;  (** wire bytes *)
}
(** The end-to-end figures, the same keys in every row.  NaN where a
    workload does not measure the figure; it prints as [null]. *)

val e2e :
  ?ops:int ->
  ?ops_per_s:float ->
  ?ops_per_sim_time:float ->
  ?latencies:float array ->
  ?msgs_per_op:float ->
  ?bytes_per_op:float ->
  unit ->
  e2e
(** The figures a workload measures; [latencies] gives the percentiles. *)

type row = {
  name : string;
  config : (string * value) list;  (** what the row varies *)
  e2e : e2e;
  layers : (string * value) list;  (** every other figure, keyed [layer.metric] *)
}

type check = { name : string; value : value; bound : string; pass : bool }
(** One exit condition: [bound] reads ["<op> <limit>"], and [pass] is
    [value <op> limit]. *)

val check : string -> value -> [ `Eq | `Ge | `Le | `Lt ] -> value -> check
(** Compares as floats; [Bool] reads as 0 or 1, NaN fails every bound. *)

type host = {
  cores : int;  (** [Domain.recommended_domain_count ()] *)
  ocaml : string;
  commit : string;  (** [git rev-parse --short HEAD], or ["unknown"] *)
  profile : string;  (** the dune profile this program was built in *)
}

val host : unit -> host

type t = {
  benchmark : string;
  quick : bool;
  seeds : int64 list;
  host : host;
  rows : row list;
  checks : check list;
}

val healthy : t -> bool
(** Every check passes. *)

val to_json : t -> string
(** Stable JSON, newline-terminated; the host record is one line, so a
    diff of two runs can drop it. *)

val pp : Format.formatter -> t -> unit
(** The same figures for a terminal, ending with the gate verdict. *)
