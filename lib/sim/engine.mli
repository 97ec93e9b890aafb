(** Deterministic discrete-event simulation engine.

    Events are closures scheduled at absolute simulated times.  Events at the
    same timestamp fire in scheduling order (the queue breaks ties by
    insertion sequence), so a run is a pure function of the scheduled
    closures — no wall-clock or OS nondeterminism leaks in.

    The engine underlies the simulated network and the cooperative process
    runtime; the rest of the system never touches the queue directly. *)

type t

val create : ?step_limit:int -> unit -> t
(** [step_limit] (default [10_000_000]) bounds the number of events the
    engine may dispatch over its whole lifetime, counted across every
    [step], [run] and [run_until] and never reset; the dispatch that
    exceeds it raises [Failure], catching runaway livelocks in tests. *)

val now : t -> float
(** Current simulated time; starts at [0.]. *)

val schedule_at : t -> float -> (unit -> unit) -> unit
(** [schedule_at t time f] enqueues [f] at absolute [time].  Scheduling in
    the past, or at a NaN time, raises [Invalid_argument]. *)

val schedule : t -> delay:float -> (unit -> unit) -> unit
(** Relative scheduling; [delay >= 0.].  A negative or NaN delay raises
    [Invalid_argument]. *)

val run : t -> unit
(** Dispatch events until the queue is empty (quiescence) or [stop]. *)

val run_until : t -> float -> unit
(** Dispatch events with time [<= deadline]; afterwards [now t] is exactly
    the deadline — even when the queue drained early — so relative
    scheduling after a bounded run always measures from the deadline. *)

val step : t -> bool
(** Dispatch a single event; [false] if the queue was empty. *)

val stop : t -> unit
(** Make the innermost [run]/[run_until] return after the current event. *)

val pending : t -> int
(** Number of queued events. *)

val events_processed : t -> int
(** Total events dispatched over the engine's lifetime. *)
