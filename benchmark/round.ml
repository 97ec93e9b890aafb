(* What one round of a workload reports.  A round is one set-up and one
   run of the workload's fixed input; a benchmark run repeats rounds on the
   same input until its time is up. *)

type t = {
  setup_s : float array;  (** host seconds of each set-up of the system under test *)
  run_s : float;  (** host seconds to run the workload to completion *)
  live_mb : float;  (** heap the finished system still holds ({!Host.live_heap_mb}) *)
  attempted : int;
  completed : int;
  sim : (string * float) list;
      (** end-to-end metrics counted in simulation: exact for a seed *)
  digest : string;  (** fingerprint of the final state or history *)
  layers : (string * float) list;  (** per-layer metrics; empty unless traced *)
  checks : (string * bool) list;  (** correctness checks, each must hold *)
}

(* Sets the system up [reps] times, timing each, and keeps the last one;
   the others are dropped unused.  One set-up lasts 0.1-60 ms, and a single
   sample moved by up to a third of its median from run to run; the median
   of several is steadier.  The collection before each repeat frees the
   system the previous one built, outside the timer. *)
let setups reps f =
  let times = Array.make reps 0.0 and last = ref None in
  for i = 0 to reps - 1 do
    last := None;
    if i > 0 then Gc.full_major ();
    let t0 = Host.now () in
    let x = f () in
    times.(i) <- Host.now () -. t0;
    last := Some x
  done;
  (times, Option.get !last)
