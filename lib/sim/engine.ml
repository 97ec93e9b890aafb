(* The event queue is a binary min-heap on (time, seq), kept in parallel
   arrays: [times] (a flat float array), [seqs] (insertion sequence numbers,
   the FIFO tie-break) and [slots].  Position [i < size] of the three arrays
   is one queued event; its closure sits in [actions.(slots.(i))], written
   once when scheduled and read once when dispatched.  The sifts move only
   floats and ints, so they never call a comparator, allocate, or store a
   pointer through the write barrier.

   Every closure slot is either live (named by a heap position below [size])
   or free, so there are exactly [capacity - size] free slots: they are kept
   in [slots] itself at positions [size ..], a stack whose top is
   [slots.(size)]. *)
type t = {
  mutable times : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable actions : (unit -> unit) array;
  mutable size : int;
  mutable next_seq : int;
  mutable clock : float;
  mutable dispatched : int;
  mutable stopping : bool;
  step_limit : int;
}

(* A dispatched event's slot is reset to [nop], releasing its closure. *)
let nop () = ()

let initial_capacity = 16

let create ?(step_limit = 10_000_000) () =
  {
    times = Array.make initial_capacity 0.0;
    seqs = Array.make initial_capacity 0;
    slots = Array.init initial_capacity Fun.id;
    actions = Array.make initial_capacity nop;
    size = 0;
    next_seq = 0;
    clock = 0.0;
    dispatched = 0;
    stopping = false;
    step_limit;
  }

let now t = t.clock

(* Called only when the queue is full, so every old slot is live and the new
   slots [capacity ..] are the whole free stack. *)
let grow t =
  let capacity = Array.length t.times in
  let capacity' = 2 * capacity in
  let times = Array.make capacity' 0.0 and seqs = Array.make capacity' 0 in
  let slots = Array.init capacity' Fun.id and actions = Array.make capacity' nop in
  Array.blit t.times 0 times 0 capacity;
  Array.blit t.seqs 0 seqs 0 capacity;
  Array.blit t.slots 0 slots 0 capacity;
  Array.blit t.actions 0 actions 0 capacity;
  t.times <- times;
  t.seqs <- seqs;
  t.slots <- slots;
  t.actions <- actions

(* A machine [<] on times orders every non-NaN float as [Float.compare] does
   (±0 and ±infinity included), so refusing NaN here keeps the dispatch
   order lexicographic on (time, seq). *)
let schedule_at t time f =
  if Float.is_nan time then invalid_arg "Engine.schedule_at: time is NaN";
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %g is in the past (now %g)" time t.clock);
  if t.size = Array.length t.times then grow t;
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let hole = ref t.size in
  let slot = slots.(!hole) in
  t.actions.(slot) <- f;
  (* The new event has the largest seq in the queue, so it rises past a
     parent only on a strictly earlier time. *)
  while !hole > 0 && time < times.((!hole - 1) / 2) do
    let parent = (!hole - 1) / 2 in
    times.(!hole) <- times.(parent);
    seqs.(!hole) <- seqs.(parent);
    slots.(!hole) <- slots.(parent);
    hole := parent
  done;
  times.(!hole) <- time;
  seqs.(!hole) <- t.next_seq;
  slots.(!hole) <- slot;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1

let schedule t ~delay f =
  if Float.is_nan delay then invalid_arg "Engine.schedule: delay is NaN";
  if delay < 0.0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t (t.clock +. delay) f

(* Re-seat the event at position [n], just past a heap of [n] events whose
   root is a hole, by moving the hole down to where the event belongs. *)
let sift_down t n =
  let times = t.times and seqs = t.seqs and slots = t.slots in
  let time = times.(n) and seq = seqs.(n) and slot = slots.(n) in
  let hole = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !hole) + 1 in
    if l >= n then sifting := false
    else begin
      let r = l + 1 in
      let c =
        if r < n && (times.(r) < times.(l) || (times.(r) = times.(l) && seqs.(r) < seqs.(l)))
        then r
        else l
      in
      if times.(c) < time || (times.(c) = time && seqs.(c) < seq) then begin
        times.(!hole) <- times.(c);
        seqs.(!hole) <- seqs.(c);
        slots.(!hole) <- slots.(c);
        hole := c
      end
      else sifting := false
    end
  done;
  times.(!hole) <- time;
  seqs.(!hole) <- seq;
  slots.(!hole) <- slot

let step t =
  if t.size = 0 then false
  else begin
    let time = t.times.(0) and slot = t.slots.(0) in
    let f = t.actions.(slot) in
    t.actions.(slot) <- nop;
    let n = t.size - 1 in
    t.size <- n;
    if n > 0 then sift_down t n;
    (* Position [n] is now the top of the free-slot stack. *)
    t.slots.(n) <- slot;
    t.clock <- time;
    t.dispatched <- t.dispatched + 1;
    if t.dispatched > t.step_limit then
      failwith "Engine: step limit exceeded (livelock or runaway simulation?)";
    f ();
    true
  end

let run t =
  t.stopping <- false;
  let rec loop () =
    if t.stopping then ()
    else if step t then loop ()
  in
  loop ()

let run_until t deadline =
  t.stopping <- false;
  let rec loop () =
    if t.stopping then ()
    else if t.size > 0 && t.times.(0) <= deadline then begin
      ignore (step t);
      loop ()
    end
  in
  loop ();
  (* The full window elapsed whether or not events filled it: a caller that
     schedules ~delay after we return measures from the deadline, never from
     whenever the queue happened to drain.  (Advancing only while events
     remained queued would leave the clock behind the deadline exactly when
     the queue drained early, silently compressing every timer armed
     afterwards.) *)
  if t.clock < deadline then t.clock <- deadline

let stop t = t.stopping <- true

let pending t = t.size

let events_processed t = t.dispatched
