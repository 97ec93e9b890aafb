(* The host the numbers came from: core count, compiler, commit, and the
   rate of a fixed calibration loop.  The loop uses no code of the system,
   so when it runs slower the host was slower; it is recorded next to each
   result and never used to rescale one. *)

(* Host time is the process's CPU time (user + system).  Every workload
   runs on one domain, so it is the time the run kept a core busy.  On a
   shared 2-core host wall-clock time also counts the time other tenants
   held the core: it spread the lossy workload's throughput by 16% of the
   median from run to run, against 8% for CPU time. *)
let now = Sys.time

(* Wall-clock time, which paces a run: [--seconds] counts wall seconds. *)
let wall = Unix.gettimeofday

(* Xorshift updates scattered over a 4096-int table (32 KiB): integer ALU
   and L1 traffic only, about 0.1 s.  Returns millions of iterations per
   host second.  [scale] shrinks it for the smoke test. *)
let calibrate ~scale =
  let iters = 30_000_000 / scale in
  let table = Array.make 4096 0 in
  let x = ref 88172645463325252 in
  let t0 = now () in
  for i = 1 to iters do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let j = !x land 4095 in
    table.(j) <- table.(j) + i
  done;
  let dt = now () -. t0 in
  ignore (Sys.opaque_identity table);
  float_of_int iters /. dt /. 1e6

(* Live heap after a full collection, in MiB: what the program still holds.
   Unlike the top heap size, it does not depend on where the collector's
   cycles happened to fall. *)
let live_heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.0

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The commit checked out in the current directory, read from [.git]
   without running git; ["unknown"] outside a git checkout. *)
let commit () =
  try
    let head = String.trim (read_file ".git/HEAD") in
    if not (String.starts_with ~prefix:"ref: " head) then head
    else
      let name = String.sub head 5 (String.length head - 5) in
      try String.trim (read_file (".git/" ^ name))
      with Sys_error _ -> (
        let packed = String.split_on_char '\n' (read_file ".git/packed-refs") in
        match List.find_opt (String.ends_with ~suffix:(" " ^ name)) packed with
        | Some line -> String.sub line 0 (String.index line ' ')
        | None -> "unknown")
  with Sys_error _ | Not_found -> "unknown"
