(* Direct micro-timings of single protocol services, called in a loop
   outside any workload: the flat owner write and certification at 256-wide
   stamps, and the boxed Protocol.step owner write on the 2-node shape the
   repo's core bench has always timed. *)

module Flat = Dsm_protocol.Flat
module P = Dsm_protocol.Protocol

(* Host nanoseconds per call: median of five timed loops of [iters] calls
   after a warm-up. *)
let ns_per_call ~iters f =
  for _ = 1 to iters / 10 do
    f ()
  done;
  Stats.median
    (Array.init 5 (fun _ ->
         let t0 = Host.now () in
         for _ = 1 to iters do
           f ()
         done;
         (Host.now () -. t0) *. 1e9 /. float_of_int iters))

(* [scale] shrinks the loops for the smoke test.  The counts are fixed so
   that every commit times the same work; each loop is tens of ms. *)
let measure ~scale =
  let iters n = max 1 (n / scale) in
  let nodes = 256 in
  let flat = Flat.create ~nodes ~locs:1 ~owner:[| 0 |] () in
  let owner_write =
    ns_per_call ~iters:(iters 50_000) (fun () -> Flat.owner_write flat ~node:0 ~loc:0 ~value:1)
  in
  (* Node 1's writes, each with a fresh wid and a stamp one tick newer, so
     every call takes the accepting path. *)
  let flat = Flat.create ~nodes ~locs:1 ~owner:[| 0 |] () in
  let stamp = Array.make nodes 0 in
  let certify =
    ns_per_call ~iters:(iters 10_000) (fun () ->
        stamp.(1) <- stamp.(1) + 1;
        Flat.certify flat ~node:0 ~loc:0 ~value:1 ~wid_node:1 ~wid_seq:stamp.(1) ~stamp ~stamp_off:0)
  in
  let st =
    P.create ~owner:(Dsm_memory.Owner.by_index ~nodes:2) ~config:Dsm_protocol.Config.default ~now:0.0 ()
  in
  let write =
    P.Owner_write
      { node = 0; loc = Dsm_memory.Loc.indexed "v" 0; value = Dsm_memory.Value.Int 1; writer = 0 }
  in
  let step = ns_per_call ~iters:(iters 200_000) (fun () -> ignore (P.step st write)) in
  [ ("flat.owner_write_ns", owner_write); ("flat.certify_ns", certify); ("protocol.step_owner_write_ns", step) ]
