(* E-CORE: the hot-path benchmark behind the tentpole claims.

   Three measurements, all seed-deterministic except for wall-clock time:

   - micro: the flattened owner-write service ({!Dsm_protocol.Flat}) against
     the boxed {!Dsm_protocol.Protocol.step} on the identical 2-node/1-loc
     shape, hand-timed over a fixed iteration count, plus the minor- and
     major-heap words the flat loop allocates (the ALLOC=0 gate), the
     live heap a fresh 256-node parallel engine holds (the heap ceiling)
     and the minor words per op a 100k-op round of that engine allocates;
   - sim: the conservative parallel engine ({!Dsm_sim.Par_engine}) driving a
     [nodes]-node, [target_ops]-op workload at 1/2/4 domains, with the
     digest-equality determinism gate, each cell's set-up time and the live
     heap after its run;
   - checked: the same workload with the windowed online checker consuming
     the op stream at the epoch barriers, against the unchecked run. *)

module Flat = Dsm_protocol.Flat
module P = Dsm_protocol.Protocol
module Par = Dsm_sim.Par_engine
module Online = Dsm_checker.Online
module Loc = Dsm_memory.Loc
module Value = Dsm_memory.Value
module Op = Dsm_memory.Op
module Wid = Dsm_memory.Wid

type micro = {
  iters : int;
  step_ns : float;
  flat_ns : float;
  speedup : float;  (** [step_ns /. flat_ns]; the tentpole claims >= 5 *)
  flat_minor_words_per_op : float;  (** the ALLOC=0 gate: ~0.0 *)
  flat_major_words_per_op : float;  (** the ALLOC=0 gate: ~0.0 *)
  engine_heap_mb : float;  (** held by a fresh 256-node engine; the ceiling is 32 *)
  engine_minor_words_per_op : float;  (** that engine's first 100k ops; the gate is 1 *)
}

type sim_cell = {
  domains : int;
  setup_s : float;
  wall_s : float;
  live_heap_mb : float;
  ops : int;
  ops_per_s : float;
  epochs : int;
  digest : int;
}

type checked = {
  window : int;
  unchecked_ops_per_s : float;
  checked_ops_per_s : float;
  ratio : float;  (** checked / unchecked; the gate claims >= 0.5 *)
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

let now_s () = Unix.gettimeofday ()

(* Live heap after a full collection, in MiB: what the program still
   holds. *)
let live_heap_mb () =
  Gc.full_major ();
  float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1048576.0

let sim_params ~nodes ~seed =
  { (Par.default_params ~nodes) with seed; shards = 16; remote_pct = 30 }

(* A fresh engine at the benchmark's full size: the heap it holds, and
   the minor words per op its first round allocates.  The heap is Flat's
   per-entry arrays plus one small stamp pool per node, about 6 MB; the
   ceiling catches a return to dense stamps: a window for every (node,
   location) pair is 128 MiB at this size.  A round allocates its
   buffers once and then nothing per op; the gate catches a box back on
   that path, such as a boxed PRNG draw (about 20 words per op). *)
let engine_nodes = 256

let engine_heap_ceiling_mb = 32.0

let engine_ops = 100_000

let engine_minor_words_gate = 1.0

let measure_engine () =
  let before = live_heap_mb () in
  let eng = Par.create (sim_params ~nodes:engine_nodes ~seed:1) in
  let held = live_heap_mb () -. before in
  let w0 = Gc.minor_words () in
  let stats = Par.run ~domains:1 ~target_ops:engine_ops eng in
  let words = Gc.minor_words () -. w0 in
  (held, words /. float_of_int stats.Par.completed)

(* {1 Micro: flat vs Protocol.step owner write} *)

(* Timed with a monotonic-enough wall clock over a big fixed loop rather
   than a sampling harness: the loop body is tens of nanoseconds and the
   quantity gated on is a 5x ratio, not a confidence interval. *)
let measure_micro ~iters =
  let warmup = iters / 10 in
  (* Protocol.step side: the boxed event/record path. *)
  let st =
    P.create
      ~owner:(Dsm_memory.Owner.by_index ~nodes:2)
      ~config:Dsm_protocol.Config.default ~now:0.0 ()
  in
  let loc = Loc.indexed "v" 0 in
  let step_once () =
    ignore (P.step st (P.Owner_write { node = 0; loc; value = Value.Int 1; writer = 0 }))
  in
  for _ = 1 to warmup do
    step_once ()
  done;
  let t0 = now_s () in
  for _ = 1 to iters do
    step_once ()
  done;
  let step_ns = (now_s () -. t0) *. 1e9 /. float_of_int iters in
  (* Flat side: same shape — 2 nodes, 1 location, node 0 owns it. *)
  let interner = Loc.Interner.create () in
  let lid = Loc.Interner.intern interner loc in
  let flat = Flat.create ~nodes:2 ~locs:1 ~owner:[| 0 |] () in
  let flat_once () = Flat.owner_write flat ~node:0 ~loc:lid ~value:1 in
  for _ = 1 to warmup do
    flat_once ()
  done;
  (* [Gc.minor_words] and [Gc.counters]'s major words are exact
     ([Gc.quick_stat] on OCaml 5 lags until the next collection, and
     [Gc.counters] on OCaml 5.1 reads the minor words allocated since the
     last minor collection at an eighth of their number).  [Gc.counters]
     boxes its own result, which amortised over the loop is far below the
     0.01 words/op gate. *)
  let minor0 = Gc.minor_words () and _, _, major0 = Gc.counters () in
  let t0 = now_s () in
  for _ = 1 to iters do
    flat_once ()
  done;
  let flat_ns = (now_s () -. t0) *. 1e9 /. float_of_int iters in
  let minor1 = Gc.minor_words () and _, _, major1 = Gc.counters () in
  let engine_heap_mb, engine_minor_words_per_op = measure_engine () in
  {
    iters;
    step_ns;
    flat_ns;
    speedup = step_ns /. flat_ns;
    flat_minor_words_per_op = (minor1 -. minor0) /. float_of_int iters;
    flat_major_words_per_op = (major1 -. major0) /. float_of_int iters;
    engine_heap_mb;
    engine_minor_words_per_op;
  }

(* {1 Sim: the parallel engine at 1/2/4 domains} *)

let measure_sim ~nodes ~seed ~target_ops ~domains =
  let t0 = now_s () in
  let eng = Par.create (sim_params ~nodes ~seed) in
  let setup_s = now_s () -. t0 in
  let t0 = now_s () in
  let stats = Par.run ~domains ~target_ops eng in
  let wall_s = now_s () -. t0 in
  let live_heap_mb = live_heap_mb () in
  ignore (Sys.opaque_identity eng);
  {
    domains;
    setup_s;
    wall_s;
    live_heap_mb;
    ops = stats.Par.completed;
    ops_per_s = float_of_int stats.Par.completed /. wall_s;
    epochs = stats.Par.epochs;
    digest = stats.Par.digest;
  }

(* {1 Checked: windowed online checker riding the op stream} *)

let measure_checked ~nodes ~seed ~target_ops ~domains ~window =
  (* A fresh unchecked run immediately beforehand: the checked/unchecked
     ratio compares adjacent measurements under identical conditions, not a
     sim cell timed earlier. *)
  let unchecked = measure_sim ~nodes ~seed ~target_ops ~domains in
  let params = sim_params ~nodes ~seed in
  let eng = Par.create params in
  let ck = Online.create ~window () in
  let indices = Array.make nodes 0 in
  (* Locations are interned once: the feed loop itself allocates only the
     Op records the checker stores. *)
  let locs = Array.init params.Par.locs (Loc.indexed "x") in
  let violations = ref 0 in
  let t0 = now_s () in
  let stats =
    Par.run ~domains ~target_ops
      ~on_ops:(fun ~node ~buf ~len ->
        for o = 0 to (len / Par.log_stride) - 1 do
          let b = o * Par.log_stride in
          let kind = buf.(b)
          and loc = locs.(buf.(b + 1))
          and value = Value.Int buf.(b + 2)
          and wn = buf.(b + 3)
          and ws = buf.(b + 4) in
          let index = indices.(node) in
          indices.(node) <- index + 1;
          let op =
            if kind = 0 then
              Op.read ~pid:node ~index ~loc ~value
                ~from:(if wn < 0 then Wid.initial else Wid.make ~node:wn ~seq:ws)
            else Op.write ~pid:node ~index ~loc ~value ~wid:(Wid.make ~node:wn ~seq:ws)
          in
          violations := !violations + List.length (Online.add_op ck op)
        done)
      eng
  in
  let wall_s = now_s () -. t0 in
  let checked_ops_per_s = float_of_int stats.Par.completed /. wall_s in
  {
    window;
    unchecked_ops_per_s = unchecked.ops_per_s;
    checked_ops_per_s;
    ratio = checked_ops_per_s /. unchecked.ops_per_s;
    violations = !violations;
    checker_ops = Online.ops_seen ck;
    pending = Online.pending_reads ck;
    dropped = Online.dropped_reads ck;
  }

let run ?(quick = false) ?(seed = 1) () =
  let nodes = if quick then 64 else 256 in
  let target_ops = if quick then 100_000 else 1_000_000 in
  let iters = if quick then 400_000 else 2_000_000 in
  let micro = measure_micro ~iters in
  let sim =
    List.map (fun domains -> measure_sim ~nodes ~seed ~target_ops ~domains) [ 1; 2; 4 ]
  in
  let digests_agree =
    match sim with
    | [] -> false
    | c :: rest -> List.for_all (fun c' -> c'.digest = c.digest && c'.ops = c.ops) rest
  in
  let best = List.fold_left (fun a c -> if c.ops_per_s > a.ops_per_s then c else a) (List.hd sim) sim in
  let checked = measure_checked ~nodes ~seed ~target_ops ~domains:best.domains ~window:64 in
  { quick; seed; nodes; target_ops; micro; sim; digests_agree; checked }

let run_micro ?(quick = false) () =
  measure_micro ~iters:(if quick then 400_000 else 2_000_000)

let micro_healthy m =
  m.speedup >= 5.0
  && m.flat_minor_words_per_op <= 0.01
  && m.flat_major_words_per_op <= 0.01
  && m.engine_heap_mb <= engine_heap_ceiling_mb
  && m.engine_minor_words_per_op <= engine_minor_words_gate

let healthy r =
  micro_healthy r.micro
  && r.digests_agree
  && List.for_all (fun c -> c.ops >= r.target_ops) r.sim
  && r.checked.ratio >= 0.5
  && r.checked.violations = 0
  && r.checked.pending = 0

let micro_line m =
  Printf.sprintf
    "micro: step %.1f ns/op, flat %.1f ns/op — %.1fx (%.4f minor, %.4f major words/op); %d-node engine holds %.1f MB, its first %dk ops allocate %.3f minor words/op"
    m.step_ns m.flat_ns m.speedup m.flat_minor_words_per_op m.flat_major_words_per_op engine_nodes
    m.engine_heap_mb (engine_ops / 1000) m.engine_minor_words_per_op

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.6g" f

let to_json r =
  let b = Buffer.create 1024 in
  let field fmt = Printf.bprintf b fmt in
  field "{\n";
  field "  \"benchmark\": \"core\",\n";
  field "  \"quick\": %b,\n" r.quick;
  field "  \"seed\": %d,\n" r.seed;
  field "  \"nodes\": %d,\n" r.nodes;
  field "  \"target_ops\": %d,\n" r.target_ops;
  field "  \"micro\": {\n";
  field "    \"iters\": %d,\n" r.micro.iters;
  field "    \"step_ns\": %s,\n" (json_float r.micro.step_ns);
  field "    \"flat_ns\": %s,\n" (json_float r.micro.flat_ns);
  field "    \"speedup\": %s,\n" (json_float r.micro.speedup);
  field "    \"flat_minor_words_per_op\": %s,\n" (json_float r.micro.flat_minor_words_per_op);
  field "    \"flat_major_words_per_op\": %s,\n" (json_float r.micro.flat_major_words_per_op);
  field "    \"engine_heap_mb\": %s,\n" (json_float r.micro.engine_heap_mb);
  field "    \"engine_minor_words_per_op\": %s\n" (json_float r.micro.engine_minor_words_per_op);
  field "  },\n";
  field "  \"sim\": [\n";
  List.iteri
    (fun i c ->
      if i > 0 then field ",\n";
      field
        "    { \"domains\": %d, \"setup_s\": %s, \"wall_s\": %s, \"live_heap_mb\": %s, \"ops\": %d, \"ops_per_s\": %s, \"epochs\": %d, \"digest\": %d }"
        c.domains (json_float c.setup_s) (json_float c.wall_s) (json_float c.live_heap_mb) c.ops
        (json_float c.ops_per_s) c.epochs c.digest)
    r.sim;
  field "\n  ],\n";
  field "  \"digests_agree\": %b,\n" r.digests_agree;
  field "  \"checked\": {\n";
  field "    \"window\": %d,\n" r.checked.window;
  field "    \"unchecked_ops_per_s\": %s,\n" (json_float r.checked.unchecked_ops_per_s);
  field "    \"checked_ops_per_s\": %s,\n" (json_float r.checked.checked_ops_per_s);
  field "    \"ratio\": %s,\n" (json_float r.checked.ratio);
  field "    \"violations\": %d,\n" r.checked.violations;
  field "    \"checker_ops\": %d,\n" r.checked.checker_ops;
  field "    \"pending\": %d,\n" r.checked.pending;
  field "    \"dropped\": %d\n" r.checked.dropped;
  field "  },\n";
  field "  \"healthy\": %b\n" (healthy r);
  field "}\n";
  Buffer.contents b

let pp ppf r =
  Format.fprintf ppf "core bench: %d nodes, %d ops%s@." r.nodes r.target_ops
    (if r.quick then " (quick)" else "");
  Format.fprintf ppf "  %s@." (micro_line r.micro);
  List.iter
    (fun c ->
      Format.fprintf ppf
        "  sim %d domain%s: %.2f s, %.0f ops/s, %d epochs, digest %x, set-up %.4f s, live heap %.1f MB@."
        c.domains (if c.domains = 1 then " " else "s") c.wall_s c.ops_per_s c.epochs c.digest
        c.setup_s c.live_heap_mb)
    r.sim;
  Format.fprintf ppf "  digests agree across domain counts: %b@." r.digests_agree;
  Format.fprintf ppf
    "  checked (window %d): %.0f ops/s vs %.0f unchecked — ratio %.2f, %d violations, %d pending@."
    r.checked.window r.checked.checked_ops_per_s r.checked.unchecked_ops_per_s r.checked.ratio
    r.checked.violations r.checked.pending;
  Format.fprintf ppf
    "  gate (>=5x micro, 0 allocs, engine heap <= 32 MB, digests agree, ratio >= 0.5): %s@."
    (if healthy r then "PASS" else "FAIL")
