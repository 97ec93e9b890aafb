(* Causal-objects benchmark: every shipped [Causal_object] instance runs
   the same seeded update/query mix over loss-free links — one cluster per
   family — and each cell reports how much the object embedding costs on
   the wire (logical messages per spec-level update: the op-log probes,
   fetches and invalidations behind one update) next to the correctness
   verdicts: the register history's causal check, the object checker over
   every recorded query, and cross-process convergence of the final
   returns.

   The cells run the chaos table's object rows with loss and duplication
   zeroed, so a given [(seed, quick)] pair reproduces bit-identically and
   any message-cost regression in the probe/merge path shows up as a
   [messages_per_update] jump in BENCH_objects.json. *)

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

let note_bool (r : Chaos.report) key = List.assoc_opt key r.Chaos.notes = Some "true"

let run_cell ~scenario ~seed ~processes ~rounds =
  let knobs = { Chaos.default_knobs with Chaos.drop = 0.0; duplicate = 0.0 } in
  let r = Chaos.run ~knobs ~seed ~clients:processes ~ops:rounds scenario in
  let updates = processes * rounds in
  {
    obj = scenario;
    processes;
    updates;
    queries = Chaos.note_int r "object_queries";
    ops = r.Chaos.ops;
    logical_messages = r.Chaos.logical_messages;
    messages_per_update = float_of_int r.Chaos.logical_messages /. float_of_int updates;
    object_ok = note_bool r "object_ok";
    converged = note_bool r "views_converged";
    healthy = Chaos.healthy r;
    unfinished = List.length r.Chaos.unfinished;
  }

let run ?(quick = false) ?(seed = 1L) () =
  let processes = if quick then 3 else 4 in
  let rounds = if quick then 3 else 6 in
  {
    quick;
    seed;
    cells =
      List.filter (String.starts_with ~prefix:"obj-") Chaos.scenarios
      |> List.map (fun scenario -> run_cell ~scenario ~seed ~processes ~rounds);
  }

(* The acceptance gate: every instance's cell fully clean — spec-legal
   queries, converged final views, healthy chaos verdict, nobody blocked. *)
let healthy r =
  r.cells <> []
  && List.for_all
       (fun c -> c.object_ok && c.converged && c.healthy && c.unfinished = 0)
       r.cells

let json_float f = if Float.is_nan f then "null" else Printf.sprintf "%.6f" f

let to_json r =
  let b = Buffer.create 1024 in
  let field fmt = Printf.bprintf b fmt in
  field "{\n";
  field "  \"benchmark\": \"objects\",\n";
  field "  \"quick\": %b,\n" r.quick;
  field "  \"seed\": %Ld,\n" r.seed;
  field "  \"cells\": [\n";
  List.iteri
    (fun i c ->
      if i > 0 then field ",\n";
      field
        "    { \"object\": %S, \"processes\": %d, \"updates\": %d, \"queries\": %d, \
         \"ops\": %d, \"logical_messages\": %d, \"messages_per_update\": %s, \
         \"object_ok\": %b, \"converged\": %b, \"healthy\": %b, \"unfinished\": %d }"
        c.obj c.processes c.updates c.queries c.ops c.logical_messages
        (json_float c.messages_per_update)
        c.object_ok c.converged c.healthy c.unfinished)
    r.cells;
  field "\n  ]\n";
  field "}\n";
  Buffer.contents b

let pp ppf r =
  Format.fprintf ppf "objects bench: seed %Ld%s@." r.seed (if r.quick then " (quick)" else "");
  List.iter
    (fun c ->
      Format.fprintf ppf
        "  %-11s %d procs: %3d updates, %3d queries, %4d ops, msgs/update %6.2f  %s@."
        c.obj c.processes c.updates c.queries c.ops c.messages_per_update
        (if c.object_ok && c.converged && c.healthy then "ok"
         else
           Printf.sprintf "FAIL (object_ok %b, converged %b, healthy %b)" c.object_ok
             c.converged c.healthy))
    r.cells;
  Format.fprintf ppf "  gate (every instance legal, converged, healthy): %s@."
    (if healthy r then "PASS" else "FAIL")
