type counters = {
  total : int;
  local : int;
  bytes : int;
  by_kind : (string * int) list;
  sent_by : int array;
  received_by : int array;
}

type tap = {
  on_send : src:int -> dst:int -> kind:string -> size:int -> unit;
  on_deliver : src:int -> dst:int -> kind:string -> unit;
  on_drop : src:int -> dst:int -> kind:string -> unit;
  on_duplicate : src:int -> dst:int -> kind:string -> unit;
}

type fault = { drop : float; duplicate : float }

let no_fault = { drop = 0.0; duplicate = 0.0 }

let fault ?(drop = 0.0) ?(duplicate = 0.0) () =
  if drop < 0.0 || drop > 1.0 then invalid_arg "Network.fault: drop must be in [0,1]";
  if duplicate < 0.0 || duplicate > 1.0 then
    invalid_arg "Network.fault: duplicate must be in [0,1]";
  { drop; duplicate }

(* A directed link is named by the int [src * node_count + dst] throughout:
   the per-link override tables below are keyed by it, and the per-link
   arrays indexed by it.  The tables stay sparse, and a send looks one up
   only when it is non-empty, so a link with no override costs no hash. *)
type 'msg t = {
  engine : Dsm_sim.Engine.t;
  node_count : int;
  default_latency : Latency.t;
  link_latency : (int, Latency.t) Hashtbl.t;
  down_links : (int, unit) Hashtbl.t;
  default_fault : fault;
  link_fault : (int, fault) Hashtbl.t;
  mutable dropped : int;
  drop_by_link : int array; (* indexed by src * node_count + dst *)
  mutable duplicated : int;
  prng : Dsm_util.Prng.t;
  handlers : (src:int -> 'msg -> unit) option array;
  last_delivery : float array; (* indexed by src * node_count + dst *)
  (* window counters *)
  mutable total : int;
  mutable local : int;
  mutable bytes : int;
  (* Frames per kind: [kind_frames.(i)] frames of kind [kinds.(i)] for
     [i < kinds_used], in first-seen order. *)
  mutable kinds : string array;
  mutable kind_frames : int array;
  mutable kinds_used : int;
  sent_by : int array;
  received_by : int array;
  mutable lifetime_total : int;
  mutable in_flight : int;
  mutable tracer : (time:float -> src:int -> dst:int -> kind:string -> 'msg -> unit) option;
  mutable tap : tap option;
  mutable heal_hooks : (src:int -> dst:int -> unit) list; (* reversed registration order *)
}

let fifo_epsilon = 1e-9

let create engine ~nodes ?(latency = Latency.lan) ?(fault = no_fault) ?(seed = 1L) () =
  if nodes < 1 then invalid_arg "Network.create: need at least one node";
  {
    engine;
    node_count = nodes;
    default_latency = latency;
    link_latency = Hashtbl.create 16;
    down_links = Hashtbl.create 4;
    default_fault = fault;
    link_fault = Hashtbl.create 4;
    dropped = 0;
    drop_by_link = Array.make (nodes * nodes) 0;
    duplicated = 0;
    prng = Dsm_util.Prng.create seed;
    handlers = Array.make nodes None;
    last_delivery = Array.make (nodes * nodes) neg_infinity;
    total = 0;
    local = 0;
    bytes = 0;
    kinds = Array.make 16 "";
    kind_frames = Array.make 16 0;
    kinds_used = 0;
    sent_by = Array.make nodes 0;
    received_by = Array.make nodes 0;
    lifetime_total = 0;
    in_flight = 0;
    tracer = None;
    tap = None;
    heal_hooks = [];
  }

let engine t = t.engine

let nodes t = t.node_count

let check_node t node label =
  if node < 0 || node >= t.node_count then
    invalid_arg (Printf.sprintf "Network: %s node %d out of range" label node)

let set_handler t ~node handler =
  check_node t node "handler";
  t.handlers.(node) <- Some handler

let link_of t ~src ~dst = (src * t.node_count) + dst

let set_link_latency t ~src ~dst latency =
  check_node t src "src";
  check_node t dst "dst";
  Hashtbl.replace t.link_latency (link_of t ~src ~dst) latency

let add_heal_hook t hook = t.heal_hooks <- hook :: t.heal_hooks

let set_link_down t ~src ~dst down =
  check_node t src "src";
  check_node t dst "dst";
  let link = link_of t ~src ~dst in
  if down then Hashtbl.replace t.down_links link ()
  else begin
    let was_down = Hashtbl.mem t.down_links link in
    Hashtbl.remove t.down_links link;
    (* Hooks fire only on a real down->up transition, in registration
       order, so the reliable layer can resync exactly the healed links. *)
    if was_down then List.iter (fun hook -> hook ~src ~dst) (List.rev t.heal_hooks)
  end

let link_down t ~src ~dst =
  check_node t src "src";
  check_node t dst "dst";
  Hashtbl.mem t.down_links (link_of t ~src ~dst)

let partition t group_a group_b =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          set_link_down t ~src:a ~dst:b true;
          set_link_down t ~src:b ~dst:a true)
        group_b)
    group_a

let partition_oneway t group_a group_b =
  List.iter
    (fun a -> List.iter (fun b -> set_link_down t ~src:a ~dst:b true) group_b)
    group_a

let heal_partition t group_a group_b =
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          set_link_down t ~src:a ~dst:b false;
          set_link_down t ~src:b ~dst:a false)
        group_b)
    group_a

let heal_all t =
  (* Route through [set_link_down] so heal hooks fire, in a deterministic
     order regardless of hash-table iteration: ascending link ids, which is
     (src, dst) in lexicographic order. *)
  let downed = Hashtbl.fold (fun link () acc -> link :: acc) t.down_links [] in
  List.iter
    (fun link -> set_link_down t ~src:(link / t.node_count) ~dst:(link mod t.node_count) false)
    (List.sort Int.compare downed)

let set_link_fault t ~src ~dst fault =
  check_node t src "src";
  check_node t dst "dst";
  Hashtbl.replace t.link_fault (link_of t ~src ~dst) fault

let clear_link_faults t = Hashtbl.reset t.link_fault

let dropped t = t.dropped

let dropped_by_link t ~src ~dst =
  check_node t src "src";
  check_node t dst "dst";
  t.drop_by_link.(link_of t ~src ~dst)

let duplicated t = t.duplicated

(* [Hashtbl.length] is O(1): an empty override table answers without
   hashing the link. *)
let latency_for t link =
  if Hashtbl.length t.link_latency = 0 then t.default_latency
  else match Hashtbl.find_opt t.link_latency link with Some l -> l | None -> t.default_latency

let fault_for t link =
  if Hashtbl.length t.link_fault = 0 then t.default_fault
  else match Hashtbl.find_opt t.link_fault link with Some f -> f | None -> t.default_fault

let is_down t link = Hashtbl.length t.down_links > 0 && Hashtbl.mem t.down_links link

(* Count one frame of [kind].  Kinds are string literals at their send
   sites, so the first pass, on physical equality, finds a kind already
   seen without reading its bytes; the second folds a kind built at run
   time into the entry of the equal literal. *)
let count_kind t kind =
  let used = t.kinds_used in
  let i = ref 0 in
  while !i < used && t.kinds.(!i) != kind do
    incr i
  done;
  if !i = used then begin
    i := 0;
    while !i < used && not (String.equal t.kinds.(!i) kind) do
      incr i
    done;
    if !i = used then begin
      if used = Array.length t.kinds then begin
        t.kinds <- Array.append t.kinds (Array.make used "");
        t.kind_frames <- Array.append t.kind_frames (Array.make used 0)
      end;
      t.kinds.(used) <- kind;
      t.kind_frames.(used) <- 0;
      t.kinds_used <- used + 1
    end
  end;
  t.kind_frames.(!i) <- t.kind_frames.(!i) + 1

let count_drop t ~src ~dst ~kind =
  let link = link_of t ~src ~dst in
  t.dropped <- t.dropped + 1;
  t.drop_by_link.(link) <- t.drop_by_link.(link) + 1;
  match t.tap with Some tap -> tap.on_drop ~src ~dst ~kind | None -> ()

let deliver t ~src ~dst ~kind msg =
  t.in_flight <- t.in_flight - 1;
  t.received_by.(dst) <- t.received_by.(dst) + 1;
  (match t.tap with Some tap -> tap.on_deliver ~src ~dst ~kind | None -> ());
  match t.handlers.(dst) with
  | Some handler -> handler ~src msg
  | None -> failwith (Printf.sprintf "Network: node %d has no handler installed" dst)

let send_live t ~src ~dst ~kind ~size msg =
  if src = dst then begin
    t.local <- t.local + 1;
    Dsm_sim.Engine.schedule t.engine ~delay:fifo_epsilon (fun () -> deliver t ~src ~dst ~kind msg)
  end
  else begin
    t.total <- t.total + 1;
    t.lifetime_total <- t.lifetime_total + 1;
    t.bytes <- t.bytes + size;
    t.sent_by.(src) <- t.sent_by.(src) + 1;
    count_kind t kind;
    let link = link_of t ~src ~dst in
    let now = Dsm_sim.Engine.now t.engine in
    let sampled = Latency.sample (latency_for t link) t.prng in
    (* Reliable FIFO: never deliver before (or at the same instant as) the
       previous message on this directed link. *)
    let at = Float.max (now +. sampled) (t.last_delivery.(link) +. fifo_epsilon) in
    t.last_delivery.(link) <- at;
    Dsm_sim.Engine.schedule_at t.engine at (fun () -> deliver t ~src ~dst ~kind msg)
  end

let set_tracer t tracer = t.tracer <- tracer

let set_tap t tap = t.tap <- tap

let send t ~src ~dst ?(kind = "msg") ?(size = 1) msg =
  check_node t src "src";
  check_node t dst "dst";
  (match t.tracer with
  | Some trace -> trace ~time:(Dsm_sim.Engine.now t.engine) ~src ~dst ~kind msg
  | None -> ());
  (match t.tap with Some tap -> tap.on_send ~src ~dst ~kind ~size | None -> ());
  if is_down t (link_of t ~src ~dst) then count_drop t ~src ~dst ~kind
  else if src = dst then begin
    (* Self-sends never traverse a link: the fault model does not apply. *)
    t.in_flight <- t.in_flight + 1;
    send_live t ~src ~dst ~kind ~size msg
  end
  else begin
    let f = fault_for t (link_of t ~src ~dst) in
    (* Guard the prng draws behind the probability checks so fault-free
       runs consume exactly the same random stream as before. *)
    if f.drop > 0.0 && Dsm_util.Prng.chance t.prng f.drop then count_drop t ~src ~dst ~kind
    else begin
      t.in_flight <- t.in_flight + 1;
      send_live t ~src ~dst ~kind ~size msg;
      if f.duplicate > 0.0 && Dsm_util.Prng.chance t.prng f.duplicate then begin
        t.duplicated <- t.duplicated + 1;
        (match t.tap with Some tap -> tap.on_duplicate ~src ~dst ~kind | None -> ());
        t.in_flight <- t.in_flight + 1;
        send_live t ~src ~dst ~kind ~size msg
      end
    end
  end

let counters t =
  let by_kind =
    List.init t.kinds_used (fun i -> (t.kinds.(i), t.kind_frames.(i)))
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    total = t.total;
    local = t.local;
    bytes = t.bytes;
    by_kind;
    sent_by = Array.copy t.sent_by;
    received_by = Array.copy t.received_by;
  }

let reset_counters t =
  t.total <- 0;
  t.local <- 0;
  t.bytes <- 0;
  t.kinds_used <- 0;
  Array.fill t.sent_by 0 t.node_count 0;
  Array.fill t.received_by 0 t.node_count 0

let lifetime_total t = t.lifetime_total

let in_flight t = t.in_flight
