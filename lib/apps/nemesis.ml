module Engine = Dsm_sim.Engine
module Causal = Dsm_causal.Cluster

type fault =
  | Cut of { a : int list; b : int list }
  | Cut_oneway of { src : int list; dst : int list }
  | Heal of { a : int list; b : int list }
  | Heal_all
  | Crash of int
  | Restart of int

type step = { at : float; fault : fault }

type t = {
  engine : Engine.t;
  cluster : Causal.t;
  mutable cuts : int;
  mutable heals : int;
  mutable crashes : int;
  mutable restarts : int;
  mutable log : (float * string) list; (* newest first *)
}

let group g = String.concat "," (List.map string_of_int g)

let describe = function
  | Cut { a; b } -> Printf.sprintf "cut {%s}|{%s}" (group a) (group b)
  | Cut_oneway { src; dst } -> Printf.sprintf "cut-oneway {%s}->{%s}" (group src) (group dst)
  | Heal { a; b } -> Printf.sprintf "heal {%s}|{%s}" (group a) (group b)
  | Heal_all -> "heal-all"
  | Crash n -> Printf.sprintf "crash %d" n
  | Restart n -> Printf.sprintf "restart %d" n

let inject t fault =
  let c = t.cluster in
  (match fault with
  | Cut { a; b } ->
      Causal.partition c a b;
      t.cuts <- t.cuts + 1
  | Cut_oneway { src; dst } ->
      Causal.partition_oneway c src dst;
      t.cuts <- t.cuts + 1
  | Heal { a; b } ->
      Causal.heal_partition c a b;
      t.heals <- t.heals + 1
  | Heal_all ->
      Causal.heal_all_links c;
      t.heals <- t.heals + 1
  | Crash n -> ( match Causal.crash_result c n with Ok () -> t.crashes <- t.crashes + 1 | Error _ -> ())
  | Restart n -> (
      match Causal.restart_result c n with Ok () -> t.restarts <- t.restarts + 1 | Error _ -> ()));
  t.log <- (Engine.now t.engine, describe fault) :: t.log

let add t steps =
  List.iter (fun { at; fault } -> Engine.schedule_at t.engine at (fun () -> inject t fault)) steps

let schedule engine cluster steps =
  let t = { engine; cluster; cuts = 0; heals = 0; crashes = 0; restarts = 0; log = [] } in
  add t steps;
  t

let cuts t = t.cuts
let heals t = t.heals
let crashes t = t.crashes
let restarts t = t.restarts
let log t = List.rev t.log

let notes t =
  List.mapi (fun i (at, what) -> (Printf.sprintf "nemesis_%d" i, Printf.sprintf "t=%.1f %s" at what))
    (log t)

(* Canned plans *)

let partition_window ~from_ ~until ~a ~b =
  [ { at = from_; fault = Cut { a; b } }; { at = until; fault = Heal { a; b } } ]

let crash_window ~from_ ~until node =
  [ { at = from_; fault = Crash node }; { at = until; fault = Restart node } ]
