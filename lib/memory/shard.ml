(* Interest-based sharding: the cluster's nodes are partitioned into
   shards, each with its own owner ring, and every location belongs to
   exactly one shard.  A shard's share-set — its ring members plus every
   runtime subscriber — is the set of nodes that replicate its locations;
   protocol broadcasts scope to it, failure detection and quorum to the
   ring.

   The registry is deliberately a single shared value (like the [Owner]
   map): the static ring layout is configuration, and the mutable
   subscriber sets model the interest directory every real partial-
   replication system keeps (the causal safety of joining lives in the
   protocol's catch-up transfer, not here). *)

module Loc = Loc

type t = {
  nodes : int;
  count : int;
  rings : int array array; (* shard -> ring members, ascending *)
  shard_of_node : int array; (* node -> the shard whose ring holds it *)
  subscribers : (int, unit) Hashtbl.t array; (* shard -> share-set ⊇ ring *)
  (* shard -> its share-set ascending, as [subscribers] returns it, or []
     once a subscribe or unsubscribe has changed the set (a share-set
     holds its ring, so it is never empty).  Every heartbeat tick reads
     one; they change only at a join or a leave. *)
  sorted : int list array;
}

let make ~nodes ~shards =
  if nodes < 1 then invalid_arg "Shard.make: nodes must be >= 1";
  if shards < 1 || shards > nodes then invalid_arg "Shard.make: need 1 <= shards <= nodes";
  (* Contiguous near-equal blocks: shard [s] rings nodes
     [s*nodes/shards, (s+1)*nodes/shards). *)
  let lo s = s * nodes / shards in
  let rings = Array.init shards (fun s -> Array.init (lo (s + 1) - lo s) (fun i -> lo s + i)) in
  let shard_of_node = Array.make nodes 0 in
  Array.iteri (fun s ring -> Array.iter (fun node -> shard_of_node.(node) <- s) ring) rings;
  let subscribers =
    Array.map
      (fun ring ->
        let tbl = Hashtbl.create (Array.length ring * 2) in
        Array.iter (fun node -> Hashtbl.replace tbl node ()) ring;
        tbl)
      rings
  in
  { nodes; count = shards; rings; shard_of_node; subscribers; sorted = Array.make shards [] }

let full ~nodes = make ~nodes ~shards:1

let nodes t = t.nodes

let count t = t.count

let check_shard t shard =
  if shard < 0 || shard >= t.count then invalid_arg "Shard: shard index out of range"

let check_node t node =
  if node < 0 || node >= t.nodes then invalid_arg "Shard: node id out of range"

(* The static location -> shard assignment, mirroring [Owner.by_index]:
   indexed families stripe across shards, named scalars hash. *)
let of_loc t loc =
  match (loc : Loc.t) with
  | Loc.Indexed (_, i) | Loc.Cell (_, i, _) -> abs i mod t.count
  | Loc.Named _ -> Loc.hash loc mod t.count

let of_base t base =
  check_node t base;
  t.shard_of_node.(base)

let ring t shard =
  check_shard t shard;
  Array.to_list t.rings.(shard)

let ring_size t shard =
  check_shard t shard;
  Array.length t.rings.(shard)

let in_ring t ~shard ~node =
  check_shard t shard;
  Array.exists (( = ) node) t.rings.(shard)

(* The designated backup under sharding: the ring successor within the
   node's own shard (never a node from another shard — failover must not
   leak ownership across the shard boundary). *)
let ring_successor t ~node =
  check_node t node;
  let ring = t.rings.(t.shard_of_node.(node)) in
  let len = Array.length ring in
  if len <= 1 then None
  else begin
    let i = ref 0 in
    Array.iteri (fun j m -> if m = node then i := j) ring;
    Some ring.((!i + 1) mod len)
  end

let subscribed t ~shard ~node =
  check_shard t shard;
  Hashtbl.mem t.subscribers.(shard) node

let subscribe t ~shard ~node =
  check_shard t shard;
  check_node t node;
  if not (Hashtbl.mem t.subscribers.(shard) node) then begin
    Hashtbl.replace t.subscribers.(shard) node ();
    t.sorted.(shard) <- []
  end

let unsubscribe t ~shard ~node =
  (* Ring members are permanent: the owner ring is the shard's replication
     floor, so only runtime subscribers can leave. *)
  check_node t node;
  if (not (in_ring t ~shard ~node)) && Hashtbl.mem t.subscribers.(shard) node then begin
    Hashtbl.remove t.subscribers.(shard) node;
    t.sorted.(shard) <- []
  end

let subscribers t shard =
  check_shard t shard;
  match t.sorted.(shard) with
  | [] ->
      let sorted =
        Hashtbl.fold (fun node () acc -> node :: acc) t.subscribers.(shard) []
        |> List.sort Int.compare
      in
      t.sorted.(shard) <- sorted;
      sorted
  | sorted -> sorted

let membership t shard = Membership.of_list (subscribers t shard)

let width t shard = Hashtbl.length t.subscribers.(shard)

let subscriptions t = List.init t.count (fun shard -> (shard, subscribers t shard))

(* The induced owner map: a location's base owner is a ring member of its
   shard, so the per-base failover machinery (epochs, votes, takeover)
   stays inside one ring.  Indexed families spread across the ring the
   same way [Owner.by_index] spreads them across the cluster. *)
let owner t =
  Owner.make ~nodes:t.nodes (fun loc ->
      let ring = t.rings.(of_loc t loc) in
      let k =
        match (loc : Loc.t) with
        | Loc.Indexed (_, i) | Loc.Cell (_, i, _) -> abs i / t.count
        | Loc.Named _ -> Loc.hash loc
      in
      ring.(k mod Array.length ring))

let pp ppf t =
  Format.fprintf ppf "%d shard%s over %d nodes" t.count (if t.count = 1 then "" else "s") t.nodes
