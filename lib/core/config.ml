type granularity = Word | Page of int

type discard = No_discard | Periodic of float | Capacity of int

type invalidation = Coarse | Precise

type mutation =
  | No_mutation
  | Skip_invalidation
  | Skip_writestamp_merge
  | Reorder_apply_ack
  | Ignore_epoch_fence
  | Skip_shadow_replication
  | Truncate_wal_early
  | Takeover_without_quorum
  | Prune_share_set_wrongly
  | Merge_drops_op
  | Figure4_literal

let mutations =
  [
    ("skip-invalidation", Skip_invalidation);
    ("skip-writestamp-merge", Skip_writestamp_merge);
    ("reorder-apply-ack", Reorder_apply_ack);
    ("ignore-epoch-fence", Ignore_epoch_fence);
    ("skip-shadow-replication", Skip_shadow_replication);
    ("truncate-wal-early", Truncate_wal_early);
    ("takeover-without-quorum", Takeover_without_quorum);
    ("prune-share-set-wrongly", Prune_share_set_wrongly);
    ("merge-drops-op", Merge_drops_op);
    ("figure4-literal", Figure4_literal);
  ]

let mutation_name = function
  | No_mutation -> "none"
  | m -> fst (List.find (fun (_, m') -> m = m') mutations)

type t = {
  granularity : granularity;
  discard : discard;
  invalidation : invalidation;
  policy : Policy.t;
  init : Dsm_memory.Loc.t -> Dsm_memory.Value.t;
  read_request_size : int;
  entry_size : int -> int;
  mutation : mutation;
}

let default =
  {
    granularity = Word;
    discard = No_discard;
    invalidation = Coarse;
    policy = Policy.Last_writer_wins;
    init = (fun _ -> Dsm_memory.Value.initial);
    read_request_size = 1;
    entry_size = (fun dim -> 2 + dim);
    mutation = No_mutation;
  }

let with_policy policy t = { t with policy }

let with_granularity granularity t = { t with granularity }

let with_discard discard t = { t with discard }

let with_invalidation invalidation t = { t with invalidation }

let with_init init t = { t with init }

let with_mutation mutation t = { t with mutation }

let page_of granularity loc =
  match granularity with
  | Word -> None
  | Page size -> (
      match loc with
      | Dsm_memory.Loc.Indexed (name, i) -> Some (name, i / size)
      | Dsm_memory.Loc.Cell (name, i, j) -> Some (Printf.sprintf "%s.%d" name i, j / size)
      | Dsm_memory.Loc.Named _ -> None)

let validate t =
  (match t.granularity with
  | Word -> ()
  | Page size -> if size < 2 then invalid_arg "Config: page size must be >= 2");
  match t.discard with
  | No_discard -> ()
  | Periodic period -> if period <= 0.0 then invalid_arg "Config: discard period must be positive"
  | Capacity cap -> if cap < 1 then invalid_arg "Config: cache capacity must be >= 1"
