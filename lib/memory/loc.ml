type t = Named of string | Indexed of string * int | Cell of string * int * int
[@@deriving eq, ord]

(* The polymorphic hash.  It places named locations on owners and shards
   ([Owner], [Shard]), and [Node] iterates [Table]s in its invalidation
   pass and page batches, so its values reach outputs and stay as they
   are. *)
let hash = Hashtbl.hash

(* [Interner]'s hash, in OCaml: FNV-1a over the constructor, the name's
   bytes and the indices, with the high half folded into the low bits that
   pick a bucket.  It costs no C call per probe, and the interner's table
   is only probed, never iterated, so its bucket order reaches no output. *)
let fnv h x = (h lxor x) * 0x100000001b3

let fnv_string h s =
  let h = ref h in
  for k = 0 to String.length s - 1 do
    h := fnv !h (Char.code (String.unsafe_get s k))
  done;
  !h

(* FNV-1a's 64-bit offset basis, cut to 63 bits. *)
let fnv_basis = 0x0bf29ce484222325

let typed_hash t =
  let h =
    match t with
    | Named s -> fnv_string (fnv fnv_basis 0) s
    | Indexed (s, i) -> fnv (fnv_string (fnv fnv_basis 1) s) i
    | Cell (s, i, j) -> fnv (fnv (fnv_string (fnv fnv_basis 2) s) i) j
  in
  (h lxor (h lsr 32)) land max_int

let to_string = function
  | Named s -> s
  | Indexed (s, i) -> Printf.sprintf "%s.%d" s i
  | Cell (s, i, j) -> Printf.sprintf "%s.%d.%d" s i j

let pp ppf t = Format.pp_print_string ppf (to_string t)

let of_string s =
  match String.split_on_char '.' s with
  | [ name; i ] -> (
      match int_of_string_opt i with Some i -> Indexed (name, i) | None -> Named s)
  | [ name; i; j ] -> (
      match (int_of_string_opt i, int_of_string_opt j) with
      | Some i, Some j -> Cell (name, i, j)
      | _, _ -> Named s)
  | _ -> Named s

let named s = Named s

let indexed s i = Indexed (s, i)

let cell s i j = Cell (s, i, j)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  let hash = hash
end)

module Ids = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  let hash = typed_hash
end)

(* {1 Interning}

   The flat hot path indexes memory by dense location ids instead of
   hashing structured locations on every step.  An interner is built once
   per run (ids are assigned in first-intern order, so a fixed intern order
   gives a stable layout); after the setup phase the hot loop only carries
   ids and never allocates. *)

module Interner = struct
  type loc = t

  type t = { ids : int Ids.t; mutable rev : loc array; mutable n : int }

  let dummy = Named "_"

  let create ?(capacity = 64) () =
    { ids = Ids.create capacity; rev = Array.make (max capacity 1) dummy; n = 0 }

  let count t = t.n

  (* [Ids.find], not [find_opt]: a hit allocates nothing. *)
  let intern t loc =
    match Ids.find t.ids loc with
    | id -> id
    | exception Not_found ->
        let id = t.n in
        if id >= Array.length t.rev then begin
          let rev = Array.make (2 * Array.length t.rev) dummy in
          Array.blit t.rev 0 rev 0 t.n;
          t.rev <- rev
        end;
        t.rev.(id) <- loc;
        t.n <- id + 1;
        Ids.replace t.ids loc id;
        id

  let find_opt t loc = Ids.find_opt t.ids loc

  let of_id t id =
    if id < 0 || id >= t.n then invalid_arg "Loc.Interner.of_id: unknown id";
    t.rev.(id)
end
