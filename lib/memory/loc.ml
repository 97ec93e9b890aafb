type t = Named of string | Indexed of string * int | Cell of string * int * int
[@@deriving eq, ord]

let hash = Hashtbl.hash

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

(* {1 Interning}

   The flat hot path indexes memory by dense location ids instead of
   hashing structured locations on every step.  An interner is built once
   per run (ids are assigned in first-intern order, so a fixed intern order
   gives a stable layout); after the setup phase the hot loop only carries
   ids and never allocates. *)

module Interner = struct
  type loc = t

  type t = { ids : int Table.t; mutable rev : loc array; mutable n : int }

  let dummy = Named "_"

  let create ?(capacity = 64) () =
    { ids = Table.create capacity; rev = Array.make (max capacity 1) dummy; n = 0 }

  let count t = t.n

  (* [Table.find], not [find_opt]: a hit allocates nothing. *)
  let intern t loc =
    match Table.find t.ids loc with
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
        Table.replace t.ids loc id;
        id

  let find_opt t loc = Table.find_opt t.ids loc

  let of_id t id =
    if id < 0 || id >= t.n then invalid_arg "Loc.Interner.of_id: unknown id";
    t.rev.(id)
end
