type t = int array
(* Invariant: never mutated after construction; every constructor copies. *)

let zero n =
  if n < 1 then invalid_arg "Vclock.zero: dimension must be >= 1";
  Array.make n 0

let dim = Array.length

let get vt i =
  if i < 0 || i >= Array.length vt then invalid_arg "Vclock.get: index out of range";
  vt.(i)

let increment vt i =
  if i < 0 || i >= Array.length vt then invalid_arg "Vclock.increment: index out of range";
  let vt' = Array.copy vt in
  vt'.(i) <- vt'.(i) + 1;
  vt'

type order = Before | After | Equal | Concurrent

(* {1 Flat windows}

   The hot path (Dsm_protocol.Flat) stores many clocks side by side in flat
   [int array] arenas and works on [dim]-wide windows starting at a
   word offset.  Every operation here is in-place or a pure fold: none
   allocates, which is what the microbench ALLOC=0 gate measures.  Bounds
   are the caller's contract — these run inside loops already bounded by the
   arena layout, and [Array.get]/[set] still check each access.

   Every window is annotated [int array]: on a polymorphic window each [>]
   is a [caml_greaterthan] call.  That allocates nothing, so the ALLOC=0
   gate cannot see it; a CI [nm] step can.  The copying API below runs
   these same kernels at offset 0. *)

module Flat = struct
  let merge_into ~(dst : int array) ~dst_off ~(src : int array) ~src_off ~dim =
    for i = 0 to dim - 1 do
      let s = src.(src_off + i) in
      if s > dst.(dst_off + i) then dst.(dst_off + i) <- s
    done

  (* [Array.blit]'s overlap semantics without its per-word [caml_modify] on
     a major-heap arena: copy downwards when the destination starts inside
     the source window of the same array. *)
  let blit ~(src : int array) ~src_off ~(dst : int array) ~dst_off ~dim =
    if src == dst && src_off < dst_off then
      for i = dim - 1 downto 0 do
        dst.(dst_off + i) <- src.(src_off + i)
      done
    else
      for i = 0 to dim - 1 do
        dst.(dst_off + i) <- src.(src_off + i)
      done

  let bump (a : int array) ~off i = a.(off + i) <- a.(off + i) + 1

  let fill_zero (a : int array) ~off ~dim = Array.fill a off dim 0

  (* Stops once both directions have differed: the verdict is then
     [Concurrent] whatever the remaining components hold. *)
  let compare_vt (a : int array) ~a_off (b : int array) ~b_off ~dim =
    let a_le = ref true and b_le = ref true in
    let i = ref 0 in
    while (!a_le || !b_le) && !i < dim do
      let x = a.(a_off + !i) and y = b.(b_off + !i) in
      if x > y then a_le := false else if y > x then b_le := false;
      i := !i + 1
    done;
    match (!a_le, !b_le) with
    | true, true -> Equal
    | true, false -> Before
    | false, true -> After
    | false, false -> Concurrent

  let lt (a : int array) ~a_off (b : int array) ~b_off ~dim =
    let a_le = ref true and b_gt = ref false in
    let i = ref 0 in
    while !a_le && !i < dim do
      let x = a.(a_off + !i) and y = b.(b_off + !i) in
      if x > y then a_le := false else if y > x then b_gt := true;
      i := !i + 1
    done;
    !a_le && !b_gt

  let leq (a : int array) ~a_off (b : int array) ~b_off ~dim =
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < dim do
      if a.(a_off + !i) > b.(b_off + !i) then ok := false;
      i := !i + 1
    done;
    !ok
end

(* Returns the shared dimension, so a kernel never runs to [a]'s length
   over a longer [b] and silently ignores its extra components. *)
let check_dim a b name =
  if Array.length a <> Array.length b then invalid_arg (name ^ ": dimension mismatch");
  Array.length a

let update a b =
  let dim = check_dim a b "Vclock.update" in
  let u = Array.copy a in
  Flat.merge_into ~dst:u ~dst_off:0 ~src:b ~src_off:0 ~dim;
  u

let of_array a =
  if Array.length a = 0 then invalid_arg "Vclock.of_array: empty";
  Array.copy a

let to_array = Array.copy

let compare_vt a b = Flat.compare_vt a ~a_off:0 b ~b_off:0 ~dim:(check_dim a b "Vclock.compare_vt")

let lt a b = Flat.lt a ~a_off:0 b ~b_off:0 ~dim:(check_dim a b "Vclock.lt")

let leq a b = Flat.leq a ~a_off:0 b ~b_off:0 ~dim:(check_dim a b "Vclock.leq")

let equal a b = Flat.compare_vt a ~a_off:0 b ~b_off:0 ~dim:(check_dim a b "Vclock.equal") = Equal

let concurrent a b =
  Flat.compare_vt a ~a_off:0 b ~b_off:0 ~dim:(check_dim a b "Vclock.concurrent") = Concurrent

let sum vt = Array.fold_left ( + ) 0 vt

let pp ppf vt =
  Format.fprintf ppf "[%s]" (String.concat ";" (Array.to_list (Array.map string_of_int vt)))

let to_string vt = Format.asprintf "%a" pp vt

let total_compare a b =
  let dim = check_dim a b "Vclock.total_compare" in
  let rec go i =
    if i = dim then 0
    else begin
      let c = Int.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
    end
  in
  go 0
