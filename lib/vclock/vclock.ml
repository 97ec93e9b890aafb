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
   allocates, which is what the microbench ALLOC=0 gate measures.

   Each kernel checks its windows once, before it reads or writes anything,
   and then indexes with [Array.unsafe_get]/[unsafe_set] in blocks of four
   components and a tail.  The comparisons fold differences instead of
   branching per component: with non-negative components [y - x] cannot
   overflow and is negative exactly when [x > y], so ORing four
   differences and testing the sign once answers "does any of these four
   exceed its partner?".

   Every window is annotated [int array]: on a polymorphic window each [>]
   is a [caml_greaterthan] call.  That allocates nothing, so the ALLOC=0
   gate cannot see it; a CI [nm] step can.  The copying API below runs
   these same kernels at offset 0. *)

module Flat = struct
  (* A direct [raise], not [invalid_arg]: a call that may return would keep
     the kernel's operands alive across it, and the register allocator then
     reloads them from the stack on every iteration of the loop below. *)
  let[@inline] check_window msg (a : int array) off dim =
    if off < 0 || dim < 0 || off > Array.length a - dim then raise (Invalid_argument msg)

  let[@inline] max_into (dst : int array) j x = if x > Array.unsafe_get dst j then Array.unsafe_set dst j x

  (* The loops run one index [s] over the source window, [d] words behind
     the destination's. *)
  let merge_into ~(dst : int array) ~dst_off ~(src : int array) ~src_off ~dim =
    check_window "Vclock.Flat.merge_into: window out of range" dst dst_off dim;
    check_window "Vclock.Flat.merge_into: window out of range" src src_off dim;
    let d = dst_off - src_off and stop = src_off + dim in
    let i = ref src_off in
    while !i + 4 <= stop do
      let s = !i in
      max_into dst (s + d) (Array.unsafe_get src s);
      max_into dst (s + d + 1) (Array.unsafe_get src (s + 1));
      max_into dst (s + d + 2) (Array.unsafe_get src (s + 2));
      max_into dst (s + d + 3) (Array.unsafe_get src (s + 3));
      i := s + 4
    done;
    while !i < stop do
      max_into dst (!i + d) (Array.unsafe_get src !i);
      incr i
    done

  (* [merge_into] and a [blit] of the same source in one pass.  Each
     component is read once, then merged and copied, so the source may be
     the merged window itself. *)
  let merge_blit ~(src : int array) ~src_off ~(dst : int array) ~dst_off ~(copy : int array)
      ~copy_off ~dim =
    check_window "Vclock.Flat.merge_blit: window out of range" src src_off dim;
    check_window "Vclock.Flat.merge_blit: window out of range" dst dst_off dim;
    check_window "Vclock.Flat.merge_blit: window out of range" copy copy_off dim;
    let d = dst_off - src_off and c = copy_off - src_off and stop = src_off + dim in
    let i = ref src_off in
    while !i + 4 <= stop do
      let s = !i in
      let x = Array.unsafe_get src s in
      max_into dst (s + d) x;
      Array.unsafe_set copy (s + c) x;
      let x = Array.unsafe_get src (s + 1) in
      max_into dst (s + d + 1) x;
      Array.unsafe_set copy (s + c + 1) x;
      let x = Array.unsafe_get src (s + 2) in
      max_into dst (s + d + 2) x;
      Array.unsafe_set copy (s + c + 2) x;
      let x = Array.unsafe_get src (s + 3) in
      max_into dst (s + d + 3) x;
      Array.unsafe_set copy (s + c + 3) x;
      i := s + 4
    done;
    while !i < stop do
      let x = Array.unsafe_get src !i in
      max_into dst (!i + d) x;
      Array.unsafe_set copy (!i + c) x;
      incr i
    done

  (* [Array.blit]'s overlap semantics without its per-word [caml_modify] on
     a major-heap arena: copy downwards when the destination starts inside
     the source window of the same array. *)
  let blit ~(src : int array) ~src_off ~(dst : int array) ~dst_off ~dim =
    check_window "Vclock.Flat.blit: window out of range" src src_off dim;
    check_window "Vclock.Flat.blit: window out of range" dst dst_off dim;
    let d = dst_off - src_off in
    if src == dst && d > 0 then begin
      let i = ref (src_off + dim - 1) in
      while !i - 3 >= src_off do
        let s = !i in
        Array.unsafe_set dst (s + d) (Array.unsafe_get src s);
        Array.unsafe_set dst (s + d - 1) (Array.unsafe_get src (s - 1));
        Array.unsafe_set dst (s + d - 2) (Array.unsafe_get src (s - 2));
        Array.unsafe_set dst (s + d - 3) (Array.unsafe_get src (s - 3));
        i := s - 4
      done;
      while !i >= src_off do
        Array.unsafe_set dst (!i + d) (Array.unsafe_get src !i);
        decr i
      done
    end
    else begin
      let stop = src_off + dim in
      let i = ref src_off in
      while !i + 4 <= stop do
        let s = !i in
        Array.unsafe_set dst (s + d) (Array.unsafe_get src s);
        Array.unsafe_set dst (s + d + 1) (Array.unsafe_get src (s + 1));
        Array.unsafe_set dst (s + d + 2) (Array.unsafe_get src (s + 2));
        Array.unsafe_set dst (s + d + 3) (Array.unsafe_get src (s + 3));
        i := s + 4
      done;
      while !i < stop do
        Array.unsafe_set dst (!i + d) (Array.unsafe_get src !i);
        incr i
      done
    end

  let bump (a : int array) ~off i = a.(off + i) <- a.(off + i) + 1

  let fill_zero (a : int array) ~off ~dim = Array.fill a off dim 0

  (* [a_gt] goes negative once some component of [a] exceeds [b]'s, [b_gt]
     once some component of [b] exceeds [a]'s.  Stops after the block in
     which both have: the verdict is then [Concurrent] whatever the
     remaining components hold.  Each block folds its components one pair
     at a time, so that few values are live at once and none is spilled. *)
  let compare_vt (a : int array) ~a_off (b : int array) ~b_off ~dim =
    check_window "Vclock.Flat.compare_vt: window out of range" a a_off dim;
    check_window "Vclock.Flat.compare_vt: window out of range" b b_off dim;
    let d = b_off - a_off and stop = a_off + dim in
    let a_gt = ref 0 and b_gt = ref 0 in
    let i = ref a_off in
    while !i + 4 <= stop && !a_gt land !b_gt >= 0 do
      let s = !i in
      let x = Array.unsafe_get a s and y = Array.unsafe_get b (s + d) in
      let ag = y - x and bg = x - y in
      let x = Array.unsafe_get a (s + 1) and y = Array.unsafe_get b (s + d + 1) in
      let ag = ag lor (y - x) and bg = bg lor (x - y) in
      let x = Array.unsafe_get a (s + 2) and y = Array.unsafe_get b (s + d + 2) in
      let ag = ag lor (y - x) and bg = bg lor (x - y) in
      let x = Array.unsafe_get a (s + 3) and y = Array.unsafe_get b (s + d + 3) in
      a_gt := !a_gt lor ag lor (y - x);
      b_gt := !b_gt lor bg lor (x - y);
      i := s + 4
    done;
    while !i < stop && !a_gt land !b_gt >= 0 do
      let x = Array.unsafe_get a !i and y = Array.unsafe_get b (!i + d) in
      a_gt := !a_gt lor (y - x);
      b_gt := !b_gt lor (x - y);
      incr i
    done;
    match (!a_gt >= 0, !b_gt >= 0) with
    | true, true -> Equal
    | true, false -> Before
    | false, true -> After
    | false, false -> Concurrent

  (* [compare_vt]'s folds, stopping after the first block in which [a]
     exceeds [b]. *)
  let lt (a : int array) ~a_off (b : int array) ~b_off ~dim =
    check_window "Vclock.Flat.lt: window out of range" a a_off dim;
    check_window "Vclock.Flat.lt: window out of range" b b_off dim;
    let d = b_off - a_off and stop = a_off + dim in
    let a_gt = ref 0 and b_gt = ref 0 in
    let i = ref a_off in
    while !i + 4 <= stop && !a_gt >= 0 do
      let s = !i in
      let x = Array.unsafe_get a s and y = Array.unsafe_get b (s + d) in
      let ag = y - x and bg = x - y in
      let x = Array.unsafe_get a (s + 1) and y = Array.unsafe_get b (s + d + 1) in
      let ag = ag lor (y - x) and bg = bg lor (x - y) in
      let x = Array.unsafe_get a (s + 2) and y = Array.unsafe_get b (s + d + 2) in
      let ag = ag lor (y - x) and bg = bg lor (x - y) in
      let x = Array.unsafe_get a (s + 3) and y = Array.unsafe_get b (s + d + 3) in
      a_gt := ag lor (y - x);
      b_gt := !b_gt lor bg lor (x - y);
      i := s + 4
    done;
    while !i < stop && !a_gt >= 0 do
      let x = Array.unsafe_get a !i and y = Array.unsafe_get b (!i + d) in
      a_gt := y - x;
      b_gt := !b_gt lor (x - y);
      incr i
    done;
    !a_gt >= 0 && !b_gt < 0

  let leq (a : int array) ~a_off (b : int array) ~b_off ~dim =
    check_window "Vclock.Flat.leq: window out of range" a a_off dim;
    check_window "Vclock.Flat.leq: window out of range" b b_off dim;
    let d = b_off - a_off and stop = a_off + dim in
    let a_gt = ref 0 in
    let i = ref a_off in
    while !i + 4 <= stop && !a_gt >= 0 do
      let s = !i in
      a_gt :=
        (Array.unsafe_get b (s + d) - Array.unsafe_get a s)
        lor (Array.unsafe_get b (s + d + 1) - Array.unsafe_get a (s + 1))
        lor (Array.unsafe_get b (s + d + 2) - Array.unsafe_get a (s + 2))
        lor (Array.unsafe_get b (s + d + 3) - Array.unsafe_get a (s + 3));
      i := s + 4
    done;
    while !i < stop && !a_gt >= 0 do
      a_gt := Array.unsafe_get b (!i + d) - Array.unsafe_get a !i;
      incr i
    done;
    !a_gt >= 0
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
