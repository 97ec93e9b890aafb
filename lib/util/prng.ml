(* The SplitMix64 state lives unboxed in 8 bytes.  A mutable [int64]
   field would box a fresh state on every advance, and a draw is on the
   path of every simulated message; with the bytes, [next_int64] inlines
   into the draws below, and those that return an int or a bool allocate
   nothing. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  set_state t 0 seed;
  t

let copy = Bytes.copy

(* SplitMix64 output function: advance by the golden gamma, then mix. *)
let[@inline] next_int64 t =
  let z = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let seed = next_int64 t in
  create seed

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* Mask to a non-negative native int (to_int truncates to 63 bits and can
     go negative), then reduce.  The modulo bias is negligible for the
     bounds used in simulation. *)
  let raw = Int64.to_int (next_int64 t) land max_int in
  raw mod bound

let int_in t lo hi =
  if lo > hi then invalid_arg "Prng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

(* Inlined into [chance] and [exponential], which then box no float. *)
let[@inline] float t bound =
  (* 53 uniform bits mapped to [0, 1). *)
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int bits /. 9007199254740992.0 *. bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let chance t p =
  if p <= 0.0 then false
  else if p >= 1.0 then true
  else float t 1.0 < p

let exponential t ~mean =
  let u = float t 1.0 in
  (* Guard the log argument away from zero. *)
  -.mean *. log (1.0 -. (u *. 0.9999999999))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Prng.pick: empty array";
  a.(int t (Array.length a))
