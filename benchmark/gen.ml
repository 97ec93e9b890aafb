(* SplitMix64 (Steele, Lea & Flood, OOPSLA 2014).  The benchmark draws its
   inputs from this generator rather than from the system's own PRNG, so a
   change to the system cannot change the inputs it is measured on. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let next t =
  t.state <- Int64.add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* An independent stream seeded from this one. *)
let split t = { state = next t }

(* Uniform in [0, 1) from the top 53 bits. *)
let float t = Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53

let int t bound = Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int bound))

let chance t p = float t < p

let exponential t ~mean = -.mean *. log1p (-.float t)

(* Zipf(s) over ranks [0, m): rank 0 is the hottest.  Sampled by binary
   search over the cumulative weights. *)
type zipf = float array

let zipf ~s m =
  let acc = ref 0.0 in
  Array.init m (fun k ->
      acc := !acc +. (1.0 /. Float.pow (float_of_int (k + 1)) s);
      !acc)

let zipf_rank t (cum : zipf) =
  let u = float t *. cum.(Array.length cum - 1) in
  let lo = ref 0 and hi = ref (Array.length cum - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if u < cum.(mid) then hi := mid else lo := mid + 1
  done;
  !lo
