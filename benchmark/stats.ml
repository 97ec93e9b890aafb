(* Growable float vector, for samples collected while a run is in flight. *)
module Fvec = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let data = Array.make (2 * v.len) 0.0 in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let to_array v = Array.sub v.data 0 v.len
end

(* Quantile by linear interpolation between closest ranks; 0 for no
   samples, so an idle layer reports 0 rather than failing. *)
let quantile samples q =
  let n = Array.length samples in
  if n = 0 then 0.0
  else begin
    let s = Array.copy samples in
    Array.sort Float.compare s;
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then s.(n - 1) else s.(i) +. ((pos -. float_of_int i) *. (s.(i + 1) -. s.(i)))
  end

let median samples = quantile samples 0.5

let mean samples =
  if Array.length samples = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 samples /. float_of_int (Array.length samples)

(* Ratio that reads 0 when nothing happened, instead of nan. *)
let per num den = if den = 0.0 then 0.0 else num /. den

let per_int num den = per (float_of_int num) (float_of_int den)
