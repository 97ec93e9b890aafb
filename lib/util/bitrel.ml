(* Rows are Bytes, padded to a multiple of 8 so the hot loops (union,
   difference, scans) run over 64-bit words via [Bytes.get_int64_ne] — the
   native compiler keeps those int64s unboxed, so a row union is n/64
   register ORs rather than n/8 byte RMWs.  Single-bit access stays
   byte-granular. *)
type t = { n : int; words : int; rows : Bytes.t array }

let create n =
  let words = (n + 63) / 64 * 8 in
  let words = max words 8 in
  { n; words; rows = Array.init n (fun _ -> Bytes.make words '\000') }

let size t = t.n

let check t i j =
  if i < 0 || i >= t.n || j < 0 || j >= t.n then invalid_arg "Bitrel: index out of range"

let add t i j =
  check t i j;
  let row = t.rows.(i) in
  let byte = j / 8 and bit = j mod 8 in
  Bytes.unsafe_set row byte
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get row byte) lor (1 lsl bit)))

let mem t i j =
  check t i j;
  let row = t.rows.(i) in
  let byte = j / 8 and bit = j mod 8 in
  Char.code (Bytes.unsafe_get row byte) land (1 lsl bit) <> 0

let copy t = { t with rows = Array.map Bytes.copy t.rows }

let union_row_into t ~src ~dst =
  let s = t.rows.(src) and d = t.rows.(dst) in
  let w = t.words / 8 in
  for b = 0 to w - 1 do
    let o = b * 8 in
    Bytes.set_int64_ne d o (Int64.logor (Bytes.get_int64_ne d o) (Bytes.get_int64_ne s o))
  done

let diff_row_into t ~src ~dst =
  let s = t.rows.(src) and d = t.rows.(dst) in
  let w = t.words / 8 in
  for b = 0 to w - 1 do
    let o = b * 8 in
    Bytes.set_int64_ne d o (Int64.logand (Bytes.get_int64_ne d o) (Int64.lognot (Bytes.get_int64_ne s o)))
  done

let clear_row t i = Bytes.fill t.rows.(i) 0 t.words '\000'

(* Word-skip scan: visit each set bit of a row, cheap on the mostly-zero
   rows the checker's closures are made of. *)
let iter_row t i f =
  let row = t.rows.(i) in
  let w = t.words / 8 in
  for b = 0 to w - 1 do
    if Bytes.get_int64_ne row (b * 8) <> 0L then
      for byte = b * 8 to (b * 8) + 7 do
        let v = Char.code (Bytes.unsafe_get row byte) in
        if v <> 0 then
          for bit = 0 to 7 do
            if v land (1 lsl bit) <> 0 then f ((byte * 8) + bit)
          done
      done
  done

let row_equal a b = Bytes.equal a b

(* Warshall-style fixpoint: repeatedly OR successor rows into each row until
   nothing changes.  O(n^3 / word) worst case, plenty fast for the execution
   sizes the checker sees. *)
let transitive_closure t =
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to t.n - 1 do
      let before = Bytes.copy t.rows.(i) in
      for j = 0 to t.n - 1 do
        if mem t i j then union_row_into t ~src:j ~dst:i
      done;
      if not (row_equal before t.rows.(i)) then changed := true
    done
  done

let successors t i =
  let acc = ref [] in
  for j = t.n - 1 downto 0 do
    if mem t i j then acc := j :: !acc
  done;
  !acc

let count_pairs t =
  let total = ref 0 in
  for i = 0 to t.n - 1 do
    for j = 0 to t.n - 1 do
      if mem t i j then incr total
    done;
  done;
  !total

let equal a b =
  a.n = b.n
  && Array.for_all2 (fun ra rb -> row_equal ra rb) a.rows b.rows
