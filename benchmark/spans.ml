(* Spans recorded by the benchmark around its calls into each layer, kept
   in memory and written as JSONL when the run ends.  A span has an id, the
   id of the span that caused it (0 for none), a name, the clock it was
   measured on ("host": seconds since the run started; "sim": simulated
   time in link latencies), and an optional acting node. *)

type t = { out : Buffer.t; origin : float; mutable next : int }

let create () = { out = Buffer.create (1 lsl 16); origin = Host.now (); next = 1 }

let add t ?(parent = 0) ?node ~name ~clock ~start ~stop () =
  let id = t.next in
  t.next <- id + 1;
  let start, stop = if clock = "host" then (start -. t.origin, stop -. t.origin) else (start, stop) in
  Printf.bprintf t.out {|{"id":%d,"parent":%d,"name":"%s","clock":"%s","start":%.9g,"end":%.9g|} id
    parent name clock start stop;
  (match node with Some n -> Printf.bprintf t.out {|,"node":%d|} n | None -> ());
  Buffer.add_string t.out "}\n";
  id

let write t path =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Out_channel.with_open_bin path (fun oc -> Buffer.output_buffer oc t.out)
