(* Runs every workload that BENCHMARK.json names through the benchmark
   command with --quick (tiny inputs, same code path) and checks:
   - the run is correct and exits 0;
   - every end-to-end metric is printed, and traced every per-layer metric
     too, each with the unit BENCHMARK.json declares;
   - two runs with one seed print the same simulated metrics and digest;
   - a run with another seed prints a different digest.

   Usage: smoke.exe MAIN_EXE BENCHMARK_JSON *)

type json = Obj of (string * json) list | Arr of json list | Str of string | Scalar

(* Enough JSON for BENCHMARK.json: objects, arrays, strings (a backslash
   escapes the next character literally), and scalars, which are skipped. *)
let parse s =
  let pos = ref 0 in
  let peek () = s.[!pos] in
  let rec ws () =
    if !pos < String.length s && String.contains " \t\r\n" (peek ()) then begin
      incr pos;
      ws ()
    end
  in
  let expect c =
    ws ();
    if peek () <> c then failwith (Printf.sprintf "BENCHMARK.json: expected '%c' at offset %d" c !pos);
    incr pos
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    while peek () <> '"' do
      if peek () = '\\' then incr pos;
      Buffer.add_char b (peek ());
      incr pos
    done;
    incr pos;
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr pos;
        Obj (members ())
    | '[' ->
        incr pos;
        Arr (elements ())
    | '"' -> Str (str ())
    | _ ->
        while !pos < String.length s && not (String.contains ",]} \t\r\n" (peek ())) do
          incr pos
        done;
        Scalar
  and members () =
    ws ();
    if peek () = '}' then begin
      incr pos;
      []
    end
    else begin
      let k = str () in
      expect ':';
      let v = value () in
      ws ();
      if peek () = ',' then begin
        incr pos;
        (k, v) :: members ()
      end
      else begin
        expect '}';
        [ (k, v) ]
      end
    end
  and elements () =
    ws ();
    if peek () = ']' then begin
      incr pos;
      []
    end
    else begin
      let v = value () in
      ws ();
      if peek () = ',' then begin
        incr pos;
        v :: elements ()
      end
      else begin
        expect ']';
        [ v ]
      end
    end
  in
  value ()

let field k = function
  | Obj kv -> ( match List.assoc_opt k kv with Some v -> v | None -> failwith ("missing key " ^ k))
  | _ -> failwith ("not an object at key " ^ k)

let string = function Str s -> s | _ -> failwith "expected a string"

let list = function Arr l -> l | _ -> failwith "expected an array"

let errors = ref []

let fail fmt = Printf.ksprintf (fun msg -> errors := msg :: !errors) fmt

(* The report lines of one run, or [] after recording why it failed. *)
let run exe workload ~seed ~trace =
  let args =
    [| exe; "--workload"; workload; "--seed"; string_of_int seed; "--seconds"; "0"; "--trace";
       string_of_int trace; "--quick" |]
  in
  let ic = Unix.open_process_args_in exe args in
  let lines = String.split_on_char '\n' (String.trim (In_channel.input_all ic)) in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 ->
      let last = List.nth lines (List.length lines - 1) in
      if not (String.starts_with ~prefix:{|{"correct": true,|} last) then
        fail "%s seed %d trace %d: last line is not a correct result: %s" workload seed trace last;
      lines
  | _ ->
      fail "%s seed %d trace %d: exited non-zero" workload seed trace;
      []

(* (name, value, unit, tag) of each "metric NAME VALUE UNIT TAG" line. *)
let metrics lines =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "metric"; name; value; unit; tag ] -> Some (name, value, unit, tag)
      | _ -> None)
    lines

(* What must repeat exactly for a seed: the digest and the exact metrics. *)
let exact lines =
  List.filter
    (fun l ->
      String.starts_with ~prefix:"digest " l
      || (String.starts_with ~prefix:"metric " l && String.ends_with ~suffix:" exact" l))
    lines

let check_declared workload trace declared lines =
  let printed = metrics lines in
  List.iter
    (fun (name, unit) ->
      match List.find_opt (fun (n, _, _, _) -> n = name) printed with
      | None -> fail "%s trace %d: metric %s not printed" workload trace name
      | Some (_, _, u, _) when u <> unit ->
          fail "%s trace %d: metric %s printed with unit %s, declared %s" workload trace name u unit
      | Some _ -> ())
    declared

let () =
  let exe = Sys.argv.(1) in
  let manifest = parse (In_channel.with_open_bin Sys.argv.(2) In_channel.input_all) in
  let declared section =
    List.map (fun o -> (string (field "name" o), string (field "unit" o))) (list (field section manifest))
  in
  let workloads = List.map (fun o -> string (field "name" o)) (list (field "workloads" manifest)) in
  List.iter
    (fun w ->
      let a = run exe w ~seed:1 ~trace:0 in
      let b = run exe w ~seed:1 ~trace:0 in
      let c = run exe w ~seed:2 ~trace:0 in
      let t = run exe w ~seed:1 ~trace:1 in
      check_declared w 0 (declared "end_to_end") a;
      check_declared w 1 (declared "end_to_end" @ declared "per_layer") t;
      if exact a = [] then fail "%s: no digest or exact metric printed" w;
      if exact a <> exact b then fail "%s: seed 1 does not repeat" w;
      let digest lines = List.filter (String.starts_with ~prefix:"digest ") lines in
      if digest a = digest c then fail "%s: seeds 1 and 2 print the same digest" w)
    workloads;
  match !errors with
  | [] -> Printf.printf "benchmark smoke: %d workloads ok\n" (List.length workloads)
  | errs ->
      List.iter prerr_endline (List.rev errs);
      exit 1
