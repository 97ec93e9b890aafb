type value = Int of int | Float of float | Bool of bool

type e2e = {
  ops : float;
  ops_per_s : float;
  ops_per_sim_time : float;
  latency_p50 : float;
  latency_p95 : float;
  latency_p99 : float;
  msgs_per_op : float;
  bytes_per_op : float;
}

let e2e ?ops ?(ops_per_s = nan) ?(ops_per_sim_time = nan) ?(latencies = [||])
    ?(msgs_per_op = nan) ?(bytes_per_op = nan) () =
  let p = Dsm_util.Stats.percentile latencies in
  {
    ops = (match ops with Some n -> float_of_int n | None -> nan);
    ops_per_s;
    ops_per_sim_time;
    latency_p50 = p 50.0;
    latency_p95 = p 95.0;
    latency_p99 = p 99.0;
    msgs_per_op;
    bytes_per_op;
  }

type row = {
  name : string;
  config : (string * value) list;
  e2e : e2e;
  layers : (string * value) list;
}

type check = { name : string; value : value; bound : string; pass : bool }

let to_float = function Int i -> float_of_int i | Float f -> f | Bool b -> if b then 1.0 else 0.0

let value_string = function
  | Int i -> string_of_int i
  | Float f -> if Float.is_finite f then Printf.sprintf "%.6f" f else "null"
  | Bool b -> string_of_bool b

let check name value op limit =
  let v = to_float value and l = to_float limit in
  let sym, pass =
    match op with
    | `Eq -> ("=", v = l)
    | `Ge -> (">=", v >= l)
    | `Le -> ("<=", v <= l)
    | `Lt -> ("<", v < l)
  in
  let limit = match limit with Float f -> Printf.sprintf "%g" f | v -> value_string v in
  { name; value; bound = sym ^ " " ^ limit; pass }

type host = { cores : int; ocaml : string; commit : string; profile : string }

let commit () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = In_channel.input_line ic in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some c -> String.trim c
    | _ -> "unknown"
  with Unix.Unix_error _ | Sys_error _ -> "unknown"

let host () =
  {
    cores = Domain.recommended_domain_count ();
    ocaml = Sys.ocaml_version;
    commit = commit ();
    profile = Build_profile.name;
  }

type t = {
  benchmark : string;
  quick : bool;
  seeds : int64 list;
  host : host;
  rows : row list;
  checks : check list;
}

let healthy t = List.for_all (fun (c : check) -> c.pass) t.checks

let e2e_fields e =
  [
    ("ops", if Float.is_nan e.ops then Float nan else Int (int_of_float e.ops));
    ("ops_per_s", Float e.ops_per_s);
    ("ops_per_sim_time", Float e.ops_per_sim_time);
    ("latency_p50", Float e.latency_p50);
    ("latency_p95", Float e.latency_p95);
    ("latency_p99", Float e.latency_p99);
    ("msgs_per_op", Float e.msgs_per_op);
    ("bytes_per_op", Float e.bytes_per_op);
  ]

(* {1 JSON} *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* One object on one line: the host, a row's config and e2e, a check. *)
let json_obj = function
  | [] -> "{}"
  | fields ->
      "{ " ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ " }"

let json_values fields = json_obj (List.map (fun (k, v) -> (k, value_string v)) fields)

(* Layers one per line, so a diff of two runs names the figure that moved. *)
let json_layers = function
  | [] -> "{}"
  | fields ->
      "{\n"
      ^ String.concat ",\n"
          (List.map (fun (k, v) -> "        " ^ json_string k ^ ": " ^ value_string v) fields)
      ^ "\n      }"

let json_list = function
  | [] -> "[]"
  | items -> "[\n" ^ String.concat ",\n" items ^ "\n  ]"

let to_json t =
  let h = t.host in
  let row (r : row) =
    Printf.sprintf
      "    {\n      \"name\": %s,\n      \"config\": %s,\n      \"e2e\": %s,\n      \"layers\": %s\n    }"
      (json_string r.name) (json_values r.config)
      (json_values (e2e_fields r.e2e))
      (json_layers r.layers)
  in
  let check (c : check) =
    "    "
    ^ json_obj
        [
          ("name", json_string c.name);
          ("value", value_string c.value);
          ("bound", json_string c.bound);
          ("pass", string_of_bool c.pass);
        ]
  in
  String.concat ""
    [
      "{\n";
      Printf.sprintf "  \"benchmark\": %s,\n" (json_string t.benchmark);
      Printf.sprintf "  \"quick\": %b,\n" t.quick;
      Printf.sprintf "  \"seeds\": [%s],\n" (String.concat ", " (List.map Int64.to_string t.seeds));
      Printf.sprintf "  \"host\": %s,\n"
        (json_obj
           [
             ("cores", string_of_int h.cores);
             ("ocaml", json_string h.ocaml);
             ("commit", json_string h.commit);
             ("profile", json_string h.profile);
           ]);
      Printf.sprintf "  \"rows\": %s,\n" (json_list (List.map row t.rows));
      Printf.sprintf "  \"checks\": %s\n" (json_list (List.map check t.checks));
      "}\n";
    ]

(* {1 Terminal} *)

let pp_fields ppf fields =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
    (fun ppf (k, v) -> Format.fprintf ppf "%s %s" k (value_string v))
    ppf fields

let pp ppf t =
  let h = t.host in
  Format.fprintf ppf "%s bench%s, seeds %s@." t.benchmark
    (if t.quick then " (quick)" else "")
    (String.concat "," (List.map Int64.to_string t.seeds));
  Format.fprintf ppf "host: %d cores, OCaml %s, commit %s, %s profile@." h.cores h.ocaml h.commit
    h.profile;
  List.iter
    (fun (r : row) ->
      let measured = List.filter (fun (_, v) -> value_string v <> "null") (e2e_fields r.e2e) in
      if r.config = [] then Format.fprintf ppf "  %s@." r.name
      else Format.fprintf ppf "  %s: @[<hov>%a@]@." r.name pp_fields r.config;
      if measured <> [] then Format.fprintf ppf "    e2e: @[<hov>%a@]@." pp_fields measured;
      if r.layers <> [] then Format.fprintf ppf "    @[<hov>%a@]@." pp_fields r.layers)
    t.rows;
  List.iter
    (fun (c : check) ->
      Format.fprintf ppf "  %s %s: %s (%s)@."
        (if c.pass then "PASS" else "FAIL")
        c.name (value_string c.value) c.bound)
    t.checks;
  Format.fprintf ppf "  gate: %s@." (if healthy t then "PASS" else "FAIL")
