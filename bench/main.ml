(* Bench/experiment harness entry point.

   dune exec bench/main.exe                 -- every experiment
   dune exec bench/main.exe -- msg          -- one section (see DESIGN.md)
   dune exec bench/main.exe -- fig1 --csv out -- also dump each table as CSV

   Flags are accepted anywhere on the line (Bench_cli does the parsing).
   Exit codes: 0 on success or --help, 1 on an unknown section, 2 on a
   flag usage error. *)

let usage oc =
  output_string oc "usage: main.exe [--csv DIR] [section...]\n";
  output_string oc "sections:\n";
  List.iter
    (fun (name, _) -> Printf.fprintf oc "  %s\n" name)
    Dsm_experiments.Experiments.all

let run_section section =
  match List.assoc_opt section Dsm_experiments.Experiments.all with
  | Some run -> run ()
  | None ->
      Printf.printf "unknown section %S\n\n" section;
      usage stdout;
      exit 1

let () =
  match Dsm_experiments.Bench_cli.parse (List.tl (Array.to_list Sys.argv)) with
  | Dsm_experiments.Bench_cli.Help -> usage stdout
  | Dsm_experiments.Bench_cli.Unknown_flag flag ->
      Printf.eprintf "unknown flag %S\n\n" flag;
      usage stderr;
      exit 2
  | Dsm_experiments.Bench_cli.Missing_value flag ->
      Printf.eprintf "flag %S requires a value\n\n" flag;
      usage stderr;
      exit 2
  | Dsm_experiments.Bench_cli.Run { csv_dir; sections } -> (
      (match csv_dir with
      | Some dir ->
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          Dsm_experiments.Experiments.set_csv_dir (Some dir)
      | None -> ());
      match sections with
      | [] -> List.iter (fun (_, run) -> run ()) Dsm_experiments.Experiments.all
      | sections -> List.iter run_section sections)
