(* The benchmark program: runs one workload on one seed and prints, as
   its last line, one JSON object with the correctness verdict and the
   metrics (end-to-end ones untraced, per-layer ones with --trace 1).

     bench.exe --workload ingest|serve-ryw|cluster-mixed --seed N
               --seconds S --trace 0|1

   State (WAL files, cluster directories) lives under .ivmbench in the
   working directory and is removed at exit; the traced run's spans
   are written there as spans-<workload>-<seed>.tsv. *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload ingest|serve-ryw|cluster-mixed --seed N --seconds S \
     --trace 0|1";
  exit 2

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let run =
    match !workload with
    | "ingest" -> Ingest.run
    | "serve-ryw" -> Serve_ryw.run
    | "cluster-mixed" -> Cluster_mixed.run
    | _ -> usage ()
  in
  let dir = ".ivmbench" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let state_dir = Filename.concat dir (Printf.sprintf "state-%d" (Unix.getpid ())) in
  Bench_fs.rm_rf state_dir;
  Unix.mkdir state_dir 0o755;
  let spans_path =
    Filename.concat dir (Printf.sprintf "spans-%s-%d.tsv" !workload !seed)
  in
  let outcome =
    Fun.protect
      ~finally:(fun () -> Bench_fs.rm_rf state_dir)
      (fun () ->
        run ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~state_dir ~spans_path)
  in
  Outcome.print_table outcome;
  print_endline (Outcome.json ~trace:(!trace = 1) outcome);
  exit (if outcome.Outcome.correct && outcome.Outcome.failed = 0 then 0 else 1)
