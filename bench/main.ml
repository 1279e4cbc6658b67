(* Entry point: regenerate the paper's tables and figures.
   Usage: main.exe [table1|table2|table3|table4|fig3|fig4|fig5|fig6|microbench]...
   With no arguments, everything runs in paper order.
   FACILE_CORPUS_SIZE controls the corpus size (default 500). *)

let experiments =
  [ "table1", Experiments.table1;
    "table2", Experiments.table2;
    "table3", Experiments.table3;
    "table4", Experiments.table4;
    "fig3", Experiments.fig3;
    "fig4", Experiments.fig4;
    "fig5", Experiments.fig5;
    "fig6", Experiments.fig6;
    "microbench", Experiments.microbench;
    "perf", Experiments.perf;
    "ablations", Experiments.ablations;
    "region", Experiments.region;
    "notion", Experiments.notion;
    "scale", Experiments.scale ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f ->
        let t0 = Unix.gettimeofday () in
        f ();
        Printf.printf "\n[%s done in %.1fs]\n%!" name
          (Unix.gettimeofday () -. t0)
      | None ->
        Printf.eprintf
          "unknown experiment %S; available: %s\n" name
          (String.concat ", " (List.map fst experiments));
        exit 1)
    requested
