(* Entry point: perfbench --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload (or [all] of them in turn), checks its outputs, and
   prints human-readable metric lines followed by a one-line JSON result.
   With --trace 1 the per-layer metrics are reported instead of the
   end-to-end ones, and the recorded spans are written under .perfbench/
   in the working directory. *)

let workloads =
  [
    ("batch_wide", (Batch_wide.untraced, Batch_wide.traced));
    ("sweep_mixed", (Sweep_mixed.untraced, Sweep_mixed.traced));
    ("daemon_online", (Daemon_online.untraced, Daemon_online.traced));
  ]

let run_one ~seed ~seconds ~traced name =
  let untraced_f, traced_f = List.assoc name workloads in
  let r = Outcome.create () in
  Mono.Span.on := traced;
  (try
     if traced then traced_f r ~seed ~seconds else untraced_f r ~seed ~seconds
   with e -> Outcome.check r ("exception: " ^ Printexc.to_string e) false);
  if traced then begin
    (try Unix.mkdir ".perfbench" 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Mono.Span.write (Printf.sprintf ".perfbench/spans-%s-%d.tsv" name seed)
  end;
  r

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run, or all");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time per workload");
      ("--trace", Arg.Set_int trace, "0|1 per-layer run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let names =
    if !workload = "all" then List.map fst workloads
    else if List.mem_assoc !workload workloads then [ !workload ]
    else begin
      Printf.eprintf "unknown workload %S (known: all, %s)\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
    end
  in
  let traced = !trace <> 0 in
  let results =
    List.map
      (fun name -> (name, run_one ~seed:!seed ~seconds:!seconds ~traced name))
      names
  in
  let r =
    match results with
    | [ (name, r) ] ->
      Outcome.print_human ~workload:name r;
      r
    | _ ->
      (* One combined result: metrics are prefixed with their workload. *)
      let all = Outcome.create () in
      List.iter
        (fun (name, r) ->
          Outcome.print_human ~workload:name r;
          Outcome.ops all ~attempted:r.Outcome.attempted ~failed:r.Outcome.failed;
          all.Outcome.checks <- r.Outcome.checks @ all.Outcome.checks;
          all.Outcome.metrics <-
            List.map
              (fun m -> { m with Outcome.name = name ^ "." ^ m.Outcome.name })
              r.Outcome.metrics
            @ all.Outcome.metrics)
        results;
      all
  in
  Outcome.print_json r;
  exit (if Outcome.correct r then 0 else 1)
