open Moldable_model
open Moldable_graph

type entry = {
  workload : string;
  model : Speedup.kind;
  n : int;
  p : int;
  makespan : float;
  area_bound : float;
  cp_bound : float;
  lower_bound : float;
  ratio : float;
  proven_bound : float;
  within_bound : bool;
}

(* Both published tables live in the theory library, keyed by family. *)
let published paper_upper kind =
  match Moldable_theory.Model_bounds.family_of_kind kind with
  | Some family -> paper_upper family
  | None -> infinity

let table1_upper_bound = published Moldable_theory.Model_bounds.paper_upper
let improved_upper_bound =
  published Moldable_theory.Improved_bounds.paper_upper

let ratio ~makespan ~lower_bound =
  if lower_bound > 0. then makespan /. lower_bound else 1.

let kind_of_dag dag =
  let n = Dag.n dag in
  if n = 0 then Speedup.Kind_arbitrary
  else begin
    let k0 = Speedup.kind (Dag.task dag 0).Task.speedup in
    let mixed = ref false in
    for i = 1 to n - 1 do
      if Speedup.kind (Dag.task dag i).Task.speedup <> k0 then mixed := true
    done;
    if !mixed then Speedup.Kind_arbitrary else k0
  end

let of_run ?model ?proven_bound ~workload ~p ~makespan dag =
  let b = Bounds.compute ~p dag in
  let model = match model with Some k -> k | None -> kind_of_dag dag in
  let area_bound = b.Bounds.a_min_total /. float_of_int p in
  let lower_bound = b.Bounds.lower_bound in
  let ratio = ratio ~makespan ~lower_bound in
  let proven_bound =
    match proven_bound with
    | Some b -> b
    | None -> table1_upper_bound model
  in
  {
    workload;
    model;
    n = Dag.n dag;
    p;
    makespan;
    area_bound;
    cp_bound = b.Bounds.c_min;
    lower_bound;
    ratio;
    proven_bound;
    within_bound = Moldable_util.Fcmp.leq ratio proven_bound;
  }

type summary = {
  s_workload : string;
  s_model : Speedup.kind;
  runs : int;
  worst : float;
  mean : float;
  s_proven_bound : float;
  all_within : bool;
}

let summarize entries =
  let groups = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let key = (e.workload, e.model) in
      let prev = try Hashtbl.find groups key with Not_found -> [] in
      Hashtbl.replace groups key (e :: prev))
    entries;
  Hashtbl.fold
    (fun (workload, model) es acc ->
      let runs = List.length es in
      let worst = List.fold_left (fun m e -> Float.max m e.ratio) 0. es in
      let sum = List.fold_left (fun s e -> s +. e.ratio) 0. es in
      {
        s_workload = workload;
        s_model = model;
        runs;
        worst;
        mean = sum /. float_of_int runs;
        s_proven_bound = table1_upper_bound model;
        all_within = List.for_all (fun e -> e.within_bound) es;
      }
      :: acc)
    groups []
  |> List.sort (fun a b ->
         match String.compare a.s_workload b.s_workload with
         | 0 ->
           (* Constructor-declaration order, as polymorphic compare gave. *)
           let rank = function
             | Speedup.Kind_roofline -> 0
             | Speedup.Kind_communication -> 1
             | Speedup.Kind_amdahl -> 2
             | Speedup.Kind_general -> 3
             | Speedup.Kind_power -> 4
             | Speedup.Kind_arbitrary -> 5
           in
           Int.compare (rank a.s_model) (rank b.s_model)
         | c -> c)

module J = Moldable_obs.Json

let to_json entries =
  J.Obj
    [
      ( "runs",
        J.List
          (List.map
             (fun e ->
               J.Obj
                 [
                   ("workload", J.Str e.workload);
                   ("model", J.Str (Speedup.kind_name e.model));
                   ("n", J.int e.n); ("p", J.int e.p);
                   ("makespan", J.Num e.makespan);
                   ("area_bound", J.Num e.area_bound);
                   ("cp_bound", J.Num e.cp_bound);
                   ("lower_bound", J.Num e.lower_bound);
                   ("ratio", J.Num e.ratio);
                   ("proven_bound", J.Num e.proven_bound);
                   ("within_bound", J.Bool e.within_bound);
                 ])
             entries) );
      ( "summary",
        J.List
          (List.map
             (fun s ->
               J.Obj
                 [
                   ("workload", J.Str s.s_workload);
                   ("model", J.Str (Speedup.kind_name s.s_model));
                   ("runs", J.int s.runs);
                   ("worst", J.Num s.worst); ("mean", J.Num s.mean);
                   ("proven_bound", J.Num s.s_proven_bound);
                   ("all_within", J.Bool s.all_within);
                 ])
             (summarize entries)) );
    ]

let table entries =
  let tab =
    Moldable_util.Texttab.create
      ~headers:
        [ "workload"; "model"; "runs"; "worst ratio"; "mean ratio";
          "proven bound"; "within" ]
  in
  List.iter
    (fun s ->
      Moldable_util.Texttab.add_row tab
        [
          s.s_workload;
          Speedup.kind_name s.s_model;
          string_of_int s.runs;
          Printf.sprintf "%.4f" s.worst;
          Printf.sprintf "%.4f" s.mean;
          (if Float.is_finite s.s_proven_bound then
             Printf.sprintf "%.2f" s.s_proven_bound
           else "-");
          (if s.all_within then "yes" else "NO");
        ])
    (summarize entries);
  Moldable_util.Texttab.render tab

type comparison = {
  c_workload : string;
  c_model : Speedup.kind;
  c_runs : int;
  original_worst : float;
  original_mean : float;
  improved_worst : float;
  improved_mean : float;
  original_bound : float;
  improved_bound : float;
  c_all_within : bool;
}

let compare_runs ~original ~improved =
  let so = summarize original and si = summarize improved in
  (* Both lists come from the same instance set, so the grouped summaries
     pair off one-to-one; a policy seen on only one side is dropped rather
     than reported with fabricated zeros. *)
  List.filter_map
    (fun o ->
      List.find_opt
        (fun i ->
          String.equal i.s_workload o.s_workload && i.s_model = o.s_model)
        si
      |> Option.map (fun i ->
             let original_bound = table1_upper_bound o.s_model in
             let improved_bound = improved_upper_bound o.s_model in
             {
               c_workload = o.s_workload;
               c_model = o.s_model;
               c_runs = o.runs;
               original_worst = o.worst;
               original_mean = o.mean;
               improved_worst = i.worst;
               improved_mean = i.mean;
               original_bound;
               improved_bound;
               c_all_within =
                 Moldable_util.Fcmp.leq o.worst original_bound
                 && Moldable_util.Fcmp.leq i.worst improved_bound;
             }))
    so

let comparison_table comparisons =
  let fin fmt x =
    if Float.is_finite x then Printf.sprintf fmt x else "-"
  in
  let tab =
    Moldable_util.Texttab.create
      ~headers:
        [ "workload"; "model"; "runs"; "orig worst"; "impr worst";
          "orig mean"; "impr mean"; "orig bound"; "impr bound"; "within" ]
  in
  List.iter
    (fun c ->
      Moldable_util.Texttab.add_row tab
        [
          c.c_workload;
          Speedup.kind_name c.c_model;
          string_of_int c.c_runs;
          Printf.sprintf "%.4f" c.original_worst;
          Printf.sprintf "%.4f" c.improved_worst;
          Printf.sprintf "%.4f" c.original_mean;
          Printf.sprintf "%.4f" c.improved_mean;
          fin "%.2f" c.original_bound;
          fin "%.2f" c.improved_bound;
          (if c.c_all_within then "yes" else "NO");
        ])
    comparisons;
  Moldable_util.Texttab.render tab

let comparison_to_json comparisons =
  J.Obj
    [
      ( "comparison",
        J.List
          (List.map
             (fun c ->
               J.Obj
                 [
                   ("workload", J.Str c.c_workload);
                   ("model", J.Str (Speedup.kind_name c.c_model));
                   ("runs", J.int c.c_runs);
                   ("original_worst", J.Num c.original_worst);
                   ("original_mean", J.Num c.original_mean);
                   ("improved_worst", J.Num c.improved_worst);
                   ("improved_mean", J.Num c.improved_mean);
                   ("original_bound", J.Num c.original_bound);
                   ("improved_bound", J.Num c.improved_bound);
                   ("all_within", J.Bool c.c_all_within);
                 ])
             comparisons) );
    ]

let pp_entry ppf e =
  Format.fprintf ppf
    "%s/%s n=%d P=%d: makespan=%.4f  A_min/P=%.4f  C_min=%.4f  LB=%.4f  \
     ratio=%.4f  bound=%s%s"
    e.workload (Speedup.kind_name e.model) e.n e.p e.makespan e.area_bound
    e.cp_bound e.lower_bound e.ratio
    (if Float.is_finite e.proven_bound then
       Printf.sprintf "%.2f" e.proven_bound
     else "-")
    (if e.within_bound then "" else "  [EXCEEDS BOUND]")
