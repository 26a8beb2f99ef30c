open Moldable_graph
open Moldable_sim

type site =
  | Completion_time of { task_id : int; attempt : int }
  | Batch_merge of { task_id : int; attempt : int }
  | Trace_order of { index : int }
  | Precedence of { pred : int; succ : int }
  | Proc_set of { task_id : int; attempt : int }
  | Overlap of { proc : int; first : int; second : int }
  | Allocation of { task_id : int }
  | Makespan
  | Lower_bound
  | Ratio

type divergence = {
  site : site;
  float_value : float;
  exact_value : string;
  error : float;
  explained : bool;
  detail : string;
}

type report = {
  checks : int;
  divergences : divergence list;
  n_explained : int;
  n_unexplained : int;
}

let ok r = r.n_unexplained = 0

let site_to_string = function
  | Completion_time { task_id; attempt } ->
    Printf.sprintf "completion_time(task=%d, attempt=%d)" task_id attempt
  | Batch_merge { task_id; attempt } ->
    Printf.sprintf "batch_merge(task=%d, attempt=%d)" task_id attempt
  | Trace_order { index } -> Printf.sprintf "trace_order(index=%d)" index
  | Precedence { pred; succ } ->
    Printf.sprintf "precedence(%d -> %d)" pred succ
  | Proc_set { task_id; attempt } ->
    Printf.sprintf "proc_set(task=%d, attempt=%d)" task_id attempt
  | Overlap { proc; first; second } ->
    Printf.sprintf "overlap(proc=%d, tasks=%d/%d)" proc first second
  | Allocation { task_id } -> Printf.sprintf "allocation(task=%d)" task_id
  | Makespan -> "makespan"
  | Lower_bound -> "lower_bound"
  | Ratio -> "ratio"

let pp_divergence ppf d =
  Format.fprintf ppf "%s [%s]: float=%.17g exact=%s rel-excess=%.3g — %s"
    (site_to_string d.site)
    (if d.explained then "explained" else "UNEXPLAINED")
    d.float_value d.exact_value d.error d.detail

let pp ppf r =
  Format.fprintf ppf
    "@[<v>shadow replay: %d checks, %d divergences (%d explained, %d \
     unexplained)"
    r.checks
    (List.length r.divergences)
    r.n_explained r.n_unexplained;
  List.iter (fun d -> Format.fprintf ppf "@,  %a" pp_divergence d) r.divergences;
  Format.fprintf ppf "@]"

let divergence_to_json d =
  let module J = Moldable_obs.Json in
  J.Obj
    [
      ("site", J.Str (site_to_string d.site));
      ("float", J.Num d.float_value);
      ("exact", J.Str d.exact_value);
      ("rel_excess", J.Num d.error);
      ("explained", J.Bool d.explained);
      ("detail", J.Str d.detail);
    ]

let report_to_json r =
  let module J = Moldable_obs.Json in
  J.Obj
    [
      ("checks", J.int r.checks);
      ("n_explained", J.int r.n_explained);
      ("n_unexplained", J.int r.n_unexplained);
      ("divergences", J.List (List.map divergence_to_json r.divergences));
    ]

let check ?mu ?improved ?(eps = Moldable_util.Fcmp.default_eps) ?(tol = 1e-12)
    ?(band = 1e-13) ~dag ~p (r : Sim_core.result) =
  (match (mu, improved) with
  | Some _, Some _ ->
    invalid_arg "Shadow.check: mu and improved are mutually exclusive"
  | _ -> ());
  let eps_r = Rat.of_float eps in
  let tol_r = Rat.of_float tol in
  let batch_r = Rat.of_float Event_queue.batch_eps in
  let n = Dag.n dag in
  let attempts = Metrics.attempts r.Sim_core.metrics in
  let makespan = Schedule.makespan r.Sim_core.schedule in
  let checks = ref 0 in
  let divs = ref [] in
  let flag site ~float_value ~exact_value ~error ~explained detail =
    divs := { site; float_value; exact_value; error; explained; detail } :: !divs
  in
  (* Exact execution time of a task at an allocation, memoized — the same
     (task, q) pair recurs across attempts, edges and the occupancy sweep. *)
  let time_memo : (int * int, Rat.t) Hashtbl.t = Hashtbl.create 64 in
  let etime tid q =
    match Hashtbl.find_opt time_memo (tid, q) with
    | Some t -> t
    | None ->
      let t = Exact_speedup.time (Dag.task dag tid).Moldable_model.Task.speedup q in
      Hashtbl.replace time_memo (tid, q) t;
      t
  in
  let exact_finish (a : Metrics.attempt) =
    Rat.add (Rat.of_float a.Metrics.start)
      (etime a.Metrics.task_id a.Metrics.nprocs)
  in
  (* Relative slack of |a - b| against [allow * max 1 (max |a| |b|)]; a
     positive excess means the allowance is violated. *)
  let rel_excess ~allow a b =
    let diff = Rat.abs (Rat.sub a b) in
    let scale = Rat.max Rat.one (Rat.max (Rat.abs a) (Rat.abs b)) in
    Rat.to_float (Rat.sub (Rat.div diff scale) allow)
  in
  let within ~allow a b = rel_excess ~allow a b <= 0. in

  (* --- trace chronology ---------------------------------------------- *)
  let rec trace_order i = function
    | (t0, _) :: ((t1, _) :: _ as rest) ->
      incr checks;
      if not (t0 <= t1) then
        flag (Trace_order { index = i }) ~float_value:t1
          ~exact_value:(Printf.sprintf "%.17g" t0)
          ~error:(t0 -. t1) ~explained:false
          "trace timestamps must be non-decreasing";
      trace_order (i + 1) rest
    | _ -> ()
  in
  trace_order 0 (Metrics.events_from r.Sim_core.metrics 0);

  (* --- processor sets ------------------------------------------------- *)
  List.iter
    (fun (a : Metrics.attempt) ->
      incr checks;
      let procs = a.Metrics.procs in
      let bad = ref None in
      if Array.length procs <> a.Metrics.nprocs then
        bad := Some "length differs from nprocs";
      Array.iteri
        (fun i q ->
          if q < 0 || q >= p then bad := Some "processor id out of range"
          else if i > 0 && procs.(i - 1) >= q then
            bad := Some "processor ids not strictly ascending")
        procs;
      match !bad with
      | None -> ()
      | Some msg ->
        flag
          (Proc_set { task_id = a.Metrics.task_id; attempt = a.Metrics.attempt })
          ~float_value:(float_of_int a.Metrics.nprocs)
          ~exact_value:(string_of_int (Array.length procs))
          ~error:infinity ~explained:false msg)
    attempts;

  (* --- completion stamps (schedule carries each task's own stamp) ----- *)
  for i = 0 to n - 1 do
    let pl = Schedule.placement r.Sim_core.schedule i in
    incr checks;
    let ex =
      Rat.add (Rat.of_float pl.Schedule.start) (etime i pl.Schedule.nprocs)
    in
    let fl = Rat.of_float pl.Schedule.finish in
    if not (within ~allow:tol_r fl ex) then
      flag
        (Completion_time { task_id = i; attempt = 0 })
        ~float_value:pl.Schedule.finish ~exact_value:(Rat.to_string ex)
        ~error:(rel_excess ~allow:tol_r fl ex)
        ~explained:false
        (Printf.sprintf "finish stamp vs exact start + t(%d)" pl.Schedule.nprocs)
  done;

  (* --- batch instants (attempts carry the batch's latest stamp) ------- *)
  let batch_allow = Rat.add batch_r tol_r in
  List.iter
    (fun (a : Metrics.attempt) ->
      incr checks;
      let ex = exact_finish a in
      let fl = Rat.of_float a.Metrics.finish in
      if not (within ~allow:batch_allow fl ex) then
        flag
          (Batch_merge { task_id = a.Metrics.task_id; attempt = a.Metrics.attempt })
          ~float_value:a.Metrics.finish ~exact_value:(Rat.to_string ex)
          ~error:(rel_excess ~allow:batch_allow fl ex)
          ~explained:false
          "batch instant strayed beyond the batching tolerance from the \
           exact completion")
    attempts;

  (* --- precedence ------------------------------------------------------ *)
  let attempts_of = Array.make n [] in
  List.iter
    (fun (a : Metrics.attempt) ->
      attempts_of.(a.Metrics.task_id) <- a :: attempts_of.(a.Metrics.task_id))
    attempts;
  List.iter
    (fun (i, j) ->
      let pl = Schedule.placement r.Sim_core.schedule i in
      let pred_done =
        Rat.add (Rat.of_float pl.Schedule.start) (etime i pl.Schedule.nprocs)
      in
      List.iter
        (fun (a : Metrics.attempt) ->
          incr checks;
          let start = Rat.of_float a.Metrics.start in
          (* start >= pred_done - allowance * scale *)
          let scale = Rat.max Rat.one (Rat.abs pred_done) in
          let lo = Rat.sub pred_done (Rat.mul batch_allow scale) in
          if Rat.compare start lo < 0 then
            flag
              (Precedence { pred = i; succ = j })
              ~float_value:a.Metrics.start
              ~exact_value:(Rat.to_string pred_done)
              ~error:(Rat.to_float (Rat.div (Rat.sub pred_done start) scale))
              ~explained:false
              (Printf.sprintf "attempt %d of task %d started before the \
                               exact completion of predecessor %d"
                 a.Metrics.attempt j i))
        attempts_of.(j))
    (Dag.edges dag);

  (* --- per-processor occupancy ---------------------------------------- *)
  let per_proc = Array.make p [] in
  List.iter
    (fun (a : Metrics.attempt) ->
      let s = Rat.of_float a.Metrics.start in
      let e = exact_finish a in
      Array.iter
        (fun q ->
          if q >= 0 && q < p then
            per_proc.(q) <- (s, e, a.Metrics.task_id) :: per_proc.(q))
        a.Metrics.procs)
    attempts;
  Array.iteri
    (fun q ivs ->
      let ivs =
        List.sort (fun (s1, _, _) (s2, _, _) -> Rat.compare s1 s2) ivs
      in
      let rec sweep = function
        | (s1, e1, t1) :: (((s2, _, t2) :: _) as rest) ->
          incr checks;
          let scale = Rat.max Rat.one (Rat.abs e1) in
          let lo = Rat.sub e1 (Rat.mul batch_allow scale) in
          if Rat.compare s2 lo < 0 then
            flag
              (Overlap { proc = q; first = t1; second = t2 })
              ~float_value:(Rat.to_float s2) ~exact_value:(Rat.to_string e1)
              ~error:(Rat.to_float (Rat.div (Rat.sub e1 s2) scale))
              ~explained:false
              (Printf.sprintf "task %d exactly overlaps task %d on \
                               processor %d (prev exact end vs next start)"
                 t1 t2 q)
          else ignore s1;
          sweep rest
        | _ -> ()
      in
      sweep ivs)
    per_proc;

  (* --- allocation decisions: Algorithm 2 when [mu] is known, the improved
     allocator when [improved] supplies its per-task (mu, rho) ----------- *)
  let decider =
    match (mu, improved) with
    | Some mu_f, None ->
      let mu_r = Rat.of_float mu_f in
      Some (fun eps task_eps -> Exact_alg2.decide ~eps ~mu:mu_r task_eps)
    | None, Some params_of ->
      Some
        (fun eps (a : Exact_alg2.analyzed) ->
          let mu_f, rho_f = (params_of : _ -> float * float) a.Exact_alg2.task in
          Exact_alg2.decide_improved ~eps ~mu:(Rat.of_float mu_f)
            ~rho:(Rat.of_float rho_f) a)
    | None, None | Some _, Some _ -> None
  in
  (match decider with
  | None -> ()
  | Some decide ->
    let band_r = Rat.of_float band in
    let eps_lo = Rat.sub eps_r band_r and eps_hi = Rat.add eps_r band_r in
    for i = 0 to n - 1 do
      let task = Dag.task dag i in
      let got = (Schedule.placement r.Sim_core.schedule i).Schedule.nprocs in
      incr checks;
      let a = Exact_alg2.analyze ~eps:eps_r ~p task in
      let d = decide eps_r a in
      if d.Exact_alg2.final_alloc <> got then begin
        (* Envelope classification: the float answer is explained when it
           falls between the exact decisions at eps perturbed by the
           rounding band — i.e. the disagreement lives on a tolerant-
           comparison boundary that float rounding can legitimately flip. *)
        let d_lo = decide eps_lo (Exact_alg2.analyze ~eps:eps_lo ~p task) in
        let d_hi = decide eps_hi (Exact_alg2.analyze ~eps:eps_hi ~p task) in
        let lo = min d_lo.Exact_alg2.final_alloc d_hi.Exact_alg2.final_alloc in
        let hi = max d_lo.Exact_alg2.final_alloc d_hi.Exact_alg2.final_alloc in
        let explained = got >= lo && got <= hi in
        flag
          (Allocation { task_id = i })
          ~float_value:(float_of_int got)
          ~exact_value:(string_of_int d.Exact_alg2.final_alloc)
          ~error:(float_of_int (abs (got - d.Exact_alg2.final_alloc)))
          ~explained
          (Printf.sprintf
             "float alloc %d vs exact %d (p*=%d cap=%d cap_paper=%d bound=%s \
              band-envelope=[%d,%d])"
             got d.Exact_alg2.final_alloc d.Exact_alg2.p_star
             d.Exact_alg2.dcap d.Exact_alg2.dcap_paper
             (Rat.to_string d.Exact_alg2.bound)
             lo hi)
      end
    done);

  (* --- makespan, Lemma 2 lower bound, ratio denominator ---------------- *)
  (if n > 0 then begin
     incr checks;
     let ex_makespan =
       List.fold_left
         (fun acc a -> Rat.max acc (exact_finish a))
         Rat.zero attempts
     in
     let fl = Rat.of_float makespan in
     if not (within ~allow:batch_allow fl ex_makespan) then
       flag Makespan ~float_value:makespan
         ~exact_value:(Rat.to_string ex_makespan)
         ~error:(rel_excess ~allow:batch_allow fl ex_makespan)
         ~explained:false "makespan vs exact latest completion"
   end);
  (if n > 0 then begin
     let fb = Bounds.compute ~p dag in
     let eb = Exact_alg2.lower_bound ~eps:eps_r ~p dag in
     (* Linear float summation over n terms accumulates up to ~n ulps. *)
     let lb_allow = Rat.add tol_r (Rat.of_float (4e-16 *. float_of_int n)) in
     incr checks;
     let fl = Rat.of_float fb.Bounds.lower_bound in
     let has_float_image =
       Array.exists
         (fun t ->
           Exact_speedup.exactness t.Moldable_model.Task.speedup
           = Exact_speedup.Float_image)
         (Dag.tasks dag)
     in
     if not (within ~allow:lb_allow fl eb.Exact_alg2.lower_bound) then
       flag Lower_bound ~float_value:fb.Bounds.lower_bound
         ~exact_value:(Rat.to_string eb.Exact_alg2.lower_bound)
         ~error:(rel_excess ~allow:lb_allow fl eb.Exact_alg2.lower_bound)
         ~explained:has_float_image
         "float max(A_min/P, C_min) vs exact Lemma 2 bound";
     incr checks;
     let lb_pos_f = fb.Bounds.lower_bound > 0. in
     let lb_pos_e = Rat.sign eb.Exact_alg2.lower_bound > 0 in
     if lb_pos_f <> lb_pos_e then
       flag Ratio ~float_value:fb.Bounds.lower_bound
         ~exact_value:(Rat.to_string eb.Exact_alg2.lower_bound)
         ~error:infinity ~explained:false
         "ratio denominator positivity disagrees between float and exact"
     else if lb_pos_f then begin
       incr checks;
       let ratio_f = makespan /. fb.Bounds.lower_bound in
       let ratio_e =
         Rat.div (Rat.of_float makespan) eb.Exact_alg2.lower_bound
       in
       let ratio_allow = Rat.add batch_allow lb_allow in
       if not (within ~allow:ratio_allow (Rat.of_float ratio_f) ratio_e) then
         flag Ratio ~float_value:ratio_f ~exact_value:(Rat.to_string ratio_e)
           ~error:(rel_excess ~allow:ratio_allow (Rat.of_float ratio_f) ratio_e)
           ~explained:has_float_image
           "makespan / lower_bound vs exact ratio"
     end
   end);

  let divergences = List.rev !divs in
  let n_explained =
    List.length (List.filter (fun d -> d.explained) divergences)
  in
  {
    checks = !checks;
    divergences;
    n_explained;
    n_unexplained = List.length divergences - n_explained;
  }
