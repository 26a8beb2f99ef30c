open Moldable_model

let sanitize_label s =
  String.map (fun c -> if c = ' ' || c = '\t' then '_' else c) s

let speedup_to_line = function
  | Speedup.Roofline { w; ptilde } ->
    Ok (Printf.sprintf "roofline %.17g %d" w ptilde)
  | Speedup.Communication { w; c } -> Ok (Printf.sprintf "comm %.17g %.17g" w c)
  | Speedup.Amdahl { w; d } -> Ok (Printf.sprintf "amdahl %.17g %.17g" w d)
  | Speedup.General { w; ptilde; d; c } ->
    Ok (Printf.sprintf "general %.17g %d %.17g %.17g" w ptilde d c)
  | Speedup.Power { w; alpha } ->
    Ok (Printf.sprintf "power %.17g %.17g" w alpha)
  | Speedup.Arbitrary { name; _ } ->
    Error (Printf.sprintf "arbitrary speedup %S cannot be serialized" name)

let to_string dag =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "# moldable task graph v1\n";
  let rec tasks i =
    if i >= Dag.n dag then Ok ()
    else begin
      let t = Dag.task dag i in
      match speedup_to_line t.Task.speedup with
      | Error _ as e -> e
      | Ok model ->
        Buffer.add_string buf
          (Printf.sprintf "task %d %s %s\n" i
             (sanitize_label t.Task.label)
             model);
        tasks (i + 1)
    end
  in
  match tasks 0 with
  | Error e -> Error e
  | Ok () ->
    List.iter
      (fun (i, j) -> Buffer.add_string buf (Printf.sprintf "edge %d %d\n" i j))
      (Dag.edges dag);
    Ok (Buffer.contents buf)

let parse_speedup lineno tokens =
  let fail fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let float_of s =
    match float_of_string_opt s with
    | Some f -> Ok f
    | None -> fail "line %d: bad float %S" lineno s
  in
  let int_of s =
    match int_of_string_opt s with
    | Some i -> Ok i
    | None -> fail "line %d: bad int %S" lineno s
  in
  let ( let* ) = Result.bind in
  match tokens with
  | [ "roofline"; w; ptilde ] ->
    let* w = float_of w in
    let* ptilde = int_of ptilde in
    Ok (Speedup.Roofline { w; ptilde })
  | [ "comm"; w; c ] ->
    let* w = float_of w in
    let* c = float_of c in
    Ok (Speedup.Communication { w; c })
  | [ "amdahl"; w; d ] ->
    let* w = float_of w in
    let* d = float_of d in
    Ok (Speedup.Amdahl { w; d })
  | [ "power"; w; alpha ] ->
    let* w = float_of w in
    let* alpha = float_of alpha in
    Ok (Speedup.Power { w; alpha })
  | [ "general"; w; ptilde; d; c ] ->
    let* w = float_of w in
    let* ptilde = int_of ptilde in
    let* d = float_of d in
    let* c = float_of c in
    Ok (Speedup.General { w; ptilde; d; c })
  | kind :: _ -> fail "line %d: unknown or malformed model %S" lineno kind
  | [] -> fail "line %d: missing speedup model" lineno

(* Structural validation over the parsed declarations, each error naming
   the offending line.  [Dag.create] rechecks the same invariants, but its
   diagnostics cannot point back into the source text. *)
let validate tasks edges =
  let ( let* ) = Result.bind in
  (* Duplicate ids, naming both declarations. *)
  let seen = Hashtbl.create 16 in
  let* () =
    List.fold_left
      (fun acc (lineno, (t : Task.t)) ->
        let* () = acc in
        match Hashtbl.find_opt seen t.Task.id with
        | Some first ->
          Error
            (Printf.sprintf
               "line %d: duplicate task id %d (first declared at line %d)"
               lineno t.Task.id first)
        | None ->
          Hashtbl.add seen t.Task.id lineno;
          Ok ())
      (Ok ()) tasks
  in
  let n = List.length tasks in
  (* Ids must cover 0..n-1: with duplicates excluded, any id outside the
     range implies a gap somewhere. *)
  let* () =
    List.fold_left
      (fun acc (lineno, (t : Task.t)) ->
        let* () = acc in
        if t.Task.id < 0 || t.Task.id >= n then
          Error
            (Printf.sprintf
               "line %d: task id %d out of range (%d task(s) declared, ids \
                must cover 0..%d)"
               lineno t.Task.id n (n - 1))
        else Ok ())
      (Ok ()) tasks
  in
  let* () =
    List.fold_left
      (fun acc (lineno, i, j) ->
        let* () = acc in
        if i = j then Error (Printf.sprintf "line %d: self-edge %d -> %d" lineno i j)
        else
          let undeclared =
            if not (Hashtbl.mem seen i) then Some i
            else if not (Hashtbl.mem seen j) then Some j
            else None
          in
          match undeclared with
          | Some k ->
            Error
              (Printf.sprintf
                 "line %d: edge %d -> %d references undeclared task %d"
                 lineno i j k)
          | None -> Ok ())
      (Ok ()) edges
  in
  (* Cycle detection by Kahn elimination; any edge whose endpoints both
     survive lies on (or feeds) a cycle — report the first such by line. *)
  let indeg = Array.make n 0 in
  let succ = Array.make n [] in
  List.iter
    (fun (_, i, j) ->
      indeg.(j) <- indeg.(j) + 1;
      succ.(i) <- j :: succ.(i))
    edges;
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indeg;
  let removed = ref 0 in
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    incr removed;
    List.iter
      (fun j ->
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then Queue.add j queue)
      succ.(i)
  done;
  if !removed = n then Ok ()
  else
    let on_cycle =
      List.find_opt (fun (_, i, j) -> indeg.(i) > 0 && indeg.(j) > 0) edges
    in
    match on_cycle with
    | Some (lineno, i, j) ->
      Error (Printf.sprintf "line %d: edge %d -> %d lies on a cycle" lineno i j)
    | None -> Error "the precedence graph contains a cycle"

let of_string text =
  let ( let* ) = Result.bind in
  let lines = String.split_on_char '\n' text in
  let rec go lineno tasks edges = function
    | [] -> Ok (List.rev tasks, List.rev edges)
    | line :: rest ->
      let line = String.trim line in
      if line = "" || line.[0] = '#' then go (lineno + 1) tasks edges rest
      else begin
        let tokens =
          List.filter (fun s -> s <> "") (String.split_on_char ' ' line)
        in
        match tokens with
        | "task" :: id :: label :: model -> (
          match int_of_string_opt id with
          | None -> Error (Printf.sprintf "line %d: bad task id %S" lineno id)
          | Some id ->
            let* speedup = parse_speedup lineno model in
            let task =
              try Ok (Task.make ~label ~id speedup)
              with Invalid_argument msg ->
                Error (Printf.sprintf "line %d: %s" lineno msg)
            in
            let* task = task in
            go (lineno + 1) ((lineno, task) :: tasks) edges rest)
        | [ "edge"; i; j ] -> (
          match (int_of_string_opt i, int_of_string_opt j) with
          | Some i, Some j -> go (lineno + 1) tasks ((lineno, i, j) :: edges) rest
          | _ -> Error (Printf.sprintf "line %d: bad edge" lineno))
        | tok :: _ ->
          Error (Printf.sprintf "line %d: unknown declaration %S" lineno tok)
        | [] -> go (lineno + 1) tasks edges rest
      end
  in
  let* tasks, edges = go 1 [] [] lines in
  let* () = validate tasks edges in
  (* Declaration order is free: tasks sort by id (validated dense above). *)
  let tasks =
    List.sort
      (fun (_, (a : Task.t)) (_, (b : Task.t)) -> Int.compare a.Task.id b.Task.id)
      tasks
    |> List.map snd
  in
  let edges = List.map (fun (_, i, j) -> (i, j)) edges in
  try Ok (Dag.create ~tasks ~edges)
  with Invalid_argument msg -> Error msg

let to_file path dag =
  match to_string dag with
  | Error _ as e -> e
  | Ok s -> (
    (* The explicit flush surfaces a failed write; [with_open_text] closes
       the channel on every path. *)
    match
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc s;
          Out_channel.flush oc)
    with
    | () -> Ok ()
    | exception Sys_error msg -> Error msg)

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> of_string text
  | exception Sys_error msg -> Error msg
