open Moldable_util
open Moldable_model
open Moldable_graph

(* Sequentially numbered tasks with per-stage work scales; work gets a
   +/-25% jitter so tasks of one stage are not identical. *)
type builder = {
  rng : Rng.t;
  spec : Params.spec option;
  kind : Speedup.kind;
  mutable rev_tasks : Task.t list;
  mutable edges : (int * int) list;
  mutable next : int;
}

let builder ?spec ~rng ~kind () =
  { rng; spec; kind; rev_tasks = []; edges = []; next = 0 }

(* The work of a stage of scale 1. *)
let base_work = 100.

let add b ~label ~scale =
  let jitter = Rng.float_range b.rng 0.75 1.25 in
  let w = Float.max 1e-9 (scale *. jitter *. base_work) in
  let speedup = Params.with_work ?spec:b.spec b.rng b.kind ~w in
  let id = b.next in
  b.next <- id + 1;
  b.rev_tasks <- Task.make ~label ~id speedup :: b.rev_tasks;
  id

let edge b i j = b.edges <- (i, j) :: b.edges
let finish b = Dag.create ~tasks:(List.rev b.rev_tasks) ~edges:b.edges

let montage ?spec ~rng ~width ~kind () =
  if width < 2 then invalid_arg "Scientific.montage: need width >= 2";
  let b = builder ?spec ~rng ~kind () in
  let project =
    Array.init width (fun i -> add b ~label:(Printf.sprintf "mProject%d" i) ~scale:1.0)
  in
  (* One overlap fit per adjacent pair of projections. *)
  let diff =
    Array.init (width - 1) (fun i ->
        let d = add b ~label:(Printf.sprintf "mDiffFit%d" i) ~scale:0.1 in
        edge b project.(i) d;
        edge b project.(i + 1) d;
        d)
  in
  let concat = add b ~label:"mConcatFit" ~scale:0.2 in
  Array.iter (fun d -> edge b d concat) diff;
  let bgmodel = add b ~label:"mBgModel" ~scale:0.5 in
  edge b concat bgmodel;
  let background =
    Array.init width (fun i ->
        let g = add b ~label:(Printf.sprintf "mBackground%d" i) ~scale:0.1 in
        edge b bgmodel g;
        edge b project.(i) g;
        g)
  in
  let imgtbl = add b ~label:"mImgtbl" ~scale:0.1 in
  Array.iter (fun g -> edge b g imgtbl) background;
  let madd = add b ~label:"mAdd" ~scale:2.0 in
  edge b imgtbl madd;
  let shrink = add b ~label:"mShrink" ~scale:0.2 in
  edge b madd shrink;
  finish b

let epigenomics ?spec ~rng ~lanes ~fanout ~kind () =
  if lanes < 1 || fanout < 1 then
    invalid_arg "Scientific.epigenomics: need lanes, fanout >= 1";
  let b = builder ?spec ~rng ~kind () in
  let merges =
    List.init lanes (fun lane ->
        let split =
          add b ~label:(Printf.sprintf "fastqSplit%d" lane) ~scale:0.3
        in
        let maps =
          List.init fanout (fun i ->
              let filter =
                add b ~label:(Printf.sprintf "filter%d.%d" lane i) ~scale:0.2
              in
              let convert =
                add b ~label:(Printf.sprintf "sol2sanger%d.%d" lane i)
                  ~scale:0.1
              in
              let bfq =
                add b ~label:(Printf.sprintf "fastq2bfq%d.%d" lane i)
                  ~scale:0.1
              in
              let map =
                add b ~label:(Printf.sprintf "map%d.%d" lane i) ~scale:1.0
              in
              edge b split filter;
              edge b filter convert;
              edge b convert bfq;
              edge b bfq map;
              map)
        in
        let merge =
          add b ~label:(Printf.sprintf "mapMerge%d" lane) ~scale:0.3
        in
        List.iter (fun m -> edge b m merge) maps;
        merge)
  in
  let global_merge = add b ~label:"mapMergeGlobal" ~scale:0.5 in
  List.iter (fun m -> edge b m global_merge) merges;
  let index = add b ~label:"maqIndex" ~scale:0.4 in
  edge b global_merge index;
  let pileup = add b ~label:"pileup" ~scale:0.8 in
  edge b index pileup;
  finish b

let cybershake ?spec ~rng ~sites ~variations ~kind () =
  if sites < 1 || variations < 1 then
    invalid_arg "Scientific.cybershake: need sites, variations >= 1";
  let b = builder ?spec ~rng ~kind () in
  (* Two strain-Green-tensor generators dominate the work. *)
  let sgt_x = add b ~label:"genSGT_x" ~scale:10.0 in
  let sgt_y = add b ~label:"genSGT_y" ~scale:10.0 in
  let zip = add b ~label:"zipSeis" ~scale:0.5 in
  for s = 0 to sites - 1 do
    for v = 0 to variations - 1 do
      let synth =
        add b ~label:(Printf.sprintf "synth%d.%d" s v) ~scale:1.0
      in
      let peak =
        add b ~label:(Printf.sprintf "peakVal%d.%d" s v) ~scale:0.05
      in
      edge b sgt_x synth;
      edge b sgt_y synth;
      edge b synth peak;
      edge b peak zip
    done
  done;
  finish b

let ligo ?spec ~rng ~blocks ~per_block ~kind () =
  if blocks < 1 || per_block < 1 then
    invalid_arg "Scientific.ligo: need blocks, per_block >= 1";
  let b = builder ?spec ~rng ~kind () in
  let thincas =
    List.init blocks (fun blk ->
        let tmplt = add b ~label:(Printf.sprintf "tmpltBank%d" blk) ~scale:0.5 in
        let inspirals =
          List.init per_block (fun i ->
              let insp =
                add b ~label:(Printf.sprintf "inspiral%d.%d" blk i) ~scale:2.0
              in
              edge b tmplt insp;
              insp)
        in
        let thinca = add b ~label:(Printf.sprintf "thinca%d" blk) ~scale:0.3 in
        List.iter (fun i -> edge b i thinca) inspirals;
        thinca)
  in
  let trigbank = add b ~label:"trigBank" ~scale:0.4 in
  List.iter (fun t -> edge b t trigbank) thincas;
  let second =
    List.init blocks (fun blk ->
        let insp2 =
          add b ~label:(Printf.sprintf "inspiral2.%d" blk) ~scale:1.5
        in
        edge b trigbank insp2;
        insp2)
  in
  let final = add b ~label:"thincaFinal" ~scale:0.3 in
  List.iter (fun i -> edge b i final) second;
  finish b
