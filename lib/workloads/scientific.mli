(** Synthetic scientific-workflow DAGs shaped after two canonical Pegasus
    workflows, standing in for the "realistic workflows" the paper's
    conclusion proposes for empirical evaluation.

    The structures (fan-out widths, stage counts, stage work ratios) follow
    the published workflow characterizations; the speedup parameters of each
    task are drawn from [spec] around the stage's work scale. *)

open Moldable_util
open Moldable_model
open Moldable_graph

val montage :
  ?spec:Params.spec -> rng:Rng.t -> width:int ->
  kind:Speedup.kind -> unit -> Dag.t
(** Montage-like mosaic workflow: [width] projections -> pairwise overlap
    fits -> concat -> background model -> [width] background corrections ->
    image table -> co-addition -> shrink.  Requires [width >= 2]. *)

val epigenomics :
  ?spec:Params.spec -> rng:Rng.t -> lanes:int ->
  fanout:int -> kind:Speedup.kind -> unit -> Dag.t
(** Epigenomics-like pipeline: per lane, a split fans out to [fanout]
    filter -> convert -> map chains merged per lane, then a global merge,
    index and peak-calling tail.  Requires [lanes >= 1], [fanout >= 1]. *)

val cybershake :
  ?spec:Params.spec -> rng:Rng.t -> sites:int ->
  variations:int -> kind:Speedup.kind -> unit -> Dag.t
(** CyberShake-like seismic-hazard workflow: two heavy SGT generators feed,
    for each of [sites] sites, [variations] seismogram-synthesis tasks each
    followed by a peak-value extraction; a final ZipSeis gathers everything.
    Requires [sites >= 1], [variations >= 1]. *)

val ligo :
  ?spec:Params.spec -> rng:Rng.t -> blocks:int ->
  per_block:int -> kind:Speedup.kind -> unit -> Dag.t
(** LIGO-inspiral-like workflow: [blocks] repetitions of (template bank ->
    [per_block] matched-filter inspiral tasks -> thinca coincidence), then
    a global trigbank -> second inspiral layer -> final coincidence.
    Requires [blocks >= 1], [per_block >= 1]. *)
