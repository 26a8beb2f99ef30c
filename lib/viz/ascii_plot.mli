(** Minimal ASCII scatter/line plots for the bench harness: convergence
    curves (measured ratio vs platform size) and other series are printed
    directly in the terminal next to the tables they accompany. *)

type series = {
  label : string;
  glyph : char;
  points : (float * float) list;  (** (x, y), any order. *)
}

val render :
  ?x_log:bool -> ?hlines:(float * string) list ->
  xlabel:string -> ylabel:string -> series list -> string
(** A 64 x 16 character canvas with axis ranges fitted to the data (and
    to [hlines]).  [x_log] plots the x axis logarithmically (useful for P
    sweeps).  [hlines] draws labelled horizontal reference lines (e.g. a
    theorem's limit ratio) with ['-'].  Overlapping points keep the glyph
    of the later series. *)
