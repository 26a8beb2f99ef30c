(** SVG rendering of schedules (publication-style counterparts of the ASCII
    Gantt charts; Figure 2 and Figure 4 can be regenerated as vector
    graphics). *)

open Moldable_sim

val of_schedule : ?label:(int -> string) -> Schedule.t -> string
(** A standalone 800 x 400 [<svg>] document: x = time, y = processors, one rectangle
    per placement with a deterministic per-task fill colour and a tooltip
    ([<title>]) carrying the task label and its window. *)
