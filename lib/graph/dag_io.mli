(** Plain-text serialization of task graphs.

    Line-oriented format, one declaration per line:

    {v
    # comments and blank lines are ignored
    task <id> <label> roofline <w> <ptilde>
    task <id> <label> comm <w> <c>
    task <id> <label> amdahl <w> <d>
    task <id> <label> general <w> <ptilde> <d> <c>
    edge <src> <dst>
    v}

    Labels are single tokens (whitespace in labels is replaced by ['_'] on
    writing).  [Arbitrary] speedups have no finite description and cannot be
    serialized. *)


val to_string : Dag.t -> (string, string) result
(** [Error] if the graph contains an [Arbitrary] speedup. *)

val of_string : string -> (Dag.t, string) result
(** Parses and validates the graph; every diagnostic names the offending
    line.  Rejected: malformed declarations and model parameters (including
    non-positive work, via {!Moldable_model.Task.make}), duplicate task ids
    (the error names both declaring lines), ids not covering [0..n-1],
    self-edges, edges whose endpoint is undeclared, and cycles (the error
    names an edge lying on the cycle).  Tasks may be declared in any
    order. *)

val to_file : string -> Dag.t -> (unit, string) result
(** [Error] when the graph does not serialize or the file cannot be opened
    or written; the channel is closed either way. *)

val of_file : string -> (Dag.t, string) result
