(** The platform of [P] identical processors.

    Tracks which processor ids are free and hands out the lowest-numbered
    free ids on acquisition, which produces compact Gantt charts and lets the
    validator check that no processor runs two tasks at once.

    Processor id blocks come from a recycled segment pool: {!recycle}
    returns a block to a one-slot-per-size cache and the next {!acquire} of
    the same size reuses it instead of allocating a fresh array.  Callers
    that retain the block (schedules, attempt records) use {!release}
    instead, which never touches the pool. *)

type t

val create : int -> t
(** [create p] makes a platform with processors [0 .. p-1].
    @raise Invalid_argument if [p < 1]. *)

val p : t -> int
val free_count : t -> int

val acquire : t -> int -> int array
(** [acquire t n] marks [n] processors busy and returns their ids (ascending).
    The returned block may be a recycled array (its previous contents are
    fully overwritten); the caller owns it until it is {!release}d (keep)
    or {!recycle}d (give back).
    @raise Invalid_argument if [n < 1] or fewer than [n] are free. *)

val release : t -> int array -> unit
(** Marks the given processors free again; the array stays with the caller.
    @raise Invalid_argument if any of them is not currently busy. *)

val recycle : t -> int array -> unit
(** {!release} plus: donates the array to the segment pool for a future
    {!acquire} of the same size.  The caller must not use the array again —
    its contents will be overwritten. *)

val reset : t -> unit
(** Marks every processor free (forgetting any outstanding acquisitions)
    and keeps the segment pool — arena reuse between runs. *)
