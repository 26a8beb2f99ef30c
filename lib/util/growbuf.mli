(** Growable typed buffers: append-only arrays that double in place.

    The simulation core records its event trace, processor blocks and
    queue-depth samples into these instead of cons lists — a push is an
    array store (amortized; no per-element boxing for the float and int
    variants), and the buffers are [clear]ed and reused across runs by the
    arena.  At the end of a run, [to_array] copies each pushed prefix into
    an exact-size array that the run's result owns; no list is built. *)

module F : sig
  (** Unboxed float buffer. *)

  type t

  val create : ?capacity:int -> unit -> t
  val clear : t -> unit
  val length : t -> int
  val push : t -> float -> unit
  val get : t -> int -> float

  val to_array : t -> float array
  (** A fresh array of the pushed elements; the buffer keeps its storage. *)
end

module I : sig
  (** Int buffer. *)

  type t

  val create : ?capacity:int -> unit -> t
  val clear : t -> unit
  val length : t -> int
  val push : t -> int -> unit
  val get : t -> int -> int

  val to_array : t -> int array
  (** A fresh array of the pushed elements; the buffer keeps its storage. *)

  val data : t -> int array
  (** The storage itself, not a copy: its first [length t] elements are
      the pushed ones.  A later push may move them to a new array. *)

  val set : t -> int -> int -> unit
  (** Overwrite an already-pushed slot (index [< length]); the simulation
      core uses this to patch the [next] links of its intrusive
      successor-edge lists. *)
end
