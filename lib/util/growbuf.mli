(** Growable typed buffers: append-only arrays that double in place.

    The simulation core records its event trace, failed processor blocks
    and queue-depth samples into these instead of cons lists — a push is an
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

  val set : t -> int -> int -> unit
  (** Overwrite an already-pushed slot (index [< length]); the simulation
      core uses this to patch the [next] links of its intrusive
      successor-edge lists. *)
end

module A : sig
  (** Boxed element buffer (one pointer slot per element, no cons cells).
      [create ~dummy] needs a sentinel to fill unused capacity. *)

  type 'a t

  val create : ?capacity:int -> dummy:'a -> unit -> 'a t
  val clear : 'a t -> unit
  (** Resets the length and overwrites the used prefix with the dummy, so
      a cleared buffer does not retain the previous run's elements. *)

  val length : 'a t -> int
  val push : 'a t -> 'a -> unit
  val get : 'a t -> int -> 'a

  val to_array : 'a t -> 'a array
  (** A fresh array of the pushed elements; the buffer keeps its storage. *)
end
