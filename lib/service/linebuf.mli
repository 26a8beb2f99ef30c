(** A growable input buffer that frames newline-delimited lines in place.

    Bytes read from a socket land in one [Bytes.t] between two cursors; a
    line is located by scanning forward from where the last scan stopped,
    so each input byte is looked at once however many reads a long line
    takes, and a consumed line costs one copy (the returned string).  The
    daemon's sessions and the client both read through it. *)

type t

val create : int -> t
(** An empty buffer with the given initial capacity ([> 0]). *)

val pending : t -> int
(** Bytes read but not yet returned as part of a line. *)

val read : t -> Unix.file_descr -> int
(** One [Unix.read] into the free space after the pending bytes, first
    compacting them to the front or doubling the capacity if there is no
    room.  Returns the byte count ([0] at end of file); [Unix.Unix_error]
    propagates. *)

val newline : t -> int
(** The index of the next ['\n'] among the pending bytes, or [-1] if the
    pending bytes hold no complete line. *)

val take_line : t -> int -> string
(** [take_line b nl] consumes the pending bytes up to and including the
    newline at index [nl] (as returned by {!newline}) and returns the line
    without its ['\n'] and without one trailing ['\r']. *)
