(** Minimal self-contained JSON tree, printer and recursive-descent parser.

    The telemetry subsystem must stay dependency-free (the registry sits
    below every other library in the stack), so this is a small hand-rolled
    JSON implementation: finite numbers, strings with the standard escapes,
    arrays and objects.  It is the only JSON printer of the libraries, the
    CLI and the bench: every document they write is built as a {!t} and
    rendered here, so every document shares one number format (integers
    below [1e15] exactly, other floats at round-trip precision, [%.17g]) and
    one non-finite policy (NaN and infinities render as [null]). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val int : int -> t
(** [int i] is [Num (float_of_int i)]. *)

val to_string : t -> string
(** Pretty-print with two-space indentation and a deterministic layout. *)

val to_buffer : Buffer.t -> t -> unit
(** [to_buffer buf v] appends the compact (single-line) rendering of [v] to
    [buf], with [", "] and [": "] separators and no trailing newline.  It is
    the service wire format: the daemon renders each response straight into
    its session's output buffer, so a batch of responses goes out in one
    write without an intermediate string per response.  Scalars render
    exactly as in {!to_string}. *)

val to_string_compact : t -> string
(** [to_buffer] on a fresh buffer: the compact layout as a string, used for
    JSONL rows and client requests. *)

val of_string : ?max_bytes:int -> ?max_depth:int -> string -> (t, string) result
(** Parse a complete JSON document; the error carries a byte offset.

    The parser is hardened for untrusted (network) input and never raises:
    every malformed input — including raw control characters inside
    strings, non-hex [\u] escapes and unpaired UTF-16 surrogates — is an
    [Error].  Paired surrogates combine into one supplementary-plane code
    point.  Containers may nest at most [max_depth] levels
    (default {!default_max_depth}); inputs longer than [max_bytes]
    (unlimited by default) are rejected before parsing.

    Duplicate object keys are retained in document order; {!member}
    returns the first binding, and later bindings are only observable by
    matching on the [Obj] field list directly. *)

val default_max_depth : int
(** Default container-nesting bound of {!of_string} ([512] — far deeper
    than any document the repo produces, yet shallow enough that parsing
    adversarial input cannot exhaust the stack). *)

(** {1 Cursor}

    The lexer behind {!of_string}, for a reader that wants typed values
    rather than a tree: it walks one document left to right, and the
    caller decides at each value whether to read it or skip it.  A
    document read through the cursor is accepted or rejected exactly as
    {!of_string} accepts or rejects it, with the same message and byte
    offset, provided the caller follows the grammar: {!next} to see what
    a value is, one reader or {!skip} per value, a {!key} before each
    member's value, and {!finish} after the top-level value.  Skipped
    values are checked in full (string escapes, numbers, nesting depth).

    Every function raises {!Parse_error} with {!of_string}'s message on
    malformed input.  Reading allocates only the strings the caller keeps
    and, for a number that is not an integer of at most 15 digits, the
    [String.sub] handed to [float_of_string].

    A loop over an object's members, at depth [d] (the top-level value is
    at depth 0, its members' values at depth 1):
    {[
      if Json.object_start cur ~depth:d then begin
        let more = ref true in
        while !more do
          (match Json.key cur names with
           | -1 -> Json.skip cur ~depth:(d + 1)
           | i -> (* read the value of member i at depth d + 1 *) ...);
          more := Json.object_more cur
        done
      end
    ]} *)

type cursor

exception Parse_error of string

val cursor : ?max_bytes:int -> ?max_depth:int -> string -> cursor
(** A cursor at the start of the document.  [max_bytes] and [max_depth]
    are {!of_string}'s; an input over [max_bytes] raises {!Parse_error}
    here. *)

type keys
(** A set of at most 64 names, matched without allocating. *)

val keys : string array -> keys
(** The set of the array's names; a match reports the name's index. *)

val next : cursor -> char
(** Skips whitespace and returns the byte that starts the next value
    (['"'], ['{'], ['\['], ['t'], ['f'], ['n'], or a number's first
    byte), without consuming it; ['\000'] at end of input. *)

val string : cursor -> keys -> string array -> int -> unit
(** [string cur names strs i] reads a string value into [strs.(i)],
    decoding its escapes.  A value equal to one of [names] is stored as
    that name, so reading it allocates nothing. *)

val number : cursor -> float array -> int -> unit
(** [number cur cells i] reads a number value into [cells.(i)], unboxed:
    [float_of_string] of the literal, bit for bit. *)

val skip : cursor -> depth:int -> unit
(** Checks and moves past the value at [depth]. *)

val object_start : cursor -> depth:int -> bool
(** At a ['{'] ({!next} returned it): enters the object at [depth].
    [false] if it is empty (its closing brace is consumed too). *)

val key : cursor -> keys -> int
(** Reads a member's key and the [':'] after it; returns the key's index
    in the set, or [-1].  A key without escapes is compared where it lies
    in the input. *)

val object_more : cursor -> bool
(** After a member's value: [true] past a [','] (another member follows),
    [false] past the closing ['}']. *)

val array_start : cursor -> depth:int -> bool
(** At a ['\['] : enters the array at [depth]; [false] if it is empty. *)

val array_more : cursor -> bool
(** After an item: [true] past a [','], [false] past the closing [']']. *)

val finish : cursor -> unit
(** After the top-level value: only whitespace may follow. *)

(** Accessors returning [None] on shape mismatch. *)

val member : string -> t -> t option
val to_float : t -> float option

val to_int : t -> int option
(** [Some n] for an integral number in [[-2^62, 2^62)], the range of a
    63-bit OCaml int; [None] otherwise, so an out-of-range value never
    wraps. *)

val to_str : t -> string option
val to_list : t -> t list option
