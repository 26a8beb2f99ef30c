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

(** Accessors returning [None] on shape mismatch. *)

val member : string -> t -> t option
val to_float : t -> float option

val to_int : t -> int option
(** [Some n] for an integral number in [[-2^62, 2^62)], the range of a
    63-bit OCaml int; [None] otherwise, so an out-of-range value never
    wraps. *)

val to_str : t -> string option
val to_list : t -> t list option
