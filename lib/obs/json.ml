type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ----------------------------------------------------------- rendering *)

let add_escaped buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_quoted buf s =
  Buffer.add_char buf '"';
  add_escaped buf s;
  Buffer.add_char buf '"'

(* An integral [x] below [1e15] prints as [%.0f] would: its exact decimal
   digits, which [string_of_int] produces without the format interpreter.
   [%.0f] keeps the sign of negative zero, so [-0.] is the one case
   [string_of_int] cannot render. *)
let number_to_string x =
  if Float.is_integer x && Float.abs x < 1e15 then
    if x = 0. && Float.sign_bit x then "-0" else string_of_int (int_of_float x)
  else Printf.sprintf "%.17g" x

let newline buf indent =
  if indent >= 0 then begin
    Buffer.add_char buf '\n';
    for _ = 1 to indent do Buffer.add_char buf ' ' done
  end

(* The one renderer behind both layouts.  [indent >= 0] is the pretty
   layout: one item per line, indented two spaces per level.  [indent < 0]
   is the compact layout: one line, items separated by [", "].  Non-finite
   floats are not JSON and render as [null], so every document parses. *)
let rec render buf indent v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Num x ->
    Buffer.add_string buf
      (if Float.is_finite x then number_to_string x else "null")
  | Str s -> add_quoted buf s
  | List xs -> container buf indent '[' ']' render xs
  | Obj fields ->
    container buf indent '{' '}'
      (fun buf indent (k, x) ->
        add_quoted buf k;
        Buffer.add_string buf ": ";
        render buf indent x)
      fields

and container : 'a. Buffer.t -> int -> char -> char ->
    (Buffer.t -> int -> 'a -> unit) -> 'a list -> unit =
 fun buf indent opening closing item xs ->
  let inner = if indent >= 0 then indent + 2 else indent in
  Buffer.add_char buf opening;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string buf (if indent >= 0 then "," else ", ");
      newline buf inner;
      item buf inner x)
    xs;
  (match xs with [] -> () | _ -> newline buf indent);
  Buffer.add_char buf closing

let int i = Num (float_of_int i)

let to_string v =
  let buf = Buffer.create 1024 in
  render buf 0 v;
  Buffer.contents buf

let to_buffer buf v = render buf (-1) v

let to_string_compact v =
  let buf = Buffer.create 256 in
  to_buffer buf v;
  Buffer.contents buf

(* ------------------------------------------------------------- parsing *)

(* One lexer serves both readers: [of_string] builds a tree from the
   cursor functions below, and a caller that wants typed fields instead
   (the daemon's request decoder) drives the same functions itself, so
   both accept the same documents and fail with the same message at the
   same byte. *)

exception Parse_error of string

(* [num] is one float cell that numbers the caller does not keep are
   read into: unboxed, so skipping a number allocates nothing. *)
type cursor = {
  src : string;
  mutable pos : int;
  max_depth : int;
  num : float array;
}

let error cur fmt =
  Printf.ksprintf
    (fun s ->
      raise (Parse_error (Printf.sprintf "at byte %d: %s" cur.pos s)))
    fmt

(* The byte under the cursor, or ['\000'] past the end.  A NUL byte can
   also occur in the input, so wherever end of input matters the caller
   tells the two apart with [at_end].  Returning a bare [char] instead of
   a [char option] keeps the scan allocation-free. *)
let peek cur =
  if cur.pos < String.length cur.src then String.unsafe_get cur.src cur.pos
  else '\000'

let at_end cur = cur.pos >= String.length cur.src

let advance cur = cur.pos <- cur.pos + 1

let rec skip_ws cur =
  match peek cur with
  | ' ' | '\t' | '\n' | '\r' ->
    advance cur;
    skip_ws cur
  | _ -> ()

let expect cur c =
  let c' = peek cur in
  if c' = c then advance cur
  else if at_end cur then error cur "expected %C, found end of input" c
  else error cur "expected %C, found %C" c c'

(* Whether [word] occurs in [src] at [pos], from its byte [k] on; the
   caller has checked that it fits. *)
let rec word_at src pos word k =
  k >= String.length word
  || String.unsafe_get src (pos + k) = String.unsafe_get word k
     && word_at src pos word (k + 1)

(* [word] compared in place, without a [String.sub] of the input. *)
let literal cur word value =
  let n = String.length word in
  if cur.pos + n <= String.length cur.src && word_at cur.src cur.pos word 0
  then begin
    cur.pos <- cur.pos + n;
    value
  end
  else error cur "invalid literal"

(* A \u escape's four hex digits, validated strictly: [int_of_string "0x.."]
   would also accept underscores, which JSON forbids. *)
let hex_quad cur =
  if cur.pos + 4 > String.length cur.src then error cur "truncated \\u escape";
  let digit k =
    match cur.src.[cur.pos + k] with
    | '0' .. '9' as c -> Char.code c - Char.code '0'
    | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
    | _ -> error cur "bad \\u escape %S" (String.sub cur.src cur.pos 4)
  in
  let code = (digit 0 lsl 12) lor (digit 1 lsl 8) lor (digit 2 lsl 4)
             lor digit 3 in
  cur.pos <- cur.pos + 4;
  code

let add_utf8 buf code =
  if code < 0x80 then Buffer.add_char buf (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else if code < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
  end

(* The byte-at-a-time string loop behind [parse_string]'s fast path: it
   decodes escapes into [buf] up to and past the closing quote. *)
let rec string_tail cur buf =
  match peek cur with
  | '"' -> advance cur
  | '\\' ->
    advance cur;
    (match peek cur with
    | '"' -> Buffer.add_char buf '"'; advance cur
    | '\\' -> Buffer.add_char buf '\\'; advance cur
    | '/' -> Buffer.add_char buf '/'; advance cur
    | 'n' -> Buffer.add_char buf '\n'; advance cur
    | 't' -> Buffer.add_char buf '\t'; advance cur
    | 'r' -> Buffer.add_char buf '\r'; advance cur
    | 'b' -> Buffer.add_char buf '\b'; advance cur
    | 'f' -> Buffer.add_char buf '\012'; advance cur
    | 'u' ->
      advance cur;
      let code = hex_quad cur in
      (* Escaped code points decode to UTF-8.  Surrogate pairs combine
         into one supplementary-plane code point; an unpaired surrogate
         encodes no code point and is rejected — network input must not
         smuggle ill-formed UTF-8 through the escape syntax. *)
      if code >= 0xD800 && code <= 0xDBFF then begin
        if
          not
            (cur.pos + 2 <= String.length cur.src
            && cur.src.[cur.pos] = '\\'
            && cur.src.[cur.pos + 1] = 'u')
        then error cur "unpaired surrogate \\u%04x" code;
        cur.pos <- cur.pos + 2;
        let low = hex_quad cur in
        if low < 0xDC00 || low > 0xDFFF then
          error cur "unpaired surrogate \\u%04x" code;
        add_utf8 buf
          (0x10000 + (((code - 0xD800) lsl 10) lor (low - 0xDC00)))
      end
      else if code >= 0xDC00 && code <= 0xDFFF then
        error cur "unpaired surrogate \\u%04x" code
      else add_utf8 buf code
    | _ -> error cur "bad escape");
    string_tail cur buf
  | '\000' .. '\031' as c ->
    if at_end cur then error cur "unterminated string"
    else
      error cur "unescaped control character 0x%02x in string" (Char.code c)
  | c ->
    Buffer.add_char buf c;
    advance cur;
    string_tail cur buf

(* The end of the run of bytes from [i] that need no decoding. *)
let rec plain_run src i =
  if i >= String.length src then i
  else
    match String.unsafe_get src i with
    | '"' | '\\' | '\000' .. '\031' -> i
    | _ -> plain_run src (i + 1)

(* Fast path: a run of plain bytes closed by ['"'] is one [String.sub].
   At the first escape or control byte (or at the end of input) the run so
   far seeds a [Buffer] and [string_tail] takes over from that byte. *)
let parse_string cur =
  expect cur '"';
  let src = cur.src and start = cur.pos in
  let len = String.length src in
  let stop = plain_run src start in
  if stop < len && String.unsafe_get src stop = '"' then begin
    cur.pos <- stop + 1;
    String.sub src start (stop - start)
  end
  else begin
    let buf = Buffer.create (Int.max 16 (2 * (stop - start))) in
    Buffer.add_substring buf src start (stop - start);
    cur.pos <- stop;
    string_tail cur buf;
    Buffer.contents buf
  end

(* RFC 8259 number grammar, checked in place before [float_of_string]
   (which also accepts [+1], [01], [.5], [1.], hex and underscores): an
   optional [-]; then [0] or a nonzero digit followed by digits; then an
   optional fraction [.digits]; then an optional exponent [e] or [E], an
   optional sign, and digits.  The scan helpers are top-level so the scan
   allocates nothing. *)
let char_at src i =
  if i < String.length src then String.unsafe_get src i else '\000'

let rec digit_run src i =
  match char_at src i with '0' .. '9' -> digit_run src (i + 1) | _ -> i

(* The end of the nonempty digit run starting at [i]. *)
let digits cur i =
  match char_at cur.src i with
  | '0' .. '9' -> digit_run cur.src (i + 1)
  | _ -> error cur "bad number"

(* The value of the decimal digits [src.[i .. stop - 1]]. *)
let rec decimal src acc i stop =
  if i >= stop then acc
  else
    decimal src
      ((acc * 10) + Char.code (String.unsafe_get src i) - Char.code '0')
      (i + 1) stop

(* Moves the cursor past the number under it, checked against the
   grammar.  [true] for an integer of at most 15 digits: below 2^53, so
   [float_of_int] of its digits is exact, the float [float_of_string]
   would return. *)
let scan_number cur =
  if at_end cur then error cur "unexpected end of input";
  let src = cur.src and start = cur.pos in
  let int_start = if char_at src start = '-' then start + 1 else start in
  let int_stop =
    if char_at src int_start = '0' then int_start + 1 else digits cur int_start
  in
  let i =
    if char_at src int_stop = '.' then digits cur (int_stop + 1) else int_stop
  in
  let i =
    match char_at src i with
    | 'e' | 'E' -> (
      match char_at src (i + 1) with
      | '+' | '-' -> digits cur (i + 2)
      | _ -> digits cur (i + 1))
    | _ -> i
  in
  cur.pos <- i;
  i = int_stop && int_stop - int_start <= 15

(* Ids, counts and deps take the integer path, without the [String.sub]
   and the C call; the sign is applied to the float, so [-0] reads as
   negative zero, as [float_of_string] reads it. *)
let number cur (cells : float array) k =
  let src = cur.src and start = cur.pos in
  if scan_number cur then begin
    let negative = String.unsafe_get src start = '-' in
    let x =
      float_of_int
        (decimal src 0 (if negative then start + 1 else start) cur.pos)
    in
    cells.(k) <- (if negative then -.x else x)
  end
  else
    let s = String.sub src start (cur.pos - start) in
    match float_of_string s with
    | x -> cells.(k) <- x
    | exception Failure _ -> error cur "bad number %S" s

let next cur =
  skip_ws cur;
  peek cur

(* [depth] counts open containers; the bound turns adversarial
   ["[[[[..."] inputs into a parse error instead of a stack overflow. *)
let open_container cur depth closing =
  if depth >= cur.max_depth then
    error cur "nesting deeper than %d levels" cur.max_depth;
  advance cur;
  skip_ws cur;
  if peek cur = closing then begin
    advance cur;
    false
  end
  else true

let object_start cur ~depth = open_container cur depth '}'
let array_start cur ~depth = open_container cur depth ']'

let more cur closing message =
  skip_ws cur;
  match peek cur with
  | ',' ->
    advance cur;
    true
  | c when c = closing ->
    advance cur;
    false
  | _ -> error cur "%s" message

let object_more cur = more cur '}' "expected ',' or '}'"
let array_more cur = more cur ']' "expected ',' or ']'"

(* A key set is an open-addressing table over a name's length and first
   and last bytes, so a name is found with one or two comparisons. *)
type keys = { names : string array; slots : int array }

let key_hash src off len =
  if len = 0 then 0
  else
    ((len * 7) + (Char.code (String.unsafe_get src off) * 3)
    + Char.code (String.unsafe_get src (off + len - 1)))
    land 127

let keys names =
  if Array.length names > 64 then invalid_arg "Json.keys: more than 64 names";
  let slots = Array.make 128 0 in
  Array.iteri
    (fun i k ->
      let rec place h =
        if slots.(h) = 0 then slots.(h) <- i + 1 else place ((h + 1) land 127)
      in
      place (key_hash k 0 (String.length k)))
    names;
  { names; slots }

let no_keys = keys [||]

(* The index of [src.[off .. off + len - 1]] in the set, or [-1]:
   probing from slot [h] on. *)
let rec find_key ks src off len h =
  let e = Array.unsafe_get ks.slots h in
  if e = 0 then -1
  else
    let k = Array.unsafe_get ks.names (e - 1) in
    if String.length k = len && word_at src off k 0 then e - 1
    else find_key ks src off len ((h + 1) land 127)

(* A string matched against [ks] where it lies in the input when it has
   no escapes (the usual case), and decoded first otherwise.  A string in
   the set is stored in [strs.(k)] as the set's own copy; any other is
   stored as a fresh string.  [k < 0] stores nothing. *)
let match_string cur ks strs k =
  expect cur '"';
  let src = cur.src and start = cur.pos in
  let stop = plain_run src start in
  if stop < String.length src && String.unsafe_get src stop = '"' then begin
    cur.pos <- stop + 1;
    let len = stop - start in
    let i = find_key ks src start len (key_hash src start len) in
    if k >= 0 then
      strs.(k) <- (if i >= 0 then ks.names.(i) else String.sub src start len);
    i
  end
  else begin
    cur.pos <- start - 1;
    let s = parse_string cur in
    let len = String.length s in
    let i = find_key ks s 0 len (key_hash s 0 len) in
    if k >= 0 then strs.(k) <- (if i >= 0 then ks.names.(i) else s);
    i
  end

let key cur ks =
  skip_ws cur;
  let i = match_string cur ks [||] (-1) in
  skip_ws cur;
  expect cur ':';
  i

let string cur ks strs k =
  skip_ws cur;
  ignore (match_string cur ks strs k : int)

let rec skip cur ~depth =
  match next cur with
  | 'n' -> literal cur "null" ()
  | 't' -> literal cur "true" ()
  | 'f' -> literal cur "false" ()
  | '"' -> ignore (match_string cur no_keys [||] (-1) : int)
  | '[' ->
    if array_start cur ~depth then begin
      skip cur ~depth:(depth + 1);
      while array_more cur do
        skip cur ~depth:(depth + 1)
      done
    end
  | '{' ->
    if object_start cur ~depth then begin
      ignore (key cur no_keys : int);
      skip cur ~depth:(depth + 1);
      while object_more cur do
        ignore (key cur no_keys : int);
        skip cur ~depth:(depth + 1)
      done
    end
  | _ -> number cur cur.num 0

let rec parse_value cur depth =
  match next cur with
  | 'n' -> literal cur "null" Null
  | 't' -> literal cur "true" (Bool true)
  | 'f' -> literal cur "false" (Bool false)
  | '"' -> Str (parse_string cur)
  | '[' ->
    if array_start cur ~depth then begin
      let rec items acc =
        let acc = parse_value cur (depth + 1) :: acc in
        if array_more cur then items acc else List.rev acc
      in
      List (items [])
    end
    else List []
  | '{' ->
    if object_start cur ~depth then begin
      let rec fields acc =
        skip_ws cur;
        let k = parse_string cur in
        skip_ws cur;
        expect cur ':';
        let acc = (k, parse_value cur (depth + 1)) :: acc in
        if object_more cur then fields acc else List.rev acc
      in
      Obj (fields [])
    end
    else Obj []
  | _ ->
    number cur cur.num 0;
    Num cur.num.(0)

let default_max_depth = 512

let cursor ?max_bytes ?(max_depth = default_max_depth) s =
  (match max_bytes with
  | Some limit when String.length s > limit ->
    raise
      (Parse_error
         (Printf.sprintf "input of %d bytes exceeds the %d-byte limit"
            (String.length s) limit))
  | _ -> ());
  { src = s; pos = 0; max_depth; num = [| 0. |] }

let finish cur =
  skip_ws cur;
  if cur.pos <> String.length cur.src then
    raise (Parse_error (Printf.sprintf "trailing garbage at byte %d" cur.pos))

let of_string ?max_bytes ?max_depth s =
  match
    let cur = cursor ?max_bytes ?max_depth s in
    let v = parse_value cur 0 in
    finish cur;
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------ accessors *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float = function Num x -> Some x | _ -> None

(* OCaml ints are 63-bit: an integral float outside [-2^62, 2^62) would
   wrap silently in [int_of_float]. *)
let to_int = function
  | Num x when Float.is_integer x && x >= -0x1p62 && x < 0x1p62 ->
    Some (int_of_float x)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_list = function List xs -> Some xs | _ -> None
