(* The JSON decoder as it was before its allocation-free rewrite: [peek]
   returns [Some c] for every byte it looks at, literals are compared with
   [String.sub] and strings are always built in a [Buffer].  Kept verbatim
   (test-only) so a qcheck property in test_obs.ml pins
   [Moldable_obs.Json.of_string] to it: same tree on success, same message
   and byte offset on failure. *)

open Moldable_obs.Json

exception Parse_error of string

type cursor = { src : string; mutable pos : int; max_depth : int }

let error cur fmt =
  Printf.ksprintf
    (fun s ->
      raise (Parse_error (Printf.sprintf "at byte %d: %s" cur.pos s)))
    fmt

let peek cur = if cur.pos < String.length cur.src then Some cur.src.[cur.pos] else None

let advance cur = cur.pos <- cur.pos + 1

let rec skip_ws cur =
  match peek cur with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance cur;
    skip_ws cur
  | _ -> ()

let expect cur c =
  match peek cur with
  | Some c' when c' = c -> advance cur
  | Some c' -> error cur "expected %C, found %C" c c'
  | None -> error cur "expected %C, found end of input" c

let literal cur word value =
  let n = String.length word in
  if
    cur.pos + n <= String.length cur.src
    && String.sub cur.src cur.pos n = word
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

let parse_string cur =
  expect cur '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek cur with
    | None -> error cur "unterminated string"
    | Some '"' -> advance cur
    | Some '\\' ->
      advance cur;
      (match peek cur with
      | Some '"' -> Buffer.add_char buf '"'; advance cur
      | Some '\\' -> Buffer.add_char buf '\\'; advance cur
      | Some '/' -> Buffer.add_char buf '/'; advance cur
      | Some 'n' -> Buffer.add_char buf '\n'; advance cur
      | Some 't' -> Buffer.add_char buf '\t'; advance cur
      | Some 'r' -> Buffer.add_char buf '\r'; advance cur
      | Some 'b' -> Buffer.add_char buf '\b'; advance cur
      | Some 'f' -> Buffer.add_char buf '\012'; advance cur
      | Some 'u' ->
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
      go ()
    | Some c when Char.code c < 0x20 ->
      error cur "unescaped control character 0x%02x in string" (Char.code c)
    | Some c ->
      Buffer.add_char buf c;
      advance cur;
      go ()
  in
  go ();
  Buffer.contents buf

(* RFC 8259 number grammar, checked in place before [float_of_string_opt]
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

let parse_number cur =
  let src = cur.src and start = cur.pos in
  let i = if char_at src start = '-' then start + 1 else start in
  let i = if char_at src i = '0' then i + 1 else digits cur i in
  let i = if char_at src i = '.' then digits cur (i + 1) else i in
  let i =
    match char_at src i with
    | 'e' | 'E' -> (
      match char_at src (i + 1) with
      | '+' | '-' -> digits cur (i + 2)
      | _ -> digits cur (i + 1))
    | _ -> i
  in
  cur.pos <- i;
  let s = String.sub src start (i - start) in
  match float_of_string_opt s with
  | Some x -> Num x
  | None -> error cur "bad number %S" s

(* [depth] counts open containers; the bound turns adversarial
   ["[[[[..."] inputs into a parse error instead of a stack overflow. *)
let rec parse_value cur depth =
  skip_ws cur;
  match peek cur with
  | None -> error cur "unexpected end of input"
  | Some 'n' -> literal cur "null" Null
  | Some 't' -> literal cur "true" (Bool true)
  | Some 'f' -> literal cur "false" (Bool false)
  | Some '"' -> Str (parse_string cur)
  | Some '[' ->
    if depth >= cur.max_depth then
      error cur "nesting deeper than %d levels" cur.max_depth;
    advance cur;
    skip_ws cur;
    if peek cur = Some ']' then begin
      advance cur;
      List []
    end
    else begin
      let rec items acc =
        let v = parse_value cur (depth + 1) in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          items (v :: acc)
        | Some ']' ->
          advance cur;
          List.rev (v :: acc)
        | _ -> error cur "expected ',' or ']'"
      in
      List (items [])
    end
  | Some '{' ->
    if depth >= cur.max_depth then
      error cur "nesting deeper than %d levels" cur.max_depth;
    advance cur;
    skip_ws cur;
    if peek cur = Some '}' then begin
      advance cur;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws cur;
        let k = parse_string cur in
        skip_ws cur;
        expect cur ':';
        let v = parse_value cur (depth + 1) in
        skip_ws cur;
        match peek cur with
        | Some ',' ->
          advance cur;
          fields ((k, v) :: acc)
        | Some '}' ->
          advance cur;
          List.rev ((k, v) :: acc)
        | _ -> error cur "expected ',' or '}'"
      in
      Obj (fields [])
    end
  | Some _ -> parse_number cur

let default_max_depth = 512

let of_string ?max_bytes ?(max_depth = default_max_depth) s =
  match max_bytes with
  | Some limit when String.length s > limit ->
    Error
      (Printf.sprintf "input of %d bytes exceeds the %d-byte limit"
         (String.length s) limit)
  | _ -> (
    let cur = { src = s; pos = 0; max_depth } in
    match parse_value cur 0 with
    | v ->
      skip_ws cur;
      if cur.pos <> String.length s then
        Error (Printf.sprintf "trailing garbage at byte %d" cur.pos)
      else Ok v
    | exception Parse_error msg -> Error msg)
