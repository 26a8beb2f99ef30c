type align = Left | Right | Center

type row = Cells of string list | Sep

type t = {
  headers : string list;
  arity : int;
  mutable aligns : align list;
  mutable rows : row list; (* reversed *)
}

let create ~headers =
  {
    headers;
    arity = List.length headers;
    aligns = List.map (fun _ -> Left) headers;
    rows = [];
  }

let set_aligns t aligns =
  if List.length aligns <> t.arity then
    invalid_arg "Texttab.set_aligns: arity mismatch";
  t.aligns <- aligns

let add_row t cells =
  if List.length cells <> t.arity then
    invalid_arg "Texttab.add_row: arity mismatch";
  t.rows <- Cells cells :: t.rows

let add_sep t = t.rows <- Sep :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - n) ' '
    | Right -> String.make (width - n) ' ' ^ s
    | Center ->
      let left = (width - n) / 2 in
      String.make left ' ' ^ s ^ String.make (width - n - left) ' '

let render t =
  let rows = List.rev t.rows in
  let widths = Array.of_list (List.map String.length t.headers) in
  let update cells =
    List.iteri
      (fun i c -> widths.(i) <- Int.max widths.(i) (String.length c))
      cells
  in
  List.iter (function Cells c -> update c | Sep -> ()) rows;
  let buf = Buffer.create 256 in
  let hline () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let line cells aligns =
    Buffer.add_char buf '|';
    List.iteri
      (fun i c ->
        let a = List.nth aligns i in
        Buffer.add_string buf (" " ^ pad a widths.(i) c ^ " ");
        Buffer.add_char buf '|')
      cells;
    Buffer.add_char buf '\n'
  in
  hline ();
  line t.headers (List.map (fun _ -> Center) t.headers);
  hline ();
  List.iter
    (function
      | Cells c -> line c t.aligns
      | Sep -> hline ())
    rows;
  hline ();
  Buffer.contents buf

let print t = print_string (render t)
