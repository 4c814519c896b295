type t = {
  title : string;
  columns : string list;
  mutable rows : string list list;
}

let create ~title ~columns = { title; columns; rows = [] }

let add_row t row = t.rows <- row :: t.rows

let pad_row width row =
  let len = List.length row in
  if len >= width then row
  else row @ List.init (width - len) (fun _ -> "")

let render t =
  let ncols = List.length t.columns in
  let rows = List.rev_map (pad_row ncols) t.rows in
  let all = t.columns :: rows in
  let widths = Array.make ncols 0 in
  let measure row =
    List.iteri
      (fun i cell ->
        if i < ncols && String.length cell > widths.(i) then
          widths.(i) <- String.length cell)
      row
  in
  List.iter measure all;
  let buf = Buffer.create 1024 in
  let pad i cell =
    let extra = widths.(i) - String.length cell in
    cell ^ String.make (max 0 extra) ' '
  in
  let emit_row row =
    Buffer.add_string buf "| ";
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf " | ";
        Buffer.add_string buf (pad i cell))
      row;
    Buffer.add_string buf " |\n"
  in
  let sep =
    "+"
    ^ String.concat "+" (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths))
    ^ "+\n"
  in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf sep;
  emit_row t.columns;
  Buffer.add_string buf sep;
  List.iter emit_row rows;
  Buffer.add_string buf sep;
  Buffer.contents buf

let fmt_float ?(decimals = 3) v = Printf.sprintf "%.*f" decimals v
let fmt_sci v = Printf.sprintf "%.2e" v
let fmt_pct v = Printf.sprintf "%.1f%%" (100.0 *. v)
