type t = { headers : string list; mutable rows : string list list (* reversed *) }

let create headers = { headers; rows = [] }

let add_row t row =
  if List.length row <> List.length t.headers then
    invalid_arg "Table.add_row: width mismatch";
  t.rows <- row :: t.rows

let add_float_row t label xs =
  add_row t (label :: List.map (Printf.sprintf "%.3f") xs)

let all_rows t = t.headers :: List.rev t.rows

let to_ascii t =
  let rows = all_rows t in
  let ncols = List.length t.headers in
  let widths = Array.make ncols 0 in
  let record_widths row =
    List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) row
  in
  List.iter record_widths rows;
  let buf = Buffer.create 256 in
  let emit_row row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf cell;
        Buffer.add_string buf (String.make (widths.(i) - String.length cell) ' '))
      row;
    Buffer.add_char buf '\n'
  in
  (match rows with
  | header :: data ->
    emit_row header;
    let sep = List.init ncols (fun i -> String.make widths.(i) '-') in
    emit_row sep;
    List.iter emit_row data
  | [] -> ());
  Buffer.contents buf

let csv_cell cell =
  let needs_quote =
    String.exists (fun c -> c = ',' || c = '"' || c = '\n') cell
  in
  if not needs_quote then cell
  else begin
    let buf = Buffer.create (String.length cell + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      cell;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end

let to_csv t =
  let buf = Buffer.create 256 in
  let emit_row row =
    Buffer.add_string buf (String.concat "," (List.map csv_cell row));
    Buffer.add_char buf '\n'
  in
  List.iter emit_row (all_rows t);
  Buffer.contents buf

let print t = print_string (to_ascii t)

let save_csv t path =
  let oc = open_out path in
  output_string oc (to_csv t);
  close_out oc

let spark_levels = [| " "; "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83";
                      "\xe2\x96\x84"; "\xe2\x96\x85"; "\xe2\x96\x86";
                      "\xe2\x96\x87"; "\xe2\x96\x88" |]

let sparkline xs =
  if Array.length xs = 0 then ""
  else begin
    let lo, hi = Stats.min_max xs in
    let span = if hi -. lo <= 0. then 1. else hi -. lo in
    let buf = Buffer.create (Array.length xs * 3) in
    Array.iter
      (fun x ->
        let lvl = int_of_float ((x -. lo) /. span *. 8.) in
        let lvl = if lvl < 0 then 0 else if lvl > 8 then 8 else lvl in
        Buffer.add_string buf spark_levels.(lvl))
      xs;
    Buffer.contents buf
  end
