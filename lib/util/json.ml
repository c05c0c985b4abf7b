type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Err of int * string

let fail pos msg = raise (Err (pos, msg))

(* Recursive-descent over a string with one mutable position. *)
type st = { src : string; mutable pos : int }

let peek s = if s.pos < String.length s.src then Some s.src.[s.pos] else None

let skip_ws s =
  let n = String.length s.src in
  while
    s.pos < n
    && match s.src.[s.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    s.pos <- s.pos + 1
  done

let expect s c =
  match peek s with
  | Some c' when c' = c -> s.pos <- s.pos + 1
  | _ -> fail s.pos (Printf.sprintf "expected %C" c)

let keyword s kw v =
  let n = String.length kw in
  if s.pos + n <= String.length s.src && String.sub s.src s.pos n = kw then begin
    s.pos <- s.pos + n;
    v
  end
  else fail s.pos (Printf.sprintf "expected %s" kw)

let hex_digit pos = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> fail pos "bad hex digit in \\u escape"

let utf8_add buf cp =
  (* Encode one Unicode scalar value (or lone surrogate, replaced). *)
  let cp = if cp >= 0xD800 && cp <= 0xDFFF then 0xFFFD else cp in
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_u16 s =
  if s.pos + 4 > String.length s.src then fail s.pos "truncated \\u escape";
  let v =
    (hex_digit s.pos s.src.[s.pos] lsl 12)
    lor (hex_digit s.pos s.src.[s.pos + 1] lsl 8)
    lor (hex_digit s.pos s.src.[s.pos + 2] lsl 4)
    lor hex_digit s.pos s.src.[s.pos + 3]
  in
  s.pos <- s.pos + 4;
  v

let parse_string s =
  expect s '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek s with
    | None -> fail s.pos "unterminated string"
    | Some '"' -> s.pos <- s.pos + 1
    | Some '\\' ->
      s.pos <- s.pos + 1;
      (match peek s with
      | None -> fail s.pos "truncated escape"
      | Some c ->
        s.pos <- s.pos + 1;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          let hi = parse_u16 s in
          (* Surrogate pair: \uD800-\uDBFF must be followed by \uDC00-\uDFFF. *)
          if hi >= 0xD800 && hi <= 0xDBFF
             && s.pos + 1 < String.length s.src
             && s.src.[s.pos] = '\\'
             && s.src.[s.pos + 1] = 'u'
          then begin
            s.pos <- s.pos + 2;
            let lo = parse_u16 s in
            if lo >= 0xDC00 && lo <= 0xDFFF then
              utf8_add buf
                (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
            else begin
              utf8_add buf hi;
              utf8_add buf lo
            end
          end
          else utf8_add buf hi
        | _ -> fail (s.pos - 1) "bad escape character"));
      go ()
    | Some c when Char.code c < 0x20 -> fail s.pos "control character in string"
    | Some c ->
      Buffer.add_char buf c;
      s.pos <- s.pos + 1;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number s =
  let start = s.pos in
  let n = String.length s.src in
  let advance_while p =
    while s.pos < n && p s.src.[s.pos] do
      s.pos <- s.pos + 1
    done
  in
  if peek s = Some '-' then s.pos <- s.pos + 1;
  advance_while (function '0' .. '9' -> true | _ -> false);
  if peek s = Some '.' then begin
    s.pos <- s.pos + 1;
    advance_while (function '0' .. '9' -> true | _ -> false)
  end;
  (match peek s with
  | Some ('e' | 'E') ->
    s.pos <- s.pos + 1;
    (match peek s with
    | Some ('+' | '-') -> s.pos <- s.pos + 1
    | _ -> ());
    advance_while (function '0' .. '9' -> true | _ -> false)
  | _ -> ());
  let text = String.sub s.src start (s.pos - start) in
  match float_of_string_opt text with
  | Some f -> Num f
  | None -> fail start (Printf.sprintf "bad number %S" text)

let rec parse_value s =
  skip_ws s;
  match peek s with
  | None -> fail s.pos "unexpected end of input"
  | Some '{' ->
    s.pos <- s.pos + 1;
    skip_ws s;
    if peek s = Some '}' then begin
      s.pos <- s.pos + 1;
      Obj []
    end
    else begin
      let rec fields acc =
        skip_ws s;
        let k = parse_string s in
        skip_ws s;
        expect s ':';
        let v = parse_value s in
        skip_ws s;
        match peek s with
        | Some ',' ->
          s.pos <- s.pos + 1;
          fields ((k, v) :: acc)
        | Some '}' ->
          s.pos <- s.pos + 1;
          List.rev ((k, v) :: acc)
        | _ -> fail s.pos "expected ',' or '}'"
      in
      Obj (fields [])
    end
  | Some '[' ->
    s.pos <- s.pos + 1;
    skip_ws s;
    if peek s = Some ']' then begin
      s.pos <- s.pos + 1;
      Arr []
    end
    else begin
      let rec elems acc =
        let v = parse_value s in
        skip_ws s;
        match peek s with
        | Some ',' ->
          s.pos <- s.pos + 1;
          elems (v :: acc)
        | Some ']' ->
          s.pos <- s.pos + 1;
          List.rev (v :: acc)
        | _ -> fail s.pos "expected ',' or ']'"
      in
      Arr (elems [])
    end
  | Some '"' -> Str (parse_string s)
  | Some 't' -> keyword s "true" (Bool true)
  | Some 'f' -> keyword s "false" (Bool false)
  | Some 'n' -> keyword s "null" Null
  | Some ('-' | '0' .. '9') -> parse_number s
  | Some c -> fail s.pos (Printf.sprintf "unexpected character %C" c)

let parse src =
  let s = { src; pos = 0 } in
  match
    let v = parse_value s in
    skip_ws s;
    if s.pos <> String.length src then fail s.pos "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Err (pos, msg) ->
    Error (Printf.sprintf "JSON error at offset %d: %s" pos msg)

let parse_exn src =
  match parse src with Ok v -> v | Error msg -> failwith msg

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

let to_list = function Arr xs -> xs | _ -> []

(* --- printing ------------------------------------------------------------ *)

let escape_string buf s =
  Buffer.add_char buf '"';
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
    s;
  Buffer.add_char buf '"'

(* JSON has no NaN or infinities; [null] keeps the document parseable. *)
let add_num buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" f)
  else Buffer.add_string buf (Printf.sprintf "%.12g" f)

(* One printer for both layouts: [~pretty] breaks every non-empty array
   and object over two-space indented lines (BENCH_RESULTS.json is diffed
   by humans); otherwise everything stays on one line (one .jsonl record
   per line). *)
let print ~pretty v =
  let buf = Buffer.create 1024 in
  let newline ind =
    if pretty then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make ind ' ')
    end
  in
  let rec go ind = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> add_num buf f
    | Str s -> escape_string buf s
    | Arr [] -> Buffer.add_string buf "[]"
    | Obj [] -> Buffer.add_string buf "{}"
    | Arr xs -> seq ind '[' ']' (go (ind + 2)) xs
    | Obj fields ->
      seq ind '{' '}'
        (fun (k, x) ->
          escape_string buf k;
          Buffer.add_string buf ": ";
          go (ind + 2) x)
        fields
  and seq : 'a. int -> char -> char -> ('a -> unit) -> 'a list -> unit =
   fun ind op cl item xs ->
    Buffer.add_char buf op;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string buf (if pretty then "," else ", ");
        newline (ind + 2);
        item x)
      xs;
    newline ind;
    Buffer.add_char buf cl
  in
  go 0 v;
  Buffer.contents buf

let to_string v = print ~pretty:true v ^ "\n"
let to_line v = print ~pretty:false v

let set_member k v = function
  | Obj fields ->
    if List.mem_assoc k fields then
      Obj (List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) fields)
    else Obj (fields @ [ (k, v) ])
  | _ -> Obj [ (k, v) ]
