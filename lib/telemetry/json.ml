type t =
  | Null
  | Bool of bool
  | Int of int
  | Int64 of int64
  | Num of float
  | Sig9 of float
  | Fixed of int * float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* --- Parser: recursive descent over the input string --------------- *)

type state = { s : string; mutable pos : int }

let fail st msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | Some _ | None -> ()

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | Some d -> fail st (Printf.sprintf "expected '%c', found '%c'" c d)
  | None -> fail st (Printf.sprintf "expected '%c', found end of input" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else fail st (Printf.sprintf "expected '%s'" word)

let hex_digit st c =
  match c with
  | '0' .. '9' -> Char.code c - Char.code '0'
  | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
  | _ -> fail st "invalid hex digit in \\u escape"

let hex4 st =
  if st.pos + 4 > String.length st.s then fail st "truncated \\u escape";
  let v = ref 0 in
  for _ = 1 to 4 do
    v := (!v * 16) + hex_digit st st.s.[st.pos];
    advance st
  done;
  !v

(* UTF-8 encode one scalar value (surrogate pairs already combined). *)
let encode_utf8 buf cp =
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

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
       | None -> fail st "unterminated escape"
       | Some c ->
         advance st;
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
            let cp = hex4 st in
            let cp =
              if cp >= 0xD800 && cp <= 0xDBFF
                 && st.pos + 6 <= String.length st.s
                 && st.s.[st.pos] = '\\'
                 && st.s.[st.pos + 1] = 'u'
              then begin
                st.pos <- st.pos + 2;
                let lo = hex4 st in
                if lo >= 0xDC00 && lo <= 0xDFFF then
                  0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                else fail st "unpaired surrogate"
              end
              else cp
            in
            encode_utf8 buf cp
          | _ -> fail st "invalid escape"));
      go ()
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let consume_while p =
    let rec go () =
      match peek st with
      | Some c when p c ->
        advance st;
        go ()
      | Some _ | None -> ()
    in
    go ()
  in
  (match peek st with Some '-' -> advance st | _ -> ());
  consume_while (function '0' .. '9' -> true | _ -> false);
  (match peek st with
   | Some '.' ->
     advance st;
     consume_while (function '0' .. '9' -> true | _ -> false)
   | _ -> ());
  (match peek st with
   | Some ('e' | 'E') ->
     advance st;
     (match peek st with Some ('+' | '-') -> advance st | _ -> ());
     consume_while (function '0' .. '9' -> true | _ -> false)
   | _ -> ());
  let text = String.sub st.s start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> Num f
  | None -> fail st (Printf.sprintf "invalid number '%s'" text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> fail st "unexpected end of input"
  | Some '{' ->
    advance st;
    skip_ws st;
    if peek st = Some '}' then begin
      advance st;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          members ((key, v) :: acc)
        | Some '}' ->
          advance st;
          List.rev ((key, v) :: acc)
        | _ -> fail st "expected ',' or '}'"
      in
      Obj (members [])
    end
  | Some '[' ->
    advance st;
    skip_ws st;
    if peek st = Some ']' then begin
      advance st;
      List []
    end
    else begin
      let rec elems acc =
        let v = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          advance st;
          elems (v :: acc)
        | Some ']' ->
          advance st;
          List.rev (v :: acc)
        | _ -> fail st "expected ',' or ']'"
      in
      List (elems [])
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some c -> fail st (Printf.sprintf "unexpected character '%c'" c)

let parse s =
  let st = { s; pos = 0 } in
  match parse_value st with
  | v ->
    skip_ws st;
    if st.pos = String.length s then Ok v else Error "trailing characters after JSON value"
  | exception Parse_error msg -> Error msg

(* --- Printer ------------------------------------------------------- *)

let add_quoted buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

(* JSON has no NaN or Infinity literal: every float form prints a
   non-finite value as null. *)
let add_float buf f text = Buffer.add_string buf (if Float.is_finite f then text f else "null")

(* Integral values below 1e15 print as integers, others at [digits]
   significant digits. *)
let shortest digits f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.*g" digits f

(* [%.*f], dropping the sign of a value that rounds to zero: "-0.000"
   would tell apart two figures that print equal otherwise. *)
let fixed decimals f =
  let s = Printf.sprintf "%.*f" decimals f in
  let unsigned = String.sub s 1 (String.length s - 1) in
  if s.[0] = '-' && String.for_all (fun c -> c = '0' || c = '.') unsigned then unsigned else s

(* One writer for both layouts: [layout depth] gives the text before
   the first member of a container at [depth], between two members,
   between a key and its value, and after the last member. *)
let rec add_value buf layout depth v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Int64 i -> Buffer.add_string buf (Int64.to_string i)
  | Num f -> add_float buf f (shortest 17)
  | Sig9 f -> add_float buf f (shortest 9)
  | Fixed (decimals, f) -> add_float buf f (fixed decimals)
  | Str s -> add_quoted buf s
  | List vs -> add_members buf layout depth '[' ']' (List.map (fun v -> (None, v)) vs)
  | Obj ms -> add_members buf layout depth '{' '}' (List.map (fun (k, v) -> (Some k, v)) ms)

and add_members buf layout depth open_ close members =
  let first, sep, colon, last = layout depth in
  Buffer.add_char buf open_;
  List.iteri
    (fun i (key, v) ->
      Buffer.add_string buf (if i = 0 then first else sep);
      Option.iter
        (fun k ->
          add_quoted buf k;
          Buffer.add_string buf colon)
        key;
      add_value buf layout (depth + 1) v)
    members;
  if members <> [] then Buffer.add_string buf last;
  Buffer.add_char buf close

let render layout v =
  let buf = Buffer.create 256 in
  add_value buf layout 0 v;
  Buffer.contents buf

let to_string v = render (fun _ -> ("", ",", ":", "")) v

let to_string_pretty v =
  render
    (fun depth ->
      if depth >= 2 then ("", ", ", ": ", "")
      else
        let pad = "\n" ^ String.make (2 * depth) ' ' in
        (pad ^ "  ", "," ^ pad ^ "  ", ": ", pad))
    v

let write_file path v =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (to_string_pretty v);
      Out_channel.output_char oc '\n')

(* --- Accessors ----------------------------------------------------- *)

let member key = function Obj ms -> List.assoc_opt key ms | _ -> None

let to_float = function Num f -> Some f | _ -> None

let to_int = function
  | Num f when Float.is_integer f && Float.abs f <= 1e9 -> Some (int_of_float f)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_list = function List vs -> Some vs | _ -> None
