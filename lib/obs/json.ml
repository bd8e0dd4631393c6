type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Emission                                                            *)
(* ------------------------------------------------------------------ *)

(* Bytes a JSON string cannot hold verbatim. *)
let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* Clean runs are copied whole; only an escaped byte is written alone. *)
let add_string buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if needs_escape c then begin
      Buffer.add_substring buf s !run (i - !run);
      run := i + 1;
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c ->
        Buffer.add_string buf "\\u00";
        Buffer.add_char buf "0123456789abcdef".[Char.code c lsr 4];
        Buffer.add_char buf "0123456789abcdef".[Char.code c land 15]
    end
  done;
  Buffer.add_substring buf s !run (n - !run);
  Buffer.add_char buf '"'

(* Digits most significant first, from [-|n|], which never overflows, so
   [min_int] needs no special case. [p] grows to the largest power of
   ten not above [|n|] <= 2^62; a multiple of ten is never 2^62, so it
   stays within [max_int]. *)
let add_int buf n =
  if n >= 0 && n < 10 then Buffer.add_char buf (Char.unsafe_chr (48 + n))
  else begin
    let m = if n < 0 then n else -n in
    if n < 0 then Buffer.add_char buf '-';
    let p = ref 1 in
    while m / !p <= -10 do
      p := !p * 10
    done;
    while !p > 0 do
      Buffer.add_char buf (Char.unsafe_chr (48 - (m / !p mod 10)));
      p := !p / 10
    done
  end

(* The C primitive behind Printf's [%g], without the format
   interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

(* Shortest decimal form that parses back to the same binary64. *)
let float_to_string x =
  if not (Float.is_finite x) then "null"
  else
    let s = format_float "%.12g" x in
    let s = if float_of_string s = x then s else format_float "%.17g" x in
    (* "%g" may print an integer-valued float without '.' or 'e'; a JSON
       reader would re-type it as an int *)
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E' || c = 'n') s then s
    else s ^ ".0"

let add_float buf x = Buffer.add_string buf (float_to_string x)

let add_list buf add xs =
  Buffer.add_char buf '[';
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      add buf x)
    xs;
  Buffer.add_char buf ']'

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> add_int buf n
  | Float x -> add_float buf x
  | Str s -> add_string buf s
  | List xs -> add_list buf emit xs
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_string buf k;
        Buffer.add_char buf ':';
        emit buf v)
      fields;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  emit buf j;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing (recursive descent, bytes passed through verbatim)          *)
(* ------------------------------------------------------------------ *)

exception Bad of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then advance ()
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = int_of_string ("0x" ^ String.sub s !pos 4) in
    pos := !pos + 4;
    v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= n then fail "truncated escape";
         let c = s.[!pos] in
         advance ();
         match c with
         | '"' -> Buffer.add_char buf '"'
         | '\\' -> Buffer.add_char buf '\\'
         | '/' -> Buffer.add_char buf '/'
         | 'b' -> Buffer.add_char buf '\b'
         | 'f' -> Buffer.add_char buf '\012'
         | 'n' -> Buffer.add_char buf '\n'
         | 'r' -> Buffer.add_char buf '\r'
         | 't' -> Buffer.add_char buf '\t'
         | 'u' -> (
           let cp = hex4 () in
           match Uchar.of_int cp with
           | u -> Buffer.add_utf_8_uchar buf u
           | exception Invalid_argument _ -> fail "bad \\u escape")
         | _ -> fail "unknown escape");
        go ()
      | c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text then
      match float_of_string_opt text with
      | Some x -> Float x
      | None -> fail "bad number"
    else
      match int_of_string_opt text with
      | Some k -> Int k
      | None -> (
        (* integer out of range for the OCaml int: keep it as a float *)
        match float_of_string_opt text with
        | Some x -> Float x
        | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec members () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          fields := (k, v) :: !fields;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> fail "expected , or }"
        in
        members ();
        Obj (List.rev !fields)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec elements () =
          let v = parse_value () in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected , or ]"
        in
        elements ();
        List (List.rev !items)
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  match parse_value () with
  | v ->
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos)
    else Ok v
  | exception Bad msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | Null | Bool _ | Int _ | Float _ | Str _ | List _ -> None

let to_int = function Int n -> Some n | Float x -> Some (int_of_float x) | _ -> None
let to_float = function Float x -> Some x | Int n -> Some (float_of_int n) | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function List xs -> Some xs | _ -> None

let field conv kind name j =
  match Option.bind (member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing %s field %s" kind name)

let int_field = field to_int "int"
let float_field = field to_float "float"
let str_field = field to_str "string"
let bool_field = field to_bool "bool"

let list_field name elt j =
  match Option.bind (member name j) to_list with
  | None -> Error (Printf.sprintf "missing list field %s" name)
  | Some xs ->
    let ys = List.filter_map elt xs in
    if List.length ys = List.length xs then Ok ys
    else Error (Printf.sprintf "ill-typed element in %s" name)
