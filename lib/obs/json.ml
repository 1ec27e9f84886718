type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* --- writing --- *)

let escape_into buf s =
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

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  escape_into buf s;
  Buffer.contents buf

(* 17 significant digits read back to the same float; a fraction or
   exponent keeps it a [Float] on the way back in. *)
let float_repr f =
  let s = Printf.sprintf "%.17g" f in
  if String.exists (function '.' | 'e' -> true | _ -> false) s then s
  else s ^ ".0"

let to_string v =
  let buf = Buffer.create 128 in
  let str s =
    Buffer.add_char buf '"';
    escape_into buf s;
    Buffer.add_char buf '"'
  in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f when Float.is_finite f -> Buffer.add_string buf (float_repr f)
    | Float _ -> Buffer.add_string buf "null"
    | String s -> str s
    | List vs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            go v)
          vs;
        Buffer.add_char buf ']'
    | Obj kvs ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            str k;
            Buffer.add_char buf ':';
            go v)
          kvs;
        Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* --- reading --- *)

exception Fail of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let hex4 () =
    if !pos + 4 > n then fail "short \\u escape";
    match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
    | Some code ->
        pos := !pos + 4;
        code
    | None -> fail "bad \\u escape"
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
          advance ();
          (match peek () with
          | Some (('"' | '\\' | '/') as c) -> advance (); Buffer.add_char buf c
          | Some 'n' -> advance (); Buffer.add_char buf '\n'
          | Some 'r' -> advance (); Buffer.add_char buf '\r'
          | Some 't' -> advance (); Buffer.add_char buf '\t'
          | Some 'b' -> advance (); Buffer.add_char buf '\b'
          | Some 'f' -> advance (); Buffer.add_char buf '\012'
          | Some 'u' ->
              advance ();
              let hi = hex4 () in
              let code =
                if hi land 0xFC00 <> 0xD800 then hi
                else begin
                  (* a high surrogate must be followed by its low half *)
                  expect '\\';
                  expect 'u';
                  let lo = hex4 () in
                  if lo land 0xFC00 <> 0xDC00 then fail "unpaired surrogate";
                  0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
                end
              in
              if not (Uchar.is_valid code) then fail "unpaired surrogate";
              Buffer.add_utf_8_uchar buf (Uchar.of_int code)
          | _ -> fail "bad escape");
          go ()
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    while
      match peek () with
      | Some ('0' .. '9' | '-' | '+' | '.' | 'e' | 'E') -> true
      | _ -> false
    do
      advance ()
    done;
    let lit = String.sub s start (!pos - start) in
    let integral =
      not (String.exists (function '.' | 'e' | 'E' -> true | _ -> false) lit)
    in
    match (integral, int_of_string_opt lit, float_of_string_opt lit) with
    | true, Some i, _ -> Int i
    | _, _, Some f -> Float f
    | _ ->
        pos := start;
        fail "bad number"
  in
  (* The items of a bracketed sequence whose opening character is
     already consumed, up to and including [close]. *)
  let sequence close item =
    skip_ws ();
    if peek () = Some close then (advance (); [])
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); skip_ws (); go acc
        | Some c when c = close -> advance (); List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or %C" close)
      in
      go []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        Obj
          (sequence '}' (fun () ->
               let k = string_lit () in
               skip_ws ();
               expect ':';
               (k, value ())))
    | Some '[' ->
        advance ();
        List (sequence ']' value)
    | Some '"' -> String (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('0' .. '9' | '-') -> number ()
    | None -> fail "unexpected end of input"
    | Some _ -> fail "unexpected character"
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing characters";
    v
  with
  | v -> Ok v
  | exception Fail msg -> Error msg

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None
