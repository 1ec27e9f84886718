type kind = External | Internal

type t = { node : int; serial : int; kind : kind; hash : int }

(* Characters [%d] prints for [n], counted on the non-positive side so
   that [min_int] fits. *)
let decimal_length n =
  let rec go v len = if v > -10 then len else go (v / 10) (len + 1) in
  if n < 0 then go n 2 else go (-n) 1

(* Writes [n] as [%d] prints it into [b.[pos .. pos + len)], where
   [len = decimal_length n]. *)
let write_decimal b ~pos ~len n =
  let rec go i v =
    Bytes.unsafe_set b i (Char.unsafe_chr (Char.code '0' - (v mod 10)));
    if v <= -10 then go (i - 1) (v / 10)
  in
  if n < 0 then begin
    Bytes.unsafe_set b pos '-';
    go (pos + len - 1) n
  end
  else go (pos + len - 1) (-n)

let render kind node serial =
  let ln = decimal_length node and ls = decimal_length serial in
  let b = Bytes.create (5 + ln + ls) in
  Bytes.blit_string
    (match kind with External -> "ext:" | Internal -> "int:")
    0 b 0 4;
  write_decimal b ~pos:4 ~len:ln node;
  Bytes.unsafe_set b (4 + ln) ':';
  write_decimal b ~pos:(5 + ln) ~len:ls serial;
  Bytes.unsafe_to_string b

(* [Hashtbl.hash (render kind node serial)] without rendering: the
   printed bytes are fed, in order, through the runtime's string hash
   (caml_hash_mix_string: 32-bit little-endian words through MurmurHash3's
   mix, a zero-padded tail word, the length) and its final mix. *)
let mask32 = 0xFFFF_FFFF
let[@inline] rotl32 x r = ((x lsl r) lor (x lsr (32 - r))) land mask32

let[@inline] mix h d =
  let d = rotl32 (d * 0xcc9e2d51 land mask32) 15 * 0x1b873593 land mask32 in
  let h = rotl32 (h lxor d) 13 in
  ((h * 5) + 0xe6546b64) land mask32

let final_mix h =
  let h = h lxor (h lsr 16) in
  let h = h * 0x85ebca6b land mask32 in
  let h = h lxor (h lsr 13) in
  let h = h * 0xc2b2ae35 land mask32 in
  h lxor (h lsr 16)

(* [pow10.(i)] is 10^i, up to the 19 digits of [min_int]. *)
let pow10 = Array.init 19 (fun i -> int_of_float (10. ** float_of_int i))

(* The byte at offset [i] of [n]'s [%d] rendering, [len] long. *)
let[@inline] decimal_byte n ~len i =
  if n < 0 && i = 0 then Char.code '-'
  else
    let v = if n < 0 then n else -n in
    Char.code '0' - ((v / pow10.(len - 1 - i)) mod 10)

(* "ext:" and "int:" as little-endian words: the first word mixed. *)
let ext_word = 0x3a747865
let int_word = 0x3a746e69

let hash_printed kind node serial =
  let ln = decimal_length node and ls = decimal_length serial in
  let len = 5 + ln + ls in
  let h = ref (mix 0 (match kind with External -> ext_word | Internal -> int_word)) in
  let w = ref 0 in
  for i = 4 to len - 1 do
    let c =
      if i < 4 + ln then decimal_byte node ~len:ln (i - 4)
      else if i = 4 + ln then Char.code ':'
      else decimal_byte serial ~len:ls (i - 5 - ln)
    in
    w := !w lor (c lsl (8 * (i land 3)));
    if i land 3 = 3 then begin
      h := mix !h !w;
      w := 0
    end
  done;
  if len land 3 <> 0 then h := mix !h !w;
  final_mix (!h lxor len) land 0x3FFF_FFFF

let make kind node serial =
  { node; serial; kind; hash = hash_printed kind node serial }

let external_trigger ~primary ~serial = make External primary serial
let internal_trigger ~origin ~seq = make Internal origin seq

let primary_of t =
  match t.kind with External -> Some t.node | Internal -> None

let is_external t = t.kind = External
let node t = t.node
let serial t = t.serial
let hash t = t.hash
let printed_length t = 5 + decimal_length t.node + decimal_length t.serial
let to_string t = render t.kind t.node t.serial

(* Reads the fields back with [int_of_string_opt] and keeps the taint
   only if it prints as [s]: that rejects every integer syntax no
   constructor prints ([+1], [0x1], [1_0], [01]) as well as overflow. *)
let of_string s =
  let kind =
    if String.starts_with ~prefix:"ext:" s then Some External
    else if String.starts_with ~prefix:"int:" s then Some Internal
    else None
  in
  match kind with
  | None -> None
  | Some kind -> (
      match String.index_from_opt s 4 ':' with
      | None -> None
      | Some c -> (
          let field i j = int_of_string_opt (String.sub s i (j - i)) in
          match (field 4 c, field (c + 1) (String.length s)) with
          | Some node, Some serial ->
              let t = make kind node serial in
              if String.equal (to_string t) s then Some t else None
          | _ -> None))

let equal a b =
  a == b
  || a.hash = b.hash && a.node = b.node && a.serial = b.serial
     && a.kind = b.kind

let compare a b =
  if equal a b then 0 else String.compare (to_string a) (to_string b)

let pp fmt t = Format.pp_print_string fmt (to_string t)

module Table = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
