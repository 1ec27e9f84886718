let set_hex_byte b pos v =
  Bytes.set b pos "0123456789abcdef".[(v lsr 4) land 0xF];
  Bytes.set b (pos + 1) "0123456789abcdef".[v land 0xF]

let digit d = Char.unsafe_chr (48 + d)

(* No local [digit b] helper: it would be a closure allocated on every
   call. *)
let add_decimal b v =
  if v < 0 || v > 99999 then Buffer.add_string b (string_of_int v)
  else begin
    if v >= 10000 then Buffer.add_char b (digit (v / 10000));
    if v >= 1000 then Buffer.add_char b (digit (v / 1000 mod 10));
    if v >= 100 then Buffer.add_char b (digit (v / 100 mod 10));
    if v >= 10 then Buffer.add_char b (digit (v / 10 mod 10));
    Buffer.add_char b (digit (v mod 10))
  end

module Mac = struct
  type t = int

  let mask48 = 0xFFFF_FFFF_FFFF
  let of_int x = x land mask48
  let to_int t = t
  let broadcast = mask48
  let zero = 0
  let is_broadcast t = t = broadcast
  let is_multicast t = t land 0x0100_0000_0000 <> 0

  let of_string s =
    let parts = String.split_on_char ':' s in
    if List.length parts <> 6 then invalid_arg "Mac.of_string: need 6 octets";
    List.fold_left
      (fun acc p ->
        let v =
          try int_of_string ("0x" ^ p)
          with Failure _ -> invalid_arg "Mac.of_string: bad octet"
        in
        if v < 0 || v > 0xFF then invalid_arg "Mac.of_string: octet range";
        (acc lsl 8) lor v)
      0 parts

  let to_string t =
    let b = Bytes.make 17 ':' in
    for i = 0 to 5 do
      set_hex_byte b (3 * i) (t lsr (40 - (8 * i)))
    done;
    Bytes.unsafe_to_string b

  let pp fmt t = Format.pp_print_string fmt (to_string t)
  let compare = Int.compare
  let equal = Int.equal
  let hash = Hashtbl.hash
  let of_host_index i = of_int (0x0200_0000_0000 lor (i land 0xFFFF_FFFF))
  let lldp_nearest_bridge = of_string "01:80:c2:00:00:0e"
end

module Ipv4 = struct
  type t = int

  let mask32 = 0xFFFF_FFFF
  let of_int x = x land mask32
  let to_int t = t

  let of_string s =
    let parts = String.split_on_char '.' s in
    if List.length parts <> 4 then invalid_arg "Ipv4.of_string: need 4 octets";
    List.fold_left
      (fun acc p ->
        let v =
          try int_of_string p
          with Failure _ -> invalid_arg "Ipv4.of_string: bad octet"
        in
        if v < 0 || v > 255 then invalid_arg "Ipv4.of_string: octet range";
        (acc lsl 8) lor v)
      0 parts

  let octet t i = (t lsr (8 * (3 - i))) land 0xFF
  let octet_digits v = if v >= 100 then 3 else if v >= 10 then 2 else 1

  (* Written into bytes of the exact length. *)
  let to_string t =
    let len = ref 3 in
    for i = 0 to 3 do
      len := !len + octet_digits (octet t i)
    done;
    let b = Bytes.create !len in
    let pos = ref 0 in
    for i = 0 to 3 do
      let v = octet t i in
      if i > 0 then begin
        Bytes.unsafe_set b !pos '.';
        incr pos
      end;
      if v >= 100 then begin
        Bytes.unsafe_set b !pos (digit (v / 100));
        incr pos
      end;
      if v >= 10 then begin
        Bytes.unsafe_set b !pos (digit (v / 10 mod 10));
        incr pos
      end;
      Bytes.unsafe_set b !pos (digit (v mod 10));
      incr pos
    done;
    Bytes.unsafe_to_string b

  let pp fmt t = Format.pp_print_string fmt (to_string t)
  let compare = Int.compare
  let equal = Int.equal
  let any = 0
  let broadcast = mask32

  let of_host_index i =
    of_int (0x0A00_0000 lor ((i land 0xFFFF) + 1))

  let matches_prefix a ~prefix ~bits =
    if bits < 0 || bits > 32 then invalid_arg "Ipv4.matches_prefix: bits";
    if bits = 0 then true
    else begin
      let mask = mask32 lxor ((1 lsl (32 - bits)) - 1) in
      a land mask = to_int prefix land mask
    end
end
