exception Truncated of string

module Writer = struct
  type t = { mutable buf : Bytes.t; mutable len : int }

  let create () = { buf = Bytes.create 64; len = 0 }
  let length t = t.len

  (* Make room for [n] more bytes, doubling so appends stay O(1)
     amortised. *)
  let reserve t n =
    let need = t.len + n in
    if need > Bytes.length t.buf then begin
      let buf = Bytes.create (max need (2 * Bytes.length t.buf)) in
      Bytes.blit t.buf 0 buf 0 t.len;
      t.buf <- buf
    end

  let u8 t v =
    reserve t 1;
    Bytes.unsafe_set t.buf t.len (Char.unsafe_chr (v land 0xFF));
    t.len <- t.len + 1

  let u16 t v =
    reserve t 2;
    Bytes.unsafe_set t.buf t.len (Char.unsafe_chr ((v lsr 8) land 0xFF));
    Bytes.unsafe_set t.buf (t.len + 1) (Char.unsafe_chr (v land 0xFF));
    t.len <- t.len + 2

  let u32 t v =
    u16 t (v lsr 16);
    u16 t v

  let u48 t v =
    u16 t (v lsr 32);
    u32 t v

  let u64 t v =
    u32 t (Int64.to_int (Int64.shift_right_logical v 32));
    u32 t (Int64.to_int (Int64.logand v 0xFFFF_FFFFL))

  let bytes t s =
    let n = String.length s in
    reserve t n;
    Bytes.blit_string s 0 t.buf t.len n;
    t.len <- t.len + n

  let zeros t n =
    reserve t n;
    Bytes.fill t.buf t.len n '\000';
    t.len <- t.len + n

  let contents t = Bytes.sub_string t.buf 0 t.len

  let patch_u16 t ~pos v =
    if pos < 0 || pos + 2 > t.len then invalid_arg "Wire_buf.Writer.patch_u16";
    Bytes.set t.buf pos (Char.unsafe_chr ((v lsr 8) land 0xFF));
    Bytes.set t.buf (pos + 1) (Char.unsafe_chr (v land 0xFF))
end

module Reader = struct
  type t = { data : string; mutable pos : int }

  let of_string data = { data; pos = 0 }
  let pos t = t.pos
  let remaining t = String.length t.data - t.pos

  let need t n field = if remaining t < n then raise (Truncated field)

  let u8 t field =
    need t 1 field;
    let v = Char.code t.data.[t.pos] in
    t.pos <- t.pos + 1;
    v

  let u16 t field =
    need t 2 field;
    (* Explicit lets: infix operand evaluation order is unspecified. *)
    let hi = u8 t field in
    let lo = u8 t field in
    (hi lsl 8) lor lo

  let u32 t field =
    let hi = u16 t field in
    let lo = u16 t field in
    (hi lsl 16) lor lo

  let u48 t field =
    let hi = u16 t field in
    let lo = u32 t field in
    (hi lsl 32) lor lo

  let u64 t field =
    let hi = u32 t field in
    let lo = u32 t field in
    Int64.logor
      (Int64.shift_left (Int64.of_int hi) 32)
      (Int64.of_int lo)

  let bytes t n field =
    need t n field;
    let s = String.sub t.data t.pos n in
    t.pos <- t.pos + n;
    s

  let skip t n field =
    need t n field;
    t.pos <- t.pos + n

  let rest t =
    let s = String.sub t.data t.pos (remaining t) in
    t.pos <- String.length t.data;
    s
end

let internet_checksum s =
  let n = String.length s in
  let sum = ref 0 in
  let i = ref 0 in
  while !i + 1 < n do
    sum := !sum + ((Char.code s.[!i] lsl 8) lor Char.code s.[!i + 1]);
    i := !i + 2
  done;
  if !i < n then sum := !sum + (Char.code s.[!i] lsl 8);
  while !sum lsr 16 <> 0 do
    sum := (!sum land 0xFFFF) + (!sum lsr 16)
  done;
  lnot !sum land 0xFFFF
