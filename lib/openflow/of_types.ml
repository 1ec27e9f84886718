module Dpid = struct
  type t = int64

  let of_int = Int64.of_int
  let of_int64 x = x
  let to_int64 t = t
  let compare = Int64.compare
  let equal = Int64.equal
  let hash = Hashtbl.hash
  (* "of:%016Lx" without Printf: consensus fingerprints render a dpid
     for every network action of every execution. *)
  let to_string t =
    let b = Bytes.create 19 in
    Bytes.blit_string "of:" 0 b 0 3;
    for i = 0 to 7 do
      Jury_packet.Addr.set_hex_byte b (3 + (2 * i))
        (Int64.to_int (Int64.shift_right_logical t (8 * (7 - i))))
    done;
    Bytes.unsafe_to_string b

  let pp fmt t = Format.pp_print_string fmt (to_string t)
end

module Port = struct
  type t = int

  let in_port = 0xfff8
  let flood = 0xfffb
  let all = 0xfffc
  let controller = 0xfffd
  let local = 0xfffe
  let none = 0xffff
  let is_physical p = p >= 1 && p < 0xff00

  let to_string p =
    if p = controller then "CONTROLLER"
    else if p = flood then "FLOOD"
    else if p = all then "ALL"
    else if p = local then "LOCAL"
    else if p = none then "NONE"
    else if p = in_port then "IN_PORT"
    else string_of_int p

  let pp fmt p = Format.pp_print_string fmt (to_string p)
end

type xid = int
type buffer_id = int option
type cookie = int64
