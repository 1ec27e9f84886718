type t = {
  chassis_id : int64;
  port_id : int;
  ttl : int;
  system_name : string option;
}

let make ?system_name ~chassis_id ~port_id ~ttl () =
  { chassis_id; port_id; ttl; system_name }

let tlv_header w ~ty ~len =
  (* 7-bit type, 9-bit length. *)
  Wire_buf.Writer.u16 w ((ty lsl 9) lor (len land 0x1FF))

let encode t =
  let w = Wire_buf.Writer.create () in
  (* Chassis ID TLV: subtype 7 (locally assigned) + 8-byte dpid. *)
  tlv_header w ~ty:1 ~len:9;
  Wire_buf.Writer.u8 w 7;
  Wire_buf.Writer.u64 w t.chassis_id;
  (* Port ID TLV: subtype 7 + 2-byte port. *)
  tlv_header w ~ty:2 ~len:3;
  Wire_buf.Writer.u8 w 7;
  Wire_buf.Writer.u16 w t.port_id;
  (* TTL TLV. *)
  tlv_header w ~ty:3 ~len:2;
  Wire_buf.Writer.u16 w t.ttl;
  (match t.system_name with
  | None -> ()
  | Some name ->
      tlv_header w ~ty:5 ~len:(String.length name);
      Wire_buf.Writer.bytes w name);
  (* End of LLDPDU. *)
  tlv_header w ~ty:0 ~len:0;
  Wire_buf.Writer.contents w

(* The three mandatory TLVs (11 + 5 + 4 bytes), the optional system
   name, and the 2-byte end TLV, as [encode] writes them. *)
let encoded_length t =
  22 + match t.system_name with None -> 0 | Some name -> 2 + String.length name

let decode s =
  let r = Wire_buf.Reader.of_string s in
  let chassis_id = ref None
  and port_id = ref None
  and ttl = ref None
  and system_name = ref None in
  let stop = ref false in
  while not !stop do
    let hdr = Wire_buf.Reader.u16 r "lldp tlv header" in
    let ty = hdr lsr 9 and len = hdr land 0x1FF in
    match ty with
    | 0 -> stop := true
    | 1 ->
        let subtype = Wire_buf.Reader.u8 r "chassis subtype" in
        if subtype <> 7 || len <> 9 then
          invalid_arg "Lldp.decode: unsupported chassis id TLV";
        chassis_id := Some (Wire_buf.Reader.u64 r "chassis id")
    | 2 ->
        let subtype = Wire_buf.Reader.u8 r "port subtype" in
        if subtype <> 7 || len <> 3 then
          invalid_arg "Lldp.decode: unsupported port id TLV";
        port_id := Some (Wire_buf.Reader.u16 r "port id")
    | 3 ->
        if len <> 2 then invalid_arg "Lldp.decode: bad TTL TLV";
        ttl := Some (Wire_buf.Reader.u16 r "ttl")
    | 5 -> system_name := Some (Wire_buf.Reader.bytes r len "system name")
    | _ -> Wire_buf.Reader.skip r len "unknown tlv"
  done;
  match (!chassis_id, !port_id, !ttl) with
  | Some chassis_id, Some port_id, Some ttl ->
      { chassis_id; port_id; ttl; system_name = !system_name }
  | _ -> invalid_arg "Lldp.decode: missing mandatory TLV"

let pp fmt t =
  Format.fprintf fmt "lldp(dpid=%Ld port=%d ttl=%d%a)" t.chassis_id t.port_id
    t.ttl
    (fun fmt -> function
      | None -> ()
      | Some n -> Format.fprintf fmt " sys=%s" n)
    t.system_name

let equal a b =
  Int64.equal a.chassis_id b.chassis_id
  && a.port_id = b.port_id && a.ttl = b.ttl
  && Option.equal String.equal a.system_name b.system_name
