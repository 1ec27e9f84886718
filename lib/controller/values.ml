open Jury_openflow
module Addr = Jury_packet.Addr

let hex_encode s =
  let b = Bytes.create (2 * String.length s) in
  String.iteri (fun i c -> Addr.set_hex_byte b (2 * i) (Char.code c)) s;
  Bytes.unsafe_to_string b

let hex_value = function
  | '0' .. '9' as c -> Char.code c - Char.code '0'
  | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
  | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
  | _ -> -1

(* Accepts what [int_of_string ("0x" ^ pair)] accepted per byte, which
   includes a second character of '_': that reads as the first digit
   alone ("a_" is 0x0a). *)
let hex_decode s =
  let n = String.length s / 2 in
  if String.length s mod 2 <> 0 then None
  else begin
    (* A loop, not a local recursive function: that would be a closure
       allocated on every call. *)
    let b = Bytes.create n and i = ref 0 in
    while !i < n do
      let hi = hex_value s.[2 * !i] and lo = s.[(2 * !i) + 1] in
      let byte =
        if hi < 0 then -1
        else if lo = '_' then hi
        else
          let lo = hex_value lo in
          if lo < 0 then -1 else (hi * 16) + lo
      in
      if byte < 0 then i := n + 1
      else begin
        Bytes.set b !i (Char.chr byte);
        incr i
      end
    done;
    if !i = n then Some (Bytes.unsafe_to_string b) else None
  end

(* "%Lx": the dpid's hex digits without the "of:" and leading zeros. *)
let dpid_to_key d =
  let s = Of_types.Dpid.to_string d in
  let rec first i = if i < 18 && s.[i] = '0' then first (i + 1) else i in
  let i = first 3 in
  String.sub s i (String.length s - i)

(* The dpid whose "%Lx" is [s.[0..j)]: at most 64 bits of hex digits,
   read in place. *)
let dpid_of_prefix s j =
  let v = ref 0L and ok = ref (j > 0) in
  for k = 0 to j - 1 do
    let d = hex_value s.[k] in
    if d < 0 || Int64.shift_right_logical !v 60 <> 0L then ok := false
    else v := Int64.logor (Int64.shift_left !v 4) (Int64.of_int d)
  done;
  if !ok then Some (Of_types.Dpid.of_int64 !v) else None

let dpid_of_key s = dpid_of_prefix s (String.length s)

(* "<dpid key>:<port>", the attachment point in HOSTDB values and
   LINKSDB keys. *)
let endpoint_str (d, p) =
  let b = Buffer.create 24 in
  Buffer.add_string b (dpid_to_key d);
  Buffer.add_char b ':';
  Addr.add_decimal b p;
  Buffer.contents b

module Host = struct
  let key mac = Addr.Mac.to_string mac

  let value ~dpid ~port ~ip =
    String.concat ":" [ endpoint_str (dpid, port); Addr.Ipv4.to_string ip ]

  let parse v =
    match String.split_on_char ':' v with
    | [ d; p; ip ] -> (
        match (dpid_of_key d, int_of_string_opt p) with
        | Some dpid, Some port -> (
            try Some (dpid, port, Addr.Ipv4.of_string ip)
            with Invalid_argument _ -> None)
        | _ -> None)
    | _ -> None
end

module Arp = struct
  let key ip = Addr.Ipv4.to_string ip

  let parse v =
    try Some (Addr.Mac.of_string v) with Invalid_argument _ -> None
end

module Link = struct
  let key e1 e2 =
    let s1 = endpoint_str e1 and s2 = endpoint_str e2 in
    if String.compare s1 s2 <= 0 then s1 ^ "--" ^ s2 else s2 ^ "--" ^ s1

  let value_up = "up"
  let value_down = "down"

  let parse_endpoint s =
    match String.split_on_char ':' s with
    | [ d; p ] -> (
        match (dpid_of_key d, int_of_string_opt p) with
        | Some dpid, Some port -> Some (dpid, port)
        | _ -> None)
    | _ -> None

  (* "<endpoint>--<endpoint>", split at the first "--". An endpoint's
     dpid is hex and its port an int, so neither holds a "--": a key
     with a second one fails to parse. *)
  let parse_key k =
    let n = String.length k in
    let rec sep i =
      if i + 1 >= n then None
      else if k.[i] = '-' && k.[i + 1] = '-' then Some i
      else sep (i + 1)
    in
    match sep 0 with
    | None -> None
    | Some i -> (
        let a = String.sub k 0 i and b = String.sub k (i + 2) (n - i - 2) in
        match (parse_endpoint a, parse_endpoint b) with
        | Some e1, Some e2 -> Some (e1, e2)
        | _ -> None)

  let involves k dpid port =
    match parse_key k with
    | None -> false
    | Some ((d1, p1), (d2, p2)) ->
        (Of_types.Dpid.equal d1 dpid && p1 = port)
        || (Of_types.Dpid.equal d2 dpid && p2 = port)
end

module Flow = struct
  let key dpid m ~priority =
    let b = Buffer.create 128 in
    Of_match.add_to_buffer b m;
    Addr.add_decimal b priority;
    String.concat "/"
      [ dpid_to_key dpid; Digest.to_hex (Digest.string (Buffer.contents b)) ]

  let value (fm : Of_message.flow_mod) =
    hex_encode (Of_wire.encode (Of_message.make ~xid:0 (Of_message.Flow_mod fm)))

  let parse v =
    match hex_decode v with
    | None -> None
    | Some wire -> (
        match Of_wire.decode wire with
        | { Of_message.payload = Of_message.Flow_mod fm; _ } -> Some fm
        | _ -> None
        | exception _ -> None)

  let dpid_of_key k =
    match String.index k '/' with
    | i -> dpid_of_prefix k i
    | exception Not_found -> None

  module Memo = struct
    let capacity = 256

    module Rules = Hashtbl.Make (struct
      type t = Of_types.Dpid.t * Of_match.t * int

      let equal (d, m, p) (d', m', p') =
        p = p' && Of_types.Dpid.equal d d' && Of_match.equal m m'

      let hash (d, m, p) = Of_match.hash m + p + Of_types.Dpid.hash d
    end)

    (* Equal FLOW_MODs render equal values. The record pattern names
       every field, so a new one cannot be left out of the test. *)
    module Mods = Hashtbl.Make (struct
      type t = Of_message.flow_mod

      let equal (a : t) (b : t) =
        let { Of_message.command; fm_match; priority; cookie; idle_timeout;
              hard_timeout; actions; fm_buffer_id; out_port } =
          a
        in
        a == b
        || priority = b.priority
           && Of_match.equal fm_match b.fm_match
           && Of_action.equal_list actions b.actions
           && command = b.command
           && Int64.equal cookie b.cookie
           && idle_timeout = b.idle_timeout
           && hard_timeout = b.hard_timeout
           && Option.equal Int.equal fm_buffer_id b.fm_buffer_id
           && Option.equal Int.equal out_port b.out_port

      let hash (fm : t) = Of_match.hash fm.fm_match + fm.priority
    end)

    type t = {
      rules : string Rules.t;
      mods : string Mods.t;
      mutable lookups : int;
      mutable hits : int;
    }

    let create () =
      { rules = Rules.create capacity; mods = Mods.create capacity;
        lookups = 0; hits = 0 }

    let size t = Rules.length t.rules + Mods.length t.mods
    let lookups t = t.lookups
    let hits t = t.hits

    let key t dpid m ~priority =
      let rule = (dpid, m, priority) in
      t.lookups <- t.lookups + 1;
      match Rules.find t.rules rule with
      | s ->
          t.hits <- t.hits + 1;
          s
      | exception Not_found ->
          if Rules.length t.rules >= capacity then Rules.reset t.rules;
          let s = key dpid m ~priority in
          Rules.add t.rules rule s;
          s

    let value t fm =
      t.lookups <- t.lookups + 1;
      match Mods.find t.mods fm with
      | s ->
          t.hits <- t.hits + 1;
          s
      | exception Not_found ->
          if Mods.length t.mods >= capacity then Mods.reset t.mods;
          let s = value fm in
          Mods.add t.mods fm s;
          s
  end
end

module Switch = struct
  let key = dpid_to_key

  let value_connected ~master ~ports =
    Printf.sprintf "connected:%d:%s" master
      (String.concat "," (List.map string_of_int (List.sort compare ports)))

  let parse v =
    match String.split_on_char ':' v with
    | [ "connected"; m; ports ] -> (
        match int_of_string_opt m with
        | None -> None
        | Some master ->
            let port_list =
              if ports = "" then Some []
              else
                String.split_on_char ',' ports
                |> List.map int_of_string_opt
                |> List.fold_left
                     (fun acc p ->
                       match (acc, p) with
                       | Some acc, Some p -> Some (p :: acc)
                       | _ -> None)
                     (Some [])
                |> Option.map List.rev
            in
            Option.map (fun ps -> (master, ps)) port_list)
    | _ -> None
end

module Master = struct
  let key = dpid_to_key
  let value id = string_of_int id
  let parse = int_of_string_opt
end

let parse_dpid_key = dpid_of_key
