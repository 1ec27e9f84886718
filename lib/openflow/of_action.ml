open Jury_packet

type t =
  | Output of Of_types.Port.t
  | Set_dl_src of Addr.Mac.t
  | Set_dl_dst of Addr.Mac.t
  | Set_nw_src of Addr.Ipv4.t
  | Set_nw_dst of Addr.Ipv4.t
  | Set_tp_src of int
  | Set_tp_dst of int
  | Set_vlan of int
  | Strip_vlan
  | Enqueue of Of_types.Port.t * int

let set_nw f (frame : Frame.t) =
  match frame.payload with
  | Frame.Ipv4 ip -> { frame with payload = Frame.Ipv4 (f ip) }
  | Frame.Arp _ | Frame.Lldp _ | Frame.Raw _ -> frame

let set_tp f (frame : Frame.t) =
  set_nw
    (fun ip ->
      match ip.l4 with
      | Frame.Tcp tcp -> { ip with l4 = Frame.Tcp (f (tcp.src_port, tcp.dst_port)
                                                   |> fun (s, d) ->
                                                   { tcp with src_port = s; dst_port = d }) }
      | Frame.Udp udp ->
          let s, d = f (udp.src_port, udp.dst_port) in
          { ip with l4 = Frame.Udp { udp with src_port = s; dst_port = d } }
      | Frame.Icmp _ | Frame.Other_l4 _ -> ip)
    frame

let apply actions frame =
  let ports = ref [] in
  let frame =
    List.fold_left
      (fun (frame : Frame.t) action ->
        match action with
        | Output p ->
            ports := p :: !ports;
            frame
        | Enqueue (p, _) ->
            ports := p :: !ports;
            frame
        | Set_dl_src mac -> { frame with dl_src = mac }
        | Set_dl_dst mac -> { frame with dl_dst = mac }
        | Set_nw_src ip -> set_nw (fun h -> { h with src = ip }) frame
        | Set_nw_dst ip -> set_nw (fun h -> { h with dst = ip }) frame
        | Set_tp_src p -> set_tp (fun (_, d) -> (p, d)) frame
        | Set_tp_dst p -> set_tp (fun (s, _) -> (s, p)) frame
        | Set_vlan v -> { frame with vlan = Some v }
        | Strip_vlan -> { frame with vlan = None })
      frame actions
  in
  (frame, List.rev !ports)

let output_ports actions =
  List.filter_map
    (function Output p | Enqueue (p, _) -> Some p | _ -> None)
    actions

let is_drop actions = output_ports actions = []
let equal (a : t) b = a = b
let equal_list a b = try List.for_all2 equal a b with Invalid_argument _ -> false

let pp fmt = function
  | Output p -> Format.fprintf fmt "output:%a" Of_types.Port.pp p
  | Set_dl_src m -> Format.fprintf fmt "set_dl_src:%a" Addr.Mac.pp m
  | Set_dl_dst m -> Format.fprintf fmt "set_dl_dst:%a" Addr.Mac.pp m
  | Set_nw_src i -> Format.fprintf fmt "set_nw_src:%a" Addr.Ipv4.pp i
  | Set_nw_dst i -> Format.fprintf fmt "set_nw_dst:%a" Addr.Ipv4.pp i
  | Set_tp_src p -> Format.fprintf fmt "set_tp_src:%d" p
  | Set_tp_dst p -> Format.fprintf fmt "set_tp_dst:%d" p
  | Set_vlan v -> Format.fprintf fmt "set_vlan:%d" v
  | Strip_vlan -> Format.pp_print_string fmt "strip_vlan"
  | Enqueue (p, q) -> Format.fprintf fmt "enqueue:%a:%d" Of_types.Port.pp p q

let pp_list fmt = function
  | [] -> Format.pp_print_string fmt "drop"
  | actions ->
      Format.pp_print_list
        ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
        pp fmt actions
