type op = Create | Update | Delete

type t = {
  cache : Cache_names.t;
  op : op;
  key : string;
  value : string;
  origin : int;
  seq : int;
  taint : Taint.t option;
}

let op_to_string = function
  | Create -> "create"
  | Update -> "update"
  | Delete -> "delete"

let op_of_string s =
  match String.lowercase_ascii s with
  | "create" -> Some Create
  | "update" -> Some Update
  | "delete" -> Some Delete
  | _ -> None

let framing_overhead = 1150
(* Event metadata plus the data platform's envelope: Hazelcast and
   Infinispan serialise entries with class descriptors, backup
   bookkeeping and partition metadata — measured entry sizes are
   hundreds of bytes beyond the raw key/value. *)

let wire_size t =
  framing_overhead
  + String.length (Cache_names.to_string t.cache)
  + String.length t.key + String.length t.value
  + match t.taint with None -> 0 | Some taint -> Taint.printed_length taint

let pp fmt t =
  Format.fprintf fmt "%a[%s %s=%S origin=%d seq=%d]" Cache_names.pp t.cache
    (op_to_string t.op) t.key t.value t.origin t.seq

let equal (a : t) b = a = b
let compare = Stdlib.compare
