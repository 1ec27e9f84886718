type t =
  | Arpdb
  | Edgedb
  | Flowsdb
  | Hostdb
  | Linksdb
  | Masterdb
  | Switchdb
  | Other of string

let arpdb = Arpdb
let hostdb = Hostdb
let edgedb = Edgedb
let linksdb = Linksdb
let flowsdb = Flowsdb
let switchdb = Switchdb
let masterdb = Masterdb
let all = [ Arpdb; Edgedb; Flowsdb; Hostdb; Linksdb; Masterdb; Switchdb ]

let to_string = function
  | Arpdb -> "ARPDB"
  | Edgedb -> "EDGEDB"
  | Flowsdb -> "FLOWSDB"
  | Hostdb -> "HOSTDB"
  | Linksdb -> "LINKSDB"
  | Masterdb -> "MASTERDB"
  | Switchdb -> "SWITCHDB"
  | Other s -> s

let of_string s =
  match String.uppercase_ascii s with
  | "ARPDB" -> Arpdb
  | "EDGEDB" -> Edgedb
  | "FLOWSDB" -> Flowsdb
  | "HOSTDB" -> Hostdb
  | "LINKSDB" -> Linksdb
  | "MASTERDB" -> Masterdb
  | "SWITCHDB" -> Switchdb
  | other -> Other other

let equal a b =
  match (a, b) with Other x, Other y -> String.equal x y | _ -> a == b

let pp fmt t = Format.pp_print_string fmt (to_string t)
