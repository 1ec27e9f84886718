(** Controller-wide cache names.

    The seven constructors are the data stores the paper's policy
    language (Table 2) enumerates and the store holds: ARP bindings,
    topology edges, flow rules, discovered hosts, links, switch
    mastership and connected switches, declared in the order of their
    spellings. [Other] carries any other name a policy or a test spells
    — upper-cased, and never one of the seven.

    The type is private: {!of_string} is the only way text becomes a
    name, so every comparison is a constructor match and case is
    decided once, here. *)

type t = private
  | Arpdb
  | Edgedb
  | Flowsdb
  | Hostdb
  | Linksdb
  | Masterdb
  | Switchdb
  | Other of string

val arpdb : t
val hostdb : t
val edgedb : t
val linksdb : t
val flowsdb : t
val switchdb : t
val masterdb : t

val all : t list
(** The seven names the store holds, in the order of their spellings. *)

val of_string : string -> t
(** Ignores case: ["FlowsDB"] and ["FLOWSDB"] are both {!flowsdb}. *)

val to_string : t -> string
(** The upper-case spelling; allocation-free. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
