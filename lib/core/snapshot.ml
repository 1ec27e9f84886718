type t = { count : int; digest : int }

let pristine = { count = 0; digest = 0 }

let event_fingerprint (ev : Jury_store.Event.t) =
  Hashtbl.hash
    (Jury_store.Cache_names.to_string ev.cache,
     Jury_store.Event.op_to_string ev.op, ev.key, ev.value,
     ev.origin, ev.seq)

let observe t ev =
  { count = t.count + 1; digest = t.digest lxor event_fingerprint ev }

let count t = t.count
let equal (a : t) b = a.digest = b.digest
let compare (a : t) b = Stdlib.compare (a.digest, a.count) (b.digest, b.count)
let pp fmt t = Format.fprintf fmt "psi(n=%d %08x)" t.count (t.digest land 0xFFFFFFFF)
