(* A footprint is one immediate int.

   - [-1] is opaque.
   - A non-negative value is an exact set of up to three ids; bits 0-1
     hold the count. One or two ids of 23 bits each (every namespaced
     id, see [stride] below) sit at bits 2 and 25, the smaller first.
     Three ids sit at bits 2, 22 and 42 as 20-bit packs of a 3-bit
     namespace and a 17-bit index, so a triple is exact only when each
     index is below [2^17].
   - Any other set (four or more ids, a triple that does not pack, an
     id outside [0, 2^23)) is a summary: [min_int] with bit [s] set for
     each namespace [s] it touches, and bit 8 for an id outside the
     namespaces. Two footprints that share an id share its bit, so a
     summary errs only towards dependence. *)
type t = int

let opaque = -1
let is_opaque t = t = opaque

(* Namespaces: id lands in [space * stride, (space + 1) * stride). Ids
   beyond a stride wrap within their namespace — merging resources,
   never crossing into another namespace, so the error direction is
   conservative. *)
let stride_bits = 20
let stride = 1 lsl stride_bits
let in_space space i = (space * stride) + (i land (stride - 1))

let switch i = in_space 1 i
let host i = in_space 2 i
let controller i = in_space 3 i
let store i = in_space 4 i
let trigger i = in_space 6 i
let named s = in_space 7 (Hashtbl.hash s)

let id_bits = 23
let id_mask = (1 lsl id_bits) - 1
let in_range id = id land id_mask = id

(* --- Exact sets --- *)

let count t = t land 3

let pack_bits = 20
let pack_mask = (1 lsl pack_bits) - 1
let index_bits = 17
let packs id = in_range id && id land (stride - 1) < 1 lsl index_bits

let pack id =
  ((id lsr stride_bits) lsl index_bits) lor (id land (stride - 1))

let unpack p =
  ((p lsr index_bits) lsl stride_bits) lor (p land ((1 lsl index_bits) - 1))

(* The [i]-th smallest id of an exact set. *)
let nth t i =
  if count t = 3 then unpack ((t lsr (2 + (pack_bits * i))) land pack_mask)
  else (t lsr (2 + (id_bits * i))) land id_mask

(* --- Summaries --- *)

let foreign_bit = 1 lsl 8

let space_bit id =
  if in_range id then 1 lsl (id lsr stride_bits) else foreign_bit

(* The namespace bits of any non-opaque footprint. *)
let spaces t =
  if t < 0 then t land (2 * foreign_bit - 1)
  else begin
    let m = ref 0 in
    for i = 0 to count t - 1 do
      m := !m lor space_bit (nth t i)
    done;
    !m
  end

(* --- Constructors --- *)

let one a = if in_range a then 1 lor (a lsl 2) else min_int lor space_bit a

let two a b =
  if a = b then one a
  else if in_range a && in_range b then
    let lo = min a b and hi = max a b in
    2 lor (lo lsl 2) lor (hi lsl (2 + id_bits))
  else min_int lor space_bit a lor space_bit b

(* [ids] sorted ascending and distinct. *)
let of_sorted ids =
  match ids with
  | [] -> 0
  | [ a ] -> one a
  | [ a; b ] -> two a b
  | [ a; b; c ] when packs a && packs b && packs c ->
      3
      lor (pack a lsl 2)
      lor (pack b lsl (2 + pack_bits))
      lor (pack c lsl (2 + (2 * pack_bits)))
  | _ -> List.fold_left (fun m id -> m lor space_bit id) min_int ids

let touches ids =
  match ids with
  | [] -> 0
  | [ a ] -> one a
  | [ a; b ] -> two a b
  | _ -> of_sorted (List.sort_uniq compare ids)

let ids t = List.init (count t) (nth t)

let independent a b =
  a <> opaque && b <> opaque
  &&
  if a >= 0 && b >= 0 then begin
    let shared = ref false in
    for i = 0 to count a - 1 do
      let x = nth a i in
      for j = 0 to count b - 1 do
        if nth b j = x then shared := true
      done
    done;
    not !shared
  end
  else spaces a land spaces b = 0

let union a b =
  if a = opaque || b = opaque then opaque
  else if a >= 0 && b >= 0 then
    of_sorted (List.sort_uniq compare (ids a @ ids b))
  else min_int lor spaces a lor spaces b

let space_name = function
  | 1 -> "sw"
  | 2 -> "host"
  | 3 -> "ctl"
  | 4 -> "store"
  | 5 -> "shard"
  | 6 -> "trig"
  | 7 -> "res"
  | _ -> "?"

let pp fmt t =
  if t = opaque then Format.pp_print_string fmt "opaque"
  else if t >= 0 then
    Format.fprintf fmt "{%s}"
      (String.concat ","
         (List.map
            (fun id ->
              Printf.sprintf "%s:%d" (space_name (id / stride)) (id mod stride))
            (ids t)))
  else
    Format.fprintf fmt "{%s}"
      (String.concat ","
         (List.filter_map
            (fun s ->
              if t land (1 lsl s) = 0 then None
              else if s = 8 then Some "*"
              else Some (space_name s ^ ":*"))
            (List.init 9 Fun.id)))
