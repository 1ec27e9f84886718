type t =
  | Opaque
  | Touches of int list  (* sorted, distinct *)

let opaque = Opaque
let touches ids = Touches (List.sort_uniq compare ids)
let is_opaque = function Opaque -> true | Touches _ -> false

(* Both lists sorted ascending. *)
let rec disjoint xs ys =
  match (xs, ys) with
  | [], _ | _, [] -> true
  | x :: xs', y :: ys' ->
      if x < y then disjoint xs' ys
      else if x > y then disjoint xs ys'
      else false

let independent a b =
  match (a, b) with
  | Opaque, _ | _, Opaque -> false
  | Touches xs, Touches ys -> disjoint xs ys

let union a b =
  match (a, b) with
  | Opaque, _ | _, Opaque -> Opaque
  | Touches xs, Touches ys -> Touches (List.sort_uniq compare (xs @ ys))

(* Namespaces: id lands in [space * stride, (space + 1) * stride). Ids
   beyond a stride wrap within their namespace — merging resources,
   never crossing into another namespace, so the error direction is
   conservative. *)
let stride = 1 lsl 20
let in_space space i = (space * stride) + (i land (stride - 1))

let switch i = in_space 1 i
let host i = in_space 2 i
let controller i = in_space 3 i
let store i = in_space 4 i
let trigger i = in_space 6 i
let named s = in_space 7 (Hashtbl.hash s)
let taint s = trigger (Hashtbl.hash s)

let pp fmt = function
  | Opaque -> Format.pp_print_string fmt "opaque"
  | Touches ids ->
      Format.fprintf fmt "{%s}"
        (String.concat ","
           (List.map
              (fun id ->
                let space = id / stride and i = id mod stride in
                let name =
                  match space with
                  | 1 -> "sw"
                  | 2 -> "host"
                  | 3 -> "ctl"
                  | 4 -> "store"
                  | 5 -> "shard"
                  | 6 -> "trig"
                  | 7 -> "res"
                  | _ -> "?"
                in
                Printf.sprintf "%s:%d" name i)
              ids))
