open Jury_sim
module Taint = Jury_store.Taint

(* A row is four 64-bit words at [32 * row] in its chunk:
   0  the taint: serial lsl 17, node lsl 1, 1 if internal;
   1  trigger_at, in ns;
   2  decided_at, in ns;
   3  the verdict: term lsl 19, (primary + 1, or 0 for none) lsl 3, code.
   Code [side_code] marks a verdict kept whole in the side store; its row
   still carries both times, so the time columns cover every verdict. *)
let rows_per_chunk = 1024
let row_bytes = 32
let node_bits = 16
let serial_bits = 45
let primary_bits = 16
let term_bits = 43
let side_code = 7

type t = {
  mutable chunks : Bytes.t array;  (* full but the last; unused slots empty *)
  mutable length : int;
  mutable side : Alarm.t list;  (* newest first *)
}

let create () = { chunks = [||]; length = 0; side = [] }

let fits bits n = n >= 0 && n < 1 lsl bits

let word t row col =
  Int64.to_int
    (Bytes.get_int64_ne
       t.chunks.(row / rows_per_chunk)
       ((row mod rows_per_chunk * row_bytes) + (col * 8)))

let push_row t w0 trigger_at decided_at w3 =
  let row = t.length in
  let c = row / rows_per_chunk in
  if row mod rows_per_chunk = 0 then begin
    if c = Array.length t.chunks then begin
      let chunks = Array.make (max 8 (2 * c)) Bytes.empty in
      Array.blit t.chunks 0 chunks 0 c;
      t.chunks <- chunks
    end;
    t.chunks.(c) <- Bytes.create (rows_per_chunk * row_bytes)
  end;
  let b = t.chunks.(c) and off = row mod rows_per_chunk * row_bytes in
  Bytes.set_int64_ne b off (Int64.of_int w0);
  Bytes.set_int64_ne b (off + 8) (Int64.of_int (Time.to_ns trigger_at));
  Bytes.set_int64_ne b (off + 16) (Int64.of_int (Time.to_ns decided_at));
  Bytes.set_int64_ne b (off + 24) (Int64.of_int w3);
  t.length <- row + 1

let code : Alarm.verdict -> int = function
  | Ok_valid -> 0
  | Ok_non_deterministic -> 1
  | Ok_unverifiable -> 2
  | Ok_degraded -> 3
  | Overload -> 4
  | Faulty _ -> side_code

let verdict_of_code = function
  | 0 -> Alarm.Ok_valid
  | 1 -> Alarm.Ok_non_deterministic
  | 2 -> Alarm.Ok_unverifiable
  | 3 -> Alarm.Ok_degraded
  | _ -> Alarm.Overload

let push t ~taint ~trigger_at ~decided_at ~primary ~suspects ~term ~verdict
    ~detail =
  let node = Taint.node taint and serial = Taint.serial taint in
  let code = code verdict in
  let primary_code =
    match primary with
    | None -> 0
    | Some p -> if p >= 0 && fits primary_bits (p + 1) then p + 1 else -1
  in
  let no_suspects = match suspects with [] -> true | _ :: _ -> false in
  if
    code <> side_code && no_suspects && String.length detail = 0
    && fits node_bits node && fits serial_bits serial
    && primary_code >= 0 && fits term_bits term
  then
    push_row t
      ((serial lsl (node_bits + 1))
      lor (node lsl 1)
      lor if Taint.is_external taint then 0 else 1)
      trigger_at decided_at
      ((term lsl (primary_bits + 3)) lor (primary_code lsl 3) lor code)
  else begin
    t.side <-
      { Alarm.taint; trigger_at; decided_at; primary; suspects; term; verdict;
        detail }
      :: t.side;
    push_row t 0 trigger_at decided_at side_code
  end

let add t (a : Alarm.t) =
  push t ~taint:a.taint ~trigger_at:a.trigger_at ~decided_at:a.decided_at
    ~primary:a.primary ~suspects:a.suspects ~term:a.term ~verdict:a.verdict
    ~detail:a.detail

let mask bits = (1 lsl bits) - 1

(* The compact verdict in [row]. *)
let compact t row : Alarm.t =
  let w0 = word t row 0 and w3 = word t row 3 in
  let node = (w0 lsr 1) land mask node_bits
  and serial = w0 lsr (node_bits + 1) in
  let primary = (w3 lsr 3) land mask primary_bits in
  { taint =
      (if w0 land 1 = 0 then Taint.external_trigger ~primary:node ~serial
       else Taint.internal_trigger ~origin:node ~seq:serial);
    trigger_at = Time.ns (word t row 1);
    decided_at = Time.ns (word t row 2);
    primary = (if primary = 0 then None else Some (primary - 1));
    suspects = [];
    term = w3 lsr (primary_bits + 3);
    verdict = verdict_of_code (w3 land 7);
    detail = "" }

(* Newest row first, so the side store is met in its own order and the
   list builds oldest first. *)
let to_list t =
  let rec go row side acc =
    if row < 0 then acc
    else if word t row 3 land 7 = side_code then
      match side with
      | a :: older -> go (row - 1) older (a :: acc)
      | [] -> assert false
    else go (row - 1) side (compact t row :: acc)
  in
  go (t.length - 1) t.side []

let fold_since t ~since ~init f =
  let rec go row side acc =
    if row < 0 then acc
    else
      let decided_at = Time.ns (word t row 2) in
      if Time.(decided_at < since) then acc
      else
        let trigger_at = Time.ns (word t row 1)
        and code = word t row 3 land 7 in
        if code <> side_code then
          go (row - 1) side
            (f acc (verdict_of_code code) ~trigger_at ~decided_at)
        else
          match side with
          | (a : Alarm.t) :: older ->
              go (row - 1) older (f acc a.verdict ~trigger_at ~decided_at)
          | [] -> assert false
  in
  go (t.length - 1) t.side init

let faults t =
  List.fold_left
    (fun acc a -> if Alarm.is_fault a then a :: acc else acc)
    [] t.side

let append dst src = List.iter (add dst) (to_list src)

let of_list alarms =
  let t = create () in
  List.iter (add t) alarms;
  t
