type span_id = int

type phase =
  | Trigger
  | Intercept
  | Replicate
  | Pipeline_service
  | Cache_write
  | Net_write
  | Validate
  | Batch
  | Verdict

let all_phases =
  [ Trigger; Intercept; Replicate; Pipeline_service; Cache_write; Net_write;
    Validate; Batch; Verdict ]

let phase_name = function
  | Trigger -> "trigger"
  | Intercept -> "intercept"
  | Replicate -> "replicate"
  | Pipeline_service -> "pipeline-service"
  | Cache_write -> "cache-write"
  | Net_write -> "net-write"
  | Validate -> "validate"
  | Batch -> "batch"
  | Verdict -> "verdict"

let phase_of_name = function
  | "trigger" -> Some Trigger
  | "intercept" -> Some Intercept
  | "replicate" -> Some Replicate
  | "pipeline-service" -> Some Pipeline_service
  | "cache-write" -> Some Cache_write
  | "net-write" -> Some Net_write
  | "validate" -> Some Validate
  | "batch" -> Some Batch
  | "verdict" -> Some Verdict
  | _ -> None

type kind = Open of phase | Close | Point of phase

let kind_name = function
  | Open _ -> "open"
  | Close -> "close"
  | Point _ -> "point"

type event = {
  t_ns : int;
  span : span_id;
  parent : span_id option;
  node : int option;
  kind : kind;
  attrs : (string * string) list;
}

let dummy_event =
  { t_ns = 0; span = 0; parent = None; node = None; kind = Close; attrs = [] }

type t = {
  enabled : bool;
  buf : event array;  (* ring; [head] is the next write slot *)
  mutable head : int;
  mutable len : int;
  mutable dropped : int;
  mutable next_span : int;
  roots : (string, span_id) Hashtbl.t;  (* taint -> open root span *)
  meta : (span_id, string * span_id option) Hashtbl.t;
      (* open span -> (taint, parent); lets Close events carry the
         taint and parent without the caller knowing either *)
}

let create ?(capacity = 65536) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  { enabled = true;
    buf = Array.make capacity dummy_event;
    head = 0;
    len = 0;
    dropped = 0;
    next_span = 1;
    roots = Hashtbl.create 64;
    meta = Hashtbl.create 64 }

let null () = { (create ~capacity:1 ()) with enabled = false }

let enabled t = t.enabled
let capacity t = Array.length t.buf
let length t = t.len
let dropped t = t.dropped

let clear t =
  t.head <- 0;
  t.len <- 0;
  t.dropped <- 0;
  Hashtbl.reset t.roots;
  Hashtbl.reset t.meta

let push t ev =
  let cap = Array.length t.buf in
  t.buf.(t.head) <- ev;
  t.head <- (t.head + 1) mod cap;
  if t.len = cap then t.dropped <- t.dropped + 1 else t.len <- t.len + 1

let events t =
  let cap = Array.length t.buf in
  let first = (t.head - t.len + cap) mod cap in
  List.init t.len (fun i -> t.buf.((first + i) mod cap))

let taint_attr taint attrs = ("taint", taint) :: attrs

let open_root t ~t_ns ~taint ?node attrs =
  if not t.enabled then 0
  else begin
    let span = t.next_span in
    t.next_span <- span + 1;
    Hashtbl.replace t.roots taint span;
    Hashtbl.replace t.meta span (taint, None);
    push t
      { t_ns; span; parent = None; node; kind = Open Trigger;
        attrs = taint_attr taint attrs };
    span
  end

let open_child t ~t_ns ~taint ~phase ?node attrs =
  if not t.enabled then None
  else
    match Hashtbl.find_opt t.roots taint with
    | None -> None
    | Some root ->
        let span = t.next_span in
        t.next_span <- span + 1;
        Hashtbl.replace t.meta span (taint, Some root);
        push t
          { t_ns; span; parent = Some root; node; kind = Open phase;
            attrs = taint_attr taint attrs };
        Some span

let close_span t ~t_ns span attrs =
  if t.enabled then
    match Hashtbl.find_opt t.meta span with
    | None -> ()
    | Some (taint, parent) ->
        Hashtbl.remove t.meta span;
        push t
          { t_ns; span; parent; node = None; kind = Close;
            attrs = taint_attr taint attrs }

let close_root t ~t_ns ~taint attrs =
  if t.enabled then
    match Hashtbl.find_opt t.roots taint with
    | None -> ()
    | Some span ->
        Hashtbl.remove t.roots taint;
        close_span t ~t_ns span attrs

let point t ~t_ns ~taint ~phase ?node attrs =
  if t.enabled then
    match Hashtbl.find_opt t.roots taint with
    | None -> ()
    | Some root ->
        push t
          { t_ns; span = root; parent = None; node; kind = Point phase;
            attrs = taint_attr taint attrs }

let global_point t ~t_ns ~phase ?node attrs =
  if t.enabled then
    push t { t_ns; span = 0; parent = None; node; kind = Point phase; attrs }

let taint_of ev = List.assoc_opt "taint" ev.attrs
