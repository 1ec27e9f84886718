(* --- JSON encoding, through {!Json} --- *)

let int_opt = function None -> Json.Null | Some i -> Json.Int i

let event_to_json (ev : Trace.event) =
  let phase =
    match ev.kind with
    | Trace.Open p | Trace.Point p -> Json.String (Trace.phase_name p)
    | Trace.Close -> Json.Null
  in
  let attrs = List.map (fun (k, v) -> (k, Json.String v)) ev.attrs in
  Json.to_string
    (Json.Obj
       [ ("t", Json.Int ev.t_ns);
         ("span", Json.Int ev.span);
         ("parent", int_opt ev.parent);
         ("node", int_opt ev.node);
         ("kind", Json.String (Trace.kind_name ev.kind));
         ("phase", phase);
         ("attrs", Json.Obj attrs) ])

let to_jsonl events =
  let buf = Buffer.create 4096 in
  List.iter
    (fun ev ->
      Buffer.add_string buf (event_to_json ev);
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf

(* --- decoding the flat event schema --- *)

exception Bad of string

let event_of_json line =
  let bad msg = raise (Bad msg) in
  let event fields =
    let get name =
      match List.assoc_opt name fields with
      | Some v -> v
      | None -> bad ("missing field " ^ name)
    in
    let as_int name =
      match get name with Json.Int i -> i | _ -> bad (name ^ ": expected int")
    in
    let as_int_opt name =
      match get name with
      | Json.Int i -> Some i
      | Json.Null -> None
      | _ -> bad (name ^ ": expected int or null")
    in
    let phase () =
      match get "phase" with
      | Json.String s -> (
          match Trace.phase_of_name s with
          | Some p -> p
          | None -> bad ("unknown phase " ^ s))
      | _ -> bad "phase: expected string"
    in
    let kind =
      match get "kind" with
      | Json.String "open" -> Trace.Open (phase ())
      | Json.String "close" -> Trace.Close
      | Json.String "point" -> Trace.Point (phase ())
      | Json.String k -> bad ("unknown kind " ^ k)
      | _ -> bad "kind: expected string"
    in
    let attrs =
      match get "attrs" with
      | Json.Obj kvs ->
          List.map
            (function
              | k, Json.String s -> (k, s)
              | _ -> bad "attrs: expected string values")
            kvs
      | _ -> bad "attrs: expected object"
    in
    { Trace.t_ns = as_int "t";
      span = as_int "span";
      parent = as_int_opt "parent";
      node = as_int_opt "node";
      kind;
      attrs }
  in
  match Json.of_string line with
  | Error _ as e -> e
  | Ok (Json.Obj fields) -> ( try Ok (event fields) with Bad msg -> Error msg)
  | Ok _ -> Error "expected a JSON object"

let of_jsonl s =
  let lines = String.split_on_char '\n' s in
  let rec go i acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        if String.trim line = "" then go (i + 1) acc rest
        else (
          match event_of_json line with
          | Ok ev -> go (i + 1) (ev :: acc) rest
          | Error msg -> Error (Printf.sprintf "line %d: %s" i msg))
  in
  go 1 [] lines

let write_file path events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_jsonl events))

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      of_jsonl (really_input_string ic len))

(* --- Query --- *)

let query ?taint ?node ?phase events =
  List.filter
    (fun (ev : Trace.event) ->
      (match taint with None -> true | Some t -> Trace.taint_of ev = Some t)
      && (match node with None -> true | Some n -> ev.node = Some n)
      &&
      match phase with
      | None -> true
      | Some p -> (
          match ev.kind with
          | Trace.Open q | Trace.Point q -> q = p
          | Trace.Close -> false))
    events
