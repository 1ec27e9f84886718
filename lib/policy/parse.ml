module Event = Jury_store.Event

let ( let* ) = Result.bind

(* --- Minimal XML subset: elements, attributes and comments between
   them, no text content. --- *)

type xml_element = {
  tag : string;
  attrs : (string * string) list;
  children : xml_element list;
}

module Lexer = struct
  type t = { src : string; mutable pos : int }

  let make src = { src; pos = 0 }
  let eof t = t.pos >= String.length t.src
  let peek t = if eof t then '\000' else t.src.[t.pos]
  let advance t = t.pos <- t.pos + 1

  let skip_ws t =
    while (not (eof t)) && (match peek t with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance t
    done

  let looking_at t s =
    let n = String.length s in
    t.pos + n <= String.length t.src && String.sub t.src t.pos n = s

  (* Whitespace and [<!-- ... -->] comments, as may come between
     elements. *)
  let rec skip_between t =
    skip_ws t;
    if not (looking_at t "<!--") then Ok ()
    else
      let start = t.pos in
      t.pos <- t.pos + 4;
      while not (eof t || looking_at t "-->") do advance t done;
      if eof t then
        Error (Printf.sprintf "unterminated comment at offset %d" start)
      else (
        t.pos <- t.pos + 3;
        skip_between t)

  let ident t =
    let start = t.pos in
    while
      (not (eof t))
      &&
      match peek t with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | ':' -> true
      | _ -> false
    do
      advance t
    done;
    String.sub t.src start (t.pos - start)

  let expect t c =
    if eof t || peek t <> c then
      Error (Printf.sprintf "expected '%c' at offset %d" c t.pos)
    else begin
      advance t;
      Ok ()
    end

  let quoted t =
    let* () = expect t '"' in
    let start = t.pos in
    while (not (eof t)) && peek t <> '"' do advance t done;
    if eof t then Error "unterminated attribute value"
    else begin
      let v = String.sub t.src start (t.pos - start) in
      advance t;
      Ok v
    end
end

let rec parse_element lx =
  let open Lexer in
  let* () = skip_between lx in
  let* () = expect lx '<' in
  let tag = ident lx in
  if tag = "" then Error "missing tag name"
  else begin
    let* attrs = parse_attrs lx [] in
    skip_ws lx;
    if peek lx = '/' then begin
      advance lx;
      let* () = expect lx '>' in
      Ok { tag; attrs; children = [] }
    end
    else
      let* () = expect lx '>' in
      let* children = parse_children lx [] in
      (* parse_children consumed "</": read the closing tag. *)
      let closing = ident lx in
      if closing <> tag then
        Error (Printf.sprintf "mismatched closing tag %s for %s" closing tag)
      else
        let* () = expect lx '>' in
        Ok { tag; attrs; children }
  end

and parse_attrs lx acc =
  let open Lexer in
  skip_ws lx;
  match peek lx with
  | '>' | '/' -> Ok (List.rev acc)
  | '=' ->
      (* The paper's "<Cache ="EdgesDB" .../>" form: a bare '=' means a
         "name" attribute. *)
      advance lx;
      let* v = quoted lx in
      parse_attrs lx (("name", v) :: acc)
  | _ ->
      let name = ident lx in
      if name = "" then Error (Printf.sprintf "bad attribute at %d" lx.pos)
      else begin
        skip_ws lx;
        let* () = expect lx '=' in
        skip_ws lx;
        let* v = quoted lx in
        parse_attrs lx ((String.lowercase_ascii name, v) :: acc)
      end

and parse_children lx acc =
  let open Lexer in
  let* () = skip_between lx in
  let* () = expect lx '<' in
  if peek lx = '/' then begin
    advance lx;
    Ok (List.rev acc)
  end
  else begin
    (* Re-wind: parse_element expects the '<'. *)
    lx.pos <- lx.pos - 1;
    let* child = parse_element lx in
    parse_children lx (child :: acc)
  end

let parse_document src =
  let lx = Lexer.make src in
  let rec go acc =
    let* () = Lexer.skip_between lx in
    if Lexer.eof lx then Ok (List.rev acc)
    else
      let* el = parse_element lx in
      go (el :: acc)
  in
  go []

(* --- Field interpretation shared by both syntaxes --- *)

let parse_controller = function
  | "*" -> Ok Ast.Any_controller
  | s -> (
      match int_of_string_opt s with
      | Some id -> Ok (Ast.Controller_id id)
      | None -> Error (Printf.sprintf "bad controller id %S" s))

let parse_trigger s =
  match String.lowercase_ascii s with
  | "*" | "all" -> Ok Ast.Any_trigger
  | "internal" -> Ok Ast.Internal_only
  | "external" -> Ok Ast.External_only
  | _ -> Error (Printf.sprintf "bad trigger selector %S" s)

let parse_operation s =
  match String.lowercase_ascii s with
  | "*" -> Ok Ast.Any_op
  | s -> (
      match Event.op_of_string s with
      | Some op -> Ok (Ast.Op_is op)
      | None -> Error (Printf.sprintf "bad operation %S" s))

let parse_destination s =
  match String.lowercase_ascii s with
  | "*" -> Ok Ast.Any_dest
  | "local" -> Ok Ast.Local_only
  | "remote" -> Ok Ast.Remote_only
  | _ -> Error (Printf.sprintf "bad destination %S" s)

let parse_entry s =
  match String.split_on_char ',' s with
  | [ "*"; "*" ] | [ "*" ] -> Ok Ast.Entry_any
  | [ key; value ] ->
      Ok (Ast.Entry_glob
            { key = Pattern.compile key; value = Pattern.compile value })
  | _ -> Error (Printf.sprintf "bad entry pattern %S (want key,value)" s)

let parse_check s =
  match String.lowercase_ascii s with
  | "flow-hierarchy" | "flow-hierarchy-violation" ->
      Ok Ast.Flow_hierarchy_violation
  | "flow-drop" | "flow-drops-packets" -> Ok Ast.Flow_drops_packets
  | _ -> Error (Printf.sprintf "unknown check %S" s)

let parse_allow s =
  match String.lowercase_ascii s with
  | "no" | "false" | "deny" -> Ok false
  | "yes" | "true" | "allow" -> Ok true
  | _ -> Error (Printf.sprintf "bad allow value %S" s)

(* --- XML → rule --- *)

let rule_of_policy_element el =
  if String.lowercase_ascii el.tag <> "policy" then
    Error (Printf.sprintf "expected <Policy>, got <%s>" el.tag)
  else begin
    let attr element name =
      List.assoc_opt name element.attrs
    in
    let* allow =
      match attr el "allow" with Some v -> parse_allow v | None -> Ok false
    in
    let name = Option.value (attr el "name") ~default:"policy" in
    let find tag =
      List.find_opt
        (fun c -> String.lowercase_ascii c.tag = tag)
        el.children
    in
    let* controller =
      match find "controller" with
      | Some c -> parse_controller (Option.value (attr c "id") ~default:"*")
      | None -> Ok Ast.Any_controller
    in
    let* trigger =
      match find "action" with
      | Some c -> parse_trigger (Option.value (attr c "type") ~default:"*")
      | None -> Ok Ast.Any_trigger
    in
    let* cache, operation, entry =
      match find "cache" with
      | None -> Ok (None, Ast.Any_op, Ast.Entry_any)
      | Some c ->
          let cache =
            match attr c "name" with
            | Some "*" | None -> None
            | Some name -> Some (Jury_store.Cache_names.of_string name)
          in
          let* operation =
            parse_operation (Option.value (attr c "operation") ~default:"*")
          in
          let* entry =
            match attr c "check" with
            | Some check -> parse_check check
            | None -> parse_entry (Option.value (attr c "entry") ~default:"*,*")
          in
          Ok (cache, operation, entry)
    in
    let* destination =
      match find "destination" with
      | Some c -> parse_destination (Option.value (attr c "value") ~default:"*")
      | None -> Ok Ast.Any_dest
    in
    Ok (Ast.rule ~name ~allow ~controller ~trigger ?cache ~operation ~entry
          ~destination ())
  end

let xml src =
  let* elements = parse_document src in
  List.fold_left
    (fun acc el ->
      let* acc = acc in
      let* rule = rule_of_policy_element el in
      Ok (rule :: acc))
    (Ok []) elements
  |> Result.map List.rev

(* --- DSL --- *)

let dsl_line line =
  let tokens =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun s -> s <> "")
  in
  match tokens with
  | [] -> Error "empty rule"
  | verb :: fields ->
      let* allow = parse_allow verb in
      List.fold_left
        (fun acc field ->
          let* rule = acc in
          match String.index_opt field '=' with
          | None -> Error (Printf.sprintf "bad field %S (want k=v)" field)
          | Some i -> (
              let k = String.lowercase_ascii (String.sub field 0 i) in
              let v = String.sub field (i + 1) (String.length field - i - 1) in
              match k with
              | "name" -> Ok { rule with Ast.name = v }
              | "ctrl" | "controller" ->
                  let* c = parse_controller v in
                  Ok { rule with Ast.controller = c }
              | "trigger" ->
                  let* tr = parse_trigger v in
                  Ok { rule with Ast.trigger = tr }
              | "cache" ->
                  Ok
                    { rule with
                      Ast.cache =
                        (if v = "*" then None
                         else Some (Jury_store.Cache_names.of_string v)) }
              | "op" | "operation" ->
                  let* op = parse_operation v in
                  Ok { rule with Ast.operation = op }
              | "entry" ->
                  let* e = parse_entry v in
                  Ok { rule with Ast.entry = e }
              | "check" ->
                  let* e = parse_check v in
                  Ok { rule with Ast.entry = e }
              | "dest" | "destination" ->
                  let* d = parse_destination v in
                  Ok { rule with Ast.destination = d }
              | _ -> Error (Printf.sprintf "unknown field %S" k)))
        (Ok (Ast.rule ~allow ()))
        fields

let dsl src =
  String.split_on_char '\n' src
  |> List.map String.trim
  |> List.filter (fun l -> l <> "" && not (String.length l > 0 && l.[0] = '#'))
  |> List.fold_left
       (fun acc line ->
         let* acc = acc in
         let* rule = dsl_line line in
         Ok (rule :: acc))
       (Ok [])
  |> Result.map List.rev

let lint rules =
  let held =
    String.concat " "
      (List.map Jury_store.Cache_names.to_string Jury_store.Cache_names.all)
  in
  List.filter_map
    (fun (r : Ast.rule) ->
      match r.cache with
      | Some (Jury_store.Cache_names.Other name) ->
          Some
            (Printf.sprintf
               "warning: rule %s names cache %s, which the store does not \
                hold (it holds %s); the rule can never match"
               r.name name held)
      | _ -> None)
    rules
