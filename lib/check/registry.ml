(* The one place oracles are registered. Everything that consumes the
   battery — check, mc, the guided fuzzer, the CLI's --oracle selector —
   resolves names through this table, so adding an oracle here is the
   whole job. *)

let table : Oracle.t list ref = ref []

let register ~family ~name ~doc check =
  if List.exists (fun (o : Oracle.t) -> o.Oracle.name = name) !table then
    invalid_arg (Printf.sprintf "Registry.register: duplicate oracle %S" name);
  table := !table @ [ { Oracle.name; family; doc; check } ]

let all () = !table

let families () =
  List.sort_uniq compare (List.map (fun (o : Oracle.t) -> o.Oracle.family) !table)

let by_family f =
  List.filter (fun (o : Oracle.t) -> o.Oracle.family = f) !table

let names () = List.map (fun (o : Oracle.t) -> o.Oracle.name) !table

let find n = List.find_opt (fun (o : Oracle.t) -> o.Oracle.name = n) !table

let resolve s =
  match by_family s with
  | _ :: _ as os -> Ok os
  | [] -> (
      match find s with
      | Some o -> Ok [ o ]
      | None ->
          Error
            (Printf.sprintf "unknown oracle %S; families: %s; oracles: %s" s
               (String.concat ", " (families ()))
               (String.concat ", " (names ()))))

let check_run ?oracles ctx =
  let oracles = match oracles with Some os -> os | None -> all () in
  Oracle.check_run ~oracles ctx

let check_case ?oracles case = check_run ?oracles (Oracle.ctx case)

(* --- the catalog, in battery order --- *)

let () =
  register ~family:"conservation" ~name:"verdict-conservation"
    ~doc:
      "after flush nothing is pending and the verdict list, alarms and \
       detection-time samples agree with the validator's counters"
    Oracle.verdict_conservation;
  register ~family:"conservation" ~name:"report-consistency"
    ~doc:"the rendered report's roll-ups match the verdict stream exactly"
    Oracle.report_consistency;
  register ~family:"conservation" ~name:"replay-determinism"
    ~doc:"a second execution of the same case reproduces the run bit-identically"
    Oracle.replay_determinism;
  register ~family:"sharding" ~name:"shard-independence"
    ~doc:"shards=1 and shards=4 yield equal fingerprints"
    Oracle.shard_independence;
  register ~family:"batching" ~name:"batch-equivalence"
    ~doc:
      "deliver_batch is equivalent to per-event deliver on a synthetic \
       response stream, however chunked, sharded or staged"
    Oracle.batch_equivalence;
  register ~family:"parallel" ~name:"serial-parallel-identity"
    ~doc:"a mini-sweep on the domain pool is byte-identical at jobs 1 and 2"
    Oracle.parallel_identity;
  register ~family:"channel" ~name:"channel-conservation"
    ~doc:"per-link sent = delivered + dropped, retransmits only when configured"
    Oracle.channel_conservation;
  register ~family:"policy" ~name:"compiled-interpreted"
    ~doc:
      "the compiled policy decision structure agrees with the reference \
       interpreter on a fuzzed rule set, before and after add_rule"
    Oracle.policy_equivalence
