type topo_kind = Linear | Ring | Star | Single
type workload_kind = Mix | Connections | Joins | Blast

type fault_action =
  | Slow of { node : int; delay_ms : int }
  | Lossy of { node : int; omit : float }
  | Crash of { node : int }
  | Drop_sends of { node : int }
  | Blackhole of { node : int }
  | Lock_cache of { node : int; cache : string }
  | Heal of { node : int }
  (* The stateful vocabulary below is never drawn by the blind
     generator (its draw sequence is pinned by replayability); these
     actions enter cases only through Mutate, so blind-mode runs stay
     byte-identical across releases. *)
  | Rejoin of { node : int }
  | Byzantine of { node : int }
  | Partition of { node : int }
  | Add_rule of { rule : string }
  | Fail_master of { node : int }

type fault_event = { at_ms : int; action : fault_action }

type t = {
  case_seed : int;
  topo : topo_kind;
  switches : int;
  hosts_per_switch : int;
  nodes : int;
  k : int;
  odl : bool;
  workload : workload_kind;
  rate : float;
  duration_ms : int;
  faults : fault_event list;
  drop : float;
  duplicate : float;
  jitter_us : float;
  retries : int;
  degraded_quorum : int option;
  shards : int;
  max_inflight : int option;
  batch_us : int option;
  triggers : int;
}

(* Locked caches must be ones the controllers actually write during a
   benign run, so the fault has something to block. *)
let lockable_caches =
  [ Jury_store.Cache_names.flowsdb; Jury_store.Cache_names.linksdb;
    Jury_store.Cache_names.switchdb; Jury_store.Cache_names.hostdb ]

let gen_fault_action ~nodes : fault_action Gen.t =
  let open Gen in
  bind (int_in 0 (nodes - 1)) (fun node ->
      frequency_gen
        [ (3, map (fun delay_ms -> Slow { node; delay_ms }) (int_in 5 120));
          (2, map (fun omit -> Lossy { node; omit }) (float_in 0.2 0.9));
          (1, return (Crash { node }));
          (2, return (Drop_sends { node }));
          (2, return (Blackhole { node }));
          (1, map (fun cache -> Lock_cache { node; cache })
               (choose lockable_caches));
          (1, return (Heal { node })) ])

let gen : int -> t Gen.t =
 fun case_seed ->
  let open Gen in
  bind (frequency [ (5, Linear); (2, Ring); (2, Star); (1, Single) ])
  @@ fun topo ->
  bind (int_in 2 6) @@ fun switches ->
  bind (int_in 1 2) @@ fun hosts_per_switch ->
  bind (int_in 3 5) @@ fun nodes ->
  bind (int_in 1 (nodes - 1)) @@ fun k ->
  bind (bernoulli 0.25) @@ fun odl ->
  bind (frequency [ (5, Mix); (3, Connections); (1, Joins); (1, Blast) ])
  @@ fun workload ->
  bind (float_in 100. 900.) @@ fun rate ->
  bind (int_in 200 800) @@ fun duration_ms ->
  bind
    (list_of ~len:(int_in 0 4)
       (bind (int_in 0 duration_ms) (fun at_ms ->
            map (fun action -> { at_ms; action }) (gen_fault_action ~nodes))))
  @@ fun faults ->
  bind (frequency_gen [ (5, return 0.); (5, float_in 0.01 0.15) ])
  @@ fun drop ->
  bind (frequency_gen [ (7, return 0.); (3, float_in 0.005 0.05) ])
  @@ fun duplicate ->
  bind (frequency_gen [ (6, return 0.); (4, float_in 10. 200.) ])
  @@ fun jitter_us ->
  bind (int_in 0 2) @@ fun retries ->
  bind (option 0.3 (int_in 1 k)) @@ fun degraded_quorum ->
  bind (choose [ 1; 2; 4 ]) @@ fun shards ->
  bind (option 0.2 (int_in 64 512)) @@ fun max_inflight ->
  bind (option 0.4 (int_in 50 500)) @@ fun batch_us ->
  map
    (fun triggers ->
      { case_seed;
        topo;
        (* A ring degenerates below three switches; the builder rejects
           it, so the generator never proposes one. *)
        switches = (if topo = Ring then max 3 switches else switches);
        (* Cbench blasts SYNs between two hosts on one switch. *)
        hosts_per_switch = (if workload = Blast then 2 else hosts_per_switch);
        nodes;
        k;
        odl;
        workload;
        rate;
        duration_ms;
        faults = List.sort (fun a b -> compare a.at_ms b.at_ms) faults;
        drop;
        duplicate;
        jitter_us;
        retries;
        degraded_quorum;
        shards;
        max_inflight;
        batch_us;
        triggers })
    (int_in 5 40)

let generate ~seed = Gen.run ~seed (gen seed)

let jury_config ?shards ?batch_us ?policies ?(deterministic = false) t =
  let shards = Option.value shards ~default:t.shards in
  let batch_us = Option.value batch_us ~default:t.batch_us in
  let retransmit =
    if t.retries > 0 then
      Some (Jury.Jury_config.retransmit ~max_retries:t.retries ())
    else None
  in
  Jury.Jury_config.make ~k:t.k ~encapsulation:t.odl ~drop:t.drop
    ~duplicate:t.duplicate ~jitter_us:t.jitter_us ?retransmit
    ?degraded_quorum:t.degraded_quorum ~shards ?max_inflight:t.max_inflight
    ?batch:(Option.map Jury_sim.Time.us batch_us)
    ?policies ~deterministic_latencies:deterministic ()

(* --- rendering --- *)

let topo_name = function
  | Linear -> "Linear"
  | Ring -> "Ring"
  | Star -> "Star"
  | Single -> "Single"

let workload_name = function
  | Mix -> "Mix"
  | Connections -> "Connections"
  | Joins -> "Joins"
  | Blast -> "Blast"

let action_name = function
  | Slow { node; delay_ms } -> Printf.sprintf "slow(%d,%dms)" node delay_ms
  | Lossy { node; omit } -> Printf.sprintf "lossy(%d,%.2f)" node omit
  | Crash { node } -> Printf.sprintf "crash(%d)" node
  | Drop_sends { node } -> Printf.sprintf "drop-sends(%d)" node
  | Blackhole { node } -> Printf.sprintf "blackhole(%d)" node
  | Lock_cache { node; cache } -> Printf.sprintf "lock(%d,%s)" node cache
  | Heal { node } -> Printf.sprintf "heal(%d)" node
  | Rejoin { node } -> Printf.sprintf "rejoin(%d)" node
  | Byzantine { node } -> Printf.sprintf "byzantine(%d)" node
  | Partition { node } -> Printf.sprintf "partition(%d)" node
  | Add_rule { rule } -> Printf.sprintf "add-rule(%s)" rule
  | Fail_master { node } -> Printf.sprintf "fail-master(%d)" node

let pp ppf t =
  Format.fprintf ppf
    "seed=%d %s sw=%d hps=%d n=%d k=%d %s %s rate=%.0f dur=%dms faults=[%s] \
     drop=%.3f dup=%.3f jit=%.0fus retries=%d degq=%s shards=%d inflight=%s \
     batch=%s triggers=%d"
    t.case_seed (topo_name t.topo) t.switches t.hosts_per_switch t.nodes t.k
    (if t.odl then "odl" else "onos")
    (workload_name t.workload) t.rate t.duration_ms
    (String.concat ";"
       (List.map
          (fun f -> Printf.sprintf "%dms:%s" f.at_ms (action_name f.action))
          t.faults))
    t.drop t.duplicate t.jitter_us t.retries
    (match t.degraded_quorum with None -> "-" | Some q -> string_of_int q)
    t.shards
    (match t.max_inflight with None -> "-" | Some m -> string_of_int m)
    (match t.batch_us with None -> "-" | Some b -> string_of_int b ^ "us")
    t.triggers

(* Exact decimal round-trip, and a valid OCaml literal. *)
let float_lit f =
  if Float.is_integer f && Float.abs f < 1e9 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let option_lit f = function
  | None -> "None"
  | Some v -> Printf.sprintf "Some %s" (f v)

let action_ocaml = function
  | Slow { node; delay_ms } ->
      Printf.sprintf "Jury_check.Case.Slow { node = %d; delay_ms = %d }" node
        delay_ms
  | Lossy { node; omit } ->
      Printf.sprintf "Jury_check.Case.Lossy { node = %d; omit = %s }" node
        (float_lit omit)
  | Crash { node } -> Printf.sprintf "Jury_check.Case.Crash { node = %d }" node
  | Drop_sends { node } ->
      Printf.sprintf "Jury_check.Case.Drop_sends { node = %d }" node
  | Blackhole { node } ->
      Printf.sprintf "Jury_check.Case.Blackhole { node = %d }" node
  | Lock_cache { node; cache } ->
      Printf.sprintf "Jury_check.Case.Lock_cache { node = %d; cache = %S }"
        node cache
  | Heal { node } -> Printf.sprintf "Jury_check.Case.Heal { node = %d }" node
  | Rejoin { node } ->
      Printf.sprintf "Jury_check.Case.Rejoin { node = %d }" node
  | Byzantine { node } ->
      Printf.sprintf "Jury_check.Case.Byzantine { node = %d }" node
  | Partition { node } ->
      Printf.sprintf "Jury_check.Case.Partition { node = %d }" node
  | Add_rule { rule } ->
      Printf.sprintf "Jury_check.Case.Add_rule { rule = %S }" rule
  | Fail_master { node } ->
      Printf.sprintf "Jury_check.Case.Fail_master { node = %d }" node

let to_ocaml ?(indent = "  ") t =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (indent ^ s ^ "\n")) fmt in
  Buffer.add_string b "{ Jury_check.Case.case_seed = ";
  Buffer.add_string b (string_of_int t.case_seed);
  Buffer.add_string b ";\n";
  line "topo = Jury_check.Case.%s;" (topo_name t.topo);
  line "switches = %d;" t.switches;
  line "hosts_per_switch = %d;" t.hosts_per_switch;
  line "nodes = %d;" t.nodes;
  line "k = %d;" t.k;
  line "odl = %b;" t.odl;
  line "workload = Jury_check.Case.%s;" (workload_name t.workload);
  line "rate = %s;" (float_lit t.rate);
  line "duration_ms = %d;" t.duration_ms;
  line "faults =";
  line "  [ %s ];"
    (String.concat ";\n    "
       (List.map
          (fun f ->
            Printf.sprintf "{ Jury_check.Case.at_ms = %d; action = %s }"
              f.at_ms (action_ocaml f.action))
          t.faults));
  line "drop = %s;" (float_lit t.drop);
  line "duplicate = %s;" (float_lit t.duplicate);
  line "jitter_us = %s;" (float_lit t.jitter_us);
  line "retries = %d;" t.retries;
  line "degraded_quorum = %s;" (option_lit string_of_int t.degraded_quorum);
  line "shards = %d;" t.shards;
  line "max_inflight = %s;" (option_lit string_of_int t.max_inflight);
  line "batch_us = %s;" (option_lit string_of_int t.batch_us);
  line "triggers = %d }" t.triggers;
  Buffer.contents b

let equal = ( = )

(* --- axis lenses --- *)

module Lens = struct
  type case = t

  type 'a axis = {
    name : string;
    get : case -> 'a;
    set : case -> 'a -> case;
  }

  let min_switches (c : case) = if c.topo = Ring then 3 else 1
  let min_hosts_per_switch (c : case) = if c.workload = Blast then 2 else 1

  (* Every workload except host-joins needs two reachable hosts in
     total (Blast needs them on one switch); the topology builders and
     workload drivers reject anything below this. Not clampable along a
     single axis (several axis combinations satisfy it), so it stays a
     predicate: Shrink drops violating candidates, Mutate retries. *)
  let hosts_floor (c : case) =
    match c.workload with
    | Joins -> c.switches * c.hosts_per_switch >= 1
    | Mix | Connections ->
        (if c.topo = Single then max 2 c.switches
         else c.switches * c.hosts_per_switch)
        >= 2
    | Blast -> c.hosts_per_switch >= 2

  let clamp_fault_nodes ~nodes faults =
    let clamp_node n = max 0 (min n (nodes - 1)) in
    List.map
      (fun f ->
        { f with
          action =
            (match f.action with
            | Slow s -> Slow { s with node = clamp_node s.node }
            | Lossy l -> Lossy { l with node = clamp_node l.node }
            | Crash { node } -> Crash { node = clamp_node node }
            | Drop_sends { node } -> Drop_sends { node = clamp_node node }
            | Blackhole { node } -> Blackhole { node = clamp_node node }
            | Lock_cache l -> Lock_cache { l with node = clamp_node l.node }
            | Heal { node } -> Heal { node = clamp_node node }
            | Rejoin { node } -> Rejoin { node = clamp_node node }
            | Byzantine { node } -> Byzantine { node = clamp_node node }
            | Partition { node } -> Partition { node = clamp_node node }
            | Add_rule _ as a -> a
            | Fail_master { node } -> Fail_master { node = clamp_node node }) })
      faults

  let topo =
    { name = "topo";
      get = (fun c -> c.topo);
      set =
        (fun c v ->
          { c with topo = v; switches = max (if v = Ring then 3 else 1) c.switches }) }

  let switches =
    { name = "switches";
      get = (fun c -> c.switches);
      set = (fun c v -> { c with switches = max (min_switches c) v }) }

  let hosts_per_switch =
    { name = "hosts_per_switch";
      get = (fun c -> c.hosts_per_switch);
      set =
        (fun c v -> { c with hosts_per_switch = max (min_hosts_per_switch c) v }) }

  let workload =
    { name = "workload";
      get = (fun c -> c.workload);
      set =
        (fun c v ->
          let c = { c with workload = v } in
          { c with hosts_per_switch = max (min_hosts_per_switch c) c.hosts_per_switch }) }

  (* Shrinking or churning the cluster keeps k < nodes, the degraded
     quorum <= k, and every fault's node reference in range. *)
  let nodes =
    { name = "nodes";
      get = (fun c -> c.nodes);
      set =
        (fun c v ->
          let nodes = max 3 v in
          let k = max 1 (min c.k (nodes - 1)) in
          { c with
            nodes;
            k;
            degraded_quorum = Option.map (fun q -> max 1 (min q k)) c.degraded_quorum;
            faults = clamp_fault_nodes ~nodes c.faults }) }

  let k =
    { name = "k";
      get = (fun c -> c.k);
      set =
        (fun c v ->
          let k = max 1 (min v (c.nodes - 1)) in
          { c with
            k;
            degraded_quorum = Option.map (fun q -> max 1 (min q k)) c.degraded_quorum }) }

  let odl =
    { name = "odl"; get = (fun c -> c.odl); set = (fun c v -> { c with odl = v }) }

  let rate =
    { name = "rate";
      get = (fun c -> c.rate);
      set = (fun c v -> { c with rate = Float.max 25. v }) }

  let duration_ms =
    { name = "duration_ms";
      get = (fun c -> c.duration_ms);
      set = (fun c v -> { c with duration_ms = max 50 v }) }

  let faults =
    { name = "faults";
      get = (fun c -> c.faults);
      set =
        (fun c v ->
          { c with
            faults =
              (* stable: equal-at_ms entries keep their order, so
                 setting an already-sorted schedule is the identity *)
              List.stable_sort (fun a b -> compare a.at_ms b.at_ms)
                (clamp_fault_nodes ~nodes:c.nodes
                   (List.map (fun f -> { f with at_ms = max 0 f.at_ms }) v)) }) }

  let drop =
    { name = "drop";
      get = (fun c -> c.drop);
      set = (fun c v -> { c with drop = Float.max 0. (Float.min 0.5 v) }) }

  let duplicate =
    { name = "duplicate";
      get = (fun c -> c.duplicate);
      set = (fun c v -> { c with duplicate = Float.max 0. (Float.min 0.5 v) }) }

  let jitter_us =
    { name = "jitter_us";
      get = (fun c -> c.jitter_us);
      set = (fun c v -> { c with jitter_us = Float.max 0. (Float.min 500. v) }) }

  let retries =
    { name = "retries";
      get = (fun c -> c.retries);
      set = (fun c v -> { c with retries = max 0 (min 3 v) }) }

  let degraded_quorum =
    { name = "degraded_quorum";
      get = (fun c -> c.degraded_quorum);
      set =
        (fun c v ->
          { c with
            degraded_quorum = Option.map (fun q -> max 1 (min q c.k)) v }) }

  let shards =
    { name = "shards";
      get = (fun c -> c.shards);
      set = (fun c v -> { c with shards = max 1 (min 8 v) }) }

  let max_inflight =
    { name = "max_inflight";
      get = (fun c -> c.max_inflight);
      set =
        (fun c v -> { c with max_inflight = Option.map (fun m -> max 1 m) v }) }

  let batch_us =
    { name = "batch_us";
      get = (fun c -> c.batch_us);
      set = (fun c v -> { c with batch_us = Option.map (fun b -> max 1 b) v }) }

  let triggers =
    { name = "triggers";
      get = (fun c -> c.triggers);
      set = (fun c v -> { c with triggers = max 1 (min 80 v) }) }
end
