(* Staged validation: the simulation stays on the calling domain and
   validation runs on one single-shard replica validator per shard,
   replayed in chunks across the domain pool.

   The facade validator its caller created keeps receiving
   registrations and deliveries, but with hooks installed they are
   appended to a per-shard buffer instead of touching its state. When
   one shard's buffer fills, and again at flush, every buffer replays
   in push order into its replica, driven by a private engine whose
   clock replays the facade engine's timestamps — so timers fire at
   the same simulated instants they would inline, and the replica
   walks the exact state machine the serial validator would have
   walked for that shard's taints. A replica is a function of its own
   item sequence alone, so where the chunks are cut does not matter.
   At flush the replicas advance to the drain instant and merge back
   into the facade, which from then on answers result queries as if it
   had done the work itself.

   Correctness leans on the facade's config: no retransmissions,
   adaptive timeout, inflight cap or policy rules ([attach] rejects
   each), and a constant term lookup. Under those conditions a replica
   never calls back into main-domain state (the policy engine's
   [master_lookup] is the one cross-domain read, and [Decide.policy]
   short-circuits it when no rules are installed), never feeds anything
   back into the channel, and never needs another shard's pending
   table. The only cross-shard coupling left is the FLOWSDB flow
   mirror, which [Mirror] items replicate into every shard in the
   serial shard-index order (see [pl_batch]). *)

open Jury_sim
module Pool = Jury_par.Pool
module Types = Jury_controller.Types
module Event = Jury_store.Event
module Names = Jury_store.Cache_names

type item =
  | Register of {
      taint : Types.Taint.t;
      at : Time.t;
      primary : int;
      secondaries : int list;
    }
  | Batch of { at : Time.t; responses : Response.t list }
      (* one shard's slice of a tick, arrival order preserved *)
  | Mirror of { at : Time.t; responses : Response.t list }
      (* other shards' FLOWSDB writes from the same tick *)

(* Advance a replica engine to simulated time [at], firing every timer
   due on the way. [Engine.run ~until] does not move the clock past
   the last event when the queue drains, so pin the target time with a
   no-op event: it carries the highest sequence number at [at], hence
   runs after every timer due at exactly [at] — the same order the
   facade engine gives timers relative to the batch-flush callback
   (armed a full θτ earlier, the timers always hold lower sequence
   numbers). *)
let advance engine ~at =
  if Time.compare at (Engine.now engine) > 0 then begin
    ignore (Engine.schedule_at engine ~at (fun () -> ()));
    Engine.run engine ~until:at
  end

let apply engine replica = function
  | Register { taint; at; primary; secondaries } ->
      advance engine ~at;
      Validator.register_external replica ~taint ~at ~primary ~secondaries
  | Batch { at; responses } ->
      advance engine ~at;
      Validator.deliver_batch replica responses
  | Mirror { at; responses } ->
      advance engine ~at;
      List.iter (Validator.observe_mirror replica) responses

let is_flowsdb_write (r : Response.t) =
  match r.Response.body with
  | Response.Cache_update { cache = Names.Flowsdb; _ } -> true
  | _ -> false

(* Items one shard buffers before every buffer replays: the bound on
   buffered memory. *)
let chunk_items = 1024

(* What a replica cannot reproduce, each with the reason in [stage.mli]. *)
let unsupported (cfg : Validator.config) =
  List.filter_map
    (fun (bad, msg) -> if bad then Some msg else None)
    [ (cfg.retransmit <> None, "retransmit must be None");
      (cfg.adaptive_timeout, "adaptive_timeout must be false");
      (cfg.max_inflight <> None, "max_inflight must be None");
      ( Jury_policy.Engine.rule_count cfg.policies > 0,
        "policies must have no rules" ) ]

let attach ~pool ~jobs cfg facade =
  (match unsupported cfg with
  | [] -> ()
  | errors -> invalid_arg ("Stage.attach: " ^ String.concat "; " errors));
  let shards = Validator.shard_count facade in
  (* Replica engines replay facade timestamps; they draw no randomness
     (the validator is RNG-free), so the seed is irrelevant. *)
  let engines = Array.init shards (fun _ -> Engine.create ()) in
  let replicas =
    Array.init shards (fun i ->
        Validator.create engines.(i) { cfg with Validator.shards = 1 })
  in
  (* Shards dealt round-robin into at most [jobs] groups, one replay
     task each. *)
  let groups =
    let n = max 1 (min jobs shards) in
    List.init n (fun g ->
        List.filter (fun i -> i mod n = g) (List.init shards Fun.id))
  in
  let buffers = Array.make shards [] (* newest first *) in
  let lengths = Array.make shards 0 in
  let replay ?until () =
    let chunks = Array.map List.rev buffers in
    Array.fill buffers 0 shards [];
    Array.fill lengths 0 shards 0;
    ignore
      (Pool.map_ordered pool groups
         (List.iter (fun i ->
              List.iter (apply engines.(i) replicas.(i)) chunks.(i);
              Option.iter (fun at -> advance engines.(i) ~at) until)))
  in
  let push i item =
    buffers.(i) <- item :: buffers.(i);
    lengths.(i) <- lengths.(i) + 1;
    if lengths.(i) >= chunk_items then replay ()
  in
  let pl_register ~taint ~at ~primary ~secondaries =
    push
      (Validator.shard_of_taint facade taint)
      (Register { taint; at; primary; secondaries })
  in
  let pl_batch ~at rs =
    (* Split the tick like the inline [deliver_batch] would: per-shard
       buckets in arrival order. Every shard additionally receives the
       other shards' FLOWSDB writes as mirror traffic, ordered so its
       replica sees writes from lower-indexed shards before its own
       bucket and higher-indexed ones after — exactly the global write
       order of the serial validator, which processes buckets in shard
       index order at a single instant. *)
    let buckets = Array.make shards [] (* reversed *) in
    let mirrors = Array.make shards [] (* reversed *) in
    List.iter
      (fun (r : Response.t) ->
        let i = Validator.shard_of_taint facade r.taint in
        buckets.(i) <- r :: buckets.(i);
        if is_flowsdb_write r then mirrors.(i) <- r :: mirrors.(i))
      rs;
    let mirror_slice lo hi =
      let acc = ref [] in
      for j = hi downto lo do
        if j >= 0 && j < shards then acc := List.rev_append mirrors.(j) !acc
      done;
      List.rev !acc
    in
    for i = 0 to shards - 1 do
      let pre = mirror_slice 0 (i - 1) in
      let own = List.rev buckets.(i) in
      let post = mirror_slice (i + 1) (shards - 1) in
      if pre <> [] then push i (Mirror { at; responses = pre });
      if own <> [] then push i (Batch { at; responses = own });
      if post <> [] then push i (Mirror { at; responses = post })
    done
  in
  let pl_drain ~at =
    (* Timers due by the drain instant fire (deciding their triggers
       exactly as the facade engine would have); everything still
       pending stays pending and migrates back in the merge. *)
    replay ~until:at ();
    Array.iteri
      (fun i replica -> Validator.absorb_pipeline_shard facade ~shard:i replica)
      replicas;
    Validator.finalize_pipeline_merge facade
  in
  Validator.set_pipeline_hooks facade { pl_register; pl_batch; pl_drain }
