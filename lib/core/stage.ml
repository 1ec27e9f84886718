(* Staged validation pipeline: capture/channel stays on the main
   domain (it owns the simulation engine), validation runs on shard
   replicas owned by consumer domains, connected by one bounded SPSC
   ring per shard.

   The facade validator its caller created keeps receiving
   registrations and deliveries, but with hooks installed they are
   turned into queue items instead of touching its state. Each shard's
   items drain, in push order, into a single-shard replica validator
   driven by a private engine whose clock replays the facade engine's
   timestamps — so timers fire at the same simulated instants they
   would inline, and the replica walks the exact state machine the
   serial validator would have walked for that shard's taints. At
   flush the producer sends end-of-stream, joins the consumers and
   merges every replica back into the facade, which from then on
   answers result queries as if it had done the work itself.

   Correctness leans on the facade's config: no retransmissions,
   adaptive timeout, inflight cap or policy rules, a constant term
   lookup, and no trace. Under those conditions a replica never calls
   back into main-domain state (the policy engine's [master_lookup] is the
   one cross-domain read, and {!Validator.run_policy} short-circuits
   it when no rules are installed), never feeds anything back into the
   channel, and never needs another shard's pending table. The only
   cross-shard coupling left is the FLOWSDB flow mirror, which
   [Mirror] items replicate into every shard in the serial shard-index
   order (see [push_batch]). *)

open Jury_sim
module Pool = Jury_par.Pool
module Spsc = Jury_par.Spsc
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
  | Eos of Time.t
      (* advance to drain time and stop — no forced decisions; the
         facade's own [flush] force-decides after the merge if asked *)

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
  | Eos at ->
      (* Timers due by the drain instant fire (deciding their triggers
         exactly as the facade engine would have); everything still
         pending stays pending and migrates back in the merge. *)
      advance engine ~at

(* One consumer drains the queues of the shards it owns round-robin,
   so [jobs - 1] consumers cover any shard count. Each queue is SPSC:
   the main domain is the only producer and exactly one consumer owns
   each shard. *)
let consume ~engines ~replicas ~queues ~owned () =
  let live = Array.of_list owned in
  let finished = Array.map (fun _ -> false) live in
  let remaining = ref (Array.length live) in
  while !remaining > 0 do
    let progressed = ref false in
    Array.iteri
      (fun j i ->
        if not finished.(j) then
          match Spsc.try_pop queues.(i) with
          | None -> ()
          | Some item ->
              progressed := true;
              apply engines.(i) replicas.(i) item;
              (match item with
              | Eos _ ->
                  finished.(j) <- true;
                  decr remaining
              | Register _ | Batch _ | Mirror _ -> ()))
      live;
    if not !progressed then Domain.cpu_relax ()
  done

let is_flowsdb_write (r : Response.t) =
  match r.Response.body with
  | Response.Cache_update ev -> ev.Event.cache = Names.flowsdb
  | _ -> false

(* Items per shard ring (a power of two). *)
let queue_capacity = 1024

let attach ~pool ~jobs cfg facade =
  let shards = Validator.shard_count facade in
  let queues =
    Array.init shards (fun _ -> Spsc.create ~capacity:queue_capacity)
  in
  (* Replica engines replay facade timestamps; they draw no randomness
     (the validator is RNG-free), so the seed is irrelevant. *)
  let engines = Array.init shards (fun _ -> Engine.create ()) in
  let replicas =
    Array.init shards (fun i ->
        Validator.create engines.(i) { cfg with Validator.shards = 1 })
  in
  let consumers = max 1 (min (jobs - 1) shards) in
  let owned c =
    List.filter (fun i -> i mod consumers = c) (List.init shards Fun.id)
  in
  let tickets =
    Array.init consumers (fun c ->
        Pool.async pool (consume ~engines ~replicas ~queues ~owned:(owned c)))
  in
  let shard_of_taint taint =
    Validator.shard_of_key facade (Types.Taint.to_string taint)
  in
  let pl_register ~taint ~at ~primary ~secondaries =
    Spsc.push queues.(shard_of_taint taint)
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
        let i = Validator.shard_of_key facade (Response.taint_key r) in
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
      if pre <> [] then Spsc.push queues.(i) (Mirror { at; responses = pre });
      if own <> [] then Spsc.push queues.(i) (Batch { at; responses = own });
      if post <> [] then Spsc.push queues.(i) (Mirror { at; responses = post })
    done
  in
  let pl_drain ~at =
    Array.iter
      (fun q ->
        Spsc.push q (Eos at);
        Spsc.close q)
      queues;
    Array.iter Pool.await tickets;
    Array.iteri
      (fun i replica -> Validator.absorb_pipeline_shard facade ~shard:i replica)
      replicas;
    Validator.finalize_pipeline_merge facade
  in
  Validator.set_pipeline_hooks facade { pl_register; pl_batch; pl_drain }
