open Jury_sim

type profile = {
  drop : float;
  duplicate : float;
  jitter_us : float;
}

let reliable = { drop = 0.; duplicate = 0.; jitter_us = 0. }

let lossy ?(drop = 0.) ?(duplicate = 0.) ?(jitter_us = 0.) () =
  let check name p =
    if p < 0. || p > 1. || Float.is_nan p then
      invalid_arg (Printf.sprintf "Channel.lossy: %s must be in [0,1]" name)
  in
  check "drop" drop;
  check "duplicate" duplicate;
  if jitter_us < 0. || Float.is_nan jitter_us then
    invalid_arg "Channel.lossy: jitter_us must be non-negative";
  { drop; duplicate; jitter_us }

let is_reliable p = p.drop = 0. && p.duplicate = 0. && p.jitter_us = 0.

type stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable retransmitted : int;
}

let fresh_stats () =
  { sent = 0; delivered = 0; dropped = 0; duplicated = 0; retransmitted = 0 }

let add_stats a b =
  { sent = a.sent + b.sent;
    delivered = a.delivered + b.delivered;
    dropped = a.dropped + b.dropped;
    duplicated = a.duplicated + b.duplicated;
    retransmitted = a.retransmitted + b.retransmitted }

let total = List.fold_left add_stats (fresh_stats ())

type t = {
  engine : Engine.t;
  rng : Rng.t;
  profile : profile;
  name : string;
  stats : stats;
}

let create engine ~rng ?(name = "channel") profile =
  { engine; rng; profile; name; stats = fresh_stats () }

let name t = t.name
let stats t = t.stats
let profile t = t.profile

(* A function of the channel, not a closure built per send. *)
let jitter t =
  if t.profile.jitter_us > 0. then
    Time.of_float_us (Rng.exponential t.rng t.profile.jitter_us)
  else Time.zero

(* The reliable path must stay bit-for-bit identical to a plain
   [Engine.schedule]: one event at exactly [delay], zero RNG draws.
   Every seeded experiment in the repo depends on this. *)
let send t ?footprint ~delay f =
  t.stats.sent <- t.stats.sent + 1;
  if is_reliable t.profile then begin
    t.stats.delivered <- t.stats.delivered + 1;
    ignore (Engine.schedule t.engine ?footprint ~after:delay f);
    `Delivered
  end
  else if t.profile.drop > 0. && Rng.bernoulli t.rng t.profile.drop then begin
    t.stats.dropped <- t.stats.dropped + 1;
    `Dropped
  end
  else begin
    let delay = Time.add delay (jitter t) in
    t.stats.delivered <- t.stats.delivered + 1;
    ignore (Engine.schedule t.engine ?footprint ~after:delay f);
    if t.profile.duplicate > 0. && Rng.bernoulli t.rng t.profile.duplicate
    then begin
      t.stats.duplicated <- t.stats.duplicated + 1;
      (* The stale copy trails the first by reorder jitter (a fixed
         baseline when the profile has none). *)
      let trail =
        if t.profile.jitter_us > 0. then jitter t
        else Time.of_float_us (Rng.exponential t.rng 25.)
      in
      ignore (Engine.schedule t.engine ?footprint ~after:(Time.add delay trail) f);
      `Duplicated
    end
    else `Delivered
  end

let note_retransmit t = t.stats.retransmitted <- t.stats.retransmitted + 1

let pp_stats fmt s =
  Format.fprintf fmt
    "sent=%d delivered=%d dropped=%d duplicated=%d retransmitted=%d" s.sent
    s.delivered s.dropped s.duplicated s.retransmitted
