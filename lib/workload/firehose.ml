(* Firehose: a synthetic capture-level trigger stream for throughput
   benchmarking. Unlike the other workloads in this library it does not
   drive a simulated network — at the rates of interest (tens of
   thousands of triggers per simulated second over a host space in the
   millions) materialising hosts and switches would swamp the very
   pipeline being measured. Instead the stream denotes the {e output}
   of capture: flow arrivals with heavy-tailed interarrival gaps and a
   skewed virtual host popularity, layered on a trace profile's
   burstiness. The consumers (the firehose reference run in
   [Jury_experiments] and the benchmark's [firehose] workload) turn
   each arrival into a validator registration plus responses. *)

open Jury_sim

type profile = {
  name : string;
  base : Traces.profile;
  hosts : int;
  rate : float;
  tail_alpha : float;
  tail_weight : float;
  tail_mean_ratio : float;
  locality : float;
}

(* The enterprise profile scales {!Traces.lbnl}'s burstiness up to
   data-centre trigger rates over a 2M-host space. *)
let enterprise =
  { name = "enterprise";
    base = Traces.lbnl;
    hosts = 2_000_000;
    rate = 50_000.;
    tail_alpha = 1.4;
    tail_weight = 0.10;
    tail_mean_ratio = 8.;
    locality = 2.0 }

type event = { at : Time.t; src : int; dst : int; flow_key : string }

type stream = {
  rng : Rng.t;
  profile : profile;
  mutable clock : Time.t;
  body_mu : float;
  body_sigma : float;
  tail_xm : float;
}

let stream ~rng ?(start = Time.zero) profile =
  if profile.rate <= 0. then invalid_arg "Firehose.stream: rate must be positive";
  if profile.hosts < 2 then invalid_arg "Firehose.stream: need >= 2 hosts";
  let target_gap_us = 1e6 /. profile.rate in
  (* Mixture of a lognormal body (the trace profile's burstiness) and a
     Pareto tail [tail_mean_ratio] times longer on average; solve the
     body mean so the mixture keeps the requested aggregate rate. *)
  let w = profile.tail_weight in
  let body_mean =
    target_gap_us /. ((1. -. w) +. (w *. profile.tail_mean_ratio))
  in
  let body_sigma = profile.base.Traces.burstiness in
  let body_mu = log body_mean -. (body_sigma *. body_sigma /. 2.) in
  (* Pareto mean is xm * alpha / (alpha - 1); invert for xm. *)
  let tail_mean = body_mean *. profile.tail_mean_ratio in
  let tail_xm = tail_mean *. (profile.tail_alpha -. 1.) /. profile.tail_alpha in
  { rng; profile; clock = start; body_mu; body_sigma; tail_xm }

(* Popularity-skewed host pick: u^locality concentrates mass on the
   low ids (a few talkative servers, a long tail of quiet clients)
   while still covering the whole space. *)
let pick_host t =
  let u = Rng.float t.rng 1.0 in
  let h =
    int_of_float (float_of_int t.profile.hosts *. (u ** t.profile.locality))
  in
  min h (t.profile.hosts - 1)

(* Hex digits [%x] prints for [n]: the 63-bit pattern, unsigned. *)
let hex_length n =
  let rec go v len = if v = 0 then len else go (v lsr 4) (len + 1) in
  go (n lsr 4) 1

(* Writes [n] in [%x] form ending just before [stop]. *)
let rec write_hex b ~stop n =
  Bytes.unsafe_set b (stop - 1) "0123456789abcdef".[n land 0xF];
  if n lsr 4 <> 0 then write_hex b ~stop:(stop - 1) (n lsr 4)

(* [Printf.sprintf "fw/%x>%x" src dst], written in place. *)
let flow_key src dst =
  let ls = hex_length src and ld = hex_length dst in
  let b = Bytes.create (4 + ls + ld) in
  Bytes.blit_string "fw/" 0 b 0 3;
  write_hex b ~stop:(3 + ls) src;
  Bytes.unsafe_set b (3 + ls) '>';
  write_hex b ~stop:(4 + ls + ld) dst;
  Bytes.unsafe_to_string b

let next t =
  let gap_us =
    if Rng.bernoulli t.rng t.profile.tail_weight then
      Rng.pareto t.rng ~xm:t.tail_xm ~alpha:t.profile.tail_alpha
    else Rng.lognormal t.rng ~mu:t.body_mu ~sigma:t.body_sigma
  in
  t.clock <- Time.add t.clock (Time.of_float_us gap_us);
  let src = pick_host t in
  let dst =
    let d = pick_host t in
    if d <> src then d else (d + 1) mod t.profile.hosts
  in
  { at = t.clock; src; dst; flow_key = flow_key src dst }
