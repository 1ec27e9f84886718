(** The validator's counters, one slot each in every shard's counter
    array. A new counter is one constructor here, with its row in
    {!all} and {!slot}, plus its increment site in {!Validator}: every
    reader (sums, per-shard export, the staged-pipeline merge, the
    check harness) walks {!all}. *)

type t =
  | Decided  (** verdicts reached *)
  | Faulty  (** verdicts decided [Faulty] *)
  | Unverifiable  (** verdicts decided [Ok_unverifiable] *)
  | Degraded  (** verdicts decided [Ok_degraded] (reduced quorum) *)
  | Overload  (** triggers shed as [Overload] at the [max_inflight] mark *)
  | Duplicate  (** responses discarded as stale channel duplicates *)
  | Late  (** responses that arrived after their trigger was decided *)
  | Retransmit  (** retransmission requests, per secondary per round *)
  | Reattributed  (** in-flight triggers moved to a new master *)
  | Straggler  (** secondaries still silent when their trigger is decided *)
  | Batch  (** per-shard batches ingested by [deliver_batch] *)
  | Batch_response  (** responses that arrived inside a batch *)

(** Every counter, in slot order. *)
let all =
  [ Decided; Faulty; Unverifiable; Degraded; Overload; Duplicate; Late;
    Retransmit; Reattributed; Straggler; Batch; Batch_response ]

let cardinal = List.length all

(* Array slot and metric-key spelling. The pairs are static constants,
   so reading either half allocates nothing. *)
let slot = function
  | Decided -> (0, "decided")
  | Faulty -> (1, "faults")
  | Unverifiable -> (2, "unverifiable")
  | Degraded -> (3, "degraded")
  | Overload -> (4, "overloads")
  | Duplicate -> (5, "duplicates")
  | Late -> (6, "late")
  | Retransmit -> (7, "retransmits")
  | Reattributed -> (8, "reattributed")
  | Straggler -> (9, "stragglers")
  | Batch -> (10, "batches")
  | Batch_response -> (11, "batch-responses")

(** Slot in a shard's counter array, [0 .. cardinal - 1]. *)
let index c = fst (slot c)

(** Metric-key spelling, e.g. ["decided"], ["batch-responses"]. *)
let name c = snd (slot c)
