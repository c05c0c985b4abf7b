(* The reclamation counters every scheme keeps, in one record.

   Each handle owns one and bumps it with plain stores (one writer, no
   runtime effect). Each scheme instance owns one more, [departed], into
   which {!absorb} folds the counts of a handle leaving by
   [unregister], so [stats] stays monotone across worker churn. Teardown
   frees of orphaned nodes, which no live handle owns, count there too. *)

type t = {
  mutable retires : int;
  mutable frees : int;
  mutable scans : int;  (** hazard-pointer scans *)
  mutable epoch_advances : int;
  mutable fallback_entries : int;
  mutable fallback_exits : int;
  mutable evictions : int;
  mutable neutralizations : int;
  mutable retired_peak : int;
      (** the largest limbo this handle held; summed across handles *)
}

let create () =
  { retires = 0;
    frees = 0;
    scans = 0;
    epoch_advances = 0;
    fallback_entries = 0;
    fallback_exits = 0;
    evictions = 0;
    neutralizations = 0;
    retired_peak = 0 }

(* One retire that left [limbo] nodes in the caller's limbo lists. *)
let retired c limbo =
  c.retires <- c.retires + 1;
  if limbo > c.retired_peak then c.retired_peak <- limbo

let add ~into c =
  into.retires <- into.retires + c.retires;
  into.frees <- into.frees + c.frees;
  into.scans <- into.scans + c.scans;
  into.epoch_advances <- into.epoch_advances + c.epoch_advances;
  into.fallback_entries <- into.fallback_entries + c.fallback_entries;
  into.fallback_exits <- into.fallback_exits + c.fallback_exits;
  into.evictions <- into.evictions + c.evictions;
  into.neutralizations <- into.neutralizations + c.neutralizations;
  into.retired_peak <- into.retired_peak + c.retired_peak

(* Fold a departing handle's counts into [into] and zero them, so the
   dead handle can never be counted twice. *)
let absorb ~into c =
  add ~into c;
  c.retires <- 0;
  c.frees <- 0;
  c.scans <- 0;
  c.epoch_advances <- 0;
  c.fallback_entries <- 0;
  c.fallback_exits <- 0;
  c.evictions <- 0;
  c.neutralizations <- 0;
  c.retired_peak <- 0

(* The departed counts plus those of every live handle. *)
let sum departed counters handles =
  let acc = create () in
  add ~into:acc departed;
  Array.iter (function None -> () | Some h -> add ~into:acc (counters h)) handles;
  acc

let to_stats c ~retired_now =
  { Smr_intf.zero_stats with
    retires = c.retires;
    frees = c.frees;
    scans = c.scans;
    epoch_advances = c.epoch_advances;
    fallback_entries = c.fallback_entries;
    fallback_exits = c.fallback_exits;
    evictions = c.evictions;
    neutralizations = c.neutralizations;
    retired_now;
    retired_peak = c.retired_peak }
