(* Epoch-based reclamation (Fraser-style EBR — the paper's §8 "epoch-based
   techniques" [13, 14, 23]), included as an additional baseline.

   Where QSBR declares quiescence BETWEEN batches of operations, EBR
   brackets each operation: a process is "active" (pinned to its observed
   epoch) for the duration of one operation and inactive in between. The
   global epoch can advance as soon as every ACTIVE process has observed
   it, so — unlike QSBR — a process that stalls between operations does not
   block reclamation. A process that stalls inside an operation still
   does: EBR narrows, but does not close, the robustness gap that QSense's
   fallback path closes.

   Integration piggybacks on the standard three-call interface:
   [manage_state] (top of every operation) = enter the critical region;
   [clear_hps] (end of every operation, where hazard-pointer schemes drop
   protection) = leave it.

   Hot-path discipline: batched-bag limbo lists ({!Qs_util.Bag};
   allocation-free [retire] with the constant stamp 0 — no clock read —
   and whole-bag frees on epoch expiry); padded
   per-process epoch slots —
   [clear_hps] writes the slot on every single operation, making it the
   most false-sharing-sensitive cell in the scheme. *)

module Bag = Qs_util.Bag

module Make (R : Qs_intf.Runtime_intf.RUNTIME) (N : Smr_intf.NODE) = struct
  type node = N.t

  type t = {
    cfg : Smr_intf.config;
    free_bulk : node array -> int -> unit;
    global : int R.atomic;
    (* local.(pid): -1 when inactive, else the epoch pinned by the
       in-flight operation *)
    locals : int R.atomic array;
    dummy : node;
    handles : handle option array;
    orphans : node Bag.t array Orphan_pool.t;
    mutable legacy_retires : int;
    mutable legacy_frees : int;
    mutable legacy_epoch_advances : int;
    mutable legacy_retired_peak : int;
        (* counters folded out of handles destroyed by {!unregister} *)
  }

  and handle = {
    owner : t;
    pid : int;
    mutable lsrc : node Bag.source;
    mutable limbo : node Bag.Triple.t;
    mutable last_epoch : int; (* last epoch this process was pinned to *)
    mutable ops : int;
    mutable retires : int;
    mutable frees : int;
    mutable epoch_advances : int;
    mutable retired_peak : int;
    (* preallocated reclamation callbacks; [flush_bag] skips event
       emission (teardown may run outside process context) *)
    free_bag : node array -> int array -> int -> int -> unit;
    flush_bag : node array -> int array -> int -> int -> unit;
  }

  let name = "ebr"

  let create (cfg : Smr_intf.config) ~dummy ~free_bulk =
    { cfg;
      free_bulk;
      global = R.atomic_padded 0;
      locals = Array.init cfg.n_processes (fun _ -> R.atomic_padded (-1));
      dummy;
      handles = Array.make cfg.n_processes None;
      orphans = Orphan_pool.create ();
      legacy_retires = 0;
      legacy_frees = 0;
      legacy_epoch_advances = 0;
      legacy_retired_peak = 0 }

  let limbo_source t = Bag.source ~capacity:t.cfg.bag_capacity t.dummy

  let register t ~pid =
    let lsrc = limbo_source t in
    let rec h =
      { owner = t;
        pid;
        lsrc;
        limbo = Bag.Triple.create lsrc;
        last_epoch = -1;
        ops = 0;
        retires = 0;
        frees = 0;
        epoch_advances = 0;
        retired_peak = 0;
        free_bag =
          (fun data _ts count _stamp ->
            t.free_bulk data count;
            h.frees <- h.frees + count;
            (* one tracing check per bag instead of one dead emit per node *)
            if R.tracing () then
              for i = 0 to count - 1 do
                R.emit Qs_intf.Runtime_intf.Ev_free (N.id data.(i)) (-1)
              done;
            R.emit Qs_intf.Runtime_intf.Ev_bag_free count (-1));
        flush_bag =
          (fun data _ts count _stamp ->
            t.free_bulk data count;
            h.frees <- h.frees + count) }
    in
    t.handles.(pid) <- Some h;
    h

  (* [emit = false] on the teardown path ([flush]), which may run outside
     process context where performing the emit effect is illegal. *)
  let free_epoch ?(emit = true) h e =
    let v = h.limbo.(e) in
    Bag.drain v ~free_bag:(if emit then h.free_bag else h.flush_bag)

  (* Every process is either inactive or pinned to [eg]. *)
  let all_on t eg =
    let n = Array.length t.locals in
    let rec go i =
      i >= n
      ||
      let l = R.get t.locals.(i) in
      (l = -1 || l = eg) && go (i + 1)
    in
    go 0

  (* Adoption: splice one orphaned limbo triple into the epoch list we
     just freed; it is freed on our next first-pin of [eg], a full epoch
     cycle (grace period) later — sound regardless of when the donor
     retired the nodes. Gated on the meta-level emptiness hint so runs
     without churn perform no extra runtime effects. *)
  let adopt_orphans h eg =
    let t = h.owner in
    if not (Orphan_pool.is_empty t.orphans) then
      match Orphan_pool.take t.orphans with
      | None -> ()
      | Some e ->
        Array.iter
          (fun v -> Bag.splice_into ~src:v ~dst:h.limbo.(eg))
          e.Orphan_pool.payload;
        R.emit Qs_intf.Runtime_intf.Ev_adopt e.Orphan_pool.nodes
          e.Orphan_pool.donor

  (* Enter the critical region: pin the current global epoch; opportunistic
     epoch maintenance amortised over Q operations. *)
  let manage_state h =
    R.hook Qs_intf.Runtime_intf.Hook_quiesce;
    let t = h.owner in
    let eg = R.get t.global in
    R.set t.locals.(h.pid) eg;
    if h.last_epoch <> eg then begin
      (* first pin of epoch eg since the last cycle: our limbo list for eg
         holds nodes retired a full cycle ago, separated from the present by
         a grace period (every process has unpinned or repinned since) *)
      h.last_epoch <- eg;
      R.emit Qs_intf.Runtime_intf.Ev_quiesce eg 1;
      free_epoch h eg;
      adopt_orphans h eg
    end;
    h.ops <- h.ops + 1;
    if h.ops mod t.cfg.quiescence_threshold = 0 && all_on t eg then
      if R.cas t.global eg ((eg + 1) mod 3) then begin
        h.epoch_advances <- h.epoch_advances + 1;
        R.emit Qs_intf.Runtime_intf.Ev_epoch_advance ((eg + 1) mod 3) (-1)
      end

  (* Leave the critical region (called where HP schemes drop protection). *)
  let clear_hps h = R.set h.owner.locals.(h.pid) (-1)

  let assign_hp _ ~slot:_ _ = ()

  let total_limbo h = Bag.Triple.total h.limbo

  let retire h n =
    R.hook Qs_intf.Runtime_intf.Hook_retire;
    let e =
      match R.get h.owner.locals.(h.pid) with
      | -1 -> R.get h.owner.global (* retire outside an operation *)
      | e -> e
    in
    let sealed = Bag.push h.limbo.(e) n 0 in
    h.retires <- h.retires + 1;
    let total = total_limbo h in
    if total > h.retired_peak then h.retired_peak <- total;
    R.emit Qs_intf.Runtime_intf.Ev_retire (N.id n) total;
    if sealed > 0 then R.emit Qs_intf.Runtime_intf.Ev_bag_seal sealed (-1)

  (* Dynamic membership. EBR needs no join protocol on re-registration:
     a vacated slot's [locals] cell holds -1, which is the ordinary
     "inactive" state, and a fresh handle re-pins on its very first
     [manage_state]. *)
  let unregister h =
    let t = h.owner in
    let donated = total_limbo h in
    let old = h.limbo in
    h.lsrc <- limbo_source t;
    h.limbo <- Bag.Triple.create h.lsrc;
    R.set t.locals.(h.pid) (-1);
    Orphan_pool.donate t.orphans ~donor:h.pid ~nodes:donated old;
    t.legacy_retires <- t.legacy_retires + h.retires;
    t.legacy_frees <- t.legacy_frees + h.frees;
    t.legacy_epoch_advances <- t.legacy_epoch_advances + h.epoch_advances;
    t.legacy_retired_peak <- t.legacy_retired_peak + h.retired_peak;
    h.retires <- 0;
    h.frees <- 0;
    h.epoch_advances <- 0;
    h.retired_peak <- 0;
    t.handles.(h.pid) <- None;
    R.emit Qs_intf.Runtime_intf.Ev_unregister h.pid donated

  let flush h =
    for e = 0 to 2 do
      free_epoch ~emit:false h e
    done;
    let t = h.owner in
    List.iter
      (fun (e : _ Orphan_pool.entry) ->
        Array.iter
          (fun v ->
            Bag.drain v ~free_bag:(fun data _ts count _stamp ->
                t.free_bulk data count;
                t.legacy_frees <- t.legacy_frees + count))
          e.Orphan_pool.payload)
      (Orphan_pool.drain t.orphans)

  let fold t f =
    Array.fold_left
      (fun acc -> function None -> acc | Some h -> acc + f h)
      0 t.handles

  let retired_count t = fold t total_limbo + Orphan_pool.node_count t.orphans

  let stats t =
    { Smr_intf.zero_stats with
      retires = fold t (fun h -> h.retires) + t.legacy_retires;
      frees = fold t (fun h -> h.frees) + t.legacy_frees;
      epoch_advances =
        fold t (fun h -> h.epoch_advances) + t.legacy_epoch_advances;
      retired_now = retired_count t;
      retired_peak =
        fold t (fun h -> h.retired_peak) + t.legacy_retired_peak }
end
