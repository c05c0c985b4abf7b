(* Quiescent-state based reclamation (§3.1), the paper's fast path.

   Three logical epochs; one limbo list per epoch per process; a shared
   global epoch. A process declaring a quiescent state adopts the global
   epoch if it lags — at which point its limbo list for the adopted epoch
   holds nodes retired a full epoch cycle ago, separated from the present by
   a grace period (Lemma 3), so they are freed. If instead the process is
   current and observes everybody else current too, it advances the global
   epoch.

   Fast (no per-node work at all) but blocking: one delayed process freezes
   the global epoch and with it all reclamation — the failure mode QSense's
   fallback path exists to survive.

   Hot-path discipline: limbo lists are batched bags ({!Qs_util.Bag}) —
   [retire] is an allocation-free array store into the open block (with
   the constant stamp 0: QSBR never ages a node, so it reads no clock)
   and an expired epoch returns to the arena one whole bag per
   [free_bulk] call.
   The free/flush callbacks are preallocated per handle so no closure is
   built on a reclamation path. Per-process epoch slots are cache-line padded
   ([R.atomic_padded]) because each is written by its owner and read by
   everyone. *)

module Bag = Qs_util.Bag

module Make (R : Qs_intf.Runtime_intf.RUNTIME) (N : Smr_intf.NODE) = struct
  type node = N.t

  type t = {
    cfg : Smr_intf.config;
    free_bulk : node array -> int -> unit;
    global : int R.atomic;
    locals : int R.atomic array;
    dummy : node;
    handles : handle option array;
    orphans : node Bag.t array Orphan_pool.t;
        (* limbo triples donated by departed processes; bag chains travel
           intact (sealed by the donor, spliced by the adopter) *)
    departed : bool array;
        (* meta-level: pid slots vacated by {!unregister}; a later
           {!register} into such a slot must re-join the epoch protocol
           (its [locals] cell is the -1 "absent" sentinel) *)
    mutable legacy_retires : int;
    mutable legacy_frees : int;
    mutable legacy_epoch_advances : int;
    mutable legacy_retired_peak : int;
        (* counters folded out of handles destroyed by {!unregister}, so
           [stats] stays monotone across worker churn *)
  }

  and handle = {
    owner : t;
    pid : int;
    mutable lsrc : node Bag.source;
    mutable limbo : node Bag.Triple.t; (* one limbo list per epoch *)
    mutable joined : bool;
        (* false only for a handle re-registered into a vacated slot,
           until its first [manage_state] announces an epoch *)
    mutable ops : int;
    mutable retires : int;
    mutable frees : int;
    mutable epoch_advances : int;
    mutable retired_peak : int;
    (* reclamation callbacks, preallocated so scans/drains build no
       closures; [flush_bag] skips event emission (teardown may run
       outside process context, where the emit effect is illegal on the
       simulator — and teardown frees are not reclamation events) *)
    free_bag : node array -> int array -> int -> int -> unit;
    flush_bag : node array -> int array -> int -> int -> unit;
  }

  let name = "qsbr"

  let create (cfg : Smr_intf.config) ~dummy ~free_bulk =
    { cfg;
      free_bulk;
      global = R.atomic_padded 0;
      locals = Array.init cfg.n_processes (fun _ -> R.atomic_padded 0);
      dummy;
      handles = Array.make cfg.n_processes None;
      orphans = Orphan_pool.create ();
      departed = Array.make cfg.n_processes false;
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
        joined = not t.departed.(pid);
        ops = 0;
        retires = 0;
        frees = 0;
        epoch_advances = 0;
        retired_peak = 0;
        free_bag =
          (fun data _ts count _stamp ->
            t.free_bulk data count;
            h.frees <- h.frees + count;
            (* one tracing check per bag instead of one dead emit per node;
               no timestamps in QSBR: age recovered offline from Ev_retire *)
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
    t.departed.(pid) <- false;
    t.handles.(pid) <- Some h;
    h

  let free_epoch ?(emit = true) h e =
    let v = h.limbo.(e) in
    Bag.drain v ~free_bag:(if emit then h.free_bag else h.flush_bag)

  (* A negative local epoch is the "absent" sentinel written by
     {!unregister}: the slot no longer gates epoch advancement. Same
     effect count per process as before (one load). *)
  (* Top-level recursion (not an inner [let rec]): quiescent_state runs on
     the service get path every quiescence_threshold requests, and an inner
     closure here would be the only heap allocation on it. *)
  let rec all_current_from t eg n i =
    i >= n
    || (let l = R.get t.locals.(i) in
        (l = eg || l < 0) && all_current_from t eg n (i + 1))

  let all_current t eg = all_current_from t eg (Array.length t.locals) 0

  (* Adoption: splice one orphaned limbo triple into the epoch list we
     just freed. The adopted nodes are freed the next time this process
     adopts [eg] — a full epoch cycle, hence a fresh grace period, so
     Lemma 3 applies to them regardless of when (or at which epoch) the
     donor retired them. Gated on the meta-level emptiness hint so runs
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

  let quiescent_state h =
    R.hook Qs_intf.Runtime_intf.Hook_quiesce;
    let t = h.owner in
    let eg = R.get t.global in
    if R.get t.locals.(h.pid) <> eg then begin
      R.set t.locals.(h.pid) eg;
      R.emit Qs_intf.Runtime_intf.Ev_quiesce eg 1;
      free_epoch h eg;
      adopt_orphans h eg
    end
    else begin
      R.emit Qs_intf.Runtime_intf.Ev_quiesce eg 0;
      if all_current t eg then
        if R.cas t.global eg ((eg + 1) mod 3) then begin
          h.epoch_advances <- h.epoch_advances + 1;
          R.emit Qs_intf.Runtime_intf.Ev_epoch_advance ((eg + 1) mod 3) (-1)
        end
    end

  (* Late join (worker churn): a handle registered into a vacated slot
     starts invisible to grace periods ([locals] = -1); its first
     [manage_state] call — in process context by the {!register}
     contract — announces the current global epoch. Gated on a plain
     handle field, so runs without churn perform no extra effects. *)
  let join h =
    let t = h.owner in
    R.set t.locals.(h.pid) (R.get t.global);
    h.joined <- true

  let manage_state h =
    if not h.joined then join h;
    h.ops <- h.ops + 1;
    if h.ops mod h.owner.cfg.quiescence_threshold = 0 then quiescent_state h

  let assign_hp _ ~slot:_ _ = ()
  let clear_hps _ = ()
  let total_limbo h = Bag.Triple.total h.limbo

  let retire h n =
    R.hook Qs_intf.Runtime_intf.Hook_retire;
    let e = R.get h.owner.locals.(h.pid) in
    (* before the first [manage_state] of a re-registered handle the local
       epoch is the -1 sentinel; park the node in epoch 0 — it is freed
       only by this handle's own later adoptions, behind a full cycle *)
    let e = if e < 0 then 0 else e in
    let sealed = Bag.push h.limbo.(e) n 0 in
    h.retires <- h.retires + 1;
    let total = total_limbo h in
    if total > h.retired_peak then h.retired_peak <- total;
    R.emit Qs_intf.Runtime_intf.Ev_retire (N.id n) total;
    if sealed > 0 then R.emit Qs_intf.Runtime_intf.Ev_bag_seal sealed (-1)

  (* Dynamic membership: donate the limbo triple to the orphan pool,
     mark the local-epoch slot absent and release the pid for reuse.
     Fresh (empty) lists — over a fresh block source, so the adopter's
     splicing never races this handle's cache — are installed *before*
     donating so the nodes are never owned twice; counters fold into the
     scheme-level legacy accumulators so [stats] stays monotone across
     churn. *)
  let unregister h =
    let t = h.owner in
    let donated = total_limbo h in
    let old = h.limbo in
    h.lsrc <- limbo_source t;
    h.limbo <- Bag.Triple.create h.lsrc;
    h.joined <- true (* dead handle: never join again *);
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
    t.departed.(h.pid) <- true;
    R.emit Qs_intf.Runtime_intf.Ev_unregister h.pid donated

  let flush h =
    for e = 0 to 2 do
      free_epoch ~emit:false h e
    done;
    (* teardown owns everything: drain the orphan pool too (the first
       flusher gets all of it; later flushers find it empty) *)
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
