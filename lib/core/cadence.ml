(* Cadence (§5.1): hazard pointers without the per-node publication fence,
   made safe by rooster processes plus deferred reclamation.

   - [assign_hp] is a plain store, no barrier. Its visibility to reclaimers
     is bounded by the rooster interval T: every core's store buffer is
     drained at least every T (+ oversleep) time units by a rooster-induced
     context switch.
   - [retire] records the node with a timestamp (Algorithm 3's
     [timestamped_node] — here a parallel array, not a wrapper record). A
     scan frees a node only when it is old enough — [age >= T + epsilon] —
     because by then any hazard pointer that could protect it (necessarily
     written before the node was removed, by Condition 1) has become
     visible, so the ordinary HP check suffices.

   Hot-path discipline: [retire] is allocation- and syscall-free — the
   timestamp comes from the runtime's coarse clock ([R.now_coarse], an
   atomic load refreshed by the roosters) and the node lands, with that
   timestamp, in a limbo bag ({!Qs_util.Bag}). A bag is stamped once when
   it seals — with its newest timestamp, the bag's maximum under the
   monotone coarse clock — so a scan walks sealed bags oldest-first,
   pays ONE age check per bag, stops at the first too-young bag, and
   returns each expired bag to the arena in one bulk call, filtering
   only hazard-protected survivors into fresh bags. The coarse timestamp
   understates the removal time by at most one rooster period; DESIGN.md
   ("Hot-path discipline") gives the accounting that keeps the deferral
   sound, and DESIGN.md §11 the bag-walk argument.

   Cadence is usable stand-alone (this module) and as QSense's fallback
   path ({!Qsense} re-implements the merged version over the limbo lists).
   The runtime must run roosters with interval <= [cfg.rooster_interval]:
   simulator config [rooster_interval], or {!Qs_real.Roosters.start}. *)

module Bag = Qs_util.Bag

module Make (R : Qs_intf.Runtime_intf.RUNTIME) (N : Smr_intf.NODE) = struct
  type node = N.t

  module Hp = Hp_array.Make (R) (N)

  type t = {
    cfg : Smr_intf.config;
    scan_threshold : int; (* R, clamped to >= 1 *)
    hp : Hp.t;
    free_bulk : node array -> int -> unit;
    dummy : node;
    handles : handle option array;
    orphans : node Bag.t Orphan_pool.t;
    mutable legacy_retires : int;
    mutable legacy_frees : int;
    mutable legacy_scans : int;
    mutable legacy_retired_peak : int;
        (* counters folded out of handles destroyed by {!unregister} *)
  }

  and handle = {
    owner : t;
    pid : int;
    mutable lsrc : node Bag.source;
    mutable rlist : node Bag.t;
    hp_row : R.plain; (* this process's row of [hp] *)
    scan_set : Hp.scan_set;
    mutable retires : int;
    mutable until_scan : int;
        (* retires left before the next threshold scan — a countdown so the
           per-retire check is a decrement, not a [mod] (64-bit division)
           on the hot path *)
    mutable frees : int;
    mutable scans : int;
    mutable retired_peak : int;
    mutable scan_now : int;
        (* the scan's single [now_coarse] read, hoisted into the handle so
           the preallocated filter closures capture no per-scan state *)
    age_ok : int -> bool;
    keep : node -> bool;
    free_bag : node array -> int array -> int -> int -> unit;
    flush_bag : node array -> int array -> int -> int -> unit;
  }

  let name = "cadence"

  let create (cfg : Smr_intf.config) ~dummy ~free_bulk =
    { cfg;
      scan_threshold = Smr_intf.effective_scan_threshold cfg;
      hp = Hp.create ~n:cfg.n_processes ~k:cfg.hp_per_process ~dummy;
      free_bulk;
      dummy;
      handles = Array.make cfg.n_processes None;
      orphans = Orphan_pool.create ();
      legacy_retires = 0;
      legacy_frees = 0;
      legacy_scans = 0;
      legacy_retired_peak = 0 }

  let limbo_source t = Bag.source ~capacity:t.cfg.bag_capacity t.dummy

  let register t ~pid =
    let lsrc = limbo_source t in
    let age = t.cfg.rooster_interval + t.cfg.epsilon in
    let rec h =
      { owner = t;
        pid;
        lsrc;
        rlist = Bag.create lsrc;
        hp_row = Hp.row t.hp ~pid;
        scan_set = Hp.scan_set t.hp;
        retires = 0;
        until_scan = t.scan_threshold;
        frees = 0;
        scans = 0;
        retired_peak = 0;
        scan_now = 0;
        age_ok = (fun stamp -> h.scan_now - stamp >= age);
        keep = (fun n -> Hp.protects_set h.scan_set n);
        free_bag =
          (fun data ts count stamp ->
            t.free_bulk data count;
            h.frees <- h.frees + count;
            (* one tracing check per bag instead of one dead emit per
               node; Ev_free.b is the node's exact age at free, the
               paper's T + epsilon floor observed empirically *)
            if R.tracing () then
              for i = 0 to count - 1 do
                R.emit Qs_intf.Runtime_intf.Ev_free (N.id data.(i))
                  (h.scan_now - ts.(i))
              done;
            R.emit Qs_intf.Runtime_intf.Ev_bag_free count
              (h.scan_now - stamp));
        flush_bag =
          (fun data _ts count _stamp ->
            t.free_bulk data count;
            h.frees <- h.frees + count) }
    in
    t.handles.(pid) <- Some h;
    h

  let manage_state _ = ()

  (* No memory barrier here — the point of the scheme. *)
  let assign_hp h ~slot n = R.write h.hp_row slot (N.id n)

  let clear_hps h = Hp.clear h.owner.hp ~pid:h.pid

  (* Adoption: splice one orphaned timestamped list into our own just
     before a scan, original retire timestamps preserved. The adopted
     nodes then pass through exactly the HP + age filter below — the
     filter the scheme's own safety argument rests on: any hazard that
     could protect an orphaned node was published before its removal and
     is visible within T + epsilon of the (preserved) retire timestamp.
     No grace period is needed. Gated on the meta-level emptiness hint so
     runs without churn perform no extra runtime effects. *)
  let adopt_orphans h =
    let t = h.owner in
    if not (Orphan_pool.is_empty t.orphans) then
      match Orphan_pool.take t.orphans with
      | None -> ()
      | Some e ->
        Bag.splice_into ~src:e.Orphan_pool.payload ~dst:h.rlist;
        R.emit Qs_intf.Runtime_intf.Ev_adopt e.Orphan_pool.nodes
          e.Orphan_pool.donor

  let scan h =
    R.hook Qs_intf.Runtime_intf.Hook_scan;
    adopt_orphans h;
    let t = h.owner in
    h.scans <- h.scans + 1;
    let before = Bag.length h.rlist in
    R.emit Qs_intf.Runtime_intf.Ev_scan_begin before (-1);
    h.scan_now <- R.now_coarse ();
    Hp.snapshot_into t.hp h.scan_set;
    Bag.scan h.rlist ~age_ok:h.age_ok ~keep:h.keep ~free_bag:h.free_bag;
    let kept = Bag.length h.rlist in
    R.emit Qs_intf.Runtime_intf.Ev_scan_end (before - kept) kept

  let retire h n =
    R.hook Qs_intf.Runtime_intf.Hook_retire;
    let sealed = Bag.push h.rlist n (R.now_coarse ()) in
    h.retires <- h.retires + 1;
    let rcount = Bag.length h.rlist in
    if rcount > h.retired_peak then h.retired_peak <- rcount;
    R.emit Qs_intf.Runtime_intf.Ev_retire (N.id n) rcount;
    if sealed > 0 then R.emit Qs_intf.Runtime_intf.Ev_bag_seal sealed (-1);
    h.until_scan <- h.until_scan - 1;
    if h.until_scan = 0 then begin
      h.until_scan <- h.owner.scan_threshold;
      scan h
    end

  (* Dynamic membership: clear the slot's hazard pointers with a fence —
     Cadence's [assign_hp] is deliberately unfenced, but this is a cold
     path, and prompt visibility of the cleared slots keeps survivors
     from retaining orphans against stale hazards — then donate the
     timestamped list and release the pid. *)
  let unregister h =
    let t = h.owner in
    Hp.clear t.hp ~pid:h.pid;
    R.fence ();
    let donated = Bag.length h.rlist in
    let old = h.rlist in
    h.lsrc <- limbo_source t;
    h.rlist <- Bag.create h.lsrc;
    Orphan_pool.donate t.orphans ~donor:h.pid ~nodes:donated old;
    t.legacy_retires <- t.legacy_retires + h.retires;
    t.legacy_frees <- t.legacy_frees + h.frees;
    t.legacy_scans <- t.legacy_scans + h.scans;
    t.legacy_retired_peak <- t.legacy_retired_peak + h.retired_peak;
    h.retires <- 0;
    h.frees <- 0;
    h.scans <- 0;
    h.retired_peak <- 0;
    t.handles.(h.pid) <- None;
    R.emit Qs_intf.Runtime_intf.Ev_unregister h.pid donated

  let flush h =
    let t = h.owner in
    Bag.drain h.rlist ~free_bag:h.flush_bag;
    List.iter
      (fun (e : _ Orphan_pool.entry) ->
        Bag.drain e.Orphan_pool.payload
          ~free_bag:(fun data _ts count _stamp ->
            t.free_bulk data count;
            t.legacy_frees <- t.legacy_frees + count))
      (Orphan_pool.drain t.orphans)

  let fold t f =
    Array.fold_left
      (fun acc -> function None -> acc | Some h -> acc + f h)
      0 t.handles

  let retired_count t =
    fold t (fun h -> Bag.length h.rlist)
    + Orphan_pool.node_count t.orphans

  let stats t =
    { Smr_intf.zero_stats with
      retires = fold t (fun h -> h.retires) + t.legacy_retires;
      frees = fold t (fun h -> h.frees) + t.legacy_frees;
      scans = fold t (fun h -> h.scans) + t.legacy_scans;
      retired_now = retired_count t;
      retired_peak =
        fold t (fun h -> h.retired_peak) + t.legacy_retired_peak }
end
