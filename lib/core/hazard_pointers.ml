(* Michael's classic hazard pointers (§3.2 of the paper).

   [assign_hp] publishes the pointer and then issues a full memory barrier,
   so that the subsequent re-validation load cannot be reordered before the
   publication store (the TSO hazard of Algorithm 2). This per-traversed-node
   fence is exactly the overhead the paper measures at ~80% and that Cadence
   eliminates.

   [Make_gen] also admits an unfenced variant ({!Unsafe_hp}) used by the
   tests to demonstrate that the fence is load-bearing: under the simulator's
   TSO model the unfenced variant reclaims nodes that are still hazardously
   referenced.

   Hot-path discipline: the removed list is a batched bag deque
   ({!Qs_util.Bag}; allocation-free [retire], drops freed one whole bag
   per arena call, survivors compacted into fresh bags). Classic HP never
   ages nodes: it pushes the constant stamp 0 (no clock read) and scans
   with an always-true age predicate, which walks every bag; a scan snapshots
   the N×K hazard slots into a reusable id hash set (expected-O(1)
   membership, zero allocation). A scan fires every R = cfg.scan_threshold
   retires and costs O(N·K + limbo); it keeps at most N·K protected nodes,
   so R >= N·K makes scan work amortised O(1) per retire, and a smaller R
   tightens the retired-node bound instead. *)

module Bag = Qs_util.Bag

(* The scan's age predicate: every node is old enough, so [Bag.scan]
   walks every sealed bag and filters by hazard pointer alone. Top-level,
   so the scan builds no closure. *)
let always_old _ = true

module type PARAMS = sig
  val scheme_name : string
  val fenced : bool
end

module Make_gen
    (P : PARAMS)
    (R : Qs_intf.Runtime_intf.RUNTIME)
    (N : Smr_intf.NODE) =
struct
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
    mutable frees : int;
    mutable scans : int;
    mutable retired_peak : int;
    (* preallocated scan/flush callbacks: the per-scan closure state is
       hoisted into the handle so a scan builds nothing on the heap *)
    keep : node -> bool;
    free_bag : node array -> int array -> int -> int -> unit;
    flush_bag : node array -> int array -> int -> int -> unit;
  }

  let name = P.scheme_name

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
    let rec h =
      { owner = t;
        pid;
        lsrc;
        rlist = Bag.create lsrc;
        hp_row = Hp.row t.hp ~pid;
        scan_set = Hp.scan_set t.hp;
        retires = 0;
        frees = 0;
        scans = 0;
        retired_peak = 0;
        keep = (fun n -> Hp.protects_set h.scan_set n);
        free_bag =
          (fun data _ts count _stamp ->
            t.free_bulk data count;
            h.frees <- h.frees + count;
            (* one tracing check per bag instead of one dead emit per node;
               classic HP has no timestamps: age recovered offline by
               joining against the node's Ev_retire *)
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

  let manage_state _ = ()

  let assign_hp h ~slot n =
    R.write h.hp_row slot (N.id n);
    if P.fenced then R.fence ()

  let clear_hps h = Hp.clear h.owner.hp ~pid:h.pid

  (* Adoption: splice one orphaned removed-list into our own just before
     a scan. The scan's hazard-pointer filter is the full safety argument
     here — any process protecting an orphaned node published its hazard
     (with its fence) before the node was removed, so the snapshot taken
     below observes it; no grace period is involved. Gated on the
     meta-level emptiness hint so runs without churn perform no extra
     runtime effects. *)
  let adopt_orphans h =
    let t = h.owner in
    if not (Orphan_pool.is_empty t.orphans) then
      match Orphan_pool.take t.orphans with
      | None -> ()
      | Some e ->
        Bag.splice_into ~src:e.Orphan_pool.payload ~dst:h.rlist;
        R.emit Qs_intf.Runtime_intf.Ev_adopt e.Orphan_pool.nodes
          e.Orphan_pool.donor

  (* Free every retired node not currently protected by any process's hazard
     pointers; keep the rest for a later scan. *)
  let scan h =
    R.hook Qs_intf.Runtime_intf.Hook_scan;
    adopt_orphans h;
    let t = h.owner in
    h.scans <- h.scans + 1;
    let before = Bag.length h.rlist in
    R.emit Qs_intf.Runtime_intf.Ev_scan_begin before (-1);
    Hp.snapshot_into t.hp h.scan_set;
    Bag.scan h.rlist ~age_ok:always_old ~keep:h.keep ~free_bag:h.free_bag;
    let kept = Bag.length h.rlist in
    R.emit Qs_intf.Runtime_intf.Ev_scan_end (before - kept) kept

  let retire h n =
    R.hook Qs_intf.Runtime_intf.Hook_retire;
    let sealed = Bag.push h.rlist n 0 in
    h.retires <- h.retires + 1;
    let rcount = Bag.length h.rlist in
    if rcount > h.retired_peak then h.retired_peak <- rcount;
    R.emit Qs_intf.Runtime_intf.Ev_retire (N.id n) rcount;
    if sealed > 0 then R.emit Qs_intf.Runtime_intf.Ev_bag_seal sealed (-1);
    if rcount >= h.owner.scan_threshold then scan h

  (* Dynamic membership: clear the slot's hazard pointers (with a fence so
     the cleared slots are globally visible before any survivor scans),
     donate the removed list and release the pid. *)
  let unregister h =
    let t = h.owner in
    Hp.clear t.hp ~pid:h.pid;
    if P.fenced then R.fence ();
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

module Make = Make_gen (struct
  let scheme_name = "hp"
  let fenced = true
end)
