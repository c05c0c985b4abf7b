(* The hazard engine: Michael's hazard pointers (§3.2) and everything
   built from them — classic HP, the unfenced variant ({!Unsafe_hp}),
   Cadence (§5.1) and QSense's fallback path ({!Qsense}).

   A process publishes the id of every node it is about to use in its row
   of the shared N×K array ({!Hp_array}) and appends every node it
   removes to a removed list. A scan snapshots the N×K slots into a
   reusable id hash set (expected-O(1) membership, zero allocation) and
   frees every removed node that no slot protects; it keeps at most N·K
   protected nodes, so R >= N·K makes scan work amortised O(1) per retire.
   Wait-free and robust: a stalled process pins at most its own K nodes.

   A policy ({!PARAMS}) names the two ways the schemes differ:

   - [fenced]: [assign_hp] issues a full barrier after the publishing
     store, so the caller's re-validation load cannot be reordered before
     it under TSO (Algorithm 2). This per-traversed-node fence is the
     ~80% overhead the paper measures. Without it, and without deferral,
     the scheme is {!Unsafe_hp}: a scan can miss a hazard still sitting
     in its writer's store buffer and free a node that is about to be
     used.
   - [deferred]: Cadence's T + ε deferral. Every retire stamps the node
     with the runtime's coarse clock ([R.now_coarse], an atomic load the
     roosters refresh: no allocation, no syscall), and a scan frees a
     node only once [age >= T + epsilon]. By then any hazard pointer that
     could protect it — written before the removal, by Condition 1 — has
     been drained from its store buffer by a rooster-induced context
     switch, so the ordinary hazard check suffices without the fence. The
     runtime must run roosters with interval <= [cfg.rooster_interval]
     (simulator config, or {!Qs_real.Roosters.start}). A deferred scheme
     scans every R retires: young nodes survive a scan, so the removed
     list can hold R of them, and an undeferred "list >= R" trigger would
     then scan on every retire. An undeferred scheme pushes the constant
     stamp 0 (no clock read), walks every bag and scans whenever its
     removed list holds >= R nodes.

   Hot-path discipline: the removed lists are batched bag deques
   ({!Qs_util.Bag}: allocation-free [retire]; a bag is stamped once, when
   it seals, with its newest — under the monotone coarse clock, maximum —
   timestamp, so a deferred scan pays one age check per bag and stops at
   the first too-young bag; expired bags return to the arena in one bulk
   call and only hazard-protected survivors are compacted into fresh
   bags). The coarse timestamp understates the removal time by at most
   one rooster period; DESIGN.md ("Hot-path discipline") gives the
   accounting that keeps the deferral sound, and DESIGN.md §11 the
   bag-walk argument.

   A handle holds an array of removed lists, scanned together: one for
   the stand-alone schemes; QSense's three epoch lists plus the list its
   adopted orphans land in. *)

module Bag = Qs_util.Bag

(* The undeferred scan's age predicate: every node is old enough, so
   [Bag.scan] walks every sealed bag and filters by hazard pointer alone.
   Top-level, so the scan builds no closure. *)
let always_old _ = true

module type PARAMS = sig
  val scheme_name : string
  val fenced : bool
  val deferred : bool
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
    orphans : node Bag.t array Orphan_pool.t;
    departed : Counters.t;
  }

  and handle = {
    owner : t;
    pid : int;
    mutable lsrc : node Bag.source;
    mutable lists : node Bag.t array;
        (* the removed lists; adopted orphans land in the last one.
           Replaced wholesale (with a fresh block source), never mutated
           in place, when the lists are donated *)
    hp_row : R.plain; (* this process's row of [hp] *)
    scan_set : Hp.scan_set;
    c : Counters.t;
    mutable until_scan : int; (* deferred: retires left before a scan *)
    mutable scan_now : int;
        (* the scan's single [now_coarse] read, hoisted into the handle so
           the preallocated filter closures capture no per-scan state *)
    (* preallocated scan/flush callbacks, so a scan builds nothing *)
    age_ok : int -> bool;
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
      departed = Counters.create () }

  (* Fresh, empty lists over a fresh block source: whoever adopts the old
     lists recycles their blocks into its own cache, never into ours. *)
  let renew h =
    h.lsrc <- Bag.source ~capacity:h.owner.cfg.bag_capacity h.owner.dummy;
    h.lists <- Array.map (fun _ -> Bag.create h.lsrc) h.lists

  (* A handle with [lists] removed lists, installed in the pid slot. *)
  let attach t ~pid ~lists =
    let lsrc = Bag.source ~capacity:t.cfg.bag_capacity t.dummy in
    let age = t.cfg.rooster_interval + t.cfg.epsilon in
    let rec h =
      { owner = t;
        pid;
        lsrc;
        lists = Array.init lists (fun _ -> Bag.create lsrc);
        hp_row = Hp.row t.hp ~pid;
        scan_set = Hp.scan_set t.hp;
        c = Counters.create ();
        until_scan = t.scan_threshold;
        scan_now = 0;
        age_ok =
          (if P.deferred then fun stamp -> h.scan_now - stamp >= age
           else always_old);
        keep = (fun n -> Hp.protects_set h.scan_set n);
        free_bag =
          (fun data ts count stamp ->
            t.free_bulk data count;
            h.c.frees <- h.c.frees + count;
            (* one tracing check per bag instead of one dead emit per
               node. Deferred: Ev_free.b is the node's exact age at free,
               the paper's T + epsilon floor observed empirically.
               Undeferred: no timestamps; the age is recovered offline
               from the node's Ev_retire. *)
            if R.tracing () then
              for i = 0 to count - 1 do
                R.emit Qs_intf.Runtime_intf.Ev_free (N.id data.(i))
                  (if P.deferred then h.scan_now - ts.(i) else -1)
              done;
            R.emit Qs_intf.Runtime_intf.Ev_bag_free count
              (if P.deferred then h.scan_now - stamp else -1));
        flush_bag =
          (fun data _ts count _stamp ->
            t.free_bulk data count;
            h.c.frees <- h.c.frees + count) }
    in
    t.handles.(pid) <- Some h;
    h

  let register t ~pid = attach t ~pid ~lists:1

  let manage_state _ = ()

  let assign_hp h ~slot n =
    R.write h.hp_row slot (N.id n);
    if P.fenced then R.fence ()

  let clear_hps h = Hp.clear h.owner.hp ~pid:h.pid

  let limbo h =
    let n = ref 0 in
    for i = 0 to Array.length h.lists - 1 do
      n := !n + Bag.length h.lists.(i)
    done;
    !n

  (* Adoption: splice one orphaned batch of lists into our last list just
     before a scan, original retire stamps preserved. The scan's filter is
     the whole safety argument: any hazard that could protect an orphaned
     node was published before its removal, so the snapshot observes it —
     after its fence, or (deferred) within T + epsilon of the preserved
     stamp. No grace period is involved. Gated on the meta-level
     emptiness hint so runs without churn perform no extra runtime
     effects. *)
  let adopt_orphans h =
    let t = h.owner in
    if not (Orphan_pool.is_empty t.orphans) then
      match Orphan_pool.take t.orphans with
      | None -> ()
      | Some e ->
        let dst = h.lists.(Array.length h.lists - 1) in
        Array.iter (fun v -> Bag.splice_into ~src:v ~dst) e.Orphan_pool.payload;
        R.emit Qs_intf.Runtime_intf.Ev_adopt e.Orphan_pool.nodes
          e.Orphan_pool.donor

  (* Refresh the scan state: the clock (deferred) and the hazard set. *)
  let snapshot h =
    if P.deferred then h.scan_now <- R.now_coarse ();
    Hp.snapshot_into h.owner.hp h.scan_set

  (* Free every node of [v] that is old enough and unprotected, as of the
     last [snapshot]; keep the rest for a later scan. *)
  let sweep h v = Bag.scan v ~age_ok:h.age_ok ~keep:h.keep ~free_bag:h.free_bag

  let scan h =
    R.hook Qs_intf.Runtime_intf.Hook_scan;
    adopt_orphans h;
    h.c.scans <- h.c.scans + 1;
    let before = limbo h in
    R.emit Qs_intf.Runtime_intf.Ev_scan_begin before (-1);
    snapshot h;
    for i = 0 to Array.length h.lists - 1 do
      sweep h h.lists.(i)
    done;
    let kept = limbo h in
    R.emit Qs_intf.Runtime_intf.Ev_scan_end (before - kept) kept

  let retire h n =
    R.hook Qs_intf.Runtime_intf.Hook_retire;
    let rlist = h.lists.(0) in
    let sealed = Bag.push rlist n (if P.deferred then R.now_coarse () else 0) in
    let rcount = Bag.length rlist in
    Counters.retired h.c rcount;
    R.emit Qs_intf.Runtime_intf.Ev_retire (N.id n) rcount;
    if sealed > 0 then R.emit Qs_intf.Runtime_intf.Ev_bag_seal sealed (-1);
    if P.deferred then begin
      h.until_scan <- h.until_scan - 1;
      if h.until_scan = 0 then begin
        h.until_scan <- h.owner.scan_threshold;
        scan h
      end
    end
    else if rcount >= h.owner.scan_threshold then scan h

  (* Dynamic membership, after the caller has cleared its hazard
     pointers: donate the lists, fold the counters and release the pid. *)
  let release h =
    let t = h.owner in
    let donated = limbo h in
    let old = h.lists in
    renew h;
    Orphan_pool.donate t.orphans ~donor:h.pid ~nodes:donated old;
    Counters.absorb ~into:t.departed h.c;
    t.handles.(h.pid) <- None;
    R.emit Qs_intf.Runtime_intf.Ev_unregister h.pid donated

  (* The cleared slots are fenced visible before any survivor scans:
     promptly, so survivors do not retain orphans against stale hazards.
     A deferred scheme fences here too — this is a cold path; only the
     deliberately broken unfenced, undeferred variant skips it. *)
  let unregister h =
    Hp.clear h.owner.hp ~pid:h.pid;
    if P.fenced || P.deferred then R.fence ();
    release h

  let flush h =
    let t = h.owner in
    Array.iter (fun v -> Bag.drain v ~free_bag:h.flush_bag) h.lists;
    Orphan_pool.free_all t.orphans ~free_bulk:t.free_bulk t.departed

  let retired_count t =
    Array.fold_left
      (fun acc -> function None -> acc | Some h -> acc + limbo h)
      (Orphan_pool.node_count t.orphans)
      t.handles

  let stats t =
    Counters.to_stats
      (Counters.sum t.departed (fun h -> h.c) t.handles)
      ~retired_now:(retired_count t)
end

module Make = Make_gen (struct
  let scheme_name = "hp"
  let fenced = true
  let deferred = false
end)
