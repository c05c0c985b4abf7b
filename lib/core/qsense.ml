(* QSense (§4, §5.2): the hybrid scheme.

   Fast path = QSBR over three per-process limbo lists; fallback path =
   Cadence-style hazard-pointer scans over those same limbo lists (the
   paper: "QSBR's limbo_list becomes the removed_nodes_list scanned by
   Cadence"). Two pieces of state are maintained at ALL times, regardless
   of mode, because a switch can happen at any moment:

   - hazard pointers: published on every traversal with a plain store and
     NO fence (visibility bounded by the rooster interval T);
   - retire timestamps: every retired node is recorded with its removal time
     (Algorithm 5's free_node_later) — in a parallel array, not a wrapper
     record, and taken from the coarse rooster clock, so [retire] performs
     no allocation and no syscall.

   Mode is a shared fallback flag. A process whose limbo lists exceed the
   threshold C flips it to fallback (quiescence has evidently stalled); a
   process that observes every worker's presence flag set flips it back.

   Extension beyond the paper (its §5.2 "future work"): optional eviction.
   Without it, a crashed process leaves QSense in fallback mode forever.
   With [eviction_timeout = Some dt], a process silent for dt while the
   system is in fallback mode is evicted: it no longer counts for presence
   or epoch agreement, so the survivors return to the fast path. Safety is
   preserved because (a) the evicted process's hazard pointers are visible
   (it has been off-CPU far longer than T) and (b) while any process is
   evicted — and for the first epoch cycle after it rejoins — quiescent
   freeing filters through the hazard-pointer + age check instead of freeing
   unconditionally.

   Hot-path discipline: limbo lists are bags ({!Qs_util.Bag}) holding
   each node with its retire timestamp. The QSBR fast path frees a whole
   expired epoch bag-by-bag in bulk arena calls; fallback scans walk
   sealed bags oldest-first against a reusable hash-set hazard-pointer
   snapshot ({!Hp_array.snapshot_into}), paying one age check per bag and
   filtering survivors into fresh bags — the fallback HP scan shrinks to
   bag granularity. Eviction seizes a victim's bag chains intact (donation is
   pointer splicing). The per-process cells written by their owner and
   read by everyone (epoch slots, presence and eviction flags) are
   cache-line padded. *)

module Bag = Qs_util.Bag

module type PUBLICATION = sig
  val scheme_name : string

  val always_publish : bool
  (** true = the sound QSense design: hazard pointers maintained in BOTH
      modes, fence-free. false = the naive hybrid of §4.1: hazard pointers
      only published (with a fence, even) while the fallback flag is up —
      references taken before a switch are unprotected, which is exactly
      why the paper rejects this design. *)
end

module Make_gen (P : PUBLICATION) (R : Qs_intf.Runtime_intf.RUNTIME) (N : Smr_intf.NODE) = struct
  type node = N.t

  module Hp = Hp_array.Make (R) (N)

  type t = {
    cfg : Smr_intf.config;
    c_threshold : int;
    scan_threshold : int; (* R, clamped to >= 1 *)
    hp : Hp.t;
    free_bulk : node array -> int -> unit;
    global : int R.atomic;
    locals : int R.atomic array;
    fallback_flag : int R.atomic; (* 0 = fast path, 1 = fallback path *)
    presence : int R.atomic array;
    evicted : int R.atomic array;
    evicted_count : int R.atomic;
    fallback_since : int R.atomic;
    mutable mode_shadow : Smr_intf.mode; (* effect-free mirror for stats *)
    mutable fallback_since_shadow : int;
        (* effect-free mirror of [fallback_since] for stats — [stats] runs
           outside process context, where runtime effects are illegal *)
    mutable fallback_ticks_acc : int;
        (* total time spent in completed fallback episodes (stats only;
           written exclusively by the process that wins the
           [enter_fastpath] CAS, so there is no lost-update race) *)
    dummy : node;
    handles : handle option array;
    orphans : node Bag.t array Orphan_pool.t;
        (* each entry is an arbitrary-length array of timestamped limbo
           lists: the three epochs (+ adopted list) of a departed or
           evicted process; bag chains travel intact *)
    mutable legacy_retires : int;
    mutable legacy_frees : int;
    mutable legacy_scans : int;
    mutable legacy_epoch_advances : int;
    mutable legacy_fallback_switches : int;
    mutable legacy_fastpath_switches : int;
    mutable legacy_evictions : int;
    mutable legacy_retired_peak : int;
        (* counters folded out of handles destroyed by {!unregister} *)
  }

  and handle = {
    owner : t;
    pid : int;
    mutable lsrc : node Bag.source;
    mutable limbo : node Bag.Triple.t;
        (* one limbo list per epoch, as in QSBR; replaced wholesale (with
           a fresh block source) when the lists are donated (unregister)
           or seized (eviction) *)
    mutable adopted : node Bag.t;
        (* orphaned nodes adopted from the pool. NEVER freed by the
           unconditional grace-period path: Lemma 3 does not apply to
           orphans (we know nothing about when their donor retired them
           relative to our epochs), so this list is reclaimed exclusively
           through the Cadence-style HP + age filter. *)
    seized : bool Atomic.t;
        (* [Stdlib.Atomic], deliberately outside the simulated memory
           model (same reasoning as {!Orphan_pool}): set once by an
           evictor that donated this handle's lists out from under it.
           The owner, on observing it, installs fresh lists and resets
           it. Checked at points with no runtime effect between check and
           list use, so on the simulator the handoff is race-free. *)
    eviction_on : bool; (* cfg.eviction_timeout <> None, precomputed *)
    hp_row : R.plain; (* this process's row of [hp] *)
    scan_set : Hp.scan_set;
    mutable call_count : int;
    mutable fnl_count : int;
    mutable prev_fallback : bool; (* prev_seen_fallback_flag of Algorithm 5 *)
    mutable rejoin_guard : int;
    mutable retires : int;
    mutable frees : int;
    mutable scans : int;
    mutable epoch_advances : int;
    mutable fallback_switches : int;
    mutable fastpath_switches : int;
    mutable evictions : int;
    mutable retired_peak : int;
    mutable scan_now : int;
        (* the scan's single [now_coarse] read, hoisted into the handle so
           the preallocated filter closures capture no per-scan state *)
    age_ok : int -> bool;
    keep : node -> bool;
    free_bag : node array -> int array -> int -> int -> unit;
    (* the unconditional (grace-period) epoch free: no clock read, so ages
       are reported as -1 and recovered offline from Ev_retire *)
    uncond_bag : node array -> int array -> int -> int -> unit;
  }

  let name = P.scheme_name

  let create (cfg : Smr_intf.config) ~dummy ~free_bulk =
    let c =
      if cfg.switch_threshold > 0 then cfg.switch_threshold
      else Smr_intf.legal_switch_threshold cfg
    in
    { cfg;
      c_threshold = c;
      scan_threshold = Smr_intf.effective_scan_threshold cfg;
      hp = Hp.create ~n:cfg.n_processes ~k:cfg.hp_per_process ~dummy;
      free_bulk;
      global = R.atomic_padded 0;
      locals = Array.init cfg.n_processes (fun _ -> R.atomic_padded 0);
      fallback_flag = R.atomic_padded 0;
      presence = Array.init cfg.n_processes (fun _ -> R.atomic_padded 0);
      evicted = Array.init cfg.n_processes (fun _ -> R.atomic_padded 0);
      evicted_count = R.atomic_padded 0;
      fallback_since = R.atomic_padded 0;
      mode_shadow = Smr_intf.Fast;
      fallback_since_shadow = 0;
      fallback_ticks_acc = 0;
      dummy;
      handles = Array.make cfg.n_processes None;
      orphans = Orphan_pool.create ();
      legacy_retires = 0;
      legacy_frees = 0;
      legacy_scans = 0;
      legacy_epoch_advances = 0;
      legacy_fallback_switches = 0;
      legacy_fastpath_switches = 0;
      legacy_evictions = 0;
      legacy_retired_peak = 0 }

  let limbo_source t = Bag.source ~capacity:t.cfg.bag_capacity t.dummy

  let register t ~pid =
    let lsrc = limbo_source t in
    let age = t.cfg.rooster_interval + t.cfg.epsilon in
    let rec h =
      { owner = t;
        pid;
        lsrc;
        limbo = Bag.Triple.create lsrc;
        adopted = Bag.create lsrc;
        seized = Atomic.make false;
        eviction_on = t.cfg.eviction_timeout <> None;
        hp_row = Hp.row t.hp ~pid;
        scan_set = Hp.scan_set t.hp;
        call_count = 0;
        fnl_count = 0;
        prev_fallback = false;
        rejoin_guard = 0;
        retires = 0;
        frees = 0;
        scans = 0;
        epoch_advances = 0;
        fallback_switches = 0;
        fastpath_switches = 0;
        evictions = 0;
        retired_peak = 0;
        scan_now = 0;
        age_ok = (fun stamp -> h.scan_now - stamp >= age);
        keep = (fun n -> Hp.protects_set h.scan_set n);
        free_bag =
          (fun data ts count stamp ->
            t.free_bulk data count;
            h.frees <- h.frees + count;
            (* one tracing check per bag instead of one dead emit per
               node; Ev_free.b is the exact [now - ts] the age check
               passed on *)
            if R.tracing () then
              for i = 0 to count - 1 do
                R.emit Qs_intf.Runtime_intf.Ev_free (N.id data.(i))
                  (h.scan_now - ts.(i))
              done;
            R.emit Qs_intf.Runtime_intf.Ev_bag_free count
              (h.scan_now - stamp));
        uncond_bag =
          (fun data _ts count _stamp ->
            t.free_bulk data count;
            h.frees <- h.frees + count;
            (* no clock read on the unconditional path (reading it would
               charge virtual time and perturb seeded schedules): the age
               is recovered offline from the node's Ev_retire *)
            if R.tracing () then
              for i = 0 to count - 1 do
                R.emit Qs_intf.Runtime_intf.Ev_free (N.id data.(i)) (-1)
              done;
            R.emit Qs_intf.Runtime_intf.Ev_bag_free count (-1)) }
    in
    t.handles.(pid) <- Some h;
    h

  let total_limbo h = Bag.Triple.total h.limbo

  (* Hazard pointers are maintained in BOTH modes, without fences — this is
     what makes the fast path fast and the switch sound (see §4.1). The
     [false] branch is the rejected naive design, kept for demonstration. *)
  let assign_hp h ~slot n =
    if P.always_publish then R.write h.hp_row slot (N.id n)
    else if R.get h.owner.fallback_flag = 1 then begin
      R.write h.hp_row slot (N.id n);
      R.fence ()
    end
  let clear_hps h = Hp.clear h.owner.hp ~pid:h.pid

  (* Cadence-style filtered reclamation of one limbo list: free entries
     that are old enough and unprotected, keep the rest. The caller must
     have refreshed [h.scan_set] and [h.scan_now]. *)
  let scan_limbo h v =
    Bag.scan v ~age_ok:h.age_ok ~keep:h.keep ~free_bag:h.free_bag

  let scan_epoch h e = scan_limbo h h.limbo.(e)

  (* Adoption: splice one orphaned batch (limbo triple + adopted list of a
     departed or evicted process) into [h.adopted], original retire
     timestamps preserved. Adopted nodes are reclaimed exclusively through
     the HP + age filter — the one safety argument that holds with no
     assumption about the donor's epochs (Lemma 3 does not apply to
     orphans): any hazard that could protect an orphaned node was
     published before its removal and is visible within T + epsilon of
     the preserved retire timestamp. Gated on the meta-level emptiness
     hint so runs without churn perform no extra runtime effects. *)
  let adopt_orphans h =
    let t = h.owner in
    if not (Orphan_pool.is_empty t.orphans) then
      match Orphan_pool.take t.orphans with
      | None -> ()
      | Some e ->
        Array.iter
          (fun v -> Bag.splice_into ~src:v ~dst:h.adopted)
          e.Orphan_pool.payload;
        R.emit Qs_intf.Runtime_intf.Ev_adopt e.Orphan_pool.nodes
          e.Orphan_pool.donor

  (* Fast-path reclamation of the adopted list (the fallback path folds it
     into [scan_all] instead). Gated on emptiness: non-churn runs perform
     no extra effects here. *)
  let reclaim_adopted h =
    if Bag.length h.adopted > 0 then begin
      let t = h.owner in
      h.scan_now <- R.now_coarse ();
      Hp.snapshot_into t.hp h.scan_set;
      scan_limbo h h.adopted
    end

  (* Algorithm 5 lines 45-47: in fallback mode all three epochs are scanned
     (plus the adopted orphans, under the same filter). *)
  let scan_all h =
    R.hook Qs_intf.Runtime_intf.Hook_scan;
    adopt_orphans h;
    h.scans <- h.scans + 1;
    let before = total_limbo h + Bag.length h.adopted in
    R.emit Qs_intf.Runtime_intf.Ev_scan_begin before (-1);
    h.scan_now <- R.now_coarse ();
    Hp.snapshot_into h.owner.hp h.scan_set;
    for e = 0 to 2 do
      scan_epoch h e
    done;
    (* effect-free when empty: the filter walk is plain OCaml *)
    scan_limbo h h.adopted;
    let kept = total_limbo h + Bag.length h.adopted in
    R.emit Qs_intf.Runtime_intf.Ev_scan_end (before - kept) kept

  (* Free an adopted epoch's limbo list. Unconditional in the common case
     (grace period passed, Lemma 3); filtered through the HP + age check
     while any process is evicted, or for the first epoch cycle after this
     process rejoined. *)
  let free_adopted_epoch h e =
    let t = h.owner in
    let filtered = R.get t.evicted_count > 0 || h.rejoin_guard > 0 in
    if h.rejoin_guard > 0 then h.rejoin_guard <- h.rejoin_guard - 1;
    if filtered then begin
      h.scan_now <- R.now_coarse ();
      Hp.snapshot_into t.hp h.scan_set;
      scan_epoch h e
    end
    else
      (* unconditional: the grace period (Lemma 3) covers every node in
         the epoch, bags included — no age check, no clock read *)
      Bag.drain h.limbo.(e) ~free_bag:h.uncond_bag

  (* Top-level recursion, as in {!Qsbr}: an inner [let rec] closure here
     would allocate on the fast-path quiescence round. *)
  let rec all_current_from t eg n i =
    i >= n
    || ((R.get t.evicted.(i) = 1 || R.get t.locals.(i) = eg)
       && all_current_from t eg n (i + 1))

  let all_current t eg = all_current_from t eg (Array.length t.locals) 0

  let quiescent_state h =
    R.hook Qs_intf.Runtime_intf.Hook_quiesce;
    let t = h.owner in
    let eg = R.get t.global in
    if R.get t.locals.(h.pid) <> eg then begin
      R.set t.locals.(h.pid) eg;
      R.emit Qs_intf.Runtime_intf.Ev_quiesce eg 1;
      free_adopted_epoch h eg;
      adopt_orphans h;
      reclaim_adopted h
    end
    else begin
      R.emit Qs_intf.Runtime_intf.Ev_quiesce eg 0;
      if all_current t eg then
        if R.cas t.global eg ((eg + 1) mod 3) then begin
          h.epoch_advances <- h.epoch_advances + 1;
          R.emit Qs_intf.Runtime_intf.Ev_epoch_advance ((eg + 1) mod 3) (-1)
        end
    end

  let rec all_active_from t n i =
    i >= n
    || ((R.get t.evicted.(i) = 1 || R.get t.presence.(i) = 1)
       && all_active_from t n (i + 1))

  let all_active t = all_active_from t (Array.length t.presence) 0

  let reset_presence t =
    Array.iter (fun p -> R.set p 0) t.presence

  (* Both mode switches CAS the fallback flag so that two processes
     crossing a threshold in the same window cannot double-enter or
     double-exit: exactly one wins each transition, and only the winner
     touches the episode bookkeeping ([fallback_since],
     [fallback_ticks_acc], the switch counters and trace events). Before
     this, concurrent losers re-ran the whole body — double-counted
     episodes, and a lost-update race on the plain [fallback_ticks_acc]
     on the real runtime. *)
  let enter_fallback h =
    let t = h.owner in
    if R.cas t.fallback_flag 0 1 then begin
      t.mode_shadow <- Smr_intf.Fallback;
      let now = R.now () in
      R.set t.fallback_since now;
      t.fallback_since_shadow <- now;
      R.emit Qs_intf.Runtime_intf.Ev_fallback_enter (total_limbo h) (-1);
      reset_presence t;
      R.set t.presence.(h.pid) 1;
      h.fallback_switches <- h.fallback_switches + 1;
      h.prev_fallback <- true;
      scan_all h
    end
    else
      (* lost the race: another process has just entered fallback mode; we
         behave as if we had observed the flag up all along *)
      h.prev_fallback <- true

  let enter_fastpath h =
    let t = h.owner in
    if R.cas t.fallback_flag 1 0 then begin
      t.mode_shadow <- Smr_intf.Fast;
      (* [-] evaluates right-to-left, matching the original get-then-now
         effect order *)
      let dwell = max 0 (R.now () - R.get t.fallback_since) in
      (* the episode's dwell is the exiting winner's sole responsibility *)
      t.fallback_ticks_acc <- t.fallback_ticks_acc + dwell;
      R.emit Qs_intf.Runtime_intf.Ev_fallback_exit dwell (-1);
      h.fastpath_switches <- h.fastpath_switches + 1
    end;
    (* winner or loser, the system is on the fast path now *)
    h.prev_fallback <- false;
    quiescent_state h

  (* The evictor seized this handle's lists (donated them to the orphan
     pool out from under a silent owner). The owner installs fresh ones on
     observing the flag. [seized] can only be set again after a full
     rejoin + re-eviction cycle, so resetting it here is race-free. *)
  let renew_seized_lists h =
    let t = h.owner in
    (* fresh block source too: the seized lists keep the old one, and the
       adopter recycles their blocks into its own — never into ours *)
    h.lsrc <- limbo_source t;
    h.limbo <- Bag.Triple.create h.lsrc;
    h.adopted <- Bag.create h.lsrc;
    Atomic.set h.seized false

  let check_seized h =
    if Atomic.get h.seized then renew_seized_lists h

  let maybe_evict h =
    let t = h.owner in
    match t.cfg.eviction_timeout with
    | None -> ()
    | Some dt ->
      if R.now () - R.get t.fallback_since > dt then
        Array.iteri
          (fun pid' p ->
            if pid' <> h.pid && R.get p = 0 && R.cas t.evicted.(pid') 0 1 then begin
              ignore (R.fetch_and_add t.evicted_count 1);
              h.evictions <- h.evictions + 1;
              R.emit Qs_intf.Runtime_intf.Ev_evict pid' (-1);
              (* Route the victim's limbo lists through the orphan pool so
                 a crashed process no longer leaks them (before this layer
                 they sat in the dead handle until teardown). The list
                 references are captured BEFORE the seize flag is raised:
                 a victim that is merely slow — not dead — installs fresh
                 lists when it observes the flag, so donating the
                 captured ones cannot race with its later retires.
                 Adopters reclaim them under the HP + age filter, which
                 honours the hazards of an evicted-but-alive victim. *)
              match t.handles.(pid') with
              | None -> () (* slot already unregistered: donated by owner *)
              | Some hv ->
                let limbo = hv.limbo and adopted = hv.adopted in
                if Atomic.compare_and_set hv.seized false true then begin
                  let nodes =
                    Bag.Triple.total limbo + Bag.length adopted
                  in
                  Orphan_pool.donate t.orphans ~donor:pid' ~nodes
                    [| limbo.(0); limbo.(1); limbo.(2); adopted |]
                end
            end)
          t.presence

  (* An evicted process that comes back must rejoin before relying on epoch
     reclamation again: its own hazard pointers protected it while away;
     the rejoin guard keeps its next epoch cycle conservative. If its lists
     were seized meanwhile, it starts over with fresh ones (the seized
     lists are the adopters' responsibility now) — strictly before
     clearing the evicted flag, which would re-arm eviction. *)
  let rejoin h =
    let t = h.owner in
    R.fence ();
    check_seized h;
    if R.cas t.evicted.(h.pid) 1 0 then ignore (R.fetch_and_add t.evicted_count (-1));
    h.rejoin_guard <- 3;
    R.set t.locals.(h.pid) (R.get t.global)

  (* Algorithm 5, manage_qsense_state. *)
  let manage_state h =
    h.call_count <- h.call_count + 1;
    if h.call_count mod h.owner.cfg.quiescence_threshold = 0 then begin
      let t = h.owner in
      if R.get t.evicted.(h.pid) = 1 then rejoin h;
      R.set t.presence.(h.pid) 1;
      let fallback = R.get t.fallback_flag = 1 in
      if not fallback then begin
        quiescent_state h;
        h.prev_fallback <- false
      end
      else begin
        maybe_evict h;
        if all_active t then enter_fastpath h else h.prev_fallback <- true
      end
    end

  (* Algorithm 5, free_node_later. Allocation-free: a coarse-clock read and
     two array stores in steady state. *)
  let retire h n =
    R.hook Qs_intf.Runtime_intf.Hook_retire;
    let t = h.owner in
    let e = R.get t.locals.(h.pid) in
    let ts = R.now_coarse () in
    (* seize check immediately before the push, with no runtime effect in
       between: on the simulator the check + push pair is atomic w.r.t.
       other processes, so a node can never land in a list that has
       already been donated and adopted *)
    if h.eviction_on then check_seized h;
    let sealed = Bag.push h.limbo.(e) n ts in
    h.retires <- h.retires + 1;
    let total = total_limbo h in
    if total > h.retired_peak then h.retired_peak <- total;
    R.emit Qs_intf.Runtime_intf.Ev_retire (N.id n) total;
    if sealed > 0 then R.emit Qs_intf.Runtime_intf.Ev_bag_seal sealed (-1);
    let fallback = R.get t.fallback_flag = 1 in
    if fallback then begin
      h.fnl_count <- h.fnl_count + 1;
      if h.fnl_count mod t.scan_threshold = 0 then scan_all h;
      h.prev_fallback <- true
    end
    else if h.prev_fallback then begin
      (* the switch back to the fast path was triggered by another process *)
      quiescent_state h;
      h.prev_fallback <- false
    end
    else if total >= t.c_threshold then enter_fallback h

  (* Dynamic membership: clear the slot's hazard pointers (fenced — cold
     path), mark the slot absent by reusing the eviction machinery
     (all_current / all_active already skip evicted slots, and
     [evicted_count > 0] keeps every survivor's epoch freeing filtered
     through the HP + age check while the slot is vacant — the documented
     cost of an open seat), donate the limbo lists + adopted orphans to
     the pool and release the pid. A later {!register} on the slot rejoins
     through the ordinary [rejoin] path at its first quiescence boundary. *)
  let unregister h =
    let t = h.owner in
    Hp.clear t.hp ~pid:h.pid;
    R.fence ();
    check_seized h;
    if R.cas t.evicted.(h.pid) 0 1 then
      ignore (R.fetch_and_add t.evicted_count 1);
    let donated = total_limbo h + Bag.length h.adopted in
    let old_limbo = h.limbo and old_adopted = h.adopted in
    h.lsrc <- limbo_source t;
    h.limbo <- Bag.Triple.create h.lsrc;
    h.adopted <- Bag.create h.lsrc;
    Orphan_pool.donate t.orphans ~donor:h.pid ~nodes:donated
      [| old_limbo.(0); old_limbo.(1); old_limbo.(2); old_adopted |];
    t.legacy_retires <- t.legacy_retires + h.retires;
    t.legacy_frees <- t.legacy_frees + h.frees;
    t.legacy_scans <- t.legacy_scans + h.scans;
    t.legacy_epoch_advances <- t.legacy_epoch_advances + h.epoch_advances;
    t.legacy_fallback_switches <-
      t.legacy_fallback_switches + h.fallback_switches;
    t.legacy_fastpath_switches <-
      t.legacy_fastpath_switches + h.fastpath_switches;
    t.legacy_evictions <- t.legacy_evictions + h.evictions;
    t.legacy_retired_peak <- t.legacy_retired_peak + h.retired_peak;
    h.retires <- 0;
    h.frees <- 0;
    h.scans <- 0;
    h.epoch_advances <- 0;
    h.fallback_switches <- 0;
    h.fastpath_switches <- 0;
    h.evictions <- 0;
    h.retired_peak <- 0;
    t.handles.(h.pid) <- None;
    R.emit Qs_intf.Runtime_intf.Ev_unregister h.pid donated

  let flush h =
    (* a seized handle's old lists belong to the pool now — freeing them
       here too would double-free; start from the fresh ones *)
    check_seized h;
    let t = h.owner in
    let flush_bag data _ts count _stamp =
      t.free_bulk data count;
      h.frees <- h.frees + count
    in
    for e = 0 to 2 do
      Bag.drain h.limbo.(e) ~free_bag:flush_bag
    done;
    Bag.drain h.adopted ~free_bag:flush_bag;
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

  let retired_count t =
    fold t (fun h -> total_limbo h + Bag.length h.adopted)
    + Orphan_pool.node_count t.orphans

  let stats t =
    { Smr_intf.retires = fold t (fun h -> h.retires) + t.legacy_retires;
      frees = fold t (fun h -> h.frees) + t.legacy_frees;
      scans = fold t (fun h -> h.scans) + t.legacy_scans;
      epoch_advances =
        fold t (fun h -> h.epoch_advances) + t.legacy_epoch_advances;
      fallback_switches =
        fold t (fun h -> h.fallback_switches) + t.legacy_fallback_switches;
      fastpath_switches =
        fold t (fun h -> h.fastpath_switches) + t.legacy_fastpath_switches;
      fallback_entries =
        fold t (fun h -> h.fallback_switches) + t.legacy_fallback_switches;
      fallback_exits =
        fold t (fun h -> h.fastpath_switches) + t.legacy_fastpath_switches;
      fallback_ticks = t.fallback_ticks_acc;
      fallback_since =
        (match t.mode_shadow with
        | Smr_intf.Fallback -> Some t.fallback_since_shadow
        | Smr_intf.Fast -> None);
      evictions = fold t (fun h -> h.evictions) + t.legacy_evictions;
      neutralizations = 0;
      retired_now = retired_count t;
      retired_peak =
        fold t (fun h -> h.retired_peak) + t.legacy_retired_peak;
      mode = t.mode_shadow }
end

module Make = Make_gen (struct
  let scheme_name = "qsense"
  let always_publish = true
end)
