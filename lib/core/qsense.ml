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

   Built on the two engines. The hazard engine ({!Hazard_pointers}, with
   Cadence's policy) holds the lists, the scan state, adoption, donation,
   flush and the counters: a QSense handle is a hazard-engine handle with
   four lists — the three epoch lists and the adopted orphans. The epoch
   engine ({!Ebr}) supplies the grace-period free and the epoch advance.
   What remains here is QSense's own logic: the fast-path quiescence
   round (which skips evicted processes), the switch, presence, eviction,
   seizure and rejoin.

   Hot-path discipline: limbo lists are bags ({!Qs_util.Bag}) holding
   each node with its retire timestamp. The QSBR fast path frees a whole
   expired epoch bag-by-bag in bulk arena calls; fallback scans walk
   sealed bags oldest-first against a reusable hash-set hazard-pointer
   snapshot, paying one age check per bag and filtering survivors into
   fresh bags. Eviction seizes a victim's bag chains intact (donation is
   pointer splicing). The per-operation functions ([assign_hp],
   [clear_hps], [manage_state], [retire]) call no engine function besides
   [clear_hps]'s one call to the hazard array, [Hp_array.clear_published],
   which stores only the slots the handle's [published] mask names; the
   publish sets its mask bit inline. A call into a functor-applied module
   is never inlined, so the engines are reached through local wrappers on
   the amortised paths only. The per-process cells written by their
   owner and read by everyone (epoch slots, presence and eviction flags)
   are cache-line padded. *)

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

  (* The fallback path is Cadence: unfenced, deferred by T + epsilon. *)
  module Hz =
    Hazard_pointers.Make_gen
      (struct
        let scheme_name = P.scheme_name
        let fenced = false
        let deferred = true
      end)
      (R)
      (N)

  module Ep =
    Ebr.Make_gen
      (struct
        let scheme_name = P.scheme_name
        let per_operation = false
        let neutralize = false
      end)
      (R)
      (N)

  type t = {
    engine : Hz.t; (* hazard array, orphan pool, departed counters *)
    c_threshold : int;
    q : int; (* Q, clamped to >= 1 *)
    global : int R.atomic;
    locals : int R.atomic array;
    fallback_flag : int R.atomic; (* 0 = fast path, 1 = fallback path *)
    presence : int R.atomic array;
    evicted : int R.atomic array;
    evicted_count : int R.atomic;
    fallback_since : int R.atomic;
    mutable mode_shadow : Smr_intf.mode; (* effect-free mirror for stats *)
    mutable fallback_ticks_acc : int;
        (* total time spent in completed fallback episodes (stats only;
           written exclusively by the process that wins the
           [enter_fastpath] CAS, so there is no lost-update race) *)
    handles : handle option array; (* for eviction *)
  }

  and handle = {
    owner : t;
    pid : int;
    hz : Hz.handle;
        (* lists 0-2: one limbo list per epoch, as in QSBR; list 3: the
           orphans adopted from the pool. The adopted list is NEVER freed
           by the unconditional grace-period path: Lemma 3 does not apply
           to orphans (we know nothing about when their donor retired them
           relative to our epochs), so it is reclaimed exclusively through
           the Cadence-style HP + age filter. *)
    hp_row : R.plain;
        (* this process's row of the hazard array, copied out of [hz] so a
           publish loads one field fewer *)
    mutable published : int;
        (* the slots published since the last [clear_hps], one bit each
           (see {!Hp_array}) *)
    seized : bool Atomic.t;
        (* [Stdlib.Atomic], deliberately outside the simulated memory
           model (same reasoning as {!Orphan_pool}): set once by an
           evictor that donated this handle's lists out from under it.
           The owner, on observing it, installs fresh lists and resets
           it. Checked at points with no runtime effect between check and
           list use, so on the simulator the handoff is race-free. *)
    eviction_on : bool; (* cfg.eviction_timeout <> None, precomputed *)
    mutable until_q : int; (* operations left before the next Q boundary *)
    mutable prev_fallback : bool; (* prev_seen_fallback_flag of Algorithm 5 *)
    mutable rejoin_guard : int;
    expired_bag : node array -> int array -> int -> int -> unit;
        (* the unconditional (grace-period) epoch free *)
  }

  let name = P.scheme_name

  let create (cfg : Smr_intf.config) ~dummy ~free_bulk =
    let c =
      if cfg.switch_threshold > 0 then cfg.switch_threshold
      else Smr_intf.legal_switch_threshold cfg
    in
    { engine = Hz.create cfg ~dummy ~free_bulk;
      c_threshold = c;
      q = Smr_intf.effective_quiescence_threshold cfg;
      global = R.atomic_padded 0;
      locals = Array.init cfg.n_processes (fun _ -> R.atomic_padded 0);
      fallback_flag = R.atomic_padded 0;
      presence = Array.init cfg.n_processes (fun _ -> R.atomic_padded 0);
      evicted = Array.init cfg.n_processes (fun _ -> R.atomic_padded 0);
      evicted_count = R.atomic_padded 0;
      fallback_since = R.atomic_padded 0;
      mode_shadow = Smr_intf.Fast;
      fallback_ticks_acc = 0;
      handles = Array.make cfg.n_processes None }

  let register t ~pid =
    let hz = Hz.attach t.engine ~pid ~lists:4 in
    let h =
      { owner = t;
        pid;
        hz;
        hp_row = hz.hp_row;
        published = 0;
        seized = Atomic.make false;
        eviction_on = t.engine.cfg.eviction_timeout <> None;
        until_q = t.q;
        prev_fallback = false;
        rejoin_guard = 0;
        expired_bag = Ep.expired_bag ~free_bulk:t.engine.free_bulk hz.c }
    in
    t.handles.(pid) <- Some h;
    h

  (* the three epoch lists, not the adopted one *)
  let total_limbo h = Bag.Triple.total h.hz.lists

  (* Hazard pointers are maintained in BOTH modes, without fences — this is
     what makes the fast path fast and the switch sound (see §4.1). The
     [false] branch is the rejected naive design, kept for demonstration.
     The mask update is written out, not a call (see {!Hp_array}), and
     comes before the store, so the fast path's store stays a tail
     call. *)
  let assign_hp h ~slot n =
    if P.always_publish then begin
      h.published <- h.published lor (1 lsl (if slot < 62 then slot else 62));
      R.write h.hp_row slot (N.id n)
    end
    else if R.get h.owner.fallback_flag = 1 then begin
      h.published <- h.published lor (1 lsl (if slot < 62 then slot else 62));
      R.write h.hp_row slot (N.id n);
      R.fence ()
    end

  let clear_hps h =
    if h.published <> 0 then begin
      Hz.Hp.clear_published h.owner.engine.hp h.hp_row h.published;
      h.published <- 0
    end

  (* Algorithm 5 lines 45-47: in fallback mode all three epochs are scanned
     (plus the adopted orphans, under the same filter). Never inlined, so
     [retire] makes no call into the engine itself. *)
  let[@inline never] scan_all h = Hz.scan h.hz

  (* Fast-path reclamation of the adopted list (the fallback path folds it
     into [scan_all] instead). Gated on emptiness: non-churn runs perform
     no extra effects here. *)
  let reclaim_adopted h =
    let adopted = h.hz.lists.(3) in
    if Bag.length adopted > 0 then begin
      Hz.snapshot h.hz;
      Hz.sweep h.hz adopted
    end

  (* Free an adopted epoch's limbo list. Unconditional in the common case
     (grace period passed, Lemma 3); filtered through the HP + age check
     while any process is evicted, or for the first epoch cycle after this
     process rejoined. *)
  let free_adopted_epoch h e =
    let t = h.owner in
    let filtered = R.get t.evicted_count > 0 || h.rejoin_guard > 0 in
    if h.rejoin_guard > 0 then h.rejoin_guard <- h.rejoin_guard - 1;
    if filtered then begin
      Hz.snapshot h.hz;
      Hz.sweep h.hz h.hz.lists.(e)
    end
    else
      (* unconditional: the grace period (Lemma 3) covers every node in
         the epoch, bags included — no age check, no clock read *)
      Bag.drain h.hz.lists.(e) ~free_bag:h.expired_bag

  (* Top-level recursion: an inner [let rec] closure here would allocate
     on the fast-path quiescence round. *)
  let rec all_current t eg i =
    i >= Array.length t.locals
    || ((R.get t.evicted.(i) = 1 || R.get t.locals.(i) = eg)
       && all_current t eg (i + 1))

  let quiescent_state h =
    R.hook Qs_intf.Runtime_intf.Hook_quiesce;
    let t = h.owner in
    let eg = R.get t.global in
    if R.get t.locals.(h.pid) <> eg then begin
      R.set t.locals.(h.pid) eg;
      R.emit Qs_intf.Runtime_intf.Ev_quiesce eg 1;
      free_adopted_epoch h eg;
      (* adopted orphans pass only the HP + age filter: any hazard that
         could protect one was published before its removal and is
         visible within T + epsilon of its preserved retire stamp *)
      Hz.adopt_orphans h.hz;
      reclaim_adopted h
    end
    else begin
      R.emit Qs_intf.Runtime_intf.Ev_quiesce eg 0;
      if all_current t eg 0 then Ep.advance t.global h.hz.c eg
    end

  let rec all_active t i =
    i >= Array.length t.presence
    || ((R.get t.evicted.(i) = 1 || R.get t.presence.(i) = 1)
       && all_active t (i + 1))

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
      R.set t.fallback_since (R.now ());
      R.emit Qs_intf.Runtime_intf.Ev_fallback_enter (total_limbo h) (-1);
      reset_presence t;
      R.set t.presence.(h.pid) 1;
      h.hz.c.fallback_entries <- h.hz.c.fallback_entries + 1;
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
      h.hz.c.fallback_exits <- h.hz.c.fallback_exits + 1
    end;
    (* winner or loser, the system is on the fast path now *)
    h.prev_fallback <- false;
    quiescent_state h

  (* The evictor seized this handle's lists (donated them to the orphan
     pool out from under a silent owner). The owner installs fresh ones on
     observing the flag. [seized] can only be set again after a full
     rejoin + re-eviction cycle, so resetting it here is race-free. *)
  let renew_seized_lists h =
    Hz.renew h.hz;
    Atomic.set h.seized false

  let check_seized h =
    if Atomic.get h.seized then renew_seized_lists h

  let maybe_evict h =
    let t = h.owner in
    match t.engine.cfg.eviction_timeout with
    | None -> ()
    | Some dt ->
      if R.now () - R.get t.fallback_since > dt then
        Array.iteri
          (fun pid' p ->
            if pid' <> h.pid && R.get p = 0 && R.cas t.evicted.(pid') 0 1 then begin
              ignore (R.fetch_and_add t.evicted_count 1);
              h.hz.c.evictions <- h.hz.c.evictions + 1;
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
                let lists = hv.hz.lists in
                if Atomic.compare_and_set hv.seized false true then begin
                  let nodes =
                    Array.fold_left (fun n v -> n + Bag.length v) 0 lists
                  in
                  Orphan_pool.donate t.engine.orphans ~donor:pid' ~nodes lists
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
    h.until_q <- h.until_q - 1;
    if h.until_q = 0 then begin
      let t = h.owner in
      h.until_q <- t.q;
      if R.get t.evicted.(h.pid) = 1 then rejoin h;
      R.set t.presence.(h.pid) 1;
      let fallback = R.get t.fallback_flag = 1 in
      if not fallback then begin
        quiescent_state h;
        h.prev_fallback <- false
      end
      else begin
        maybe_evict h;
        if all_active t 0 then enter_fastpath h else h.prev_fallback <- true
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
    let sealed = Bag.push h.hz.lists.(e) n ts in
    let total = total_limbo h in
    (* [Counters.retired], written out: a call to another module is a
       closure call when it is not inlined, and this runs on every retire *)
    let c = h.hz.c in
    c.retires <- c.retires + 1;
    if total > c.retired_peak then c.retired_peak <- total;
    R.emit Qs_intf.Runtime_intf.Ev_retire (N.id n) total;
    if sealed > 0 then R.emit Qs_intf.Runtime_intf.Ev_bag_seal sealed (-1);
    let fallback = R.get t.fallback_flag = 1 in
    if fallback then begin
      h.hz.until_scan <- h.hz.until_scan - 1;
      if h.hz.until_scan = 0 then begin
        h.hz.until_scan <- t.engine.scan_threshold;
        scan_all h
      end;
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
    Hz.Hp.clear t.engine.hp ~pid:h.pid;
    R.fence ();
    check_seized h;
    if R.cas t.evicted.(h.pid) 0 1 then
      ignore (R.fetch_and_add t.evicted_count 1);
    t.handles.(h.pid) <- None;
    Hz.release h.hz

  (* a seized handle's old lists belong to the pool now — freeing them
     here too would double-free; start from the fresh ones *)
  let flush h =
    check_seized h;
    Hz.flush h.hz

  let retired_count t = Hz.retired_count t.engine

  let stats t =
    { (Hz.stats t.engine) with
      fallback_ticks = t.fallback_ticks_acc;
      mode = t.mode_shadow }
end

module Make = Make_gen (struct
  let scheme_name = "qsense"
  let always_publish = true
end)
