(* The epoch engine: QSBR (§3.1), Fraser-style EBR and DEBRA+ (the
   paper's §8 "epoch-based techniques" [13, 14, 23]) as one body.

   Three logical epochs; one limbo list per epoch per process; a shared
   global epoch and one announced epoch per process. A process that
   reaches epoch [eg] for the first time frees its limbo list for [eg]:
   those nodes were retired a full epoch cycle ago, separated from the
   present by a grace period (Lemma 3). A process that finds every
   process on [eg] advances the global epoch.

   A policy ({!POLICY}) names the two ways the schemes differ:

   - [per_operation], where a process announces its epoch. [false]
     (QSBR): a quiescent state every Q operations of [manage_state]. One
     process that stops announcing freezes the global epoch and with it
     all reclamation — the failure mode QSense's fallback path exists to
     survive. [true] (EBR, DEBRA+): [manage_state] at the top of every
     operation pins the current epoch, and [clear_hps] at its end unpins
     it (-1, "inactive"); the epoch advance is attempted every Q
     operations. A process stalled {e between} operations then does not
     block reclamation; one stalled {e inside} an operation still does.
   - [neutralize] (DEBRA+, Brown PODC'15): when the epoch has failed to
     advance [patience] times in a row, the advancing process restarts
     the laggards still pinned to an older epoch ([neutralize_laggards])
     and retries. This closes the in-operation gap, up to the runtime's
     delivery model.

   Hot-path discipline: batched-bag limbo lists ({!Qs_util.Bag};
   allocation-free [retire] with the constant stamp 0 — no clock read —
   and whole-bag frees on epoch expiry); padded per-process epoch slots —
   per-operation pinning writes the slot twice per operation, making it
   the most false-sharing-sensitive cell in the scheme. Poisoned flags
   live in [Stdlib.Atomic] cells: meta-level for the simulator (reading
   one is not a schedule point) and correctly synchronized on real
   domains. *)

module Bag = Qs_util.Bag

module type POLICY = sig
  val scheme_name : string
  val per_operation : bool
  val neutralize : bool
end

(* Failed epoch-advance attempts (spaced Q operations apart) tolerated
   before neutralizing the laggards. Patience keeps neutralization off the
   common path: a process that is merely slow gets ~patience*Q operations
   of slack before being restarted. *)
let patience = 3

module Make_gen
    (P : POLICY)
    (R : Qs_intf.Runtime_intf.RUNTIME)
    (N : Smr_intf.NODE) =
struct
  type node = N.t

  type t = {
    cfg : Smr_intf.config;
    q : int; (* Q, clamped to >= 1 *)
    free_bulk : node array -> int -> unit;
    global : int R.atomic;
    locals : int R.atomic array;
        (* the announced epochs; -1 = absent: inactive between operations
           (per-operation policies), or a vacated pid slot. Written by the
           owner and, under preemptive neutralization, CASed to -1 *)
    poisoned : bool Stdlib.Atomic.t array;
        (* restart demanded (neutralization only): set by the neutralizer
           before it revokes the pin, cleared by the victim at the top of
           its next operation *)
    dummy : node;
    handles : handle option array;
    orphans : node Bag.t array Orphan_pool.t;
        (* limbo triples donated by departed processes; bag chains travel
           intact (sealed by the donor, spliced by the adopter) *)
    vacated : bool array;
        (* meta-level: pid slots vacated by {!unregister}; under QSBR a
           later {!register} into such a slot must re-join (its [locals]
           cell is -1) *)
    departed : Counters.t;
  }

  and handle = {
    owner : t;
    pid : int;
    mutable lsrc : node Bag.source;
    mutable limbo : node Bag.Triple.t; (* one limbo list per epoch *)
    mutable joined : bool;
        (* QSBR: false only for a handle re-registered into a vacated
           slot, until its first [manage_state] announces an epoch *)
    mutable last_epoch : int; (* last epoch this process was pinned to *)
    mutable pinned : int;
        (* cache of [locals.(pid)] as last written by the owner: the epoch
           [manage_state] pinned, or -1 between operations. Lets a
           neutralizing [retire] pick its limbo list without a runtime
           read. May go stale when a preemptive-delivery neutralizer
           force-unpins us — at most one retire lands on the stale list
           before the poisoned check fires, and pushing to an older list
           only ever frees {e later} within the same 3-epoch cycle, never
           earlier. Under cooperative delivery only the owner writes the
           slot, so the cache never goes stale. *)
    mutable until_q : int; (* operations left before the next Q boundary *)
    mutable advance_fails : int;
        (* consecutive Q boundaries where the epoch could not advance *)
    c : Counters.t;
    (* reclamation callbacks, preallocated so frees build no closures;
       [flush_bag] skips event emission (teardown may run outside process
       context, where the emit effect is illegal on the simulator — and
       teardown frees are not reclamation events) *)
    free_bag : node array -> int array -> int -> int -> unit;
    flush_bag : node array -> int array -> int -> int -> unit;
  }

  let name = P.scheme_name

  let create (cfg : Smr_intf.config) ~dummy ~free_bulk =
    let absent = if P.per_operation then -1 else 0 in
    { cfg;
      q = Smr_intf.effective_quiescence_threshold cfg;
      free_bulk;
      global = R.atomic_padded 0;
      locals = Array.init cfg.n_processes (fun _ -> R.atomic_padded absent);
      poisoned = Array.init cfg.n_processes (fun _ -> Stdlib.Atomic.make false);
      dummy;
      handles = Array.make cfg.n_processes None;
      orphans = Orphan_pool.create ();
      vacated = Array.make cfg.n_processes false;
      departed = Counters.create () }

  let limbo_source t = Bag.source ~capacity:t.cfg.bag_capacity t.dummy

  (* The grace-period free of a whole epoch's bags. No clock is read (it
     would charge virtual time and perturb seeded schedules), so ages are
     reported as -1 and recovered offline from the node's Ev_retire. *)
  let expired_bag ~free_bulk (c : Counters.t) =
    (* bound by name, so the result is a four-argument closure, not a
       partial application that would allocate at every call *)
    let free data _ts count _stamp =
      free_bulk data count;
      c.frees <- c.frees + count;
      if R.tracing () then
        for i = 0 to count - 1 do
          R.emit Qs_intf.Runtime_intf.Ev_free (N.id data.(i)) (-1)
        done;
      R.emit Qs_intf.Runtime_intf.Ev_bag_free count (-1)
    in
    free

  let register t ~pid =
    let lsrc = limbo_source t in
    let c = Counters.create () in
    let h =
      { owner = t;
        pid;
        lsrc;
        limbo = Bag.Triple.create lsrc;
        joined = not t.vacated.(pid);
        last_epoch = -1;
        pinned = -1;
        until_q = t.q;
        advance_fails = 0;
        c;
        free_bag = expired_bag ~free_bulk:t.free_bulk c;
        flush_bag =
          (fun data _ts count _stamp ->
            t.free_bulk data count;
            c.frees <- c.frees + count) }
    in
    (* a pid slot may be re-registered after churn; a stale poison demand
       aimed at the departed incumbent must not restart the newcomer *)
    Stdlib.Atomic.set t.poisoned.(pid) false;
    t.vacated.(pid) <- false;
    t.handles.(pid) <- Some h;
    h

  let total_limbo h = Bag.Triple.total h.limbo

  (* Every process is absent or on [eg]. Top-level recursion, not an
     inner [let rec]: an inner closure would be the only heap allocation
     on the Q-boundary path. *)
  let rec all_on t eg i =
    i >= Array.length t.locals
    || (let l = R.get t.locals.(i) in
        (l = eg || l < 0) && all_on t eg (i + 1))

  (* Adoption: splice one orphaned limbo triple into the epoch list we
     just freed. The adopted nodes are freed the next time this process
     reaches [eg] — a full epoch cycle, hence a fresh grace period, so
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

  (* First arrival at [eg] since the last cycle: free its limbo list. *)
  let reached h eg =
    R.emit Qs_intf.Runtime_intf.Ev_quiesce eg 1;
    Bag.drain h.limbo.(eg) ~free_bag:h.free_bag;
    adopt_orphans h eg

  (* The global-epoch advance, shared with QSense's fast path. *)
  let advance global (c : Counters.t) eg =
    if R.cas global eg ((eg + 1) mod 3) then begin
      c.epoch_advances <- c.epoch_advances + 1;
      R.emit Qs_intf.Runtime_intf.Ev_epoch_advance ((eg + 1) mod 3) (-1)
    end

  (* The neutralization round: restart every process still pinned to an
     epoch other than [eg]. Order matters for restart safety — the victim
     must be restartable (flag set, signal posted) {e before} its
     protection is revoked, so that by the time reclamation can pass it,
     its next protection point aborts.

     Who revokes the pin depends on the runtime's delivery model:

     - Preemptive delivery ([R.neutralize_is_preemptive]; the simulator,
       modelling [pthread_kill]+[siglongjmp]): the signal aborts the victim
       before its next shared-memory access, so the neutralizer may
       force-unpin on the victim's behalf. The unpin is a CAS on the value
       it observed (never a blind store — the victim may have resumed and
       re-pinned concurrently, and clobbering a fresh pin would revoke
       live protection); if it fails the victim already moved and we leave
       its state alone — the pending signal then causes one spurious
       restart, which is harmless.

     - Cooperative delivery (real domains: no per-domain async signals):
       the victim only learns of the restart at its own next poisoned
       check, and between that check and the dereference it guards lies a
       preemption window of unbounded length — a force-unpin here is a
       use-after-free: unpin, epoch cycles, node freed, victim resumes
       into the dereference. So the neutralizer only posts the demand and
       the victim unpins {e itself} at its next check ([ack_restart]) —
       revocation by acknowledgment. The advance retried below fails this
       round and succeeds once every laggard has run one protection check;
       a victim crashed {e inside} an operation blocks reclamation
       forever, which is exactly the robustness DEBRA+ shows cannot be had
       without asynchronous signals. The flag is consumed with [exchange]
       so a laggard that stays pinned across several patience rounds is
       signalled (and counted) once per restart, not once per round.

     [Ev_neutralize a b]: [a] = victim pid, [b] = the epoch it was pinned
     to, or -1 if the victim had already moved / was already signalled. *)
  let neutralize_laggards h eg =
    let t = h.owner in
    for v = 0 to Array.length t.locals - 1 do
      if v <> h.pid then begin
        let l = R.get t.locals.(v) in
        if l <> -1 && l <> eg then
          if R.neutralize_is_preemptive then begin
            Stdlib.Atomic.set t.poisoned.(v) true;
            R.neutralize ~pid:v;
            if R.cas t.locals.(v) l (-1) then begin
              h.c.neutralizations <- h.c.neutralizations + 1;
              R.emit Qs_intf.Runtime_intf.Ev_neutralize v l
            end
            else R.emit Qs_intf.Runtime_intf.Ev_neutralize v (-1)
          end
          else if not (Stdlib.Atomic.exchange t.poisoned.(v) true) then begin
            R.neutralize ~pid:v;
            h.c.neutralizations <- h.c.neutralizations + 1;
            R.emit Qs_intf.Runtime_intf.Ev_neutralize v l
          end
      end
    done

  (* A Q boundary of a per-operation policy, pinned to [eg]. *)
  let boundary h eg =
    let t = h.owner in
    if all_on t eg 0 then begin
      h.advance_fails <- 0;
      advance t.global h.c eg
    end
    else if P.neutralize then begin
      h.advance_fails <- h.advance_fails + 1;
      if h.advance_fails >= patience then begin
        h.advance_fails <- 0;
        neutralize_laggards h eg;
        if all_on t eg 0 then advance t.global h.c eg
      end
    end

  (* Per-operation announcement: pin the current global epoch. This is
     also the restart entry point after a neutralization: the poisoned
     flag is consumed here, before the new pin, so one signal causes at
     most one restart. *)
  let pin h =
    R.hook Qs_intf.Runtime_intf.Hook_quiesce;
    let t = h.owner in
    if P.neutralize && Stdlib.Atomic.get t.poisoned.(h.pid) then
      Stdlib.Atomic.set t.poisoned.(h.pid) false;
    let eg = R.get t.global in
    R.set t.locals.(h.pid) eg;
    h.pinned <- eg;
    if h.last_epoch <> eg then begin
      h.last_epoch <- eg;
      reached h eg
    end;
    h.until_q <- h.until_q - 1;
    if h.until_q = 0 then begin
      h.until_q <- t.q;
      boundary h eg
    end

  (* QSBR's announcement, every Q operations: adopt the global epoch if
     we lag, else try to advance it. *)
  let quiescent_state h =
    R.hook Qs_intf.Runtime_intf.Hook_quiesce;
    let t = h.owner in
    let eg = R.get t.global in
    if R.get t.locals.(h.pid) <> eg then begin
      R.set t.locals.(h.pid) eg;
      reached h eg
    end
    else begin
      R.emit Qs_intf.Runtime_intf.Ev_quiesce eg 0;
      if all_on t eg 0 then advance t.global h.c eg
    end

  (* Late join (worker churn, QSBR): a handle registered into a vacated
     slot starts invisible to grace periods ([locals] = -1); its first
     [manage_state] call — in process context by the {!register}
     contract — announces the current global epoch. Gated on a plain
     handle field, so runs without churn perform no extra effects. *)
  let join h =
    let t = h.owner in
    R.set t.locals.(h.pid) (R.get t.global);
    h.joined <- true

  let manage_state h =
    if P.per_operation then pin h
    else begin
      if not h.joined then join h;
      h.until_q <- h.until_q - 1;
      if h.until_q = 0 then begin
        h.until_q <- h.owner.q;
        quiescent_state h
      end
    end

  (* Per-operation policies leave the critical region here, where hazard
     pointer schemes drop protection. *)
  let clear_hps h =
    if P.per_operation then begin
      h.pinned <- -1;
      R.set h.owner.locals.(h.pid) (-1)
    end

  (* Cooperative restart: acknowledge the demand by dropping our own pin
     (the unpin the neutralizer could not safely do for us — see
     [neutralize_laggards]), then abort the operation. We hold references
     protected by that pin, but we are abandoning them all right here, and
     the restarted operation re-pins before touching anything. On
     preemptive runtimes the neutralizer already CASed the pin away, so
     skip the store — on the simulator it would also be a schedule point,
     and this check must stay schedule-neutral. *)
  let ack_restart h =
    if not R.neutralize_is_preemptive then begin
      h.pinned <- -1;
      R.set h.owner.locals.(h.pid) (-1)
    end;
    raise Qs_intf.Runtime_intf.Neutralized

  (* No hazard pointers. Under neutralization the slot write is
     repurposed as the cooperative delivery point — the check every
     traversal step performs before trusting a new reference. Plain
     atomic read, no allocation, no schedule point. *)
  let assign_hp h ~slot:_ _ =
    if P.neutralize && Stdlib.Atomic.get h.owner.poisoned.(h.pid) then
      ack_restart h

  let banked h n sealed =
    let total = total_limbo h in
    Counters.retired h.c total;
    R.emit Qs_intf.Runtime_intf.Ev_retire (N.id n) total;
    if sealed > 0 then R.emit Qs_intf.Runtime_intf.Ev_bag_seal sealed (-1)

  (* Under neutralization, no runtime reads: the target list comes from
     the cached pin (or the last pin, for the rare retire outside an
     operation). Everything up to and including the push is meta-level,
     and the [Hook_retire] schedule point comes {e after} it — so every
     way this function can raise [Neutralized] (preemptive delivery at
     the parked hook under a [Targeted] strategy, or the cooperative
     poisoned check at the end) happens with the node already banked in
     limbo. Data-structure unwind handlers rely on this: "DEBRA+ retire
     raised" always means "retired", never "leaked".

     Otherwise the list is the announced epoch. An absent announcement
     means a retire outside an operation (per-operation: use the global
     epoch) or before a re-registered QSBR handle's first [manage_state]
     (park the node in epoch 0 — it is freed only by this handle's own
     later arrivals, behind a full cycle). *)
  let retire h n =
    let t = h.owner in
    if P.neutralize then begin
      let e =
        if h.pinned >= 0 then h.pinned
        else if h.last_epoch >= 0 then h.last_epoch
        else 0
      in
      let sealed = Bag.push h.limbo.(e) n 0 in
      R.hook Qs_intf.Runtime_intf.Hook_retire;
      banked h n sealed;
      if Stdlib.Atomic.get t.poisoned.(h.pid) then ack_restart h
    end
    else begin
      R.hook Qs_intf.Runtime_intf.Hook_retire;
      let e = R.get t.locals.(h.pid) in
      let e =
        if e >= 0 then e else if P.per_operation then R.get t.global else 0
      in
      banked h n (Bag.push h.limbo.(e) n 0)
    end

  (* Dynamic membership: donate the limbo triple to the orphan pool,
     mark the epoch slot absent and release the pid. Fresh (empty)
     lists — over a fresh block source, so the adopter's splicing never
     races this handle's cache — are installed {e before} donating, so
     the nodes are never owned twice. A per-operation policy needs no
     join protocol on re-registration: -1 is the ordinary "inactive"
     state, and a fresh handle re-pins on its very first
     [manage_state]. *)
  let unregister h =
    let t = h.owner in
    let donated = total_limbo h in
    let old = h.limbo in
    h.lsrc <- limbo_source t;
    h.limbo <- Bag.Triple.create h.lsrc;
    h.joined <- true (* dead handle: never join again *);
    h.pinned <- -1;
    R.set t.locals.(h.pid) (-1);
    Stdlib.Atomic.set t.poisoned.(h.pid) false;
    Orphan_pool.donate t.orphans ~donor:h.pid ~nodes:donated old;
    Counters.absorb ~into:t.departed h.c;
    t.handles.(h.pid) <- None;
    t.vacated.(h.pid) <- true;
    R.emit Qs_intf.Runtime_intf.Ev_unregister h.pid donated

  (* Teardown owns everything: drain the orphan pool too (the first
     flusher gets all of it; later flushers find it empty). *)
  let flush h =
    let t = h.owner in
    Array.iter (fun v -> Bag.drain v ~free_bag:h.flush_bag) h.limbo;
    Orphan_pool.free_all t.orphans ~free_bulk:t.free_bulk t.departed

  let retired_count t =
    Array.fold_left
      (fun acc -> function None -> acc | Some h -> acc + total_limbo h)
      (Orphan_pool.node_count t.orphans)
      t.handles

  let stats t =
    Counters.to_stats
      (Counters.sum t.departed (fun h -> h.c) t.handles)
      ~retired_now:(retired_count t)
end

module Make = Make_gen (struct
  let scheme_name = "ebr"
  let per_operation = true
  let neutralize = false
end)
