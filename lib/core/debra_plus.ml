(* DEBRA+ — epoch-based reclamation with neutralization (Brown, PODC'15;
   the paper's §8 "epoch-based techniques" cites it as [13]), included as a
   rival robust scheme: where QSense closes the robustness gap by switching
   to a hazard-pointer fallback, DEBRA+ closes it by force-restarting the
   laggard.

   The scheme is EBR ({!Ebr}) plus one mechanism: when the global epoch
   cannot advance because some process has been pinned to an old epoch for
   too long (a crash or a long delay inside an operation), an advancing
   process {e neutralizes} the laggard —

   - posts a restart signal ({!Qs_intf.Runtime_intf.RUNTIME.neutralize};
     the simulator delivers it by discontinuing the victim's fiber with
     {!Qs_intf.Runtime_intf.Neutralized} at its next interruptible step,
     modelling DEBRA+'s [pthread_kill]+[sigsetjmp]; the real runtime has no
     asynchronous delivery and relies on the poisoned flag below),
   - then revokes the victim's epoch pin — {e how} depends on the
     runtime's delivery model ([R.neutralize_is_preemptive], see
     [neutralize_laggards]): under preemptive delivery the neutralizer
     force-unpins the slot itself (CAS on the observed value); under
     cooperative delivery the victim unpins itself when it acknowledges
     the demand at its next protection check,
   - and retries the epoch advance.

   Restart safety: the victim's operation is aborted before its next
   shared-memory access to a node its revoked pin protected, so such
   references are never dereferenced after reclamation passes them. Under
   preemptive delivery the discontinuation itself guarantees this; under
   cooperative delivery it holds because the pin is only revoked {e at}
   the victim's own check — the flag read and the unpin are the same
   program point, leaving no check-to-dereference window (the bug a
   neutralizer-side force-unpin would reintroduce: the victim passes its
   check, sleeps, the unpinned epoch cycles and frees, the victim resumes
   into the dereference). The victim's harness catches [Neutralized] and
   restarts the operation from scratch; {!manage_state} at the top of the
   retry clears the poisoned flag and re-pins the current epoch. The
   price of the cooperative model is robustness against in-operation
   crashes: a victim that never runs another check never unpins, and its
   epoch blocks reclamation — the precise gap DEBRA+ closes with
   asynchronous signals, unavailable on OCaml domains.

   Hot-path discipline: [retire] performs {e no} runtime reads — the
   pinned epoch is cached in a plain handle field by [manage_state], so
   the push is one limbo append ({!Qs_util.Bag}, constant stamp 0) plus
   counters (allocation-free, and in the simulator delivery-atomic: no
   effect between the push and the poisoned check). Poisoned flags live
   in [Stdlib.Atomic] cells: meta-level for the simulator (reading one is
   not a schedule point) and correctly synchronized on real domains. *)

module Bag = Qs_util.Bag

(* Failed epoch-advance attempts (spaced Q operations apart) tolerated
   before neutralizing the laggards. Patience keeps neutralization off the
   common path: a process that is merely slow gets ~patience*Q operations
   of slack before being restarted. *)
let patience = 3

module Make (R : Qs_intf.Runtime_intf.RUNTIME) (N : Smr_intf.NODE) = struct
  type node = N.t

  type t = {
    cfg : Smr_intf.config;
    free_bulk : node array -> int -> unit;
    global : int R.atomic;
    (* local.(pid): -1 when inactive, else the epoch pinned by the
       in-flight operation. Written by the owner on every operation and,
       unlike EBR, CASed to -1 by a neutralizer. *)
    locals : int R.atomic array;
    (* poisoned.(pid): restart demanded. Set by the neutralizer before the
       force-unpin, cleared by the victim at the top of its next
       operation. [Stdlib.Atomic] so the simulator reads it without a
       schedule point and real domains read it without a data race. *)
    poisoned : bool Stdlib.Atomic.t array;
    dummy : node;
    handles : handle option array;
    orphans : node Bag.t array Orphan_pool.t;
    mutable legacy_retires : int;
    mutable legacy_frees : int;
    mutable legacy_epoch_advances : int;
    mutable legacy_neutralizations : int;
    mutable legacy_retired_peak : int;
        (* counters folded out of handles destroyed by {!unregister} *)
  }

  and handle = {
    owner : t;
    pid : int;
    mutable lsrc : node Bag.source;
    mutable limbo : node Bag.Triple.t;
    mutable last_epoch : int; (* last epoch this process was pinned to *)
    mutable pinned : int;
        (* cache of [locals.(pid)] as last written by the owner: the
           epoch [manage_state] pinned, or -1 between operations. Lets
           [retire] pick its limbo list without a runtime read. May go
           stale when a preemptive-delivery neutralizer force-unpins us —
           at most one retire lands on the stale list before the poisoned
           check fires, and pushing to an older list only ever frees
           {e later} within the same 3-epoch cycle, never earlier. Under
           cooperative delivery only the owner writes the slot, so the
           cache never goes stale. *)
    mutable ops : int;
    mutable advance_fails : int;
        (* consecutive Q-boundaries where the epoch could not advance *)
    mutable retires : int;
    mutable frees : int;
    mutable epoch_advances : int;
    mutable neutralizations : int;
    mutable retired_peak : int;
    free_bag : node array -> int array -> int -> int -> unit;
    flush_bag : node array -> int array -> int -> int -> unit;
  }

  let name = "debra-plus"

  let create (cfg : Smr_intf.config) ~dummy ~free_bulk =
    { cfg;
      free_bulk;
      global = R.atomic_padded 0;
      locals = Array.init cfg.n_processes (fun _ -> R.atomic_padded (-1));
      poisoned = Array.init cfg.n_processes (fun _ -> Stdlib.Atomic.make false);
      dummy;
      handles = Array.make cfg.n_processes None;
      orphans = Orphan_pool.create ();
      legacy_retires = 0;
      legacy_frees = 0;
      legacy_epoch_advances = 0;
      legacy_neutralizations = 0;
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
        pinned = -1;
        ops = 0;
        advance_fails = 0;
        retires = 0;
        frees = 0;
        epoch_advances = 0;
        neutralizations = 0;
        retired_peak = 0;
        free_bag =
          (fun data _ts count _stamp ->
            t.free_bulk data count;
            h.frees <- h.frees + count;
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
    (* a pid slot may be re-registered after churn; a stale poison demand
       aimed at the departed incumbent must not restart the newcomer *)
    Stdlib.Atomic.set t.poisoned.(pid) false;
    t.handles.(pid) <- Some h;
    h

  let free_epoch ?(emit = true) h e =
    let v = h.limbo.(e) in
    Bag.drain v ~free_bag:(if emit then h.free_bag else h.flush_bag)

  let all_on t eg =
    let n = Array.length t.locals in
    let rec go i =
      i >= n
      ||
      let l = R.get t.locals.(i) in
      (l = -1 || l = eg) && go (i + 1)
    in
    go 0

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
    let n = Array.length t.locals in
    for v = 0 to n - 1 do
      if v <> h.pid then begin
        let l = R.get t.locals.(v) in
        if l <> -1 && l <> eg then
          if R.neutralize_is_preemptive then begin
            Stdlib.Atomic.set t.poisoned.(v) true;
            R.neutralize ~pid:v;
            if R.cas t.locals.(v) l (-1) then begin
              h.neutralizations <- h.neutralizations + 1;
              R.emit Qs_intf.Runtime_intf.Ev_neutralize v l
            end
            else R.emit Qs_intf.Runtime_intf.Ev_neutralize v (-1)
          end
          else if not (Stdlib.Atomic.exchange t.poisoned.(v) true) then begin
            R.neutralize ~pid:v;
            h.neutralizations <- h.neutralizations + 1;
            R.emit Qs_intf.Runtime_intf.Ev_neutralize v l
          end
      end
    done

  let try_advance h eg =
    if R.cas h.owner.global eg ((eg + 1) mod 3) then begin
      h.epoch_advances <- h.epoch_advances + 1;
      R.emit Qs_intf.Runtime_intf.Ev_epoch_advance ((eg + 1) mod 3) (-1)
    end

  (* Enter the critical region. This is also the restart entry point after
     a neutralization: the poisoned flag is consumed here, before the new
     pin, so one signal causes at most one restart. *)
  let manage_state h =
    R.hook Qs_intf.Runtime_intf.Hook_quiesce;
    let t = h.owner in
    if Stdlib.Atomic.get t.poisoned.(h.pid) then
      Stdlib.Atomic.set t.poisoned.(h.pid) false;
    let eg = R.get t.global in
    R.set t.locals.(h.pid) eg;
    h.pinned <- eg;
    if h.last_epoch <> eg then begin
      h.last_epoch <- eg;
      R.emit Qs_intf.Runtime_intf.Ev_quiesce eg 1;
      free_epoch h eg;
      adopt_orphans h eg
    end;
    h.ops <- h.ops + 1;
    if h.ops mod t.cfg.quiescence_threshold = 0 then
      if all_on t eg then begin
        h.advance_fails <- 0;
        try_advance h eg
      end
      else begin
        h.advance_fails <- h.advance_fails + 1;
        if h.advance_fails >= patience then begin
          h.advance_fails <- 0;
          neutralize_laggards h eg;
          if all_on t eg then try_advance h eg
        end
      end

  let clear_hps h =
    h.pinned <- -1;
    R.set h.owner.locals.(h.pid) (-1)

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

  (* DEBRA+ needs no hazard pointers; the slot write is repurposed as the
     cooperative delivery point — the check every traversal step performs
     before trusting a new reference. Plain atomic read, no allocation, no
     schedule point. *)
  let assign_hp h ~slot:_ _ =
    if Stdlib.Atomic.get h.owner.poisoned.(h.pid) then ack_restart h

  let total_limbo h = Bag.Triple.total h.limbo

  (* No runtime reads: the target list comes from the cached pin (or the
     last pin, for the rare retire outside an operation). Everything up to
     and including the push is meta-level, and the [Hook_retire] schedule
     point comes {e after} it — so every way this function can raise
     [Neutralized] (preemptive delivery at the parked hook under a
     [Targeted] strategy, or the cooperative poisoned check at the end)
     happens with the node already banked in limbo. Data-structure unwind
     handlers rely on this: "DEBRA+ retire raised" always means "retired",
     never "leaked". *)
  let retire h n =
    let e =
      if h.pinned >= 0 then h.pinned
      else if h.last_epoch >= 0 then h.last_epoch
      else 0
    in
    let sealed = Bag.push h.limbo.(e) n 0 in
    R.hook Qs_intf.Runtime_intf.Hook_retire;
    h.retires <- h.retires + 1;
    let total = total_limbo h in
    if total > h.retired_peak then h.retired_peak <- total;
    R.emit Qs_intf.Runtime_intf.Ev_retire (N.id n) total;
    if sealed > 0 then R.emit Qs_intf.Runtime_intf.Ev_bag_seal sealed (-1);
    if Stdlib.Atomic.get h.owner.poisoned.(h.pid) then ack_restart h

  let unregister h =
    let t = h.owner in
    let donated = total_limbo h in
    let old = h.limbo in
    h.lsrc <- limbo_source t;
    h.limbo <- Bag.Triple.create h.lsrc;
    h.pinned <- -1;
    R.set t.locals.(h.pid) (-1);
    Stdlib.Atomic.set t.poisoned.(h.pid) false;
    Orphan_pool.donate t.orphans ~donor:h.pid ~nodes:donated old;
    t.legacy_retires <- t.legacy_retires + h.retires;
    t.legacy_frees <- t.legacy_frees + h.frees;
    t.legacy_epoch_advances <- t.legacy_epoch_advances + h.epoch_advances;
    t.legacy_neutralizations <- t.legacy_neutralizations + h.neutralizations;
    t.legacy_retired_peak <- t.legacy_retired_peak + h.retired_peak;
    h.retires <- 0;
    h.frees <- 0;
    h.epoch_advances <- 0;
    h.neutralizations <- 0;
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
      neutralizations =
        fold t (fun h -> h.neutralizations) + t.legacy_neutralizations;
      retired_now = retired_count t;
      retired_peak =
        fold t (fun h -> h.retired_peak) + t.legacy_retired_peak }
end
