(* Hyaline — snapshot-free reference-counted reclamation (Nikolaev &
   Ravindran, SPAA'19/PODC'21), included as the second rival scheme: a
   point in the design space with {e no} scan phase at all — neither
   hazard-pointer scans (HP, Cadence, QSense-fallback) nor epoch/grace
   bookkeeping walks (QSBR, EBR, DEBRA+). The differential battery pins
   this structurally: a Hyaline run emits zero [Ev_scan_begin] events.

   Shape of the algorithm (the per-process-slot variant, Hyaline-1):

   - Each process owns one {e slot}: a single CASable cell that is either
     [Inactive] or [Active chain]. Entering a critical section installs
     [Active Cnil]; leaving claims the whole cell back to [Inactive] with
     a CAS and walks the chain it captured.
   - Retired nodes accumulate in a handle-local open batch (capacity =
     [bag_capacity], clamped to [>= 1]). Sealing a batch runs
     the insertion protocol: for every slot currently [Active], push one
     reference to the batch onto that slot's chain (CAS; a failure means
     the owner left concurrently and is compensated), counting each
     successful insertion into the batch's reference count {e before} the
     push makes it reachable.
   - Leaving decrements the reference count of every batch on the claimed
     chain; whoever decrements a batch to zero frees it — reclamation is
     distributed to the {e last dereferencing handle}, wherever it runs.

   Safety: a batch's nodes were unlinked before their retire, so only
   processes already inside a critical section at seal time can still
   hold references; each such process holds exactly one batch reference
   via its slot and drops it on leave. No grace period, no global epoch,
   no quiescence — and therefore robust in the same sense as HP: a
   stalled process delays only the batches inserted into its own slot
   (bounded by what was live at its entry), never reclamation at large.

   Bookkeeping that must survive crashed workers (a process that never
   leaves would strand its chain) lives at the meta level: every sealed
   batch is pushed onto a [Stdlib.Atomic] registry and carries a [freed]
   claim flag, so teardown ({!flush}) can free stragglers exactly once
   without racing the reference-count path. Sealing prunes freed batches
   from the registry once it has doubled since the last prune. *)

module Make (R : Qs_intf.Runtime_intf.RUNTIME) (N : Smr_intf.NODE) = struct
  type node = N.t

  type batch = {
    data : node array;
    count : int;
    nref : int R.atomic;
        (* outstanding references: one per successful slot insertion plus
           the sealer's creator reference while insertion is in flight *)
    freed : bool Stdlib.Atomic.t;
        (* meta-level free-once claim: CAS false->true wins the right to
           free; lets teardown reclaim batches stranded by crashed
           workers without double-freeing against the nref path *)
  }

  and chain = Cnil | Ccons of batch * chain

  and slot = Inactive | Active of chain
  (* Pushes CAS on the exact [Active _] value observed, so a concurrent
     leave (which claims the cell back to [Inactive]) makes them fail
     rather than strand a reference. Non-empty [Active] blocks are fresh
     allocations, so physical-equality CAS gives ABA immunity on them.
     The empty chain is the one exception: each handle re-enters with the
     SAME preallocated [Active Cnil] value ([handle.active_nil], keeping
     the enter/leave path allocation-free). That admits exactly one ABA:
     an insertion prepared against era-N's empty chain can land in era-M's
     (M > N) equally-empty chain. It is benign — the value stands for the
     empty chain in both eras, so no batch reference is lost, and the
     reference counted for the push is dropped by whichever era's leave
     claims it; landing in a later session only defers that batch, never
     frees it early. *)

  (* [kept]: the length the last prune left. *)
  type roster = { batches : batch list; length : int; kept : int }

  type t = {
    cfg : Smr_intf.config;
    free_bulk : node array -> int -> unit;
    capacity : int;
    dummy : node;  (** fills fresh open-batch arrays *)
    slots : slot R.atomic array;
    registry : roster Stdlib.Atomic.t;
        (* sealed batches for {!flush}; a freed batch stays listed, skipped
           via its claim flag, until the next prune drops it *)
    outstanding : int Stdlib.Atomic.t;
        (* retired-not-yet-freed nodes, maintained at the meta level so
           {!retired_count} needs no process context *)
    peak : int Stdlib.Atomic.t;
    handles : handle option array;
    orphans : node array Orphan_pool.t;
        (* open (unsealed) nodes donated by departing handles; adopters
           re-batch them — sealed batches need no donation, they already
           free themselves through the reference counts *)
    departed : Counters.t;
  }

  and handle = {
    owner : t;
    pid : int;
    active_nil : slot;  (** preallocated [Active Cnil]; see the slot note *)
    mutable open_data : node array;
    mutable open_count : int;
    c : Counters.t;
  }

  let name = "hyaline"

  let create (cfg : Smr_intf.config) ~dummy ~free_bulk =
    { cfg;
      free_bulk;
      capacity = max 1 cfg.bag_capacity;
      dummy;
      slots = Array.init cfg.n_processes (fun _ -> R.atomic_padded Inactive);
      registry = Stdlib.Atomic.make { batches = []; length = 0; kept = 0 };
      outstanding = Stdlib.Atomic.make 0;
      peak = Stdlib.Atomic.make 0;
      handles = Array.make cfg.n_processes None;
      orphans = Orphan_pool.create ();
      departed = Counters.create () }

  let register t ~pid =
    let h =
      { owner = t;
        pid;
        active_nil = Active Cnil;
        open_data = Array.make t.capacity t.dummy;
        open_count = 0;
        c = Counters.create () }
    in
    t.handles.(pid) <- Some h;
    h

  let retired_count t = Stdlib.Atomic.get t.outstanding

  (* -- meta counters ------------------------------------------------- *)

  let meta_add cell d =
    ignore (Stdlib.Atomic.fetch_and_add cell d : int)

  let rec meta_max cell v =
    let cur = Stdlib.Atomic.get cell in
    if v > cur && not (Stdlib.Atomic.compare_and_set cell cur v) then
      meta_max cell v

  (* Returns the roster the push installed. *)
  let rec registry_push t b =
    let cur = Stdlib.Atomic.get t.registry in
    let next = { cur with batches = b :: cur.batches; length = cur.length + 1 } in
    if Stdlib.Atomic.compare_and_set t.registry cur next then next
    else registry_push t b

  (* Below this length the registry is not worth a walk. *)
  let min_prune = 64

  (* Drops freed batches. Losing the CAS to a concurrent push or prune
     leaves the pruning to a later seal. *)
  let prune t cur =
    let batches = List.filter (fun b -> not (Stdlib.Atomic.get b.freed)) cur.batches in
    let n = List.length batches in
    ignore
      (Stdlib.Atomic.compare_and_set t.registry cur { batches; length = n; kept = n }
        : bool)

  (* -- freeing ------------------------------------------------------- *)

  (* Free-once: both the last-reference path and teardown funnel through
     the claim flag. [emit = false] on the teardown path, which may run
     outside process context. *)
  let free_batch ?(emit = true) h b =
    if Stdlib.Atomic.compare_and_set b.freed false true then begin
      h.owner.free_bulk b.data b.count;
      h.c.frees <- h.c.frees + b.count;
      meta_add h.owner.outstanding (-b.count);
      if emit then begin
        if R.tracing () then
          for i = 0 to b.count - 1 do
            R.emit Qs_intf.Runtime_intf.Ev_free (N.id b.data.(i)) (-1)
          done;
        R.emit Qs_intf.Runtime_intf.Ev_bag_free b.count (-1)
      end
    end

  let drop_ref h b =
    if R.fetch_and_add b.nref (-1) = 1 then free_batch h b

  let rec drop_chain h = function
    | Cnil -> ()
    | Ccons (b, rest) ->
      drop_ref h b;
      drop_chain h rest

  (* -- enter / leave ------------------------------------------------- *)

  (* Leave: claim the whole slot back with one CAS (so a concurrent
     insertion either landed on the chain we now own, or failed and was
     compensated by its sealer), then drop one reference per captured
     insertion. The walk is the scheme's only per-operation reclamation
     work: one fetch-and-add per batch retired against us while we were
     inside — allocation-free. *)
  let rec leave h =
    let cell = h.owner.slots.(h.pid) in
    match R.get cell with
    | Inactive -> ()
    | Active ch as cur ->
      if R.cas cell cur Inactive then drop_chain h ch else leave h

  let clear_hps h = leave h

  (* Hyaline protects by session membership, not per-pointer publication;
     rule 2 is a no-op. *)
  let assign_hp _ ~slot:_ _ = ()

  (* -- sealing (the insertion protocol) ------------------------------ *)

  let rec insert_into h b cell =
    match R.get cell with
    | Inactive -> ()
    | Active ch as cur ->
      (* count the reference before publication: a leaver may claim and
         decrement the instant the CAS lands, and finding [nref] already
         accounted keeps it from dropping to zero early. On CAS failure
         (owner left between read and push) compensate; the sealer's
         creator reference keeps the count positive, so compensation can
         never be the zero-crossing. *)
      ignore (R.fetch_and_add b.nref 1 : int);
      if not (R.cas cell cur (Active (Ccons (b, ch)))) then begin
        ignore (R.fetch_and_add b.nref (-1) : int);
        insert_into h b cell
      end

  let seal h =
    let t = h.owner in
    let b =
      { data = h.open_data;
        count = h.open_count;
        nref = R.atomic 1;
        freed = Stdlib.Atomic.make false }
    in
    h.open_data <- Array.make t.capacity t.dummy;
    h.open_count <- 0;
    let roster = registry_push t b in
    if roster.length >= max min_prune (2 * roster.kept) then prune t roster;
    R.emit Qs_intf.Runtime_intf.Ev_bag_seal b.count (-1);
    Array.iter (fun cell -> insert_into h b cell) t.slots;
    (* drop the creator reference; if no slot was active the batch frees
       right here — no reader could hold its nodes *)
    drop_ref h b

  (* Append without the retire-path ceremony: used for adopted orphan
     nodes, whose retire was already counted (and emitted) by the donor. *)
  let stash h n =
    h.open_data.(h.open_count) <- n;
    h.open_count <- h.open_count + 1;
    if h.open_count = h.owner.capacity then seal h

  (* -- the three-call interface -------------------------------------- *)

  let adopt_orphans h =
    let t = h.owner in
    if not (Orphan_pool.is_empty t.orphans) then
      match Orphan_pool.take t.orphans with
      | None -> ()
      | Some e ->
        Array.iter (fun n -> stash h n) e.Orphan_pool.payload;
        R.emit Qs_intf.Runtime_intf.Ev_adopt e.Orphan_pool.nodes
          e.Orphan_pool.donor

  (* Enter. If the slot is still [Active] — the previous operation was
     aborted (arena exhaustion, neutralization fault) before [clear_hps]
     ran — leave first: entering over a live chain would strand its
     references until the next clean leave. *)
  let manage_state h =
    R.hook Qs_intf.Runtime_intf.Hook_quiesce;
    let t = h.owner in
    let cell = t.slots.(h.pid) in
    (match R.get cell with Inactive -> () | Active _ -> leave h);
    R.set cell h.active_nil;
    adopt_orphans h

  let retire h n =
    R.hook Qs_intf.Runtime_intf.Hook_retire;
    h.c.retires <- h.c.retires + 1;
    meta_add h.owner.outstanding 1;
    let now = Stdlib.Atomic.get h.owner.outstanding in
    meta_max h.owner.peak now;
    R.emit Qs_intf.Runtime_intf.Ev_retire (N.id n) now;
    stash h n

  (* Dynamic membership. Sealed batches need no handover — they free
     themselves through their reference counts wherever the holders run —
     so a departing handle only donates its {e open} (unsealed) nodes,
     exercising the orphan-adoption path the other schemes share. Must be
     called in process context (the final leave-walk touches the slot). *)
  let unregister h =
    let t = h.owner in
    leave h;
    let donated = h.open_count in
    let nodes = Array.sub h.open_data 0 h.open_count in
    h.open_count <- 0;
    Orphan_pool.donate t.orphans ~donor:h.pid ~nodes:donated nodes;
    Counters.absorb ~into:t.departed h.c;
    t.handles.(h.pid) <- None;
    R.emit Qs_intf.Runtime_intf.Ev_unregister h.pid donated

  (* Teardown: free the open batch, every unclaimed registered batch and
     any undonated orphans — workers are stopped, so reference counts no
     longer matter and the claim flags make this idempotent across
     handles. No slot access (no process context required). *)
  let flush h =
    let t = h.owner in
    if h.open_count > 0 then begin
      t.free_bulk h.open_data h.open_count;
      h.c.frees <- h.c.frees + h.open_count;
      meta_add t.outstanding (-h.open_count);
      h.open_count <- 0
    end;
    List.iter (fun b -> free_batch ~emit:false h b)
      (Stdlib.Atomic.get t.registry).batches;
    List.iter
      (fun (e : _ Orphan_pool.entry) ->
        let n = Array.length e.Orphan_pool.payload in
        t.free_bulk e.Orphan_pool.payload n;
        t.departed.frees <- t.departed.frees + n;
        meta_add t.outstanding (-n))
      (Orphan_pool.drain t.orphans)

  let stats t =
    { (Counters.to_stats
         (Counters.sum t.departed (fun h -> h.c) t.handles)
         ~retired_now:(retired_count t))
      with
      retired_peak = Stdlib.Atomic.get t.peak }
end
