(* Harris-Michael lock-free linked-list set (the paper evaluates this list,
   taken from ASCYLIB; its appendix shows exactly where the QSense calls
   go — Algorithms 6 and 7). Keys are integers; head/tail sentinels carry
   [min_int]/[max_int] and are never reclaimed.

   Deletion is two-phase: a CAS marks the victim's [next] link (logical
   delete), then a CAS on the predecessor unlinks it (physical delete). The
   process whose CAS physically unlinks the node is the unique caller of
   [retire] for it.

   Canonical links: a link value depends only on (dest, mark), so every
   node carries its two link values, [ulink] (unmarked) and [mlink]
   (marked), built once when the node is created; the arena recycles
   nodes, so they are paid for once per node, not once per CAS, and no
   insert or delete allocates. CAS compares physical identity, which here
   means comparing (dest, mark) — the tagged word of the paper's ASCYLIB
   code. A link value can therefore leave a cell and come back, and ABA
   safety rests on reclamation, as in C: a node held by a hazard pointer
   (or inside the epoch that reached it) is never recycled, so the same
   (dest, mark) in a cell means the same node in the same place. Since
   every unmarked link in a cell is physically its [dest.ulink], a witness
   is named rather than stored: [find] leaves [pred] and [curr], and the
   CAS compares against [curr.ulink]. Per CAS site (slot 0 = predecessor,
   slot 1 = current; under epoch schemes the operation's epoch plays both
   roles):
   - [walk]'s snip, [pred.next]: [curr.ulink] -> [succ.ulink]. [curr] is
     in slot 1, published and validated. If the witness still holds,
     [curr] is still [pred]'s unmarked successor — possibly again, after
     a node was inserted in front of it and deleted, which leaves the
     same state. [succ] needs no slot: [curr]'s link is marked, so it is
     frozen, and [succ] stays linked for as long as [curr] is.
   - insert's publish, [pred.next]: [curr.ulink] -> [n.ulink]. Same
     witness, [curr] in slot 1; [n] is not yet shared.
   - delete's mark, [curr.next]: [succ.ulink] -> [succ.mlink]. [curr] is
     in slot 1, but [succ] is unprotected: between the read and the CAS
     it may be unlinked, freed, recycled and linked behind [curr] again.
     That ABA is benign: the CAS writes the marked form of exactly the
     link it found, so it sets the mark and keeps whatever successor is
     there now — the atomic mark the algorithm asks for.
   - delete's unlink, [pred.next]: [curr.ulink] -> [succ.ulink]. [curr]
     in slot 1; [succ] is the successor our own mark froze.
   No CAS site is left with an unprotected witness that is not benign, so
   no site builds a fresh link. The validation reads ([R.get pred.next !=
   pred_link], where [pred_link] is [curr.ulink]) compare the same way:
   an equal re-read means the published node is linked there now, hence
   not yet retired, which is all that Condition 1 asks. [validate_in]
   checks that every link is canonical.

   Hazard-pointer discipline (K = 2): in [find], slot 0 protects the
   predecessor, slot 1 the current node; the search ([probe_walk])
   alternates them. Each is published before the validation read (the
   link we followed is still there), per Condition 1. *)

module Make (R : Qs_intf.Runtime_intf.RUNTIME) = struct
  type node = {
    uid : int; (* stable identity for the SMR membership set *)
    mutable key : int;
    next : link R.atomic;
    ulink : link; (* [Ptr {dest = self; marked = false}] *)
    mlink : link; (* [Ptr {dest = self; marked = true}] *)
    mutable free : bool; (* the arena's Free bit *)
  }

  and link = Null | Ptr of { dest : node; marked : bool }

  (* Node identities for Smr_intf.NODE.id: stamped once at creation (the
     slow allocation path), stable across arena reuse. Stdlib atomics, not
     R: identity assignment is meta-level, not simulated shared memory. *)
  let uid_counter = Atomic.make 0
  let fresh_uid () = Atomic.fetch_and_add uid_counter 1

  (* A node with its two canonical links (see the header). *)
  let make_node ~key ~next =
    let uid = fresh_uid () in
    let rec n =
      { uid;
        key;
        next;
        ulink = Ptr { dest = n; marked = false };
        mlink = Ptr { dest = n; marked = true };
        free = false }
    in
    n

  module D = Smr_domain.Make (R) (struct
    type t = node

    let create () = make_node ~key:0 ~next:(R.atomic Null)

    let is_free n = n.free
    let set_free n b = n.free <- b
    let id n = n.uid
  end)

  type t = { head : node; tail : node; dom : D.t }

  type ctx = {
    set : t;
    smr : D.ctx;
    mutable fresh : node;
        (* the insert's not-yet-published node; [set.tail] when none *)
    mutable pred : node; (* [find]'s result: see there *)
    mutable curr : node;
  }

  let hp_per_process = 2

  let create (cfg : Set_intf.config) =
    let tail = make_node ~key:max_int ~next:(R.atomic Null) in
    let head = make_node ~key:min_int ~next:(R.atomic tail.ulink) in
    { head;
      tail;
      dom = D.create cfg ~hp_per_process ~removes_per_op_max:1 ~dummy:tail }

  let register t ~pid =
    { set = t;
      smr = D.register t.dom ~pid;
      fresh = t.tail;
      pred = t.head;
      curr = t.tail }

  (* the oracle, pre-filtered on [Free] (see {!Smr_domain.Make.touch}) *)
  let touch ctx n = if n.free then D.touch ctx.smr n

  (* Find the first node with key >= [key] starting from [head] (the list's
     own head, or a hash-table bucket's), cleaning up marked nodes on the
     way. Leaves [pred] and [curr] in the ctx; the link read from
     [pred.next] was [curr.ulink] (see the header), the CAS witness for
     both insertion and physical deletion. Top-level recursion over the
     ctx, with the result in its fields rather than a tuple, so a pass
     allocates nothing. *)
  let rec find ctx head key = walk ctx head key head

  and walk ctx head key pred =
    let pred_link = R.get pred.next in
    touch ctx pred;
    match pred_link with
    | Null | Ptr { marked = true; _ } ->
      (* pred itself was removed or is being removed: restart from head *)
      find ctx head key
    | Ptr { dest = curr; marked = false } ->
      D.assign_hp ctx.smr ~slot:1 curr;
      (* Validation read: if pred.next changed since we read it, curr may
         already be unlinked (and, without protection, freed) — restart.
         The hazard pointer published above makes the success case safe. *)
      if R.get pred.next != pred_link then find ctx head key
      else begin
        touch ctx curr;
        let curr_link = R.get curr.next in
        (* the read above is the access hazard: re-check the oracle *)
        touch ctx curr;
        match curr_link with
        | Ptr { dest = succ; marked = true } ->
          (* curr is logically deleted: attempt the physical unlink; the
             winner of this CAS retires the node (free_node_later). *)
          if R.cas pred.next pred_link succ.ulink then begin
            D.retire ctx.smr curr;
            walk ctx head key pred
          end
          else find ctx head key
        | Null | Ptr { marked = false; _ } ->
          if curr.key >= key then begin
            ctx.pred <- pred;
            ctx.curr <- curr
          end
          else begin
            D.assign_hp ctx.smr ~slot:0 curr;
            (* Re-validate: curr must still be pred's successor, otherwise
               the slot-0 protection could cover an already-freed node. *)
            if R.get pred.next != pred_link then find ctx head key
            else walk ctx head key curr
          end
      end

  (* The search's fallback at a marked link: membership by [find]. *)
  let find_member ctx bucket key =
    find ctx bucket key;
    let curr = ctx.curr in
    touch ctx curr;
    let res = curr.key = key in
    D.clear_hps ctx.smr;
    res

  (* The membership search (the set's [search], the hash table's and the
     KV service's get): walks the chain by key order (chain keys strictly
     increase, so the first node with key >= [key] settles membership:
     present iff it carries [key] and its own next link is unmarked).
     Alternates the two hazard-pointer slots between the node in hand and
     its successor with the usual validation re-read, restarting from the
     bucket head on interference.

     It never follows a marked link. A marked link is frozen, so the
     validation re-read would pass even after its successor was unlinked
     and freed (Brown, arXiv:1712.01044: a traversal must not leave a
     marked node). At a marked link the search falls back to the snipping
     [find], which gets past the marked node by unlinking it. Restarting
     from the head instead could spin for as long as a stalled deleter
     leaves its marked node linked.

     Like [find], top-level recursion that allocates nothing. Unlike
     [find], it publishes once per node rather than twice, never
     publishes the tail and, until it meets a marked link, never writes
     the chain. *)
  let rec probe_walk ctx bucket key slot node =
    if node.key > key then begin
      D.clear_hps ctx.smr;
      false
    end
    else if node.key = key then begin
      let link = R.get node.next in
      touch ctx node;
      D.clear_hps ctx.smr;
      match link with
      | Null -> true
      | Ptr { marked; _ } -> not marked
    end
    else begin
      let link = R.get node.next in
      touch ctx node;
      match link with
      | Null ->
        D.clear_hps ctx.smr;
        false
      | Ptr { marked = true; _ } -> find_member ctx bucket key
      | Ptr { dest; marked = false } when dest == ctx.set.tail ->
        (* the tail is never retired, so it is neither published nor
           validated, and its key, [max_int], ends every walk *)
        D.clear_hps ctx.smr;
        false
      | Ptr { dest; marked = false } ->
        let slot' = 1 - slot in
        D.assign_hp ctx.smr ~slot:slot' dest;
        (* Validation read: if node.next changed since we read it, dest
           may already be unlinked (and freed) — restart from the head. *)
        if R.get node.next != link then probe_restart ctx bucket key
        else begin
          touch ctx dest;
          probe_walk ctx bucket key slot' dest
        end
    end

  and probe_restart ctx bucket key =
    (* the bucket sentinel is never reclaimed: no protection needed *)
    probe_walk ctx bucket key 1 bucket

  let search_in ctx ~bucket key =
    D.manage_state ctx.smr;
    probe_restart ctx bucket key

  (* An insert's node that was never published goes straight back to the
     arena (paper: "free the node directly"). *)
  let drop_fresh ctx =
    D.free ctx.smr ctx.fresh;
    ctx.fresh <- ctx.set.tail

  let rec insert_attempt ctx bucket key =
    find ctx bucket key;
    let pred = ctx.pred and curr = ctx.curr in
    if curr.key = key then begin
      if ctx.fresh != ctx.set.tail then drop_fresh ctx;
      D.clear_hps ctx.smr;
      false
    end
    else begin
      if ctx.fresh == ctx.set.tail then begin
        let n = D.alloc ctx.smr in
        n.key <- key;
        ctx.fresh <- n
      end;
      let n = ctx.fresh in
      R.set n.next curr.ulink;
      if R.cas pred.next curr.ulink n.ulink then begin
        ctx.fresh <- ctx.set.tail;
        D.clear_hps ctx.smr;
        true
      end
      else insert_attempt ctx bucket key
    end

  (* The not-yet-published node lives in [ctx.fresh] (reset the moment the
     publishing CAS wins) so that a neutralization signal aborting this
     operation can return it to the arena instead of leaking it: in the
     simulator, delivery replaces a pending effect — it can never land
     between the CAS executing and the meta-level reset. *)
  let insert_in ctx ~bucket key =
    D.manage_state ctx.smr;
    try insert_attempt ctx bucket key
    with Qs_intf.Runtime_intf.Neutralized as e ->
      if ctx.fresh != ctx.set.tail then drop_fresh ctx;
      raise e

  let rec delete_attempt ctx bucket key =
    find ctx bucket key;
    let pred = ctx.pred and curr = ctx.curr in
    if curr.key <> key then begin
      D.clear_hps ctx.smr;
      false
    end
    else begin
      let curr_link0 = R.get curr.next in
      touch ctx curr;
      match curr_link0 with
      | Null ->
        (* curr is the tail sentinel; impossible since tail.key = max_int *)
        D.clear_hps ctx.smr;
        false
      | Ptr { dest = succ; marked = false } as curr_link ->
        if R.cas curr.next curr_link succ.mlink then begin
          (* Logical delete succeeded — we own the removal. *)
          (if R.cas pred.next curr.ulink succ.ulink then D.retire ctx.smr curr
           else
             (* physical unlink lost a race; a find pass cleans up and
                retires on our behalf *)
             find ctx bucket key);
          D.clear_hps ctx.smr;
          true
        end
        else delete_attempt ctx bucket key
      | Ptr { marked = true; _ } ->
        (* someone else is deleting it; retry to settle the outcome *)
        delete_attempt ctx bucket key
    end

  let delete_in ctx ~bucket key =
    D.manage_state ctx.smr;
    delete_attempt ctx bucket key

  (* Public single-list operations. *)

  let search ctx key = search_in ctx ~bucket:ctx.set.head key
  let insert ctx key = insert_in ctx ~bucket:ctx.set.head key
  let delete ctx key = delete_in ctx ~bucket:ctx.set.head key

  (* A fresh head sentinel chained to the shared tail — hash-table buckets.
     Never reclaimed. *)
  let new_bucket t = make_node ~key:min_int ~next:(R.atomic t.tail.ulink)

  (* Sequential-context helpers (no concurrent mutators). *)

  let to_list_in ctx ~bucket =
    let rec go acc n =
      match R.get n.next with
      | Null -> List.rev acc
      | Ptr { dest; marked } ->
        if dest == ctx.set.tail then List.rev acc
        else go (if marked then acc else dest.key :: acc) dest
    in
    go [] bucket

  let to_list ctx = to_list_in ctx ~bucket:ctx.set.head

  (* Structural invariant check (sequential context): the chain from the
     bucket head reaches the shared tail, node keys strictly increase
     (marked nodes keep their position in Harris's algorithm, so the check
     covers them too), and every link is canonical — physically
     [dest.ulink] or [dest.mlink] — which the CAS witnesses rely on. *)
  let validate_in ctx ~bucket =
    let rec go last n hops =
      if hops > 1_000_000 then failwith "list: cycle suspected";
      match R.get n.next with
      | Null ->
        if n != ctx.set.tail then failwith "list: chain does not end at tail"
      | Ptr { dest; marked } as l ->
        if l != (if marked then dest.mlink else dest.ulink) then
          failwith "list: link is not canonical";
        if dest != ctx.set.tail then begin
          if dest.key <= last then failwith "list: keys not strictly increasing";
          go dest.key dest (hops + 1)
        end
        else go last dest (hops + 1)
    in
    go min_int bucket 0

  let validate ctx = validate_in ctx ~bucket:ctx.set.head

  let size ctx = List.length (to_list ctx)

  (* Run the scheme's per-operation bookkeeping (quiescence announcement,
     epoch advance, scan triggers) without performing an operation.
     Composite services whose workers touch several structures at very
     different rates call this on the idle ones so that epoch-based
     schemes never see a registered-but-silent process (which would block
     reclamation exactly like a stalled thread). *)
  let heartbeat ctx = D.manage_state ctx.smr

  let unregister ctx = D.unregister ctx.smr

  let flush ctx = D.flush ctx.smr

  let report t = D.report t.dom
  let retired_count t = D.retired_count t.dom
  let violations t = D.violations t.dom
  let outstanding t = D.outstanding t.dom
  let nodes_per_key = 1
end
