(* Lock-free skip-list set (Fraser-style, as in ASCYLIB, which the paper
   uses; the paper notes it needs up to 35 hazard pointers per process —
   two per level plus one, which is what this implementation uses).

   Structure: full-height head/tail sentinels; each node owns one atomic
   array of per-level links ([R.atomic_array]), which on real domains is a
   single block holding the links inline, as ASCYLIB's node holds its
   [next] array: a link read loads the element itself, with no per-level
   box to chase.
   Level-0 membership is authoritative.

   Traversal: [find ctx key] walks every level from the top and stops, per
   level, at the first node with key >= [key] whose own link there is
   unmarked, snipping every marked node it meets and restarting from the
   head when a snip or a validation fails. A completed pass therefore left
   no marked node standing between the head and its stop at any level.

   Deletion: mark the victim's links from its top level down to level 0;
   the process that wins the level-0 mark owns the removal and makes the
   node unreachable in one of two ways, then retires it (rule 3):
   - fast: when the positioning pass met the node at every one of its
     levels (its inserter had finished linking), swing each level's
     predecessor past it, top down, with a CAS whose witness is that
     pass's link. Every predecessor is still protected by a slot of its
     level or a higher one (below), and a witness can only still hold if
     nothing was linked in between.
   - otherwise, or at the first witness that moved: one [find] pass for
     [key + 1]. Stopping past [key] rather than at it matters: an insert
     of the same key may have stacked a new node in front of the victim at
     an upper level (its positioning pass ran before the victim's link
     there was marked), and a pass for [key] would stop at the newcomer and
     never see the victim behind it. Since the victim's links are all
     marked, the pass snips it wherever it is linked, so one pass is
     enough.

   The inserter: links are set bottom-up, so an insert still linking can
   link its node at an upper level after the deleter's pass went by. The
   inserter therefore publishes its own node in one extra hazard-pointer
   slot before the bottom CAS makes it reachable (it cannot be freed and
   recycled mid-link), re-reads the node's level-0 link after every upper
   link, and, if it is marked, runs the same [key + 1] pass itself before
   returning: every link made after the deleter's pass is undone by the
   inserter's own pass.

   Hazard-pointer discipline: level l owns slots [2*l] and [2*l + 1], and
   a step publishes at most once. [curr] goes into the slot of the level
   that does not hold [pred] and is validated by re-reading [pred]'s link;
   moving on, [curr] becomes the next [pred], already protected, and the
   link just read from it is the next step's [pred] link, not read again:
   the validation re-read after the next publish guards it. After a snip,
   [pred]'s link is read afresh. Two nodes are neither published nor validated:
   - the tail, which is never retired. Its link is not read either;
   - [succs.(l + 1)] met again at level l, which a slot of a higher level
     has held since this pass stopped there. A pass only descends through
     its own stop, so [succs.(l + 1)] always comes from the current pass.
     Its link is still read, for the mark.
   Descending, [pred] is not published again: it stays in the slot of the
   level where it was reached. A level's slots are written only while
   walking that level, so protection is continuous (Condition 1), and
   after a completed pass every [preds.(l)] and [succs.(l)] is the tail or
   held by a slot of a level >= l — what the fast unlink and the
   inserter's upper links rely on. The pass records [succ_slot], the
   level-0 slot [succs.(0)] went into or, when it was not published
   there, would have gone into; a range count publishes the next node
   into the other level-0 slot, which then holds nothing it needs. The
   last slot is the inserter's own node. The traversals are top-level
   recursions over [ctx], so a search or a range count allocates nothing.

   Range counts walk level 0 from [succs.(0)] and never leave a node by a
   marked link (Brown, arXiv:1712.01044). A step publishes the successor
   and re-reads the node's link: an equal unmarked link means the node is
   still unmarked, hence still linked, with the successor linked behind
   it, hence not retired. A marked link is frozen, so its re-read always
   passes, yet once the node is snipped its successor can be unlinked,
   retired and freed behind it. At a marked link the count therefore runs
   [find] for the node's key, which snips it, and goes on from the new
   [succs.(0)] with the count it has: every key counted so far is below
   the node's and every key still to count is at or above it.

   Canonical links: a link value depends only on (dest, mark), not on the
   level, so each node carries its two link values, [ulink] and [mlink],
   built once when the node is created and shared by all its levels. No
   insert or delete allocates. CAS compares physical identity, which here
   means comparing (dest, mark), so a link value can leave a cell and come
   back; ABA safety rests on reclamation, as in the paper's C code: a node
   held by a hazard pointer (or inside the epoch that reached it) is never
   recycled. Since every unmarked link in a cell is physically its
   [dest.ulink], no witness is stored: a pass leaves [preds] and [succs],
   and each CAS names its witness by a [ulink]. Per CAS site, writing
   [x.next[l]] for element [l] of [x]'s link array:
   - [visit]'s snip, [pred.next[l]]: [curr.ulink] -> [succ.ulink].
     [curr] is held: published at [l] and validated, or [succs.(l + 1)]. A
     witness that still holds means [curr] is still [pred]'s unmarked
     successor (again, perhaps, after a node was inserted in front of it
     and deleted: the same state). [succ] is [curr]'s frozen successor at
     [l] — a marked link is never CASed — so it stays linked at [l] as
     long as [curr] is.
   - insert's bottom CAS, [preds.(0).next[0]]: [succs.(0).ulink] ->
     [n.ulink]. [succs.(0)] is the tail or held.
   - [link_upper]'s CAS on [n.next[l]]: cur -> [succs.(l).ulink]. [n] is
     in the inserter's own slot. [cur]'s dest (a stale successor) is
     unprotected, but no ABA is possible: [n] is not linked at [l] yet, so
     only a deleter's mark can move the cell, and a mark is never undone.
   - [link_upper]'s CAS on [preds.(l).next[l]]: [succs.(l).ulink] ->
     [n.ulink]. [succs.(l)] is held by a slot of a level >= [l].
   - [mark], [n.next[l]]: [dest.ulink] -> [dest.mlink]. [n] is
     [succs.(0)], held; [dest] is unprotected and may be
     recycled and relinked behind [n] between the read and the CAS. That
     ABA is benign: the CAS writes the marked form of exactly the link it
     found, so it sets the mark and keeps whatever successor is there now.
   - [unlink_fast], [preds.(l).next[l]]: [n.ulink] -> [dest.ulink], where
     [linked_everywhere] has checked [succs.(l) == n]. [n] is held, and
     [preds.(l)] at a slot of a level >= [l]; [dest] is
     the successor frozen by our mark. A witness that holds means [n] is
     still linked behind [preds.(l)] at [l], whatever was linked and
     unlinked in between.
   No site is left with an unprotected witness that is not benign, so no
   site builds a fresh link. The validation reads compare the same way:
   an equal re-read means the published node is linked there now, hence
   not yet retired. [validate] checks that every link is canonical. *)

module Make (R : Qs_intf.Runtime_intf.RUNTIME) = struct
  let max_level = 15 (* enough for the paper's 20k-element skip list *)

  type node = {
    uid : int; (* stable identity for the SMR membership set *)
    mutable key : int;
    mutable top : int; (* index of this node's highest level *)
    next : link R.atomic_array; (* per-level links; full height *)
    ulink : link; (* [Ptr {dest = self; marked = false}], every level *)
    mlink : link; (* [Ptr {dest = self; marked = true}] *)
    mutable free : bool; (* the arena's Free bit *)
  }

  and link = Null | Ptr of { dest : node; marked : bool }

  let uid_counter = Atomic.make 0
  let fresh_uid () = Atomic.fetch_and_add uid_counter 1

  (* A node with its two canonical links (see the header). *)
  let make_node ~key ~top ~next =
    let uid = fresh_uid () in
    let rec n =
      { uid;
        key;
        top;
        next;
        ulink = Ptr { dest = n; marked = false };
        mlink = Ptr { dest = n; marked = true };
        free = false }
    in
    n

  let null_links () = R.atomic_array (max_level + 1) (fun _ -> Null)

  module D = Smr_domain.Make (R) (struct
    type t = node

    (* Nodes are allocated at full height and reused at any level: a
       recycled node just uses a prefix of its link array. *)
    let create () = make_node ~key:0 ~top:0 ~next:(null_links ())

    let is_free n = n.free
    let set_free n b = n.free <- b
    let id n = n.uid
  end)

  type t = { head : node; tail : node; dom : D.t }

  type ctx = {
    set : t;
    smr : D.ctx;
    prng : Qs_util.Prng.t; (* for level selection *)
    preds : node array;
    succs : node array;
    mutable succ_slot : int;
        (* the level-0 slot [succs.(0)] went into, or would have *)
    mutable fresh : node;
        (* the insert's not-yet-published node; [set.tail] when none *)
  }

  (* slots [0, own_slot): two per level; [own_slot]: the inserter's node *)
  let own_slot = 2 * (max_level + 1)
  let hp_per_process = own_slot + 1

  let create (cfg : Set_intf.config) =
    let tail = make_node ~key:max_int ~top:max_level ~next:(null_links ()) in
    let head =
      make_node ~key:min_int ~top:max_level
        ~next:(R.atomic_array (max_level + 1) (fun _ -> tail.ulink))
    in
    { head;
      tail;
      dom = D.create cfg ~hp_per_process ~removes_per_op_max:1 ~dummy:tail }

  let register t ~pid =
    { set = t;
      smr = D.register t.dom ~pid;
      prng = Qs_util.Prng.create ~seed:(31 + (977 * pid));
      preds = Array.make (max_level + 1) t.head;
      succs = Array.make (max_level + 1) t.tail;
      succ_slot = 1;
      fresh = t.tail }

  (* the oracle, pre-filtered on [Free] (see {!Smr_domain.Make.touch}) *)
  let touch ctx n = if n.free then D.touch ctx.smr n

  let rec random_level prng lvl =
    if lvl < max_level && Qs_util.Prng.bool prng then random_level prng (lvl + 1)
    else lvl

  let is_marked n =
    match R.aget n.next 0 with Ptr { marked; _ } -> marked | Null -> false

  (* The pass of [find] from [pred] at [level] down to level 0: fills
     ctx.preds/succs/succ_slot and returns true, or returns false
     when the pass must restart from the head (a predecessor being removed,
     a failed validation or snip). [slot] is a slot of [level] that [curr]
     may go into; [pred] is held by the other one, by a slot of a higher
     level, or is the head. [level_walk] reads [pred]'s link; [step] takes
     it already read, as the link of the node the walk just left. *)
  let rec level_walk ctx key pred slot level =
    let pred_link = R.aget pred.next level in
    touch ctx pred;
    match pred_link with
    | Null | Ptr { marked = true; _ } -> false
    | Ptr { dest = curr; marked = false } ->
      step ctx key pred pred_link curr slot level

  and step ctx key pred pred_link curr slot level =
    if curr == ctx.set.tail then stop ctx key pred curr slot level
    else if level < max_level && curr == ctx.succs.(level + 1) then
      (* held by a slot of the level above since this pass stopped there *)
      visit ctx key pred pred_link curr slot level
    else begin
      D.assign_hp ctx.smr ~slot curr;
      R.aget pred.next level == pred_link
      && begin
        touch ctx curr;
        visit ctx key pred pred_link curr slot level
      end
    end

  (* [curr] is protected: read its link for the mark, then snip it, move
     on to it, or stop at it. *)
  and visit ctx key pred pred_link curr slot level =
    let curr_link = R.aget curr.next level in
    touch ctx curr;
    match curr_link with
    | Ptr { dest = succ; marked = true } ->
      (* snip the marked node out of this level *)
      R.acas pred.next level pred_link succ.ulink
      && level_walk ctx key pred slot level
    | Ptr { dest = succ; marked = false } when curr.key < key ->
      step ctx key curr curr_link succ (slot lxor 1) level
    | Null when curr.key < key -> false
    | Null | Ptr { marked = false; _ } -> stop ctx key pred curr slot level

  (* Record [level]'s stop and descend; [pred] keeps the slot it is in. *)
  and stop ctx key pred curr slot level =
    ctx.preds.(level) <- pred;
    ctx.succs.(level) <- curr;
    if level = 0 then begin
      ctx.succ_slot <- slot;
      true
    end
    else level_walk ctx key pred ((2 * level) - 1) (level - 1)

  (* One full traversal pass (see the header), retried until complete. *)
  let rec find ctx key =
    if not (level_walk ctx key ctx.set.head ((2 * max_level) + 1) max_level)
    then find ctx key

  (* Recovery after a neutralization signal aborted an update past its
     point of no return: re-pin, then the [key + 1] pass that unlinks every
     marked node holding [key] (see the header), until one completes. *)
  let rec sweep ctx key =
    match
      D.manage_state ctx.smr;
      find ctx (key + 1)
    with
    | () -> ()
    | exception Qs_intf.Runtime_intf.Neutralized -> sweep ctx key

  let found ctx key = ctx.succs.(0).key = key

  let search ctx key =
    D.manage_state ctx.smr;
    find ctx key;
    let res = found ctx key in
    D.clear_hps ctx.smr;
    res

  (* Link the new node at levels [level..top]; abandoned as soon as the node
     is observed marked (a concurrent delete owns it from then on). Only the
     inserter writes a node's upper links and only deleters mark them, so a
     failed CAS on [n.next] means "being deleted" — stop. A link that lands
     after the deleter's pass is undone here (see the header). *)
  let rec link_upper ctx key n level =
    if level <= n.top then begin
      let cur = R.aget n.next level in
      match cur with
      | Ptr { marked = true; _ } -> () (* being deleted: stop linking *)
      | Null | Ptr { marked = false; _ } ->
        let succ_link = ctx.succs.(level).ulink in
        if R.acas n.next level cur succ_link then
          if R.acas ctx.preds.(level).next level succ_link n.ulink then
            if is_marked n then find ctx (key + 1)
            else link_upper ctx key n (level + 1)
          else begin
            (* interference: recompute witnesses and retry this level,
               unless n was deleted in the meantime *)
            find ctx key;
            if not (is_marked n) then link_upper ctx key n level
          end
    end

  (* An insert's node that was never published goes straight back to the
     arena. *)
  let drop_fresh ctx =
    D.free ctx.smr ctx.fresh;
    ctx.fresh <- ctx.set.tail

  let rec insert_attempt ctx key =
    find ctx key;
    if found ctx key then begin
      if ctx.fresh != ctx.set.tail then drop_fresh ctx;
      D.clear_hps ctx.smr;
      false
    end
    else begin
      if ctx.fresh == ctx.set.tail then begin
        let n = D.alloc ctx.smr in
        n.key <- key;
        n.top <- random_level ctx.prng 0;
        ctx.fresh <- n;
        (* protected before the bottom CAS publishes it *)
        D.assign_hp ctx.smr ~slot:own_slot n
      end;
      let n = ctx.fresh in
      (* prepare all levels before the bottom CAS publishes the node *)
      for i = 0 to n.top do
        R.aset n.next i ctx.succs.(i).ulink
      done;
      if R.acas ctx.preds.(0).next 0 ctx.succs.(0).ulink n.ulink then begin
        ctx.fresh <- ctx.set.tail;
        link_upper ctx key n 1;
        D.clear_hps ctx.smr;
        true
      end
      else insert_attempt ctx key
    end

  (* The not-yet-published node lives in [ctx.fresh] (reset the moment the
     bottom-level CAS wins) so a neutralization signal aborting this
     operation returns it to the arena instead of leaking it; simulator
     delivery replaces a pending effect, so it cannot land between the CAS
     executing and the meta-level reset. Aborted after publication, the
     insert may have linked its node at an upper level behind a deleter's
     pass, so it sweeps the key before giving up. *)
  let insert ctx key =
    D.manage_state ctx.smr;
    match insert_attempt ctx key with
    | res -> res
    | exception (Qs_intf.Runtime_intf.Neutralized as e) ->
      if ctx.fresh != ctx.set.tail then drop_fresh ctx else sweep ctx key;
      raise e

  (* Mark [n]'s link at [level]; true when this call set the mark. *)
  let rec mark n level =
    match R.aget n.next level with
    | Ptr { dest; marked = false } as l ->
      R.acas n.next level l dest.mlink || mark n level
    | Null | Ptr { marked = true; _ } -> false

  let rec linked_everywhere ctx n level =
    level < 0 || (ctx.succs.(level) == n && linked_everywhere ctx n (level - 1))

  (* The fast unlink (see the header): false at the first moved witness. *)
  let rec unlink_fast ctx n level =
    level < 0
    ||
    match R.aget n.next level with
    | Ptr { dest; marked = true } ->
      R.acas ctx.preds.(level).next level n.ulink dest.ulink
      && unlink_fast ctx n (level - 1)
    | Null | Ptr { marked = false; _ } -> false

  let rec delete_attempt ctx key =
    find ctx key;
    if not (found ctx key) then begin
      D.clear_hps ctx.smr;
      false
    end
    else begin
      let n = ctx.succs.(0) in
      for level = n.top downto 1 do
        ignore (mark n level)
      done;
      (* level 0 decides ownership; a loser retries to settle the outcome *)
      if not (mark n 0) then delete_attempt ctx key
      else begin
        (* past the point of no return: a neutralization signal must not
           leave the node linked or unretired *)
        (match
           if not (linked_everywhere ctx n n.top && unlink_fast ctx n n.top)
           then find ctx (key + 1)
         with
        | () -> ()
        | exception Qs_intf.Runtime_intf.Neutralized -> sweep ctx key);
        D.retire ctx.smr n;
        D.clear_hps ctx.smr;
        true
      end
    end

  let delete ctx key =
    D.manage_state ctx.smr;
    delete_attempt ctx key

  (* Position at the first node with key >= [lo], then count from there:
     [count] plus the keys met in [lo, hi], or -1 when the scan must
     restart. The walk alternates the two level-0 slots (see the header);
     [node] is protected and [slot] is the slot its successor does not go
     into. *)
  let rec range_from ctx lo hi count =
    find ctx lo;
    range_walk ctx hi count ctx.succ_slot ctx.succs.(0)

  and range_walk ctx hi count slot node =
    if node == ctx.set.tail || node.key > hi then count
    else begin
      let link = R.aget node.next 0 in
      (* the read above is the access hazard: re-check the oracle *)
      touch ctx node;
      match link with
      | Null -> count
      | Ptr { marked = true; _ } ->
        (* [node] is being deleted: not counted, and not left by its
           frozen link (see the header) *)
        range_from ctx node.key hi count
      | Ptr { dest; marked = false } ->
        let slot' = 1 - slot in
        D.assign_hp ctx.smr ~slot:slot' dest;
        (* Validation read: if node's level-0 link changed, dest may already be
           snipped out (and, without protection, freed) — restart. *)
        if R.aget node.next 0 != link then -1
        else begin
          touch ctx dest;
          range_walk ctx hi (count + 1) slot' dest
        end
    end

  let rec range_scan ctx lo hi =
    let count = range_from ctx lo hi 0 in
    if count < 0 then range_scan ctx lo hi else count

  (* Count the keys present in [lo, hi] — the KV service's range scan.
     Positions with a full [find] pass (which leaves the first candidate
     protected at the level-0 slot [succ_slot]), then walks the
     authoritative level-0 chain, alternating the two bottom hazard-pointer
     slots between the node in hand and its successor: the successor is
     published, then the link is re-read to validate it still hangs off the
     protected node (Condition 1), and the whole scan restarts on
     interference. A marked node is not counted, and the scan re-positions
     past it with [find] (see the header). A scan pins nodes for the whole
     walk, so it holds hazard pointers far longer than a point operation —
     exactly the pressure the service workload wants to put on
     reclamation. *)
  let range_count ctx ~lo ~hi =
    if hi < lo then invalid_arg "Skiplist.range_count: hi < lo";
    D.manage_state ctx.smr;
    let res = range_scan ctx lo hi in
    D.clear_hps ctx.smr;
    res

  (* Sequential-context helpers. *)

  let to_list ctx =
    let t = ctx.set in
    let rec go acc n =
      match R.aget n.next 0 with
      | Null -> List.rev acc
      | Ptr { dest; marked } ->
        if dest == t.tail then List.rev acc
        else go (if marked then acc else dest.key :: acc) dest
    in
    go [] t.head

  let size ctx = List.length (to_list ctx)

  (* Structural invariants (sequential context): every chain is strictly
     sorted; every unmarked node linked at an upper level is present
     (unmarked) in the level-0 chain; every link is canonical — physically
     [dest.ulink] or [dest.mlink] — which the CAS witnesses rely on. *)
  let validate ctx =
    let t = ctx.set in
    let level_nodes level =
      let rec go acc n =
        match R.aget n.next level with
        | Null -> List.rev acc
        | Ptr { dest; marked } as l ->
          if l != (if marked then dest.mlink else dest.ulink) then
            failwith
              (Printf.sprintf "skiplist: link at level %d is not canonical"
                 level);
          if dest == t.tail then List.rev acc
          else go (if marked then acc else dest :: acc) dest
      in
      go [] t.head
    in
    let check_sorted level nodes =
      let rec go last = function
        | [] -> ()
        | n :: rest ->
          if n.key <= last then
            failwith (Printf.sprintf "skiplist: level %d not sorted" level);
          go n.key rest
      in
      go min_int nodes
    in
    let base = level_nodes 0 in
    check_sorted 0 base;
    for level = 1 to max_level do
      let nodes = level_nodes level in
      check_sorted level nodes;
      List.iter
        (fun n ->
          if not (List.memq n base) then
            failwith
              (Printf.sprintf "skiplist: node %d at level %d missing from level 0"
                 n.key level))
        nodes
    done

  (* See {!Linked_list.heartbeat}: scheme bookkeeping without an
     operation, so composite services keep idle instances' epochs moving. *)
  let heartbeat ctx = D.manage_state ctx.smr

  let unregister ctx = D.unregister ctx.smr

  let flush ctx = D.flush ctx.smr

  let report t = D.report t.dom
  let retired_count t = D.retired_count t.dom
  let violations t = D.violations t.dom
  let outstanding t = D.outstanding t.dom
  let nodes_per_key = 1
end
