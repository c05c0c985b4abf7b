(* Lock-free skip-list set (Fraser-style, as in ASCYLIB, which the paper
   uses; the paper notes it needs up to 35 hazard pointers per process —
   two per level plus one, which is what this implementation uses).

   Structure: full-height head/tail sentinels; each node owns one atomic
   array of per-level links ([R.atomic_array]), which on real domains is a
   single block holding the links inline, as ASCYLIB's node holds its
   [next] array: a link read loads the element itself, with no per-level
   box to chase.
   Level-0 membership is authoritative.

   Towers: a node's array holds [top + 1] links, sized to its own height
   as ASCYLIB sizes each node to its level. The arena creates a node with
   no tower ([top = -1] and one shared empty array, never indexed); the
   first insert that takes it draws its height from [ctx.prng] and
   allocates its array. A recycled node keeps both, so its insert draws no
   level and allocates nothing. Three facts keep this sound:
   - every read of [n.next] at level [l] happens where [n] is, or was,
     linked at [l] (a traversal reached [n] through a level-[l] link), or
     is an update's access to its own node at [l <= n.top]. The array
     never changes after the node's first use, so even a stale reference
     to a node freed and recycled since reads in bounds;
   - live heights stay i.i.d. geometric: a fresh node's height is a fresh
     draw, and which nodes are freed, hence recycled, depends on keys,
     never on heights;
   - [next] is set once, before the node's first bottom CAS, which
     publishes it as it publishes [key]: on x86-TSO the CAS orders the
     store before the link that makes the node reachable, and a reader
     loads [next] after that link, with nothing more needed (the same
     caveat as [R.aget], a plain load on real domains).

   Traversal: [find ctx key] walks every level from the top and stops, per
   level, at the first node with key >= [key], snipping every marked node
   it meets before that and restarting from the head when a snip or a
   validation fails. At level 0 the pass reads the stop's own link, snips
   the stop if that link is marked and goes on: [found], the insert's
   bottom CAS and the range count need an unmarked [succs.(0)]. Above level
   0 it reads no link of its stop, which may therefore be marked there.
   A read would only report the mark as of the read, and a mark can land
   just after it, so every user of an upper stop already handles a marked
   one (the [link_upper] and [unlink_fast] CAS sites below); skipping it
   saves one link read per level. A completed pass therefore left no
   marked node standing between the head and its stop at any level, and
   an unmarked stop at level 0.

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
     Its key is >= [key], so above level 0 the pass stops at it again with
     no read at all; at level 0 its link is read, for the mark.
   Descending, [pred] is not published again: it stays in the slot of the
   level where it was reached. A level's slots are written only while
   walking that level, so protection is continuous (Condition 1), and
   after a completed pass every [preds.(l)] and [succs.(l)] is the tail or
   held by a slot of a level >= l — what the fast unlink and the
   inserter's upper links rely on. The pass records [succ_slot], the
   level-0 slot [succs.(0)] went into or, when it was not published
   there, would have gone into, so that the pass can go on from that stop
   (below). The last slot is the inserter's own node. The traversals are
   top-level recursions over [ctx], so a search or a range count
   allocates nothing.

   Range counts: [range_count ~lo ~hi] is [find] for [lo] continued. The
   same pass goes on at level 0 from [succs.(0)] (witness [succs.(0)],
   predecessor [preds.(0)], slot [succ_slot]) toward [hi + 1], or
   [max_int] when [hi] is, and returns the number of nodes it moved past:
   the keys in [lo, hi]. So the count takes the one step
   every pass takes and never leaves a node by a marked link (Brown,
   arXiv:1712.01044). A marked link is frozen, so a validation re-read
   of it always passes, yet once its node is snipped the successor can be
   unlinked, retired and freed behind it; the step reads each node's link
   for the mark before moving on and snips a marked node in place. A
   failed snip or validation restarts the count from [lo] at 0. When
   [succs.(0)] is the tail, the count is 0 and the tail's link is not read.

   Canonical links: a link value depends only on (dest, mark), not on the
   level. An unmarked link is the successor node itself, and a marked link
   is the node's one mark box, [mlink], built once when the node is
   created and shared by all its levels (as in {!Linked_list}: a link is
   a [cell] behind an unboxed constructor, so following an unmarked link
   is one load). Only a node's first insert allocates. CAS compares
   physical identity, which here means comparing (dest, mark), so a link
   value can leave a cell and come back; ABA safety rests on reclamation,
   as in the paper's C code: a node held by a hazard pointer (or inside
   the epoch that reached it) is never recycled. Since every unmarked link
   in a cell is physically its dest, no witness is stored: a pass leaves
   [preds] and [succs], and each CAS names its witness by a node. Per CAS
   site, writing [x.next[l]] for element [l] of [x]'s link array:
   - [visit]'s snip, [pred.next[l]]: [curr] -> [succ]. [curr] is held:
     published at [l] and validated, or [succs.(1)] at level 0 (above
     it, [succs.(l + 1)] is a stop, never snipped). A
     witness that still holds means [curr] is still [pred]'s unmarked
     successor (again, perhaps, after a node was inserted in front of it
     and deleted: the same state). [succ] is [curr]'s frozen successor at
     [l] — a marked link is never CASed — so it stays linked at [l] as
     long as [curr] is.
   - insert's bottom CAS, [preds.(0).next[0]]: [succs.(0)] -> [n].
     [succs.(0)] is the tail or held.
   - [link_upper]'s CAS on [n.next[l]]: cur -> [succs.(l)]. [n] is
     in the inserter's own slot. [cur]'s dest (a stale successor) is
     unprotected, but no ABA is possible: [n] is not linked at [l] yet, so
     only a deleter's mark can move the cell, and a mark is never undone.
     When [cur] already is the witness (the bottom CAS's preparation set
     it, and no retry has moved [succs.(l)]), the CAS is skipped. A
     deleter's mark that lands between the read and the predecessor CAS
     then leaves [n] linked at [l] behind a marked link. A CAS on
     [n.next[l]] reaches the same state when the mark lands just after
     it, so the inserter's argument above covers both: the level-0
     re-read after the link sees the mark and runs the [key + 1] pass
     itself, or the link was made before the level-0 mark and is undone
     by the owning deleter.
   - [link_upper]'s CAS on [preds.(l).next[l]]: [succs.(l)] -> [n].
     [succs.(l)] is held by a slot of a level >= [l]. It may be
     marked at [l] (the pass reads no upper stop's link), the state a mark
     landing just after a read of that link leaves too. A witness that
     holds means [succs.(l)] is still linked behind [preds.(l)] at [l], so
     the CAS links [n] in front of a node that is being deleted. Its owner
     unlinks it from behind [n] all the same: by the fast unlink when the
     owner's pass ran after this CAS, else by the [key + 1] pass that the
     moved witness sends it to.
   - [mark], [n.next[l]]: [dest] -> [dest.mlink]. [n] is [succs.(0)],
     held; [dest] is unprotected and may be recycled and relinked behind
     [n] between the read and the CAS. That ABA is benign: the CAS writes
     the marked form of exactly the link it found, so it sets the mark and
     keeps whatever successor is there now.
   - [unlink_fast], [preds.(l).next[l]]: [n] -> [dest], where
     [linked_everywhere] has checked [succs.(l) == n]. [n] is held, and
     [preds.(l)] at a slot of a level >= [l]; [dest] is
     the successor frozen by the mark. A witness that holds means [n] is
     still linked behind [preds.(l)] at [l], whatever was linked and
     unlinked in between. Above level 0 the positioning pass may have
     stopped at [n] after a losing deleter had marked it there (the pass
     reads no upper stop's link), so the fast path can run where a read
     would have snipped [n] first. The argument does not depend on when
     the mark landed, so that is the same case as a mark landing after
     the pass went by.
   No site is left with an unprotected witness that is not benign, so no
   site builds a fresh mark box. The validation reads compare the same
   way: an equal re-read means the published node is linked there now,
   hence not yet retired. [validate] checks that every marked link is its
   dest's [mlink] and that no node is linked above its [top]. *)

module Make (R : Qs_intf.Runtime_intf.RUNTIME) = struct
  let max_level = 15 (* enough for the paper's 20k-element skip list *)

  type _ cell =
    | Null : [ `Null ] cell
    | Node : {
        uid : int; (* stable identity for the SMR membership set *)
        mutable key : int;
        mutable top : int; (* index of its highest level; -1: none yet *)
        mutable next : link R.atomic_array;
            (* per-level links, [top + 1] of them; set once (see the header) *)
        mlink : [ `Mark ] cell; (* [Mark self], every level *)
        mutable free : bool; (* the arena's Free bit *)
      }
        -> [ `Node ] cell
    | Mark : [ `Node ] cell -> [ `Mark ] cell

  (* [L Null], [L n] (unmarked: the node [n] itself) or [L n.mlink]
     (marked); unboxed, so a link is its cell (see the header) *)
  and link = L : _ cell -> link [@@unboxed]

  type node = [ `Node ] cell

  let uid_counter = Atomic.make 0
  let fresh_uid () = Atomic.fetch_and_add uid_counter 1

  (* A node with its mark box (see the header). *)
  let make_node ~key ~top ~next : node =
    let uid = fresh_uid () in
    let rec n = Node { uid; key; top; next; mlink = Mark n; free = false } in
    n

  let uid (Node n : node) = n.uid
  let key (Node n : node) = n.key
  let top (Node n : node) = n.top
  let next (Node n : node) = n.next
  let mlink (Node n : node) = L n.mlink

  let null_links n = R.atomic_array n (fun _ -> L Null)

  (* the tower of a node that has none yet: shared, never indexed *)
  let no_links = null_links 0

  module D = Smr_domain.Make (R) (struct
    type t = node

    (* Towerless: its first insert gives it a height (see the header). *)
    let create () = make_node ~key:0 ~top:(-1) ~next:no_links

    let is_free (Node n : node) = n.free
    let set_free (Node n : node) b = n.free <- b
    let id (Node n : node) = n.uid
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
    let tail =
      make_node ~key:max_int ~top:max_level ~next:(null_links (max_level + 1))
    in
    let head =
      make_node ~key:min_int ~top:max_level
        ~next:(R.atomic_array (max_level + 1) (fun _ -> L tail))
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
  let touch ctx (Node n as node : node) = if n.free then D.touch ctx.smr node

  let rec random_level prng lvl =
    if lvl < max_level && Qs_util.Prng.bool prng then random_level prng (lvl + 1)
    else lvl

  let is_marked n =
    match R.aget (next n) 0 with
    | L (Mark _) -> true
    | L Null | L (Node _) -> false

  (* The pass of [find] from [pred] at [level] down to level 0: fills
     ctx.preds/succs/succ_slot and returns [count] plus the number of nodes
     it moved past, or -1 when the pass must restart from the head (a
     predecessor being removed, a failed validation or snip). [slot] is a
     slot of [level] that [curr] may go into; [pred] is held by the other
     one, by a slot of a higher level, or is the head. [level_walk] reads
     [pred]'s link; [step] takes it already read, as the link of the node
     the walk just left. A range count runs the same pass on from its
     level-0 stop (see the header). *)
  let rec level_walk ctx key pred slot level count =
    let pred_link = R.aget (next pred) level in
    touch ctx pred;
    match pred_link with
    | L Null | L (Mark _) -> -1
    | L (Node _ as curr) -> step ctx key pred pred_link curr slot level count

  and step ctx key pred pred_link curr slot level count =
    if curr == ctx.set.tail then stop ctx key pred curr slot level count
    else if level < max_level && curr == ctx.succs.(level + 1) then
      (* held by a slot of the level above since this pass stopped there *)
      visit ctx key pred pred_link curr slot level count
    else begin
      D.assign_hp ctx.smr ~slot curr;
      if R.aget (next pred) level != pred_link then -1
      else begin
        touch ctx curr;
        visit ctx key pred pred_link curr slot level count
      end
    end

  (* [curr] is protected: above level 0, a stop needs no link read (see the
     header); otherwise read its link for the mark, then snip it, move on
     to it, or stop at it. *)
  and visit ctx key pred pred_link (Node c as curr : node) slot level count =
    if level > 0 && c.key >= key then stop ctx key pred curr slot level count
    else begin
      let curr_link = R.aget c.next level in
      touch ctx curr;
      match curr_link with
      | L (Mark succ) ->
        (* snip the marked node out of this level *)
        if R.acas (next pred) level pred_link (L succ) then
          level_walk ctx key pred slot level count
        else -1
      | L (Node _ as succ) when c.key < key ->
        step ctx key curr curr_link succ (slot lxor 1) level (count + 1)
      | L Null when c.key < key -> -1
      | L Null | L (Node _) -> stop ctx key pred curr slot level count
    end

  (* Record [level]'s stop and descend; [pred] keeps the slot it is in.
     A store is skipped when the stop is already recorded: each is a GC
     write barrier, and on the upper levels, where the head and the tail
     are the stop of most passes, the stops rarely change. *)
  and stop ctx key pred curr slot level count =
    if ctx.preds.(level) != pred then ctx.preds.(level) <- pred;
    if ctx.succs.(level) != curr then ctx.succs.(level) <- curr;
    if level = 0 then begin
      ctx.succ_slot <- slot;
      count
    end
    else level_walk ctx key pred ((2 * level) - 1) (level - 1) count

  (* One full traversal pass (see the header), retried until complete. *)
  let rec find ctx key =
    if level_walk ctx key ctx.set.head ((2 * max_level) + 1) max_level 0 < 0
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

  let found ctx k = key ctx.succs.(0) = k

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
  let rec link_upper ctx key (Node m as n : node) level =
    if level <= m.top then begin
      let cur = R.aget m.next level in
      match cur with
      | L (Mark _) -> () (* being deleted: stop linking *)
      | L Null | L (Node _) ->
        let succ_link = L ctx.succs.(level) in
        if cur == succ_link || R.acas m.next level cur succ_link then
          if R.acas (next ctx.preds.(level)) level succ_link (L n) then
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
        let (Node m as n) = D.alloc ctx.smr in
        m.key <- key;
        if m.top < 0 then begin
          (* first use: draw the height, build the tower *)
          m.top <- random_level ctx.prng 0;
          m.next <- null_links (m.top + 1)
        end;
        ctx.fresh <- n;
        (* protected before the bottom CAS publishes it *)
        D.assign_hp ctx.smr ~slot:own_slot n
      end;
      let (Node m as n) = ctx.fresh in
      (* prepare all levels before the bottom CAS publishes the node *)
      for i = 0 to m.top do
        R.aset m.next i (L ctx.succs.(i))
      done;
      if R.acas (next ctx.preds.(0)) 0 (L ctx.succs.(0)) (L n) then begin
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
    match R.aget (next n) level with
    | L (Node _ as dest) as l ->
      R.acas (next n) level l (mlink dest) || mark n level
    | L Null | L (Mark _) -> false

  let rec linked_everywhere ctx n level =
    level < 0 || (ctx.succs.(level) == n && linked_everywhere ctx n (level - 1))

  (* The fast unlink (see the header): false at the first moved witness. *)
  let rec unlink_fast ctx n level =
    level < 0
    ||
    match R.aget (next n) level with
    | L (Mark dest) ->
      R.acas (next ctx.preds.(level)) level (L n) (L dest)
      && unlink_fast ctx n (level - 1)
    | L Null | L (Node _) -> false

  let rec delete_attempt ctx key =
    find ctx key;
    if not (found ctx key) then begin
      D.clear_hps ctx.smr;
      false
    end
    else begin
      let (Node m as n) = ctx.succs.(0) in
      for level = m.top downto 1 do
        ignore (mark n level)
      done;
      (* level 0 decides ownership; a loser retries to settle the outcome *)
      if not (mark n 0) then delete_attempt ctx key
      else begin
        (* past the point of no return: a neutralization signal must not
           leave the node linked or unretired *)
        (match
           if not (linked_everywhere ctx n m.top && unlink_fast ctx n m.top)
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

  (* [find] for [lo], then the same pass on at level 0 from its stop toward
     [target] (see the header), retried from [lo] at 0 until one completes. *)
  let rec count_attempt ctx lo target =
    find ctx lo;
    let first = ctx.succs.(0) in
    let count =
      if first == ctx.set.tail then 0
      else visit ctx target ctx.preds.(0) (L first) first ctx.succ_slot 0 0
    in
    if count < 0 then count_attempt ctx lo target else count

  (* The KV service's range scan. It holds hazard pointers far longer than
     a point operation: the pressure the service workload wants to put on
     reclamation. *)
  let range_count ctx ~lo ~hi =
    if hi < lo then invalid_arg "Skiplist.range_count: hi < lo";
    D.manage_state ctx.smr;
    let res = count_attempt ctx lo (if hi = max_int then hi else hi + 1) in
    D.clear_hps ctx.smr;
    res

  (* Sequential-context helpers. *)

  let nodes ctx =
    let t = ctx.set in
    let rec go acc n =
      match R.aget (next n) 0 with
      | L Null -> List.rev acc
      | L (Node _ as dest) -> past (if n == t.head then acc else n :: acc) dest
      | L (Mark dest) -> past acc dest
    and past acc dest = if dest == t.tail then List.rev acc else go acc dest in
    go [] t.head

  let to_list ctx = List.map key (nodes ctx)
  let size ctx = List.length (nodes ctx)

  (* Structural invariants (sequential context): every chain is strictly
     sorted; every unmarked node linked at an upper level is present
     (unmarked) in the level-0 chain; no node is linked above its [top];
     every marked link is canonical — physically its dest's [mlink] —
     which the CAS witnesses rely on. *)
  let validate ctx =
    let t = ctx.set in
    let level_nodes level =
      let rec go acc n =
        match R.aget (next n) level with
        | L Null -> List.rev acc
        | L (Node _ as dest) ->
          past (if n == t.head then acc else n :: acc) dest
        | L (Mark dest as l) ->
          if L l != mlink dest then
            failwith
              (Printf.sprintf "skiplist: link at level %d is not canonical"
                 level);
          past acc dest
      and past acc dest =
        if top dest < level then
          failwith
            (Printf.sprintf "skiplist: node %d at level %d above its top %d"
               (key dest) level (top dest));
        if dest == t.tail then List.rev acc else go acc dest
      in
      go [] t.head
    in
    let check_sorted level nodes =
      let rec go last = function
        | [] -> ()
        | n :: rest ->
          if key n <= last then
            failwith (Printf.sprintf "skiplist: level %d not sorted" level);
          go (key n) rest
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
                 (key n) level))
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
