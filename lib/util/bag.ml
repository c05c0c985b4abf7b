(* DEBRA-style limbo bags: fixed-capacity blocks chained into a
   per-limbo-list deque (Brown, "Reclaiming Memory for Lock-Free Data
   Structures: There has to be a Better Way", PODC'15; Hyaline makes the
   same amortisation argument with reference batches).

   Element-wise limbo lists pay the epoch/age check and the arena free
   once per node on every scan. Bags amortise both: nodes are pushed, each
   with its retire timestamp, into a fixed-capacity open block; when the
   block fills it is {e sealed} — stamped once with the timestamp of its
   newest element — and appended to the deque's sealed chain. Because
   every process pushes with a monotone coarse clock, the sealed chain is
   ordered oldest→newest by stamp, so a reclamation walk checks ONE stamp
   per 64 nodes and stops at the first bag that is still too young:
   everything behind it is younger still. A reclaimable bag's nodes
   return to the arena in one bulk call, and the emptied block goes back
   to a per-process free-block cache, so steady-state retire/scan
   allocates nothing.

   This is the one limbo representation. Cadence and QSense push real
   retire timestamps (Algorithm 3's [timestamped_node], as a parallel
   [ts] array rather than a wrapper record). QSBR/EBR/DEBRA+ and classic
   HP never age-check nodes and push the constant stamp 0: the epoch
   schemes only [drain], and HP scans with an always-true [age_ok], which
   walks every sealed bag and filters the open block by [keep] alone.

   Single-owner: each deque belongs to one process; donation
   moves whole chains through {!splice_into} (pure pointer splicing — the
   orphan pool hands sealed bags over intact).

   Allocation discipline: the scan/drain loops below are written without
   inner closures and with refs that never escape, so the compiler's
   [eliminate_ref] pass keeps them off the heap even without flambda —
   the [Gc.minor_words] pins in the test suite assert exactly zero. *)

(* [stamp] is the seal-time timestamp of the block's newest node. The
   coarse clock is monotone per process, so [stamp] is also the block's
   maximum — [now - stamp >= T + eps] implies every node inside has aged
   out, which is what lets the scan walk check one stamp per block. *)
type 'a block = {
  data : 'a array;
  ts : int array;
  mutable len : int;
  mutable stamp : int;
  mutable next : 'a block;  (* physically [== nil] terminates a chain *)
}

(* Per-process block factory and recycling cache, shared by all the
   process's limbo deques (three epochs + adopted) so blocks circulate
   freely between them. The [nil] sentinel doubles as chain terminator and
   empty-cache marker; its [data] is empty so a push into a dead deque
   cannot silently corrupt anything. *)
type 'a source = {
  cap : int;
  dummy : 'a;
  nil : 'a block;
  mutable cache : 'a block;  (* chain of blanked spare blocks *)
}

let source ?(capacity = 64) dummy =
  let cap = max 1 capacity in
  let rec nil =
    { data = [||]; ts = [||]; len = 0; stamp = min_int; next = nil }
  in
  { cap; dummy; nil; cache = nil }

let capacity s = s.cap

let take_block s =
  if s.cache == s.nil then
    { data = Array.make s.cap s.dummy;
      ts = Array.make s.cap 0;
      len = 0;
      stamp = min_int;
      next = s.nil }
  else begin
    let b = s.cache in
    s.cache <- b.next;
    b.next <- s.nil;
    b
  end

(* Blank and return a block to the cache. Foreign blocks of a different
   capacity (possible after cross-source adoption under a reconfigured
   scheme) are dropped to the GC instead. *)
let recycle s b =
  if b != s.nil && Array.length b.data = s.cap then begin
    Array.fill b.data 0 b.len s.dummy;
    b.len <- 0;
    b.stamp <- min_int;
    b.next <- s.cache;
    s.cache <- b
  end

type 'a t = {
  src : 'a source;
  mutable head : 'a block;  (* oldest sealed block; [nil] if none *)
  mutable tail : 'a block;  (* newest sealed block; [nil] if none *)
  mutable cur : 'a block;  (* open block receiving pushes *)
  mutable sealed_len : int;
}

let create src =
  { src; head = src.nil; tail = src.nil; cur = take_block src; sealed_len = 0 }

let length t = t.sealed_len + t.cur.len

let append_sealed t b =
  b.next <- t.src.nil;
  if t.head == t.src.nil then begin
    t.head <- b;
    t.tail <- b
  end
  else begin
    t.tail.next <- b;
    t.tail <- b
  end;
  t.sealed_len <- t.sealed_len + b.len

(* Append [x] with retire timestamp [stamp]; seals the block when full,
   stamping it with its newest (= maximum, by clock monotonicity)
   timestamp. Returns the sealed bag's size, 0 if none sealed, so the
   caller can emit its seal event. *)
let push t x stamp =
  let c = t.cur in
  c.data.(c.len) <- x;
  c.ts.(c.len) <- stamp;
  c.len <- c.len + 1;
  if c.len = t.src.cap then begin
    c.stamp <- stamp;
    append_sealed t c;
    t.cur <- take_block t.src;
    c.len
  end
  else 0

let iter f t =
  let b = ref t.head in
  while !b != t.src.nil do
    let blk = !b in
    for i = 0 to blk.len - 1 do
      f blk.data.(i) blk.ts.(i)
    done;
    b := blk.next
  done;
  let c = t.cur in
  for i = 0 to c.len - 1 do
    f c.data.(i) c.ts.(i)
  done

(* Free everything (teardown / whole-epoch reclamation): each non-empty
   block is handed to [free_bag data ts count stamp] wholesale, then
   recycled — [count] nodes (prefix of [data], with retire timestamps in
   the [ts] prefix) leave limbo at once; [stamp] is the bag's seal stamp,
   so [now - stamp] is the bag's age (the youngest node's age — a lower
   bound for every node in the bag). The deque stays usable. *)
let drain t ~free_bag =
  let src = t.src in
  let nil = src.nil in
  let b = ref t.head in
  while !b != nil do
    let blk = !b in
    let nxt = blk.next in
    if blk.len > 0 then free_bag blk.data blk.ts blk.len blk.stamp;
    recycle src blk;
    b := nxt
  done;
  t.head <- nil;
  t.tail <- nil;
  t.sealed_len <- 0;
  let c = t.cur in
  if c.len > 0 then begin
    free_bag c.data c.ts c.len c.ts.(c.len - 1);
    Array.fill c.data 0 c.len src.dummy;
    c.len <- 0
  end

(* The oldest-first reclamation walk. Sealed blocks are visited in chain
   order (oldest stamp first, by monotone stamping); the walk stops at
   the first block whose stamp fails [age_ok] — every block behind it is
   younger. Within a visited block, nodes failing [keep] are compacted
   to the block's front and freed wholesale (the block is recycled right
   after, so the callback must not retain the array); [keep]-survivors
   (hazard-protected nodes — already age-expired, since their bag was)
   are compacted into fresh blocks that are re-stamped conservatively
   with the maximum contributing seal stamp and prepended before the
   unwalked remainder, preserving the chain's oldest-first order.

   The still-open block is filtered per node (its nodes are the newest;
   a per-node check there makes limbo lists smaller than one block
   decide exactly as an element-wise filter): a node is dropped only if
   [age_ok] holds for its own timestamp AND [keep] rejects it. Dropped
   open-block nodes are staged in a scratch block so they also reach the
   arena through one bulk call.

   Chains spliced from another process (adoption) may break stamp
   monotonicity at the seam; the walk then merely stops early — a
   reclamation delay of at most one scan per seam, never a safety
   issue. *)
let scan t ~age_ok ~keep ~free_bag =
  let src = t.src in
  let nil = src.nil in
  (* Survivor chain under construction: head/tail plus an open block. The
     refs below never escape into closures, keeping the loop heap-free. *)
  let sh = ref nil in
  let st = ref nil in
  let sc = ref nil in
  let sc_stamp = ref min_int in
  let survivors = ref 0 in
  let walked = ref 0 in
  let stop = ref false in
  let b = ref t.head in
  while (not !stop) && !b != nil do
    let blk = !b in
    if not (age_ok blk.stamp) then stop := true
    else begin
      let nxt = blk.next in
      walked := !walked + blk.len;
      let j = ref 0 in
      for i = 0 to blk.len - 1 do
        let x = blk.data.(i) in
        let s = blk.ts.(i) in
        if keep x then begin
          (if !sc == nil then begin
             sc := take_block src;
             sc_stamp := blk.stamp
           end);
          let sb = !sc in
          sb.data.(sb.len) <- x;
          sb.ts.(sb.len) <- s;
          sb.len <- sb.len + 1;
          (if blk.stamp > !sc_stamp then sc_stamp := blk.stamp);
          incr survivors;
          if sb.len = src.cap then begin
            sb.stamp <- !sc_stamp;
            sb.next <- nil;
            if !sh == nil then begin
              sh := sb;
              st := sb
            end
            else begin
              (!st).next <- sb;
              st := sb
            end;
            sc := nil
          end
        end
        else begin
          (* self-store guard: when nothing has been kept yet [j = i] and
             the write (a [caml_modify] barrier on a pointer array) is a
             no-op — skipping it makes the bulk-expiry walk store-free *)
          if !j < i then begin
            blk.data.(!j) <- x;
            blk.ts.(!j) <- s
          end;
          incr j
        end
      done;
      if !j > 0 then free_bag blk.data blk.ts !j blk.stamp;
      recycle src blk;
      b := nxt
    end
  done;
  (* Seal the partial survivor block, if any, onto the survivor chain. *)
  (if !sc != nil then begin
     let sb = !sc in
     sb.stamp <- !sc_stamp;
     sb.next <- nil;
     if !sh == nil then begin
       sh := sb;
       st := sb
     end
     else begin
       (!st).next <- sb;
       st := sb
     end
   end);
  let rest = !b in
  (if !sh != nil then begin
     (!st).next <- rest;
     t.head <- !sh;
     if rest == nil then t.tail <- !st
   end
   else begin
     t.head <- rest;
     if rest == nil then t.tail <- nil
   end);
  t.sealed_len <- t.sealed_len - !walked + !survivors;
  let c = t.cur in
  if c.len > 0 then begin
    let scratch = ref nil in
    let scratch_stamp = ref min_int in
    let j = ref 0 in
    for i = 0 to c.len - 1 do
      let x = c.data.(i) in
      let s = c.ts.(i) in
      if age_ok s && not (keep x) then begin
        (if !scratch == nil then scratch := take_block src);
        let sb = !scratch in
        sb.data.(sb.len) <- x;
        sb.ts.(sb.len) <- s;
        sb.len <- sb.len + 1;
        if s > !scratch_stamp then scratch_stamp := s
      end
      else begin
        if !j < i then begin
          c.data.(!j) <- x;
          c.ts.(!j) <- s
        end;
        incr j
      end
    done;
    if !j < c.len then begin
      for i = !j to c.len - 1 do
        c.data.(i) <- src.dummy
      done;
      c.len <- !j
    end;
    let sb = !scratch in
    if sb != nil then begin
      free_bag sb.data sb.ts sb.len !scratch_stamp;
      recycle src sb
    end
  end

(* Donate [src]'s whole contents to [dst]: seal the open block (if
   non-empty, stamped with its newest timestamp) and splice the sealed
   chain onto [dst]'s tail — pure pointer operations, the bags travel
   intact. [src] is left empty but alive (it draws a fresh open block from
   its own cache): a racing owner that still pushes into it merely
   strands that node in an unreferenced block. *)
let splice_into ~src ~dst =
  if src.cur.len > 0 then begin
    src.cur.stamp <- src.cur.ts.(src.cur.len - 1);
    append_sealed src src.cur;
    src.cur <- take_block src.src
  end;
  if src.head != src.src.nil then begin
    src.tail.next <- dst.src.nil;
    if dst.head == dst.src.nil then begin
      dst.head <- src.head;
      dst.tail <- src.tail
    end
    else begin
      dst.tail.next <- src.head;
      dst.tail <- src.tail
    end;
    dst.sealed_len <- dst.sealed_len + src.sealed_len;
    src.head <- src.src.nil;
    src.tail <- src.src.nil;
    src.sealed_len <- 0
  end

(* Three limbo lists indexed by epoch mod 3, the shape QSBR/EBR/DEBRA+
   and QSense's fast path share. *)
module Triple = struct
  type nonrec 'a t = 'a t array

  let create src = [| create src; create src; create src |]
  let total a = length a.(0) + length a.(1) + length a.(2)
end
