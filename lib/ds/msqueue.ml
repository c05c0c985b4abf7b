(* Michael & Scott's lock-free FIFO queue with pluggable reclamation — the
   flagship example of Michael's original hazard-pointer paper, included to
   show the methodology on a second non-set shape (K = 2 hazard pointers:
   slot 0 = head node, slot 1 = next/tail node).

   [head] points to a dummy node; the dummy's successor holds the front
   value. A dequeue swings [head] to the successor and retires the old
   dummy (the dequeued node becomes the new dummy). The queue anchors
   ([head]/[tail]) hold freshly allocated [Ptr] objects, so anchor CASes
   compare physical identity of the link value and cannot ABA even when
   nodes are recycled; the CAS on a node's [next] (Null -> Ptr) is protected
   by the hazard pointer on its owner. *)

module Make (R : Qs_intf.Runtime_intf.RUNTIME) = struct
  type node = {
    uid : int; (* stable identity for the SMR membership set *)
    mutable value : int;
    next : link R.atomic;
    mutable free : bool; (* the arena's Free bit *)
  }

  and link = Null | Ptr of node

  let uid_counter = Atomic.make 0
  let fresh_uid () = Atomic.fetch_and_add uid_counter 1

  let make_node () =
    { uid = fresh_uid (); value = 0; next = R.atomic Null; free = false }

  module D = Smr_domain.Make (R) (struct
    type t = node

    let create = make_node

    let is_free n = n.free
    let set_free n b = n.free <- b
    let id n = n.uid
  end)

  type t = {
    head : link R.atomic; (* always Ptr dummy *)
    tail : link R.atomic;
    dom : D.t;
  }

  type ctx = { queue : t; smr : D.ctx }

  let hp_per_process = 2

  let dest = function Ptr n -> n | Null -> assert false

  let create (cfg : Set_intf.config) =
    (* never retired; fills unused hazard-pointer slots *)
    let sentinel = make_node () in
    let dom =
      D.create cfg ~hp_per_process ~removes_per_op_max:1 ~dummy:sentinel
    in
    (* The initial dummy is arena-allocated: the first dequeue retires it,
       and the books must balance. *)
    let dummy = D.alloc_initial dom in
    { head = R.atomic (Ptr dummy); tail = R.atomic (Ptr dummy); dom }

  let register t ~pid = { queue = t; smr = D.register t.dom ~pid }
  (* the oracle, pre-filtered on [Free] (see {!Smr_domain.Make.touch}) *)
  let touch ctx n = if n.free then D.touch ctx.smr n

  let enqueue ctx value =
    D.manage_state ctx.smr;
    let t = ctx.queue in
    let n = D.alloc ctx.smr in
    n.value <- value;
    (* [published] flips (meta-level, no effect in between) right after the
       linking CAS wins, so a neutralization signal aborting this operation
       returns the still-private node to the arena instead of leaking it. *)
    let published = ref false in
    let rec attempt () =
      let tail_link = R.get t.tail in
      let tl = dest tail_link in
      D.assign_hp ctx.smr ~slot:1 tl;
      if R.get t.tail != tail_link then attempt ()
      else begin
        touch ctx tl;
        match R.get tl.next with
        | Null ->
          if R.cas tl.next Null (Ptr n) then begin
            published := true;
            (* swing the tail; helpers may already have done it *)
            ignore (R.cas t.tail tail_link (Ptr n))
          end
          else attempt ()
        | Ptr successor ->
          (* tail is lagging: help it forward and retry *)
          ignore (R.cas t.tail tail_link (Ptr successor));
          attempt ()
      end
    in
    (try R.set n.next Null; attempt ()
     with Qs_intf.Runtime_intf.Neutralized as e ->
       if not !published then D.free ctx.smr n;
       raise e);
    D.clear_hps ctx.smr

  let dequeue ctx =
    D.manage_state ctx.smr;
    let t = ctx.queue in
    let rec attempt () =
      let head_link = R.get t.head in
      let h = dest head_link in
      D.assign_hp ctx.smr ~slot:0 h;
      if R.get t.head != head_link then attempt ()
      else begin
        touch ctx h;
        let tail_link = R.get t.tail in
        let next_link = R.get h.next in
        touch ctx h;
        match next_link with
        | Null ->
          D.clear_hps ctx.smr;
          None
        | Ptr next ->
          D.assign_hp ctx.smr ~slot:1 next;
          if R.get t.head != head_link then attempt ()
          else if dest tail_link == h then begin
            (* non-empty but tail still points at the dummy: help *)
            ignore (R.cas t.tail tail_link (Ptr next));
            attempt ()
          end
          else begin
            touch ctx next;
            (* read the value before the swing publishes next as the new
               (retire-able) dummy *)
            let v = next.value in
            if R.cas t.head head_link (Ptr next) then begin
              D.retire ctx.smr h;
              D.clear_hps ctx.smr;
              Some v
            end
            else attempt ()
          end
      end
    in
    attempt ()

  (* Sequential-context helpers. *)

  let to_list ctx =
    let rec go acc n =
      match R.get n.next with Null -> List.rev acc | Ptr x -> go (x.value :: acc) x
    in
    go [] (dest (R.get ctx.queue.head))

  let length ctx = List.length (to_list ctx)
  let unregister ctx = D.unregister ctx.smr

  let flush ctx = D.flush ctx.smr

  let validate ctx =
    (* the tail anchor must point at the last node (or its predecessor,
       transiently — but not in a quiescent state) and the chain must be
       Null-terminated and acyclic *)
    let t = ctx.queue in
    let rec last n hops =
      if hops > 1_000_000 then failwith "msqueue: cycle suspected";
      match R.get n.next with Null -> n | Ptr x -> last x (hops + 1)
    in
    let final = last (dest (R.get t.head)) 0 in
    if dest (R.get t.tail) != final then
      failwith "msqueue: tail anchor is not the last node"

  let report t = D.report t.dom
  let violations t = D.violations t.dom
  let outstanding t = D.outstanding t.dom
end
