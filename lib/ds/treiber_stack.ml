(* Treiber's lock-free stack with QSense-style reclamation — the worked
   example of applying the paper's three-rule methodology to a brand-new
   data structure (see examples/custom_structure.ml):

   1. call [manage_state] between operations (here: at the top of
      push/pop);
   2. protect the node about to be dereferenced with [assign_hp] and
      re-validate that it is still the top (Condition 1);
   3. call [retire] instead of [free] when a node is unlinked.

   Classic Treiber with free() suffers from ABA: a popped-and-recycled node
   can reappear as top and a stale CAS succeeds. Here that cannot happen
   for two independent reasons: links are unique [Ptr] objects compared
   physically, and the SMR scheme keeps a node from being recycled while
   any process still holds a protected reference to it. *)

module Make (R : Qs_intf.Runtime_intf.RUNTIME) = struct
  type node = {
    uid : int; (* stable identity for the SMR membership set *)
    mutable value : int;
    mutable next : link; (* written only before the node is published *)
    mutable free : bool; (* the arena's Free bit *)
  }

  and link = Null | Ptr of node

  let uid_counter = Atomic.make 0
  let fresh_uid () = Atomic.fetch_and_add uid_counter 1

  let make_node () = { uid = fresh_uid (); value = 0; next = Null; free = false }

  module D = Smr_domain.Make (R) (struct
    type t = node

    let create = make_node

    let is_free n = n.free
    let set_free n b = n.free <- b
    let id n = n.uid
  end)

  type t = { top : link R.atomic; dom : D.t }
  type ctx = { stack : t; smr : D.ctx }

  let hp_per_process = 1

  let create (cfg : Set_intf.config) =
    let dummy = make_node () in
    let dom = D.create cfg ~hp_per_process ~removes_per_op_max:1 ~dummy in
    { top = R.atomic Null; dom }

  let register t ~pid = { stack = t; smr = D.register t.dom ~pid }
  (* the oracle, pre-filtered on [Free] (see {!Smr_domain.Make.touch}) *)
  let touch ctx n = if n.free then D.touch ctx.smr n

  let push ctx value =
    D.manage_state ctx.smr;
    let n = D.alloc ctx.smr in
    n.value <- value;
    (* [published] flips (meta-level, no effect in between) right after the
       publishing CAS wins, so a neutralization signal aborting this
       operation returns the still-private node to the arena. *)
    let published = ref false in
    let rec attempt () =
      let old = R.get ctx.stack.top in
      n.next <- old;
      if R.cas ctx.stack.top old (Ptr n) then published := true
      else attempt ()
    in
    (try attempt ()
     with Qs_intf.Runtime_intf.Neutralized as e ->
       if not !published then D.free ctx.smr n;
       raise e);
    (* end-of-operation hook: drops protections / unpins epoch schemes *)
    D.clear_hps ctx.smr

  let pop ctx =
    D.manage_state ctx.smr;
    let rec attempt () =
      match R.get ctx.stack.top with
      | Null ->
        D.clear_hps ctx.smr;
        None
      | Ptr n as old ->
        D.assign_hp ctx.smr ~slot:0 n;
        (* re-validate: n is still the top, hence not yet retired *)
        if R.get ctx.stack.top != old then attempt ()
        else begin
          touch ctx n;
          let next = n.next in
          touch ctx n;
          if R.cas ctx.stack.top old next then begin
            let v = n.value in
            D.retire ctx.smr n;
            D.clear_hps ctx.smr;
            Some v
          end
          else attempt ()
        end
    in
    attempt ()

  (* Sequential-context helpers. *)

  let to_list ctx =
    let rec go acc = function
      | Null -> List.rev acc
      | Ptr n -> go (n.value :: acc) n.next
    in
    go [] (R.get ctx.stack.top)

  let length ctx = List.length (to_list ctx)
  let unregister ctx = D.unregister ctx.smr

  let flush ctx = D.flush ctx.smr

  let report t = D.report t.dom
  let violations t = D.violations t.dom
  let outstanding t = D.outstanding t.dom
end
