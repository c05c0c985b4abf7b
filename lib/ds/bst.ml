(* Lock-free external binary search tree (Ellen et al.-style flag/mark
   cooperation; the paper evaluates an external BST with 6 hazard pointers
   per process — this implementation also uses K = 6).

   Shape: keys live in leaves; internal nodes are binary routers. Two
   sentinel keys INF1 < INF2 above every real key guarantee that every real
   leaf has an internal parent and grandparent.

   Coordination: each internal node carries an update word [upd]:
   - [Clean tok] — quiescent. Every completed operation installs a FRESH
     token, so update words are monotone: a CAS whose expected value is a
     stale witness can never succeed (this is Ellen's (state, info) pair).
   - [IFlag op] — an insert owns the node's child edge;
   - [DFlag op] — a delete owns the grandparent;
   - [Mark op] — final: the node is being removed.

   insert(k): find leaf l under parent p; IFlag p; splice a fresh internal
   (children: l and the new leaf); unflag.
   delete(k): find leaf l, parent p, grandparent gp; DFlag gp; Mark p;
   POISON p's child edges (set their marked bit); swing gp's edge to l's
   sibling; unflag gp. The winner of the DFlag CAS retires p and l (m = 2).
   Any process meeting a flag/mark helps it to completion first.

   Reclamation discipline (what this paper cares about):
   - links, update words and descriptors are heap objects CASed by physical
     identity — stale CASes fail, so there is no ABA anywhere;
   - traversals protect (gp, p, l) in rotating hazard slots 0-2 and
     re-validate the parent edge after each protection, restarting if the
     edge changed or is poisoned; edges are poisoned strictly before the
     removed nodes are retired, so a validated protection precedes the
     retire point (Condition 1);
   - a helper protects a descriptor's parent node in slot 3 and re-validates
     that the flag is still installed — a node cannot be retired while its
     removal descriptor is still pending. *)

module Make (R : Qs_intf.Runtime_intf.RUNTIME) = struct
  let inf1 = max_int - 1
  let inf2 = max_int
  let max_real_key = inf1 - 1

  type node = {
    uid : int; (* stable identity for the SMR membership set *)
    mutable key : int;
    mutable is_leaf : bool;
    left : link R.atomic;
    right : link R.atomic;
    upd : ustate R.atomic;
    mutable free : bool; (* the arena's Free bit *)
  }

  and link = Nil | Child of { dest : node; marked : bool }

  and ustate =
    | Clean of unit ref (* fresh token per completed operation *)
    | IFlag of iinfo
    | DFlag of dinfo
    | Mark of dinfo

  and iinfo = {
    ip : node;
    il_link : link; (* physical witness: ip's edge to the replaced leaf *)
    i_left_side : bool;
    new_internal : node;
    iflag : ustate; (* the unique [IFlag op] installed in ip.upd *)
  }

  and dinfo = {
    dgp : node;
    dp : node;
    dl : node;
    dpu : ustate; (* p's update witness from the search *)
    dp_link : link; (* physical witness: gp's edge to p *)
    d_left_side : bool; (* which gp edge leads to p *)
    dflag : ustate;
    dmark : ustate;
  }

  let clean () = Clean (ref ())

  let uid_counter = Atomic.make 0
  let fresh_uid () = Atomic.fetch_and_add uid_counter 1

  let mk_leaf key =
    { uid = fresh_uid ();
      key;
      is_leaf = true;
      left = R.atomic Nil;
      right = R.atomic Nil;
      upd = R.atomic (clean ());
      free = false }

  module D = Smr_domain.Make (R) (struct
    type t = node

    let create () = mk_leaf 0

    let is_free n = n.free
    let set_free n b = n.free <- b
    let id n = n.uid
  end)

  type t = { root : node; dom : D.t }
  type ctx = { set : t; smr : D.ctx }

  let hp_per_process = 6

  let create (cfg : Set_intf.config) =
    let root =
      { uid = fresh_uid ();
        key = inf2;
        is_leaf = false;
        left = R.atomic (Child { dest = mk_leaf inf1; marked = false });
        right = R.atomic (Child { dest = mk_leaf inf2; marked = false });
        upd = R.atomic (clean ());
        free = false }
    in
    { root;
      dom = D.create cfg ~hp_per_process ~removes_per_op_max:2 ~dummy:root }

  let register t ~pid = { set = t; smr = D.register t.dom ~pid }
  (* the oracle, pre-filtered on [Free] (see {!Smr_domain.Make.touch}) *)
  let touch ctx n = if n.free then D.touch ctx.smr n

  type found = {
    gp : node;
    gpu : ustate;
    p : node;
    pu : ustate;
    p_link : link; (* gp's edge to p *)
    l_link : link; (* p's edge to l *)
    l : node;
    p_left_side : bool; (* which gp edge leads to p *)
  }

  (* --- helping (part 1: what traversals need) --------------------------- *)

  let rec poison_edge cell =
    match R.get cell with
    | Child { dest; marked = false } as c ->
      if not (R.cas cell c (Child { dest; marked = true })) then poison_edge cell
    | Nil | Child { marked = true; _ } -> ()

  let dest_of = function Child c -> c.dest | Nil -> assert false

  (* Complete a delete whose parent is already marked. Mark is final and
     the update word monotone, so dp's edges can no longer change except for
     the poisoning below: the sibling read is stable. Poisoning precedes the
     grandparent swing (and hence the retire point), so traversals that
     validated an edge into dp/dl did so before the nodes could be freed. *)
  let help_marked (op : dinfo) =
    poison_edge op.dp.left;
    poison_edge op.dp.right;
    let left = R.get op.dp.left and right = R.get op.dp.right in
    let sibling = if dest_of left == op.dl then dest_of right else dest_of left in
    let gp_edge = if op.d_left_side then op.dgp.left else op.dgp.right in
    ignore (R.cas gp_edge op.dp_link (Child { dest = sibling; marked = false }));
    ignore (R.cas op.dgp.upd op.dflag (clean ()))

  (* Traverse to the leaf position for [key], protecting (gp, p, l) in
     rotating hazard slots 0-2, validating each edge after protection. *)
  let rec locate ctx key : found =
    let root = ctx.set.root in
    (* [p_link]/[p_left] describe the gp->p edge; [l_link]/[l_left] the
       p->l edge. On descent the latter pair becomes the former. *)
    let rec go gp gpu p pu p_link p_left l_link l_left l sgp sp sl =
      ignore l_left;
      if l.is_leaf then { gp; gpu; p; pu; p_link; l_link; l; p_left_side = p_left }
      else begin
        let gp' = p and gpu' = pu and p' = l in
        let pu' = R.get p'.upd in
        touch ctx p';
        let left_side = key < p'.key in
        let edge = if left_side then p'.left else p'.right in
        let edge_link = R.get edge in
        match edge_link with
        | Nil -> locate ctx key (* transient; restart *)
        | Child { dest = l'; marked } ->
          let sl' = sgp in
          D.assign_hp ctx.smr ~slot:sl' l';
          if marked then begin
            (* p' removed: edges poisoned. Normally the mark's owner (or a
               helper that found the DFlag/Mark) swings the grandparent
               edge promptly and the restart routes around p' — but a
               neutralized owner abandons the removal between poisoning
               and the swing, and a traversal that merely restarts then
               livelocks. Complete the removal ourselves: marking precedes
               poisoning and Mark is final, so a pass that reaches the
               poisoned edge re-reads p'.upd as the Mark (p' and its
               parent — the descriptor's dgp — are the protected p'/gp' of
               this frame, exactly what help_marked needs). *)
            (match R.get p'.upd with Mark o -> help_marked o | _ -> ());
            locate ctx key
          end
          else if R.get edge != edge_link then locate ctx key
          else begin
            touch ctx l';
            go gp' gpu' p' pu' l_link l_left edge_link left_side l' sp sl sl'
          end
      end
    in
    let pu0 = R.get root.upd in
    go root pu0 root pu0 Nil true Nil true root 0 1 2

  (* --- helping (part 2) ------------------------------------------------- *)

  (* Complete an insert: splice the new internal in, unflag. Idempotent —
     stale CASes fail on physical witnesses. *)
  let help_insert (op : iinfo) =
    let edge = if op.i_left_side then op.ip.left else op.ip.right in
    ignore (R.cas edge op.il_link (Child { dest = op.new_internal; marked = false }));
    ignore (R.cas op.ip.upd op.iflag (clean ()))

  (* Returns whether the delete completed (parent marked) or aborted.
     Caller must have op.dp and op.dgp protected. *)
  let help_delete (op : dinfo) =
    let marked_now =
      R.cas op.dp.upd op.dpu op.dmark
      || (match R.get op.dp.upd with
         | Mark o -> o == op
         | Clean _ | IFlag _ | DFlag _ -> false)
    in
    if marked_now then begin
      help_marked op;
      true
    end
    else begin
      (* The mark lost; update words are monotone so it can never succeed
         later — abort by unflagging the grandparent. *)
      ignore (R.cas op.dgp.upd op.dflag (clean ()));
      false
    end

  (* Help the operation found installed on a node of the caller's (protected)
     search path. *)
  let help ctx (u : ustate) =
    match u with
    | Clean _ -> ()
    | IFlag op ->
      (* op.ip is the node the flag was found on — caller-protected. *)
      (match R.get op.ip.upd with
      | IFlag o when o == op -> help_insert op
      | _ -> ())
    | Mark op ->
      (* Found on op.dp (caller's p, protected); op.dgp is p's immutable
         parent — the caller's gp, also protected. *)
      help_marked op
    | DFlag op ->
      (* Found on op.dgp (caller-protected); op.dp is some child of it, not
         necessarily on the caller's path: protect and re-validate. *)
      D.assign_hp ctx.smr ~slot:3 op.dp;
      (match R.get op.dgp.upd with
      | DFlag o when o == op -> ignore (help_delete op)
      | _ -> ())

  (* --- public operations ------------------------------------------------ *)

  let search ctx key =
    D.manage_state ctx.smr;
    let s = locate ctx key in
    touch ctx s.l;
    let res = s.l.key = key in
    D.clear_hps ctx.smr;
    res

  let alloc_leaf ctx key =
    let n = D.alloc ctx.smr in
    n.key <- key;
    n.is_leaf <- true;
    R.set n.left Nil;
    R.set n.right Nil;
    R.set n.upd (clean ());
    n

  let insert ctx key =
    if key > max_real_key then invalid_arg "Bst.insert: key too large";
    D.manage_state ctx.smr;
    (* The not-yet-published pair lives in [fresh] (cleared the moment the
       IFlag CAS wins — from then on helpers may splice the nodes in) so a
       neutralization signal aborting this operation returns both to the
       arena instead of leaking them; simulator delivery replaces a pending
       effect, so it cannot land between the CAS executing and the
       meta-level clear. *)
    let fresh = ref None in
    let rec attempt () =
      let s = locate ctx key in
      touch ctx s.l;
      if s.l.key = key then begin
        (match !fresh with
        | Some (nleaf, nint) ->
          D.free ctx.smr nleaf;
          D.free ctx.smr nint
        | None -> ());
        fresh := None;
        D.clear_hps ctx.smr;
        false
      end
      else begin
        match s.pu with
        | Clean _ ->
          let nleaf, nint =
            match !fresh with
            | Some pair -> pair
            | None ->
              (* [alloc_leaf] performs effects: a restart delivered before
                 [fresh] holds the pair would strand what was allocated *)
              D.held (fun () ->
                  let pair = (alloc_leaf ctx key, alloc_leaf ctx 0) in
                  fresh := Some pair;
                  pair)
          in
          nint.key <- max key s.l.key;
          nint.is_leaf <- false;
          if key < s.l.key then begin
            R.set nint.left (Child { dest = nleaf; marked = false });
            R.set nint.right (Child { dest = s.l; marked = false })
          end
          else begin
            R.set nint.left (Child { dest = s.l; marked = false });
            R.set nint.right (Child { dest = nleaf; marked = false })
          end;
          R.set nint.upd (clean ());
          let rec op =
            { ip = s.p;
              il_link = s.l_link;
              i_left_side = key < s.p.key;
              new_internal = nint;
              iflag = IFlag op }
          in
          if R.cas s.p.upd s.pu op.iflag then begin
            fresh := None;
            help_insert op;
            D.clear_hps ctx.smr;
            true
          end
          else attempt ()
        | u ->
          help ctx u;
          attempt ()
      end
    in
    try attempt ()
    with Qs_intf.Runtime_intf.Neutralized as e ->
      (match !fresh with
      | Some (nleaf, nint) ->
        D.free ctx.smr nleaf;
        D.free ctx.smr nint
      | None -> ());
      raise e

  (* Retire a won delete's parent and leaf. Delivery is held back, but
     DEBRA+'s retire raises its cooperative restart with its node already
     banked, so "retire s.p raised" never needs a compensating retire of
     s.p — only an s.l whose retire was never entered is at risk, and
     retiring it from the handler is safe in every scheme (a never-entered
     retire banked nothing). *)
  let retire_pair ctx s =
    let entered_l = ref false in
    (try
       D.retire ctx.smr s.p;
       entered_l := true;
       D.retire ctx.smr s.l
     with Qs_intf.Runtime_intf.Neutralized as e ->
       if not !entered_l then (
         try D.retire ctx.smr s.l with Qs_intf.Runtime_intf.Neutralized -> ());
       raise e);
    true

  let delete ctx key =
    D.manage_state ctx.smr;
    let rec attempt () =
      let s = locate ctx key in
      touch ctx s.l;
      if s.l.key <> key then begin
        D.clear_hps ctx.smr;
        false
      end
      else begin
        match s.gpu with
        | Clean _ -> (
          match s.pu with
          | Clean _ ->
            let rec op =
              { dgp = s.gp;
                dp = s.p;
                dl = s.l;
                dpu = s.pu;
                dp_link = s.p_link;
                d_left_side = s.p_left_side;
                dflag = DFlag op;
                dmark = Mark op }
            in
            if R.cas s.gp.upd s.gpu op.dflag then begin
              (* This delete owns the removal from here on. A restart
                 delivered before it aborts or banks both removed nodes
                 (m = 2) would leave p and l for helpers to unlink and
                 nobody to retire, so delivery is held back until then. *)
              if D.held (fun () -> help_delete op && retire_pair ctx s) then begin
                D.clear_hps ctx.smr;
                true
              end
              else attempt ()
            end
            else begin
              help ctx (R.get s.gp.upd);
              attempt ()
            end
          | pu ->
            help ctx pu;
            attempt ())
        | gpu ->
          help ctx gpu;
          attempt ()
      end
    in
    attempt ()

  (* Sequential-context helpers. *)

  let to_list ctx =
    let rec go n acc =
      if n.is_leaf then if n.key <= max_real_key then n.key :: acc else acc
      else
        match (R.get n.left, R.get n.right) with
        | Child l, Child r -> go l.dest (go r.dest acc)
        | _ -> acc
    in
    go ctx.set.root []

  let size ctx = List.length (to_list ctx)

  (* Structural invariants (sequential context): the tree is a well-formed
     external BST — every internal node has two children, left-subtree keys
     are strictly below the router key, right-subtree keys at or above, and
     leaf keys are unique. *)
  let validate ctx =
    (* inclusive bounds: a router k sends keys < k left and keys >= k right *)
    let rec go n lo hi =
      if n.is_leaf then begin
        if n.key < lo || n.key > hi then
          failwith
            (Printf.sprintf "bst: leaf %d outside [%d, %d]" n.key lo hi)
      end
      else begin
        match (R.get n.left, R.get n.right) with
        | Child l, Child r ->
          go l.dest lo (n.key - 1);
          go r.dest n.key hi
        | _ -> failwith "bst: internal node missing a child"
      end
    in
    go ctx.set.root min_int max_int;
    let keys = to_list ctx in
    let sorted = List.sort_uniq compare keys in
    if List.length sorted <> List.length keys then failwith "bst: duplicate keys";
    if sorted <> keys then failwith "bst: in-order traversal not sorted"

  let unregister ctx = D.unregister ctx.smr

  let flush ctx = D.flush ctx.smr

  let report t = D.report t.dom
  let retired_count t = D.retired_count t.dom
  let violations t = D.violations t.dom
  let outstanding t = D.outstanding t.dom
  let nodes_per_key = 2
end
