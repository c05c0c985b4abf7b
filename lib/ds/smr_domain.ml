(* One structure's reclamation domain: its arena, the scheme instance the
   config picked, and the per-process handles of both. The structures call
   the paper's three functions (rule 1: [manage_state], rule 2:
   [assign_hp], rule 3: [retire]) here and nowhere else.

   The scheme is chosen at run time, so its module travels packed with its
   own state in a GADT: a handle operation unpacks the module and makes
   one direct call into the scheme, with no closure record in between. *)

module type NODE = sig
  include Qs_arena.Arena.NODE
  include Qs_smr.Smr_intf.NODE with type t := t
end

module Make (R : Qs_intf.Runtime_intf.RUNTIME) (N : NODE) = struct
  module Arena = Qs_arena.Arena.Make (N)
  module Dispatch = Qs_smr.Scheme.Dispatch (R) (N)

  type scheme =
    | S :
        (module Qs_smr.Smr_intf.S with type node = N.t and type t = 's) * 's
        -> scheme

  type handle =
    | H :
        (module Qs_smr.Smr_intf.S with type node = N.t and type handle = 'h)
        * 'h
        -> handle

  type t = { arena : Arena.t; scheme : scheme; debug_checks : bool }

  type ctx = { arena_h : Arena.handle; smr : handle; debug_checks : bool }

  let create (cfg : Set_intf.config) ~hp_per_process ~removes_per_op_max
      ~dummy =
    let smr_cfg = { cfg.smr with hp_per_process; removes_per_op_max } in
    let arena =
      Arena.create ?capacity:cfg.capacity ~n_processes:smr_cfg.n_processes ()
    in
    (* The freeing process is whichever process runs the scan, so route the
       nodes to that process's free list; whole limbo bags go back in one
       outstanding-counter update. *)
    let free_bulk data count =
      Arena.free_many (Arena.register arena ~pid:(R.self ())) data count
    in
    let (module M) = Dispatch.make cfg.scheme in
    let scheme = S ((module M), M.create smr_cfg ~dummy ~free_bulk) in
    { arena; scheme; debug_checks = cfg.debug_checks }

  let register t ~pid =
    let (S ((module M), s)) = t.scheme in
    { arena_h = Arena.register t.arena ~pid;
      smr = H ((module M), M.register s ~pid);
      debug_checks = t.debug_checks }

  let alloc c = Arena.alloc c.arena_h
  let alloc_initial t = Arena.alloc (Arena.register t.arena ~pid:0)
  let free c n = Arena.free c.arena_h n
  let touch c n = if c.debug_checks then Arena.touch c.arena_h n

  (* Scheme calls that move reclamation state run with neutralization
     delivery held back: a restart delivered at one of the scheme's own
     reads could abort it half-way — a retired node not yet banked in
     limbo, a batch counted but never linked — and leak it. The restart
     then lands at the structure's next access, and only there. A runtime
     whose delivery is not preemptive delivers nothing inside scheme code,
     so the scheme is called straight. *)
  let preemptive = R.neutralize_is_preemptive
  let release deliverable = ignore (R.set_neutralizable deliverable)

  let held f =
    if not preemptive then f ()
    else
      let d = R.set_neutralizable false in
      match f () with
      | v ->
        release d;
        v
      | exception e ->
        release d;
        raise e

  let manage_state c =
    match c.smr with
    | H ((module M), h) when not preemptive -> M.manage_state h
    | H ((module M), h) ->
      let d = R.set_neutralizable false in
      (try M.manage_state h with e -> release d; raise e);
      release d

  let assign_hp c ~slot n =
    match c.smr with H ((module M), h) -> M.assign_hp h ~slot n

  let clear_hps c =
    match c.smr with
    | H ((module M), h) when not preemptive -> M.clear_hps h
    | H ((module M), h) ->
      let d = R.set_neutralizable false in
      (try M.clear_hps h with e -> release d; raise e);
      release d

  let retire c n =
    match c.smr with
    | H ((module M), h) when not preemptive -> M.retire h n
    | H ((module M), h) ->
      let d = R.set_neutralizable false in
      (try M.retire h n with e -> release d; raise e);
      release d

  let unregister c = match c.smr with H ((module M), h) -> M.unregister h
  let flush c = match c.smr with H ((module M), h) -> M.flush h

  let report t : Set_intf.report =
    let (S ((module M), s)) = t.scheme in
    { smr = M.stats s;
      allocations = Arena.allocations t.arena;
      frees = Arena.frees t.arena;
      outstanding = Arena.outstanding t.arena;
      fresh_nodes = Arena.fresh_nodes t.arena;
      violations = Arena.violations t.arena;
      double_frees = Arena.double_frees t.arena }

  let retired_count t =
    let (S ((module M), s)) = t.scheme in
    M.retired_count s

  let violations t = Arena.violations t.arena
  let outstanding t = Arena.outstanding t.arena
end
