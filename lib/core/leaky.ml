(* The paper's "None" baseline: no reclamation at all. Retired nodes are
   dropped on the floor (in C they would leak; here the OCaml GC eventually
   collects them, but as far as the arena is concerned they are never
   freed). This is the throughput upper bound every scheme's overhead is
   measured against. *)

module Make (R : Qs_intf.Runtime_intf.RUNTIME) (N : Smr_intf.NODE) = struct
  type node = N.t

  type handle = { mutable retires : int }

  type t = { handles : handle array }

  let name = "none"

  let create (cfg : Smr_intf.config) ~dummy:_ ~free_bulk:_ =
    { handles = Array.init cfg.n_processes (fun _ -> { retires = 0 }) }

  let register t ~pid = t.handles.(pid)

  (* Nothing to retire: handles are shared per-pid records and nothing is
     ever reclaimed, so there are no limbo lists to orphan. The slot is
     trivially reusable. *)
  let unregister _ = ()

  let manage_state _ = ()
  let assign_hp _ ~slot:_ _ = ()
  let clear_hps _ = ()
  let retire h n =
    h.retires <- h.retires + 1;
    (* b = current leak count: the limbo "depth" of a scheme that never
       frees, so a traced leaky run plots its unbounded growth *)
    R.emit Qs_intf.Runtime_intf.Ev_retire (N.id n) h.retires
  let flush _ = ()

  let retired_count t =
    Array.fold_left (fun acc h -> acc + h.retires) 0 t.handles

  let stats t =
    let retires = retired_count t in
    { Smr_intf.zero_stats with
      retires;
      retired_now = retires;
      retired_peak = retires }
end
