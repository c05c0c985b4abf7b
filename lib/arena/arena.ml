exception Exhausted

module type NODE = sig
  type t

  val create : unit -> t
  val is_free : t -> bool
  val set_free : t -> bool -> unit
end

module Make (N : NODE) = struct
  type t = {
    capacity : int option;
    (* Shared outstanding counter, maintained by every [alloc]/[free].
       The capacity check used to fold [allocations - frees] over ALL
       per-process handles on every single allocation whenever a capacity
       was configured — O(n_processes) of cross-process cache traffic on
       the allocation hot path. One fetch-and-add per alloc/free keeps the
       same value (allocs and real frees commute with the counter updates)
       at O(1). *)
    outstanding_now : int Atomic.t;
    (* Blank slot for the free-list vectors: never handed out, only keeps
       [Vec] from retaining dropped nodes. *)
    dummy : N.t;
    mutable handles : handle array;
  }

  and handle = {
    owner : t;
    (* Vector, not a list: [free] used to cons a cell per freed node, so a
       recycling workload allocated on every free even though the whole
       point of the free list is to avoid allocation. [Vec.push]/[Vec.pop]
       are allocation-free once the vector has reached steady-state
       capacity. *)
    free_list : N.t Qs_util.Vec.t;
    mutable allocations : int;
    mutable frees : int;
    mutable fresh : int;
    mutable violations : int;
    mutable double_frees : int;
  }

  let create ?capacity ~n_processes () =
    let dummy = N.create () in
    let t = { capacity; outstanding_now = Atomic.make 0; dummy; handles = [||] } in
    let mk _ =
      { owner = t;
        free_list = Qs_util.Vec.create dummy;
        allocations = 0;
        frees = 0;
        fresh = 0;
        violations = 0;
        double_frees = 0 }
    in
    t.handles <- Array.init (max 1 n_processes) mk;
    t

  let register t ~pid = t.handles.(pid)

  let sum t f = Array.fold_left (fun acc h -> acc + f h) 0 t.handles

  let outstanding t = Atomic.get t.outstanding_now

  let alloc h =
    let n =
      if not (Qs_util.Vec.is_empty h.free_list) then
        Qs_util.Vec.pop h.free_list
      else begin
        (match h.owner.capacity with
        | Some cap when outstanding h.owner >= cap -> raise Exhausted
        | _ -> ());
        h.fresh <- h.fresh + 1;
        N.create ()
      end
    in
    h.allocations <- h.allocations + 1;
    ignore (Atomic.fetch_and_add h.owner.outstanding_now 1);
    N.set_free n false;
    n

  let free h n =
    if N.is_free n then h.double_frees <- h.double_frees + 1
    else begin
      N.set_free n true;
      h.frees <- h.frees + 1;
      ignore (Atomic.fetch_and_add h.owner.outstanding_now (-1));
      Qs_util.Vec.push h.free_list n
    end

  (* Bulk return for the batched-bag reclamation path: free the first
     [count] elements of [data] with ONE update of the shared outstanding
     counter instead of one per node. The per-node oracle work (double-free
     detection, Free bit, free-list push) is kept — it is exactly what the
     use-after-free and double-free checks test against. *)
  let free_many h data count =
    let freed = ref 0 in
    for i = 0 to count - 1 do
      let n = data.(i) in
      if N.is_free n then h.double_frees <- h.double_frees + 1
      else begin
        N.set_free n true;
        incr freed;
        Qs_util.Vec.push h.free_list n
      end
    done;
    if !freed > 0 then begin
      h.frees <- h.frees + !freed;
      ignore (Atomic.fetch_and_add h.owner.outstanding_now (- !freed))
    end

  let touch h n = if N.is_free n then h.violations <- h.violations + 1

  let allocations t = sum t (fun h -> h.allocations)
  let frees t = sum t (fun h -> h.frees)
  let fresh_nodes t = sum t (fun h -> h.fresh)
  let violations t = sum t (fun h -> h.violations)
  let double_frees t = sum t (fun h -> h.double_frees)
  let capacity t = t.capacity

  let reuse_ratio t =
    let a = allocations t in
    if a = 0 then 0.
    else float_of_int (a - fresh_nodes t) /. float_of_int a
end
