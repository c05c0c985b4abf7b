(* The shared hazard-pointer array: N processes × K single-writer
   multi-reader slots, used by classic HP, Cadence and QSense. Slots are TSO
   *plain* slots — publishing is a cheap store whose visibility is bounded
   only by fences (classic HP) or rooster context switches (Cadence/QSense).
   A slot holds the protected node's id ({!Smr_intf.NODE.id}), not the
   node: an [int] store has no GC write barrier, where a pointer store in
   OCaml is a [caml_modify] call, so a publish costs one machine store.
   Unused slots hold the id of the data structure's dummy node, which
   snapshots skip, so publishing the dummy still reads as empty. A
   process's K slots are one plain row ([R.plain]), padded as a whole, not
   per slot: on real domains the row is one flat block whose K slots share
   lines with each other (one writer) but not with the next process's row
   (rows are written by different processes on every traversal step), and
   [clear] is a contiguous fill.

   Scans use a reusable {e scan set}: the N×K slots are snapshotted into a
   per-handle open-addressing hash set of node ids ({!Qs_util.Int_set}),
   giving expected-O(1) membership per retired node and zero allocation
   per scan — Michael's original hash-set scan, which makes scan work
   amortised O(1) per retire once R >= N·K. *)

module Make (R : Qs_intf.Runtime_intf.RUNTIME) (N : Smr_intf.NODE) = struct
  type t = { slots : R.plain array; dummy_id : int; k : int }

  let create ~n ~k ~dummy =
    let dummy_id = N.id dummy in
    { slots = Array.init n (fun _ -> R.plain k dummy_id); dummy_id; k }

  (* A process's own row: its handle keeps it, so a publish is one
     [R.write row slot (N.id n)] with no call through this module. *)
  let row t ~pid = t.slots.(pid)

  let clear t ~pid =
    let row = t.slots.(pid) in
    for i = 0 to t.k - 1 do
      R.write row i t.dummy_id
    done

  type scan_set = Qs_util.Int_set.t

  (* Preallocated for the full N·K population: at steady state a snapshot
     never triggers a rehash, so the scan path performs zero allocation. *)
  let scan_set t = Qs_util.Int_set.create ~capacity:(Array.length t.slots * t.k) ()

  (* Snapshot all N×K slots into the hash set. Reads are racy by design: a
     hazard pointer whose store is still sitting in its writer's store
     buffer is missed — that is the hole deferred reclamation closes.
     [Int_set.reset] is an O(1) generation bump, so the whole snapshot is
     O(N·K) with no allocation. *)
  let snapshot_into t s =
    Qs_util.Int_set.reset s;
    let dummy_id = t.dummy_id in
    for pid = 0 to Array.length t.slots - 1 do
      let row = t.slots.(pid) in
      for i = 0 to t.k - 1 do
        let id = R.read row i in
        if id <> dummy_id then Qs_util.Int_set.add s id
      done
    done

  (* Expected-O(1) membership by stable node identity. Conservative under
     id collisions (keeps the node), never frees a protected node. *)
  let protects_set s n = Qs_util.Int_set.mem s (N.id n)
end
