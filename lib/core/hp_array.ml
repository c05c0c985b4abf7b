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
   (rows are written by different processes on every traversal step).

   Clearing. A handle keeps a mask of the slots it has published since
   its last clear, set inline by its own [assign_hp], and
   [clear_published] stores the dummy's id into those slots only: an
   operation that published two slots of a 33-slot row pays two stores,
   not 33. Bit 62, the top bit of an OCaml [int], stands for every slot
   from 62 up. [clear] still fills the whole row, for [unregister].

   Scans use a reusable {e scan set}: the N×K slots are snapshotted into a
   per-handle open-addressing hash set of node ids ({!Qs_util.Int_set}),
   giving expected-O(1) membership per retired node and zero allocation
   per scan — Michael's original hash-set scan, which makes scan work
   amortised O(1) per retire once R >= N·K. *)

(* A publish of [slot] sets mask bit [min slot overflow_bit]. The handles
   write that expression out in their [assign_hp] with the literal 62: a
   publish must make no call, and a function of this module is reached by
   a call. *)
let overflow_bit = 62

(* The number of set bits of [x], 0 <= x < 2^62, by parallel bit sums:
   no branch, so no misprediction on the mask's pattern. *)
let[@inline] popcount x =
  let x = x - ((x lsr 1) land 0x1555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  let x = x + (x lsr 8) in
  let x = x + (x lsr 16) in
  (x + (x lsr 32)) land 0x7f

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

  (* Store the dummy's id into the slots of [row] that [mask] names,
     lowest first, one store per set bit; bit 62 stores slots 62 up to
     k - 1. A slot's index is the bit count below its bit, so the walk
     branches once per published slot, not once per bit. Top-level
     recursion, so a clear builds no closure. *)
  let rec clear_published t row mask =
    if mask <> 0 then begin
      let low = mask land -mask in
      let slot = popcount (low - 1) in
      if slot < overflow_bit then begin
        R.write row slot t.dummy_id;
        clear_published t row (mask lxor low)
      end
      else
        for j = overflow_bit to t.k - 1 do
          R.write row j t.dummy_id
        done
    end

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
