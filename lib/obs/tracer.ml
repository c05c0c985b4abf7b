module RI = Qs_intf.Runtime_intf

(* One ring: a flat int array of 4-word slots (time, event index, a, b).
   Flat ints rather than an [entry array] so that recording is four
   unboxed stores — no allocation, no GC write barrier. *)
type ring = {
  mutable pos : int; (* next slot to write *)
  mutable len : int; (* slots filled, <= capacity *)
  mutable dropped : int; (* events overwritten; monotone *)
  data : int array; (* capacity * 4 *)
}

type t = {
  capacity : int;
  n_processes : int;
  rings : ring array; (* n_processes + 1; the last is the system ring *)
}

let create ~n_processes ~capacity () =
  if capacity < 1 then invalid_arg "Tracer.create: capacity must be >= 1";
  if n_processes < 0 then invalid_arg "Tracer.create: n_processes < 0";
  { capacity;
    n_processes;
    rings =
      Array.init (n_processes + 1) (fun _ ->
          { pos = 0; len = 0; dropped = 0; data = Array.make (capacity * 4) 0 })
  }

let capacity t = t.capacity
let n_processes t = t.n_processes

let record t ~pid ~time ~ev ~a ~b =
  let idx = if pid >= 0 && pid < t.n_processes then pid else t.n_processes in
  let r = t.rings.(idx) in
  let base = r.pos * 4 in
  r.data.(base) <- time;
  r.data.(base + 1) <- RI.event_index ev;
  r.data.(base + 2) <- a;
  r.data.(base + 3) <- b;
  r.pos <- (if r.pos + 1 = t.capacity then 0 else r.pos + 1);
  if r.len < t.capacity then r.len <- r.len + 1 else r.dropped <- r.dropped + 1

let sink t = { RI.record = (fun ~pid ~time ~ev ~a ~b -> record t ~pid ~time ~ev ~a ~b) }

type entry = { pid : int; time : int; ev : RI.event; a : int; b : int }

let length t ~pid = t.rings.(pid).len
let dropped t ~pid = t.rings.(pid).dropped
let total t = Array.fold_left (fun acc r -> acc + r.len) 0 t.rings
let total_dropped t = Array.fold_left (fun acc r -> acc + r.dropped) 0 t.rings

let entry_of_slot t ~ring_idx ~slot =
  let r = t.rings.(ring_idx) in
  (* slot 0 = oldest retained event *)
  let phys = (r.pos - r.len + slot + (2 * t.capacity)) mod t.capacity in
  let base = phys * 4 in
  let ev =
    match RI.event_of_index r.data.(base + 1) with
    | Some ev -> ev
    | None -> assert false (* only event_index values are ever stored *)
  in
  { pid = ring_idx;
    time = r.data.(base);
    ev;
    a = r.data.(base + 2);
    b = r.data.(base + 3) }

let ring_to_array t ~pid =
  let r = t.rings.(pid) in
  Array.init r.len (fun slot -> entry_of_slot t ~ring_idx:pid ~slot)

let to_array t =
  let n = total t in
  let out = Array.make n { pid = 0; time = 0; ev = RI.Ev_retire; a = 0; b = 0 } in
  let j = ref 0 in
  (* (entry, seq-within-ring) so the sort is a stable global timeline *)
  let seqs = Array.make n 0 in
  Array.iteri
    (fun ring_idx r ->
      for slot = 0 to r.len - 1 do
        out.(!j) <- entry_of_slot t ~ring_idx ~slot;
        seqs.(!j) <- slot;
        incr j
      done)
    t.rings;
  let order = Array.init n (fun i -> i) in
  Array.sort
    (fun i k ->
      let ei = out.(i) and ek = out.(k) in
      if ei.time <> ek.time then compare ei.time ek.time
      else if ei.pid <> ek.pid then compare ei.pid ek.pid
      else compare seqs.(i) seqs.(k))
    order;
  Array.map (fun i -> out.(i)) order

let clear t =
  Array.iter
    (fun r ->
      r.pos <- 0;
      r.len <- 0;
      r.dropped <- 0)
    t.rings
