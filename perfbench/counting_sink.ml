(* A counting trace sink installed over every scheme instance at once (the
   runtimes route every [emit] to one sink), so its totals are service-wide:
   all table shards plus the skip-list index. Recording is integer
   arithmetic on preallocated arrays — no allocation, and on the simulator
   no effect, so installing it cannot move a seeded schedule.

   [live] is retires minus per-node frees: the removed-but-unfreed nodes
   of the whole service at this instant, and [live_peak] its running
   maximum (the service-wide [retired_peak]). *)

open Qs_intf.Runtime_intf

type t = {
  counts : int array;  (* per {!event_index} *)
  mutable live : int;
  mutable live_peak : int;
  mutable adopted_nodes : int;
  mutable scan_freed : int;
  mutable empty_scans : int;
  mutable fallback_dwell : int;
  mutable scan_busy : int;
  scan_started : int array;  (* per pid: time of the open scan, or -1 *)
}

let create ~n_processes =
  { counts = Array.make Qs_harness.Coverage.n_events 0;
    live = 0;
    live_peak = 0;
    adopted_nodes = 0;
    scan_freed = 0;
    empty_scans = 0;
    fallback_dwell = 0;
    scan_busy = 0;
    scan_started = Array.make n_processes (-1) }

let record t ~pid ~time ~ev ~a ~b:_ =
  let i = event_index ev in
  t.counts.(i) <- t.counts.(i) + 1;
  match ev with
  | Ev_retire ->
    t.live <- t.live + 1;
    if t.live > t.live_peak then t.live_peak <- t.live
  | Ev_free -> t.live <- t.live - 1
  | Ev_adopt -> t.adopted_nodes <- t.adopted_nodes + a
  | Ev_fallback_exit -> t.fallback_dwell <- t.fallback_dwell + a
  | Ev_scan_begin ->
    if pid >= 0 && pid < Array.length t.scan_started then
      t.scan_started.(pid) <- time
  | Ev_scan_end ->
    t.scan_freed <- t.scan_freed + a;
    if a = 0 then t.empty_scans <- t.empty_scans + 1;
    if pid >= 0 && pid < Array.length t.scan_started
       && t.scan_started.(pid) >= 0
    then begin
      t.scan_busy <- t.scan_busy + (time - t.scan_started.(pid));
      t.scan_started.(pid) <- -1
    end
  | _ -> ()

let sink t = { record = record t }

let count t ev = t.counts.(event_index ev)

let scans t = count t Ev_scan_end

let frees_per_scan t =
  let s = scans t in
  if s = 0 then 0. else float_of_int t.scan_freed /. float_of_int s

let empty_scans_pct t =
  let s = scans t in
  if s = 0 then 0. else 100. *. float_of_int t.empty_scans /. float_of_int s
