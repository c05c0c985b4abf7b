module RI = Qs_intf.Runtime_intf

type entry = Tracer.entry

let count (es : entry array) ev =
  Array.fold_left (fun acc (e : entry) -> if e.Tracer.ev = ev then acc + 1 else acc) 0 es

let frees_total es = count es RI.Ev_free
let retires_total es = count es RI.Ev_retire
let unregisters_total es = count es RI.Ev_unregister
let adoptions_total es = count es RI.Ev_adopt

let adopted_nodes_total (es : entry array) =
  (* [Ev_adopt.a] carries the number of orphan nodes spliced in. *)
  Array.fold_left
    (fun acc (e : entry) ->
      if e.Tracer.ev = RI.Ev_adopt && e.Tracer.a > 0 then acc + e.Tracer.a
      else acc)
    0 es

let ages_at_free (es : entry array) =
  (* Join free events against the most recent retire of the same node id,
     in timeline order; ids recycle (the arena reuses nodes), so "most
     recent" is the correct join. Exact ages carried in Ev_free.b win. *)
  let retire_time : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let out = ref [] in
  let n_out = ref 0 in
  Array.iter
    (fun (e : entry) ->
      match e.Tracer.ev with
      | RI.Ev_retire -> Hashtbl.replace retire_time e.Tracer.a e.Tracer.time
      | RI.Ev_free ->
        let age =
          if e.Tracer.b >= 0 then Some e.Tracer.b
          else
            match Hashtbl.find_opt retire_time e.Tracer.a with
            | Some t0 when e.Tracer.time >= t0 -> Some (e.Tracer.time - t0)
            | _ -> None (* retire fell out of the ring *)
        in
        (match age with
        | Some a ->
          out := a :: !out;
          incr n_out;
          Hashtbl.remove retire_time e.Tracer.a
        | None -> ())
      | _ -> ())
    es;
  let arr = Array.make !n_out 0 in
  let i = ref (!n_out - 1) in
  List.iter
    (fun a ->
      arr.(!i) <- a;
      decr i)
    !out;
  arr

let age_histogram es =
  let ages = ages_at_free es in
  if Array.length ages = 0 then None
  else begin
    let h = Latency.create () in
    Array.iter (Latency.record h) ages;
    Some h
  end

let limbo_series (es : entry array) ~pid =
  let out = ref [] and n = ref 0 in
  let depth = ref 0 in
  Array.iter
    (fun (e : entry) ->
      if e.Tracer.pid = pid then begin
        let sample =
          match e.Tracer.ev with
          | RI.Ev_retire ->
            (* resync to the scheme's own depth-after-push when carried *)
            if e.Tracer.b >= 0 then depth := e.Tracer.b else incr depth;
            true
          | RI.Ev_free ->
            depth := max 0 (!depth - 1);
            true
          | _ -> false
        in
        if sample then begin
          out := (e.Tracer.time, !depth) :: !out;
          incr n
        end
      end)
    es;
  let arr = Array.make !n (0, 0) in
  let i = ref (!n - 1) in
  List.iter
    (fun s ->
      arr.(!i) <- s;
      decr i)
    !out;
  arr

let max_limbo es ~pid =
  Array.fold_left (fun acc (_, d) -> max acc d) 0 (limbo_series es ~pid)

type episode = {
  ep_pid : int;
  enter_time : int;
  exit_time : int option;
  limbo_at_enter : int;
  dwell : int option;
}

let fallback_episodes (es : entry array) =
  (* The hybrid schemes' mode is global to the scheme instance: the process
     that notices the limbo overflow emits the enter, and whichever process
     notices the return condition emits the exit — so enters and exits pair
     globally in timeline order, not per pid. [ep_pid] records the entering
     process. A second enter while one is open (only possible through ring
     truncation losing the exit) keeps the first. *)
  let open_ep : (int * int * int) option ref = ref None in
  let out = ref [] in
  Array.iter
    (fun (e : entry) ->
      match e.Tracer.ev with
      | RI.Ev_fallback_enter ->
        if !open_ep = None then
          open_ep := Some (e.Tracer.pid, e.Tracer.time, e.Tracer.a)
      | RI.Ev_fallback_exit ->
        (match !open_ep with
        | Some (pid, t0, limbo) ->
          open_ep := None;
          out :=
            { ep_pid = pid;
              enter_time = t0;
              exit_time = Some e.Tracer.time;
              limbo_at_enter = limbo;
              dwell = (if e.Tracer.a >= 0 then Some e.Tracer.a else None) }
            :: !out
        | None -> () (* enter fell out of the ring *))
      | _ -> ())
    es;
  let still_open =
    match !open_ep with
    | None -> []
    | Some (pid, t0, limbo) ->
      [ { ep_pid = pid;
          enter_time = t0;
          exit_time = None;
          limbo_at_enter = limbo;
          dwell = None } ]
  in
  List.sort
    (fun a b -> compare (a.enter_time, a.ep_pid) (b.enter_time, b.ep_pid))
    (still_open @ !out)

(* ---- Spike attribution ---------------------------------------------- *)

type cause =
  | Fallback
  | Neutralize
  | Scan
  | Epoch
  | Churn
  | Bag_seal
  | Unattributed

let cause_name = function
  | Fallback -> "fallback"
  | Neutralize -> "neutralize"
  | Scan -> "scan"
  | Epoch -> "epoch"
  | Churn -> "churn"
  | Bag_seal -> "bag_seal"
  | Unattributed -> "unattributed"

let all_causes =
  [ Fallback; Neutralize; Scan; Epoch; Churn; Bag_seal; Unattributed ]

type attribution = {
  attr_threshold : int;
  attr_total : int;
  attr_counts : (cause * int) list;
}

let attributed_pct a =
  if a.attr_total = 0 then 0.
  else begin
    let un =
      try List.assoc Unattributed a.attr_counts with Not_found -> 0
    in
    float_of_int (a.attr_total - un) /. float_of_int a.attr_total *. 100.
  end

let attribute_spikes (es : entry array) ~outliers ~threshold =
  (* Join each outlier's window [start, start + dur] against the event
     stream. Fallback episodes are global spans (the whole scheme is in
     robust mode, every op pays); scans are same-pid spans (the op's own
     process was inside a scan); neutralization hits its victim ([a]);
     epoch adoption ([Ev_quiesce b=1]), churn ([Ev_unregister]/[Ev_adopt])
     and bag seals are same-pid instants. When several causes overlap one
     window, the first in priority order (the list below) wins — fallback
     dwell subsumes the scans it runs. *)
  let end_of_trace =
    Array.fold_left (fun acc (e : entry) -> max acc e.Tracer.time) 0 es
  in
  let fb_spans =
    List.map
      (fun ep ->
        (ep.enter_time, match ep.exit_time with Some t -> t | None -> end_of_trace))
      (fallback_episodes es)
  in
  (* Same-pid scan spans: pair begin/end per process in timeline order. *)
  let open_scan : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let scan_spans = ref [] in
  let inst_neutralize = ref [] (* (victim, time) *)
  and inst_epoch = ref [] (* (pid, time) *)
  and inst_churn = ref []
  and inst_seal = ref [] in
  Array.iter
    (fun (e : entry) ->
      match e.Tracer.ev with
      | RI.Ev_scan_begin -> Hashtbl.replace open_scan e.Tracer.pid e.Tracer.time
      | RI.Ev_scan_end ->
        (match Hashtbl.find_opt open_scan e.Tracer.pid with
        | Some t0 ->
          Hashtbl.remove open_scan e.Tracer.pid;
          scan_spans := (e.Tracer.pid, t0, e.Tracer.time) :: !scan_spans
        | None ->
          (* begin fell out of the ring: span from trace start *)
          scan_spans := (e.Tracer.pid, 0, e.Tracer.time) :: !scan_spans)
      | RI.Ev_neutralize ->
        inst_neutralize := (e.Tracer.a, e.Tracer.time) :: !inst_neutralize
      | RI.Ev_quiesce when e.Tracer.b = 1 ->
        inst_epoch := (e.Tracer.pid, e.Tracer.time) :: !inst_epoch
      | RI.Ev_unregister | RI.Ev_adopt ->
        inst_churn := (e.Tracer.pid, e.Tracer.time) :: !inst_churn
      | RI.Ev_bag_seal ->
        inst_seal := (e.Tracer.pid, e.Tracer.time) :: !inst_seal
      | _ -> ())
    es;
  Hashtbl.iter
    (fun pid t0 -> scan_spans := (pid, t0, end_of_trace) :: !scan_spans)
    open_scan;
  let scan_spans = !scan_spans in
  let overlaps ~t0 ~t1 ~lo ~hi = t0 <= hi && lo <= t1 in
  let cause_of (o : Latency.outlier) =
    let lo = o.Latency.o_start and hi = o.Latency.o_start + o.Latency.o_dur in
    if List.exists (fun (t0, t1) -> overlaps ~t0 ~t1 ~lo ~hi) fb_spans then
      Fallback
    else if
      List.exists (fun (p, t) -> p = o.Latency.o_pid && lo <= t && t <= hi)
        !inst_neutralize
    then Neutralize
    else if
      List.exists
        (fun (p, t0, t1) -> p = o.Latency.o_pid && overlaps ~t0 ~t1 ~lo ~hi)
        scan_spans
    then Scan
    else if
      List.exists (fun (p, t) -> p = o.Latency.o_pid && lo <= t && t <= hi)
        !inst_epoch
    then Epoch
    else if
      List.exists (fun (p, t) -> p = o.Latency.o_pid && lo <= t && t <= hi)
        !inst_churn
    then Churn
    else if
      List.exists (fun (p, t) -> p = o.Latency.o_pid && lo <= t && t <= hi)
        !inst_seal
    then Bag_seal
    else Unattributed
  in
  let tally = Hashtbl.create 8 in
  let total = ref 0 in
  List.iter
    (fun (o : Latency.outlier) ->
      if o.Latency.o_dur >= threshold then begin
        incr total;
        let c = cause_of o in
        Hashtbl.replace tally c
          (1 + Option.value ~default:0 (Hashtbl.find_opt tally c))
      end)
    outliers;
  {
    attr_threshold = threshold;
    attr_total = !total;
    attr_counts =
      List.map
        (fun c -> (c, Option.value ~default:0 (Hashtbl.find_opt tally c)))
        all_causes;
  }

let epoch_lags (es : entry array) =
  (* For each epoch advance, collect the first adopting quiesce of each
     process before the next advance. *)
  let lags = ref [] and n = ref 0 in
  let advance_time = ref (-1) in
  let adopted : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  Array.iter
    (fun (e : entry) ->
      match e.Tracer.ev with
      | RI.Ev_epoch_advance ->
        advance_time := e.Tracer.time;
        Hashtbl.reset adopted
      | RI.Ev_quiesce when e.Tracer.b = 1 && !advance_time >= 0 ->
        if not (Hashtbl.mem adopted e.Tracer.pid) then begin
          Hashtbl.replace adopted e.Tracer.pid ();
          if e.Tracer.time >= !advance_time then begin
            lags := (e.Tracer.time - !advance_time) :: !lags;
            incr n
          end
        end
      | _ -> ())
    es;
  let arr = Array.make !n 0 in
  let i = ref (!n - 1) in
  List.iter
    (fun l ->
      arr.(!i) <- l;
      decr i)
    !lags;
  arr
