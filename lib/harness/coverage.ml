(* Coverage-guided seed scheduling over the observatory's event stream.

   The trace events the schemes already emit (Runtime_intf.event) double as
   a coverage signal: a schedule that reaches a rare scheme transition —
   QSense fallback entry, orphan adoption, eviction-seize, bag sealing — is
   worth more corpus slots than yet another uniform-random schedule that
   never leaves the fast path. [grow] explores a frontier of candidate
   cases through the worker pool, and cases that hit rare events get their
   seed neighborhoods (nearby seeds, PCT-depth mutations, bag-capacity
   flips) enqueued at high priority, DEBRA-grade rarity first.

   Everything is deterministic: pool results come back in input order, the
   frontier is processed in that order, and mutations are pure functions of
   the case line — so the same base list grows the same corpus regardless
   of worker timing or job count. *)

module RI = Qs_intf.Runtime_intf

let n_events = 15

(* Keep [n_events] in sync with Runtime_intf.event. *)
let () =
  assert (RI.event_of_index (n_events - 1) <> None);
  assert (RI.event_of_index n_events = None)

type t = { counts : int array }

let create () = { counts = Array.make n_events 0 }

(* The sink bumps a per-event counter: ints only, no allocation per
   record, so installing it is as schedule-neutral as any other sink. *)
let sink cov : RI.sink =
  { record =
      (fun ~pid:_ ~time:_ ~ev ~a:_ ~b:_ ->
        let i = RI.event_index ev in
        cov.counts.(i) <- cov.counts.(i) + 1) }

let count cov ev = cov.counts.(RI.event_index ev)
let covers cov i = cov.counts.(i) > 0

(* The rare-event classes the corpus must keep witnesses for: each marks a
   scheme transition whose safety argument is non-trivial (fallback entry:
   QSense's HP switch; evict: §5.2 seizure; unregister/adopt: dynamic
   membership and orphan limbo; bag_seal: batched-reclamation stamping;
   neutralize: DEBRA+ restart delivery at a poisoned victim). *)
let rare_classes =
  [ ("fallback_enter", RI.event_index RI.Ev_fallback_enter);
    ("evict", RI.event_index RI.Ev_evict);
    ("unregister", RI.event_index RI.Ev_unregister);
    ("adopt", RI.event_index RI.Ev_adopt);
    ("bag_seal", RI.event_index RI.Ev_bag_seal);
    ("neutralize", RI.event_index RI.Ev_neutralize) ]

let rare_mask cov =
  List.fold_left
    (fun m (_, i) -> if covers cov i then m lor (1 lsl i) else m)
    0 rare_classes

let run_covered (c : Explorer.case) : Explorer.outcome * t =
  let cov = create () in
  let o = Explorer.run_one ~sink:(sink cov) c in
  (o, cov)

(* --- mutation: the seed neighborhood of an interesting case -------------- *)

(* Pure function of the case line; 131 is the stride Explorer.seeds uses,
   so neighborhoods interleave with, rather than shadow, the base sweep. *)
let mutations (c : Explorer.case) : Explorer.case list =
  let seeds =
    [ { c with Explorer.seed = c.Explorer.seed + 1 };
      { c with Explorer.seed = c.Explorer.seed + 131 };
      { c with Explorer.seed = (c.Explorer.seed * 3) + 7 } ]
  in
  let depth =
    (* PCT-style depth mutation: rare transitions often need one more (or
       one fewer) forced preemption than the schedule that found them. *)
    match c.Explorer.strategy with
    | Explorer.Fair -> [ { c with Explorer.strategy = Pct { depth = 3 } } ]
    | Explorer.Pct { depth } ->
      [ { c with Explorer.strategy = Pct { depth = depth + 1 } };
        { c with Explorer.strategy = Pct { depth = max 1 (depth - 1) } } ]
    | Explorer.Targeted _ -> []
  in
  let bags =
    (* Bag boundaries move with the block capacity; sealing needs blocks
       small enough to fill within the run's retire budget. *)
    match c.Explorer.bags with
    | 4 -> [ { c with Explorer.bags = 1 } ]
    | _ -> [ { c with Explorer.bags = 4 } ]
  in
  seeds @ depth @ bags

(* --- the growth loop ----------------------------------------------------- *)

type growth = {
  selected : (Explorer.case * t) list;  (* acceptance order *)
  class_counts : int array;  (* per event index, over selected cases *)
  runs : int;  (* run_one invocations spent *)
}

let grow ?jobs ?(batch = 32) ?(budget = 2_000) ?(quota = 4) ~target base =
  let seen = Hashtbl.create 256 in
  let fresh c =
    let line = Explorer.to_string c in
    if Hashtbl.mem seen line then false
    else begin
      Hashtbl.add seen line ();
      true
    end
  in
  (* Two frontiers: [high] holds seed neighborhoods of rare-event hitters,
     drained before the uniform [low] backlog. *)
  let high = Queue.create () in
  let low = Queue.create () in
  List.iter (fun c -> if fresh c then Queue.add c low) base;
  let selected = ref [] in
  let n_selected = ref 0 in
  let class_counts = Array.make n_events 0 in
  let runs = ref 0 in
  let under_quota cov =
    List.exists
      (fun (_, i) -> covers cov i && class_counts.(i) < quota)
      rare_classes
  in
  let take_batch () =
    let b = ref [] in
    let n = ref 0 in
    while !n < batch && not (Queue.is_empty high && Queue.is_empty low) do
      let q = if Queue.is_empty high then low else high in
      b := Queue.pop q :: !b;
      incr n
    done;
    List.rev !b
  in
  (* The corpus is not full until it is both big enough AND every rare
     event class has at least one witness: the deterministic base frontier
     lists its breadth cases before the rare-event shapes, and a plain
     size cutoff would fill up on breadth alone and never run them. Past
     the size target, only witnesses of still-missing classes are
     admitted, so the tail of the growth cannot bloat the corpus. *)
  let missing_rare () =
    List.exists (fun (_, i) -> class_counts.(i) = 0) rare_classes
  in
  let continue_ () =
    (!n_selected < target || missing_rare ()) && !runs < budget
  in
  let wanted cov =
    !n_selected < target
    || List.exists (fun (_, i) -> covers cov i && class_counts.(i) = 0) rare_classes
  in
  while continue_ () && not (Queue.is_empty high && Queue.is_empty low) do
    let cases = take_batch () in
    let results = Explorer_pool.map ?jobs run_covered (Array.of_list cases) in
    (* Input order keeps growth deterministic across job counts. *)
    List.iteri
      (fun i c ->
        incr runs;
        let (o : Explorer.outcome), cov = results.(i) in
        if
          Explorer.same_class o.Explorer.verdict Explorer.Pass
          && continue_ () && wanted cov
        then begin
          selected := (c, cov) :: !selected;
          incr n_selected;
          Array.iteri
            (fun j n -> if n > 0 then class_counts.(j) <- class_counts.(j) + 1)
            cov.counts;
          (* Seed neighborhoods of rare-event hitters jump the queue
             while their class still needs witnesses; once a class has
             its quota, further neighborhoods fall back behind the
             uniform backlog (breadth over depth). *)
          if rare_mask cov <> 0 then
            List.iter
              (fun m ->
                if fresh m then
                  Queue.add m (if under_quota cov then high else low))
              (mutations c)
        end)
      cases
  done;
  { selected = List.rev !selected; class_counts; runs = !runs }
