(* Michael-Scott queue tests: FIFO semantics against a model, per-producer
   order under concurrency, value conservation, no ABA despite recycling,
   reclamation accounting — per scheme. *)

open Qs_sim
module Q = Qs_ds.Msqueue.Make (Sim_runtime)

let sched ?(n_cores = 4) ?(seed = 1) () =
  Scheduler.create
    { (Scheduler.default_config ~n_cores ~seed) with
      rooster_interval = Some 2_000;
      rooster_oversleep = 50 }

let queue_cfg ?(scheme = Qs_smr.Scheme.Qsense) ?(n = 4) () =
  let base = Qs_ds.Set_intf.default_config ~n_processes:n ~scheme in
  { base with
    smr =
      { base.smr with
        quiescence_threshold = 8;
        scan_threshold = 8;
        rooster_interval = 2_000;
        epsilon = 300 } }

let test_fifo () =
  let s = sched ~n_cores:1 () in
  let q = Q.create (queue_cfg ~n:1 ()) in
  let ctx = Q.register q ~pid:0 in
  Scheduler.exec s ~pid:0 (fun () ->
      Alcotest.(check (option int)) "empty" None (Q.dequeue ctx);
      for i = 1 to 20 do
        Q.enqueue ctx i
      done;
      for i = 1 to 20 do
        Alcotest.(check (option int)) "fifo order" (Some i) (Q.dequeue ctx)
      done;
      Alcotest.(check (option int)) "empty again" None (Q.dequeue ctx);
      Q.validate ctx)

let test_sequential_model () =
  let s = sched ~n_cores:1 () in
  let q = Q.create (queue_cfg ~n:1 ()) in
  let ctx = Q.register q ~pid:0 in
  let prng = Qs_util.Prng.create ~seed:3 in
  Scheduler.exec s ~pid:0 (fun () ->
      let model = Queue.create () in
      for i = 1 to 3_000 do
        if Qs_util.Prng.percent prng < 55 then begin
          Q.enqueue ctx i;
          Queue.push i model
        end
        else begin
          let expected = Queue.take_opt model in
          Alcotest.(check (option int)) "dequeue matches model" expected (Q.dequeue ctx)
        end
      done;
      Alcotest.(check (list int)) "contents" (List.of_seq (Queue.to_seq model))
        (Q.to_list ctx);
      Q.validate ctx);
  Alcotest.(check int) "no violations" 0 (Q.violations q)

(* Per-producer FIFO: the subsequence of dequeued values originating from
   one producer must appear in production order. *)
let concurrent_run ~scheme ~seed =
  let n = 4 and per_worker = 1_200 in
  let s = sched ~n_cores:n ~seed () in
  let q = Q.create (queue_cfg ~scheme ~n ()) in
  let ctxs = Array.init n (fun pid -> Q.register q ~pid) in
  let dequeued = Array.init n (fun _ -> ref []) in
  let enqueued = Array.make n 0 in
  for pid = 0 to n - 1 do
    Scheduler.spawn s ~pid (fun () ->
        let prng = Qs_util.Prng.create ~seed:(seed + (31 * pid)) in
        let ctx = ctxs.(pid) in
        for _ = 1 to per_worker do
          if Qs_util.Prng.percent prng < 55 then begin
            enqueued.(pid) <- enqueued.(pid) + 1;
            Q.enqueue ctx ((pid * 1_000_000) + enqueued.(pid))
          end
          else
            match Q.dequeue ctx with
            | Some v -> dequeued.(pid) := v :: !(dequeued.(pid))
            | None -> ()
        done)
  done;
  Scheduler.run_all s;
  (match Scheduler.failures s with
  | [] -> ()
  | (pid, e) :: _ -> Alcotest.failf "worker %d died: %s" pid (Printexc.to_string e));
  Alcotest.(check int) "no use-after-free" 0 (Q.violations q);
  let remaining = Scheduler.exec s ~pid:0 (fun () -> Q.validate ctxs.(0); Q.to_list ctxs.(0)) in
  let all_out =
    Array.fold_left (fun acc l -> List.rev_append !l acc) remaining dequeued
  in
  (* conservation: every enqueued value leaves exactly once or remains *)
  Alcotest.(check int) "conservation"
    (Array.fold_left ( + ) 0 enqueued)
    (List.length all_out);
  Alcotest.(check int) "no duplicates (no ABA)"
    (List.length (List.sort_uniq compare all_out))
    (List.length all_out);
  (* per-producer order: for each consumer's log, values from one producer
     ascend; and the remaining chain also ascends per producer *)
  let check_producer_order label values =
    let last = Hashtbl.create 8 in
    List.iter
      (fun v ->
        let producer = v / 1_000_000 in
        let seq = v mod 1_000_000 in
        (match Hashtbl.find_opt last producer with
        | Some prev when prev >= seq ->
          Alcotest.failf "%s: producer %d out of order (%d then %d)" label
            producer prev seq
        | _ -> ());
        Hashtbl.replace last producer seq)
      values
  in
  Array.iteri
    (fun pid l ->
      check_producer_order (Printf.sprintf "consumer %d" pid) (List.rev !l))
    dequeued;
  check_producer_order "remaining chain" remaining;
  (* teardown accounting *)
  Scheduler.exec s ~pid:0 (fun () -> Array.iter Q.flush ctxs);
  let r = Q.report q in
  Alcotest.(check int) "no double frees" 0 r.double_frees;
  if scheme <> Qs_smr.Scheme.None_ then
    (* outstanding = nodes still in the chain + the dummy *)
    Alcotest.(check int) "outstanding = remaining + dummy"
      (List.length remaining + 1)
      r.outstanding

let test_concurrent scheme () =
  concurrent_run ~scheme ~seed:5;
  concurrent_run ~scheme ~seed:91

(* Neutralization signals land mid-operation ([Neutralize_at], a dense
   plan on every worker); workers retry aborted ops. An aborted enqueue
   may or may not have linked its node, so values are not conserved, but
   the arena must still balance: an enqueue aborted before its linking CAS
   returns its node to the arena, and a dequeue past its head swing has
   retired the old dummy, so after the flush every outstanding node is in
   the chain or is the dummy. *)
let neutralized_run ~scheme ~seed =
  let n = 4 and per_worker = 600 and gap = 1_500 in
  let s = sched ~n_cores:n ~seed () in
  Scheduler.inject s
    (List.init n (fun pid ->
         List.init 60 (fun i ->
             Scheduler.Neutralize_at { pid; at = ((i + 1) * gap) + (pid * 97) }))
    |> List.concat);
  let q = Q.create (queue_cfg ~scheme ~n ()) in
  let ctxs = Array.init n (fun pid -> Q.register q ~pid) in
  let aborted_enqueues = ref 0 in
  for pid = 0 to n - 1 do
    Scheduler.spawn s ~pid (fun () ->
        let prng = Qs_util.Prng.create ~seed:(seed + (31 * pid)) in
        let ctx = ctxs.(pid) in
        let rec retry op =
          Scheduler.set_neutralizable s ~pid true;
          match op () with
          | () -> Scheduler.set_neutralizable s ~pid false
          | exception Qs_intf.Runtime_intf.Neutralized ->
            Scheduler.set_neutralizable s ~pid false;
            retry op
        in
        for i = 1 to per_worker do
          if Qs_util.Prng.percent prng < 55 then
            retry (fun () ->
                try Q.enqueue ctx i
                with Qs_intf.Runtime_intf.Neutralized as e ->
                  incr aborted_enqueues;
                  raise e)
          else retry (fun () -> ignore (Q.dequeue ctx))
        done)
  done;
  Scheduler.run_all s;
  (match Scheduler.failures s with
  | [] -> ()
  | (pid, e) :: _ -> Alcotest.failf "worker %d died: %s" pid (Printexc.to_string e));
  Alcotest.(check bool) "enqueues were aborted" true (!aborted_enqueues > 0);
  Alcotest.(check int) "no use-after-free" 0 (Q.violations q);
  let remaining =
    Scheduler.exec s ~pid:0 (fun () -> Q.validate ctxs.(0); Q.length ctxs.(0))
  in
  Scheduler.exec s ~pid:0 (fun () -> Array.iter Q.flush ctxs);
  let r = Q.report q in
  Alcotest.(check int) "no double frees" 0 r.double_frees;
  Alcotest.(check int) "outstanding = remaining + dummy" (remaining + 1)
    r.outstanding

let test_neutralized scheme () =
  neutralized_run ~scheme ~seed:13;
  neutralized_run ~scheme ~seed:58

let suite =
  [ Alcotest.test_case "fifo order" `Quick test_fifo;
    Alcotest.test_case "sequential model" `Quick test_sequential_model;
    Alcotest.test_case "concurrent qsense" `Quick (test_concurrent Qs_smr.Scheme.Qsense);
    Alcotest.test_case "concurrent hp" `Quick (test_concurrent Qs_smr.Scheme.Hp);
    Alcotest.test_case "concurrent qsbr" `Quick (test_concurrent Qs_smr.Scheme.Qsbr);
    Alcotest.test_case "concurrent ebr" `Quick (test_concurrent Qs_smr.Scheme.Ebr);
    Alcotest.test_case "concurrent cadence" `Quick (test_concurrent Qs_smr.Scheme.Cadence)
  ]
  @ List.map
      (fun scheme ->
        Alcotest.test_case
          (Printf.sprintf "neutralized enqueue/dequeue %s"
             (Qs_smr.Scheme.to_string scheme))
          `Quick (test_neutralized scheme))
      Qs_smr.Scheme.[ Qsense; Hp; Qsbr; Ebr; Cadence; Debra_plus; Hyaline ]
